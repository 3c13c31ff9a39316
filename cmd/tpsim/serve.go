package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"transproc/internal/scheduler/policy"
	"transproc/internal/serve"
	"transproc/internal/spec"
	"transproc/internal/subsystem"
)

// runServe implements "tpsim serve": the long-running ingestion
// service.
//
//	tpsim serve [-addr :8080] [-dir serve-data] [-world spec.json]
//	            [-mode M] [-queue N] [-batch N] [-tick D] [-drain D]
//	            [-ckpt N] [-compact] [-nosync] [-rate R] [-burst B]
//	            [-retries N]
//
// The default form opens (or re-opens, recovering) the data directory,
// builds the subsystem federation from -world (a spec file whose
// "subsystems" section declares the services; its "processes" section
// is ignored — processes arrive over HTTP) or from a built-in demo
// world, and serves the ingestion API until SIGINT/SIGTERM triggers a
// graceful drain, or until a drain through the API, after which it
// exits 0 as well. The serve crash battery is `tpsim battery serve`;
// load is measured by the layered benchmark's open-loop serve-open
// workload (`go run -C bench . -workload serve-open`, E17).
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dir := fs.String("dir", "serve-data", "data directory (wal.log + intake.journal)")
	world := fs.String("world", "", "spec file declaring the subsystem federation (default: built-in demo world)")
	modeName := fs.String("mode", "pred", "scheduling mode: pred, serial, conservative or cc-only")
	queue := fs.Int("queue", 64, "admission queue depth (shed with 429 beyond it)")
	batch := fs.Int("batch", 8, "max submissions per runner micro-batch")
	tick := fs.Duration("tick", 0, "real duration of one virtual service cost unit")
	drain := fs.Duration("drain", 10*time.Second, "graceful-drain deadline before parking queued work")
	ckpt := fs.Int("ckpt", 0, "fuzzy WAL checkpoint every N force-log appends (0 = only at drain)")
	compact := fs.Bool("compact", false, "compact the WAL after each checkpoint")
	nosync := fs.Bool("nosync", false, "disable per-append WAL fsync (testing only)")
	rate := fs.Float64("rate", 0, "per-tenant sustained admission rate (submissions/sec; 0 = unlimited)")
	burst := fs.Int("burst", 0, "per-tenant token-bucket burst (default 8 when -rate is set)")
	retries := fs.Int("retries", 0, "per-tenant retry budget for restarts and re-runs (default 64)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := policy.ParseMode(*modeName)
	if err != nil {
		return err
	}

	fedr, err := serveWorldFromFlag(*world)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		Dir: *dir, Mode: mode,
		QueueDepth: *queue, BatchMax: *batch, Tick: *tick,
		DrainTimeout: *drain, CheckpointEvery: *ckpt,
		CompactOnCheckpoint: *compact, NoSync: *nosync,
		Tenant: serve.TenantConfig{Rate: *rate, Burst: *burst, RetryBudget: *retries},
	}
	s, err := serve.Open(fedr, cfg)
	if err != nil {
		return err
	}
	if len(s.RecoveryReport().Fates) > 0 {
		fresh, reruns := s.Resumed()
		fmt.Printf("serve: recovered %s: %d parked submissions resumed, %d crash-interrupted re-run\n",
			*dir, fresh, reruns)
	}
	bound, err := s.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("serve: listening on %s (dir=%s mode=%s queue=%d batch=%d)\n", bound, *dir, mode, *queue, *batch)
	fmt.Printf("serve: try: curl -s localhost%s/healthz\n", portOf(bound))

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return awaitDrain(s, sig, *drain)
}

// awaitDrain waits for SIGINT/SIGTERM or for a drain through POST
// /v1/drain, whichever comes first, and drains on a signal. A server
// that is already closed has drained cleanly: that is no error.
func awaitDrain(s *serve.Server, sig <-chan os.Signal, deadline time.Duration) error {
	select {
	case got := <-sig:
		fmt.Printf("serve: %v: draining (deadline %s; second signal force-quits)\n", got, deadline)
		go func() {
			<-sig
			fmt.Fprintln(os.Stderr, "serve: force quit")
			os.Exit(1)
		}()
	case <-s.Drained():
	}
	rep, err := s.Drain(context.Background())
	if errors.Is(err, serve.ErrClosed) {
		fmt.Println("serve: drained through the API")
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Printf("serve: drained in %s: %d finished, %d parked for restart\n",
		rep.Elapsed.Round(time.Millisecond), rep.Finished, rep.Parked)
	return nil
}

// portOf extracts ":port" from a bound address for the quickstart line.
func portOf(addr string) string {
	if i := bytes.LastIndexByte([]byte(addr), ':'); i >= 0 {
		return addr[i:]
	}
	return addr
}

// serveWorldFromFlag builds the server's subsystem federation: from the
// subsystems section of a spec file, or the built-in demo world (a
// compensatable booking, a pivot charge and retriable confirmations
// across two subsystems — the world of the README quickstart).
func serveWorldFromFlag(path string) (*subsystem.Federation, error) {
	if path == "" {
		return spec.BuildFederation([]spec.SubsystemSpec{
			{Name: "hotel", Seed: 1, Services: []spec.ServiceSpec{
				{Name: "book", Kind: "compensatable", Writes: []string{"rooms"}, Cost: 1},
				{Name: "confirm", Kind: "retriable", Writes: []string{"mail"}, Cost: 1},
			}},
			{Name: "pay", Seed: 2, Services: []spec.ServiceSpec{
				{Name: "charge", Kind: "pivot", Writes: []string{"ledger"}, Cost: 1},
				{Name: "refund", Kind: "retriable", Writes: []string{"ledger"}, Cost: 1},
			}},
		})
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := spec.Parse(data)
	if err != nil {
		return nil, err
	}
	return spec.BuildFederation(f.Subsystems)
}
