package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	gort "runtime"
	"sync"
	"time"

	"transproc/internal/activity"
	"transproc/internal/federation"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler/policy"
	"transproc/internal/serve"
	"transproc/internal/store"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

// micro runs the direct-call measurements: one layer at a time, called
// from outside through its public functions, with no engine around it.
// They do not depend on the workload, so one invocation of the
// benchmark runs them once and every traced workload reports them.
func micro(o *options) (map[string]float64, []string, error) {
	out := map[string]float64{}
	var notes []string
	dir := filepath.Join(o.dataDir, "micro")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	steps := []func(*options, string, map[string]float64) (string, error){
		microPolicy, microWAL, microStore, microSubsystem, microWire, microServe,
	}
	for _, step := range steps {
		note, err := step(o, dir, out)
		if err != nil {
			return nil, nil, err
		}
		if note != "" {
			notes = append(notes, note)
		}
	}
	return out, notes, nil
}

// timeEach returns the median duration of n calls of f in microseconds.
func timeEach(n int, f func(i int) error) (float64, error) {
	ds := make([]float64, n)
	for i := range ds {
		start := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		ds[i] = us(time.Since(start))
	}
	return median(ds), nil
}

// polView is the policy.View of the decision microbenchmark: every
// process of the history is Done, a window of running ones has
// instances and nothing in flight.
type polView struct {
	ids     []process.ID
	arrival map[process.ID]int
	running map[process.ID]*process.Instance
}

func (v *polView) Procs() []process.ID { return v.ids }
func (v *polView) Phase(id process.ID) policy.Phase {
	if _, ok := v.running[id]; ok {
		return policy.Running
	}
	return policy.Done
}
func (v *polView) Arrival(id process.ID) int                  { return v.arrival[id] }
func (v *polView) Instance(id process.ID) *process.Instance   { return v.running[id] }
func (v *polView) RecoverySteps(id process.ID) []process.Step { return nil }
func (v *polView) InFlight(id process.ID) []string            { return nil }

// policyWindow is the number of running processes in the decision
// microbenchmark — the runtime's admission cap.
const policyWindow = engineWorkers

// decideAt builds a policy.State whose history holds h events of
// terminated processes (their invocations plus one Terminate each, as
// the runtime leaves them) and returns the median cost and the
// allocations of one AppendEvent + MayDispatch on it.
func decideAt(seed int64, h, iters int) (usPerDecision, allocs float64, err error) {
	g, err := generate(baseProfile(h/5+policyWindow, 0.3, 0, 0), seed, "micro-policy", h)
	if err != nil {
		return 0, 0, err
	}
	table, err := g.w.Fed.ConflictTable()
	if err != nil {
		return 0, 0, err
	}
	st := policy.New(table, policy.Config{Mode: policy.PRED})
	v := &polView{arrival: map[process.ID]int{}, running: map[process.ID]*process.Instance{}}
	var seq int64
	next := 0
	for ; next < len(g.defs) && len(st.Events()) < h; next++ {
		p := g.defs[next]
		v.ids = append(v.ids, p.ID)
		v.arrival[p.ID] = next
		for _, a := range p.Activities() {
			seq++
			st.AppendEvent(&policy.Event{Seq: seq, Proc: p.ID, Local: a.Local, Service: a.Service, Kind: a.Kind, Typ: schedule.Invoke})
		}
		seq++
		st.AppendEvent(&policy.Event{Seq: seq, Proc: p.ID, Typ: schedule.Terminate, Committed: true})
	}
	if len(g.defs)-next < policyWindow {
		return 0, 0, fmt.Errorf("policy history of %d events used up all %d processes", h, len(g.defs))
	}
	// The window: running processes that each own one conflicting
	// activity to ask about (a commuting service returns before the
	// forced-order machinery, which is not the cost of interest).
	type probe struct {
		p   *process.Process
		hot *process.Activity
	}
	var window []probe
	for _, p := range g.defs[next:] {
		if len(window) == policyWindow {
			break
		}
		for _, a := range p.Activities() {
			if table.Conflicts(a.Service, a.Service) {
				v.ids = append(v.ids, p.ID)
				v.arrival[p.ID] = len(v.ids)
				v.running[p.ID] = process.NewInstance(p)
				window = append(window, probe{p, a})
				break
			}
		}
	}
	if len(window) < 2 {
		return 0, 0, fmt.Errorf("no running process with a conflicting activity")
	}
	var ms gort.MemStats
	gort.ReadMemStats(&ms)
	before := ms.Mallocs
	usPerDecision, err = timeEach(iters, func(i int) error {
		w, q := window[i%len(window)], window[(i+1)%len(window)]
		first := w.p.Activities()[0]
		seq++
		st.AppendEvent(&policy.Event{Seq: seq, Proc: w.p.ID, Local: first.Local, Service: first.Service, Kind: first.Kind, Typ: schedule.Invoke})
		st.MayDispatch(v, q.p.ID, q.hot)
		return nil
	})
	gort.ReadMemStats(&ms)
	return usPerDecision, float64(ms.Mallocs-before) / float64(iters), err
}

func microPolicy(o *options, _ string, out map[string]float64) (string, error) {
	for _, h := range []struct {
		key string
		n   int
	}{{"policy.decide_us_h100", 100}, {"policy.decide_us_h1k", 1000}, {"policy.decide_us_h10k", 10000}} {
		// a decision at 10,000 events costs about 0.1 s, so it gets fewer
		iters := 40
		if h.n >= 10000 {
			iters = 8
		}
		d, allocs, err := decideAt(o.seed, h.n/o.scale, iters)
		if err != nil {
			return "", fmt.Errorf("%s: %w", h.key, err)
		}
		out[h.key] = d
		if h.n == 1000 {
			out["policy.decide_allocs_h1k"] = allocs
		}
	}
	return "", nil
}

func sampleRecord(i int) wal.Record {
	return wal.Record{Type: wal.RecOutcome, Proc: fmt.Sprintf("W%d", i), Local: 1 + i%7, Service: "c0_1", Subsystem: "rm0", Tx: int64(i + 1), Outcome: "committed"}
}

func microWAL(o *options, dir string, out map[string]float64) (string, error) {
	mem := wal.NewMemLog()
	start := time.Now()
	const memAppends = 20000
	for i := 0; i < memAppends; i++ {
		if _, err := mem.Append(sampleRecord(i)); err != nil {
			return "", err
		}
	}
	out["wal.append_mem_us"] = us(time.Since(start)) / memAppends

	flog, err := wal.OpenFile(filepath.Join(dir, "fsync.log"), true)
	if err != nil {
		return "", err
	}
	defer flog.Close()
	if out["wal.append_fsync_us"], err = timeEach(80/o.scale+8, func(i int) error {
		_, err := flog.Append(sampleRecord(i))
		return err
	}); err != nil {
		return "", err
	}

	glog, err := wal.OpenFile(filepath.Join(dir, "group.log"), true)
	if err != nil {
		return "", err
	}
	defer glog.Close()
	ga := wal.NewGroupAppender(glog, groupCommit, nil)
	perWriter := 40/o.scale + 4
	var wg sync.WaitGroup
	errs := make([]error, engineWorkers)
	start = time.Now()
	for w := 0; w < engineWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter && errs[w] == nil; i++ {
				_, errs[w] = ga.Append(sampleRecord(w*perWriter + i))
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return "", err
		}
	}
	out["wal.append_group_us"] = us(time.Since(start)) / float64(engineWorkers*perWriter)
	return fmt.Sprintf("wal.append_group_us is wall time per record with %d concurrent appenders and MaxBatch %d", engineWorkers, groupCommit.MaxBatch), nil
}

func microStore(o *options, dir string, out map[string]float64) (string, error) {
	const pool = 32
	fill := func(name string, keys int) (*store.Store, string, float64, error) {
		path := filepath.Join(dir, name)
		st, err := store.OpenFile(path, store.Options{PoolPages: pool})
		if err != nil {
			return nil, "", 0, err
		}
		start := time.Now()
		for i := 0; i < keys; i++ {
			if err := st.Put(fmt.Sprintf("d/item-%06d", i), int64(i)); err != nil {
				st.Close()
				return nil, "", 0, err
			}
		}
		perPut := us(time.Since(start)) / float64(keys)
		if _, err := st.Flush(); err != nil {
			st.Close()
			return nil, "", 0, err
		}
		return st, path, perPut, nil
	}
	gets := func(st *store.Store, keys int) (float64, error) {
		rng := rand.New(rand.NewSource(o.seed))
		return timeEach(4000/o.scale+100, func(int) error {
			k := rng.Intn(keys)
			if v, ok := st.Get(fmt.Sprintf("d/item-%06d", k)); !ok || v != int64(k) {
				return fmt.Errorf("store lost key %d", k)
			}
			return nil
		})
	}
	pages := func(path string) int64 {
		fi, err := os.Stat(path)
		if err != nil {
			return 0
		}
		return fi.Size() / store.PageSize
	}
	fitKeys, bigKeys := 2000/o.scale, 20000/o.scale
	fit, fitPath, perPut, err := fill("fit.pages", fitKeys)
	if err != nil {
		return "", err
	}
	defer fit.Close()
	out["store.put_us"] = perPut
	if out["store.get_hit_us"], err = gets(fit, fitKeys); err != nil {
		return "", err
	}
	big, bigPath, _, err := fill("big.pages", bigKeys)
	if err != nil {
		return "", err
	}
	defer big.Close()
	if out["store.get_miss_us"], err = gets(big, bigKeys); err != nil {
		return "", err
	}
	out["store.bytes_per_key"] = float64(pages(bigPath)*store.PageSize) / float64(bigKeys)
	return fmt.Sprintf("store: pool of %d pages; get_hit on %d keys in %d pages (fits), get_miss on %d keys in %d pages (%.1f× the pool)",
		pool, fitKeys, pages(fitPath), bigKeys, pages(bigPath), float64(pages(bigPath))/pool), nil
}

func microSubsystem(o *options, _ string, out map[string]float64) (string, error) {
	g, err := generate(baseProfile(8, 0.3, 0, 0), o.seed, "micro-subsystem", 0)
	if err != nil {
		return "", err
	}
	table, err := g.w.Fed.ConflictTable()
	if err != nil {
		return "", err
	}
	var svc string
	for _, name := range g.w.Pool.Retriable {
		if !table.Conflicts(name, name) {
			svc = name
			break
		}
	}
	if svc == "" {
		return "", fmt.Errorf("no commuting retriable service to invoke")
	}
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		res, err := g.w.Fed.Invoke("M1", svc, subsystem.AutoCommit)
		if err != nil || res.Outcome != activity.Committed {
			return "", fmt.Errorf("invoke %s: %v", svc, err)
		}
	}
	out["subsystem.invoke_us"] = us(time.Since(start)) / n
	return "", nil
}

func microWire(o *options, _ string, out map[string]float64) (string, error) {
	f := &federation.Frame{
		Type: federation.MsgDispatch, Kind: uint8(activity.Compensatable), Node: 2, Epoch: 1, Req: 77,
		Local: 3, Tx: 1234, Stamp: 99999, Proc: "W17+r1", Origin: "W17", Service: "c2_3", Subsystem: "rm2",
	}
	const n = 50000
	var payload []byte
	start := time.Now()
	for i := 0; i < n; i++ {
		payload = federation.EncodePayload(f)
	}
	out["fed.wire_encode_ns"] = float64(time.Since(start).Nanoseconds()) / n
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, err := federation.DecodePayload(payload); err != nil {
			return "", err
		}
	}
	out["fed.wire_decode_ns"] = float64(time.Since(start).Nanoseconds()) / n

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	echoDone := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoDone <- err
			return
		}
		defer conn.Close()
		for {
			fr, err := federation.ReadFrame(conn)
			if err != nil {
				echoDone <- nil // client hung up
				return
			}
			fr.Type = federation.MsgResponse
			if err := federation.WriteFrame(conn, fr); err != nil {
				echoDone <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return "", err
	}
	rtt, err := timeEach(3000/o.scale+50, func(int) error {
		if err := federation.WriteFrame(conn, f); err != nil {
			return err
		}
		_, err := federation.ReadFrame(conn)
		return err
	})
	conn.Close()
	if echoErr := <-echoDone; err == nil {
		err = echoErr
	}
	out["fed.rpc_rtt_us"] = rtt
	return "", err
}

func microServe(o *options, dir string, out map[string]float64) (string, error) {
	n := 120/o.scale + 8
	g, err := generate(baseProfile(n, 0.3, 0, 0), o.seed, "micro-serve", 0)
	if err != nil {
		return "", err
	}
	srv, err := serve.Open(g.w.Fed, serve.Config{Dir: filepath.Join(dir, "serve"), GroupCommit: groupCommit})
	if err != nil {
		return "", err
	}
	defer srv.Close()
	handler := srv.Handler()
	if out["serve.admit_inproc_us"], err = timeEach(n, func(i int) error {
		body, err := submitBody(g.defs[i])
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/processes", bytes.NewReader(body)))
		if rec.Code == http.StatusTooManyRequests {
			srv.WaitIdle(10 * time.Second)
			return nil
		}
		if rec.Code != http.StatusAccepted {
			return fmt.Errorf("in-process admit: status %d: %s", rec.Code, rec.Body.String())
		}
		return nil
	}); err != nil {
		return "", err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	client := oneConnClient()
	defer client.CloseIdleConnections()
	if out["serve.http_rtt_us"], err = timeEach(1000/o.scale+50, func(int) error {
		return get(client, "http://"+addr+"/healthz", nil)
	}); err != nil {
		return "", err
	}
	if !srv.WaitIdle(30 * time.Second) {
		return "", fmt.Errorf("micro serve: not idle")
	}
	_, err = srv.Drain(context.Background())
	return "", err
}
