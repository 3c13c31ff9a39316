package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"transproc/internal/fault"
	"transproc/internal/federation"
	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/workload"
)

// runFed implements "tpsim fed": a multi-node federated run as a
// command.
//
//	tpsim fed [-metrics[=text|json]] [-nodes N] [-procs P] [-seed S] [-lease D] [-heartbeat D]
//	tpsim fed -benchhub [-procs P] [-seed S] [-reps R] [-json]
//
// The default form partitions a seeded workload across N scheduler
// nodes (hub + localhost TCP), runs it, stitches the per-node WALs by
// hub stamp and verifies the combined schedule is prefix-reducible.
// -lease/-heartbeat enable lease-based membership: nodes heartbeat the
// hub and silent nodes are declared dead by lease expiry instead of an
// explicit death report. -metrics dumps the run's registry: the shared
// driver's counters and decision trace as the hub hosted them, next to
// the fed.* wire counters.
// The federation and hub-kill batteries are `tpsim battery fed|hub`;
// node-count throughput is the layered benchmark's fed-3node workload
// (`go run -C bench . -workload fed-3node`, E16).
// -benchhub measures hub-kill MTTR (detection + journal reopen +
// recovery + node reattach) per node count — BENCH_fed_hub.json (E18).
func runFed(args []string, metricsFormat string) error {
	fs := flag.NewFlagSet("fed", flag.ContinueOnError)
	nodes := fs.Int("nodes", 2, "scheduler node count")
	procs := fs.Int("procs", 24, "process count")
	seed := fs.Int64("seed", 1, "workload seed")
	lease := fs.Duration("lease", 0, "lease TTL for membership (0 = explicit death reports)")
	heartbeat := fs.Duration("heartbeat", 0, "node heartbeat interval (default lease/4 when -lease is set)")
	benchHub := fs.Bool("benchhub", false, "measure hub-kill MTTR per node count")
	reps := fs.Int("reps", 3, "benchhub: repetitions per node count")
	asJSON := fs.Bool("json", false, "emit results as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *benchHub {
		return runFedBenchHub(*procs, *seed, *reps, *asJSON)
	}

	var reg *metrics.Registry
	if metricsFormat != "" {
		reg = metrics.New()
	}
	res, elapsed, err := fedRun(*procs, *seed, *nodes, *lease, *heartbeat, reg)
	if err != nil {
		return err
	}
	committed, aborted := 0, 0
	for _, o := range res.Outcomes {
		if o.Committed {
			committed++
		} else if o.Aborted {
			aborted++
		}
	}
	fmt.Printf("fed: %d processes over %d nodes (%s): %d committed, %d aborted incarnations, stitched schedule PRED ✓\n",
		*procs, *nodes, elapsed.Round(time.Millisecond), committed, aborted)
	if reg != nil {
		return dumpSnapshot(reg, metricsFormat)
	}
	return nil
}

// fedRun executes one federated workload and verifies the stitched
// schedule, returning the run result and wall-clock duration.
// Lease-based membership is enabled when lease > 0 (heartbeat defaults
// to lease/4).
func fedRun(procs int, seed int64, nodes int, lease, heartbeat time.Duration, reg *metrics.Registry) (*federation.RunResult, time.Duration, error) {
	p := workload.DefaultProfile(seed)
	p.Processes = procs
	p.ConflictProb = 0.4
	p.PermFailureProb = 0
	p.TransientFailureProb = 0.05
	w, err := workload.Generate(p)
	if err != nil {
		return nil, 0, err
	}
	defs := make([]*process.Process, 0, len(w.Jobs))
	for _, j := range w.Jobs {
		defs = append(defs, j.Proc)
	}
	if lease > 0 && heartbeat <= 0 {
		heartbeat = lease / 4
	}
	c, err := federation.NewCluster(w.Fed, defs, federation.Config{
		Nodes: nodes, MaxRestarts: 8, Metrics: reg,
		LeaseTTL: lease, HeartbeatEvery: heartbeat,
	})
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()
	start := time.Now()
	res := c.Run()
	elapsed := time.Since(start)
	for i, nerr := range res.NodeErrs {
		if nerr != nil {
			return nil, 0, fmt.Errorf("node %d: %w", i, nerr)
		}
	}
	recs, err := c.Stitched()
	if err != nil {
		return nil, 0, err
	}
	table, err := w.Fed.ConflictTable()
	if err != nil {
		return nil, 0, err
	}
	sched, err := fault.ScheduleFromWAL(table, defs, recs, len(recs))
	if err != nil {
		return nil, 0, err
	}
	ok, at, _, err := sched.PRED()
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return nil, 0, fmt.Errorf("stitched schedule not prefix-reducible (prefix %d)", at)
	}
	if doubt := w.Fed.InDoubt(); len(doubt) > 0 {
		return nil, 0, fmt.Errorf("in-doubt transactions after run: %v", doubt)
	}
	return res, elapsed, nil
}

// hubBenchPoint is one row of BENCH_fed_hub.json: hub-kill MTTR at one
// node count. MTTR spans the monitor's death detection, the journal +
// stitched-WAL reopen (recovery of every in-doubt transaction), and the
// rebind that lets nodes reattach; the workload rides through the
// outage, so TotalMillis also shows the end-to-end cost of the bounce.
type hubBenchPoint struct {
	Nodes          int     `json:"nodes"`
	Processes      int     `json:"processes"`
	Reps           int     `json:"reps"`
	Kills          int     `json:"kills"`
	MeanMTTRMillis float64 `json:"meanMTTRMillis"`
	MaxMTTRMillis  float64 `json:"maxMTTRMillis"`
	Reattached     int     `json:"reattached"`
	MeanRunMillis  float64 `json:"meanRunMillis"`
}

// runFedBenchHub sweeps node counts, arming one hub kill -9 per run in
// the dispatch window, and measures mean time to recovery: the span
// from the monitor detecting the dead hub to the reopened hub bound and
// accepting reattaches. Lease-based membership is on (the production
// configuration) so detection latency is part of the measurement.
func runFedBenchHub(procs int, seed int64, reps int, asJSON bool) error {
	var points []hubBenchPoint
	for _, nodes := range []int{2, 3, 4} {
		pt := hubBenchPoint{Nodes: nodes, Processes: procs, Reps: reps}
		var mttrTotal, runTotal time.Duration
		var maxMTTR time.Duration
		for r := 0; r < reps; r++ {
			mttr, elapsed, reattached, kills, err := fedHubBenchRun(procs, seed+int64(r), nodes)
			if err != nil {
				return fmt.Errorf("nodes=%d rep=%d: %w", nodes, r, err)
			}
			pt.Kills += kills
			pt.Reattached += reattached
			mttrTotal += mttr
			runTotal += elapsed
			if mttr > maxMTTR {
				maxMTTR = mttr
			}
		}
		if pt.Kills > 0 {
			pt.MeanMTTRMillis = float64(mttrTotal.Microseconds()) / 1000.0 / float64(pt.Kills)
		}
		pt.MaxMTTRMillis = float64(maxMTTR.Microseconds()) / 1000.0
		pt.MeanRunMillis = float64(runTotal.Microseconds()) / 1000.0 / float64(reps)
		points = append(points, pt)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(points)
	}
	fmt.Println("nodes  kills  meanMTTR(ms)  maxMTTR(ms)  reattached  run(ms)")
	for _, p := range points {
		fmt.Printf("%5d  %5d  %12.1f  %11.1f  %10d  %7.1f\n",
			p.Nodes, p.Kills, p.MeanMTTRMillis, p.MaxMTTRMillis, p.Reattached, p.MeanRunMillis)
	}
	return nil
}

// fedHubBenchRun is one MTTR sample: a federated workload with a hub
// kill armed mid-run, timed from OnHubDown to OnHubUp.
func fedHubBenchRun(procs int, seed int64, nodes int) (mttr, elapsed time.Duration, reattached, kills int, err error) {
	p := workload.DefaultProfile(seed)
	p.Processes = procs
	p.ConflictProb = 0.4
	p.PermFailureProb = 0
	p.TransientFailureProb = 0.05
	w, err := workload.Generate(p)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defs := make([]*process.Process, 0, len(w.Jobs))
	for _, j := range w.Jobs {
		defs = append(defs, j.Proc)
	}
	var mu sync.Mutex
	var down time.Time
	var downtime time.Duration
	c, err := federation.NewCluster(w.Fed, defs, federation.Config{
		Nodes: nodes, MaxRestarts: 8,
		LeaseTTL: 200 * time.Millisecond, HeartbeatEvery: 20 * time.Millisecond,
		HubInject: fault.NewInjector(fault.Plan{CrashAtPoint: federation.PointHubDispatch, CrashAtCount: 3}).Point,
		OnHubDown: func() {
			mu.Lock()
			down = time.Now()
			mu.Unlock()
		},
		OnHubUp: func() {
			mu.Lock()
			if !down.IsZero() {
				downtime += time.Since(down)
				down = time.Time{}
			}
			mu.Unlock()
		},
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer c.Close()
	start := time.Now()
	res := c.Run()
	elapsed = time.Since(start)
	if res.HubErr != nil {
		return 0, 0, 0, 0, fmt.Errorf("hub reopen: %w", res.HubErr)
	}
	for i, nerr := range res.NodeErrs {
		if nerr != nil {
			return 0, 0, 0, 0, fmt.Errorf("node %d: %w", i, nerr)
		}
	}
	mu.Lock()
	mttr = downtime
	mu.Unlock()
	return mttr, elapsed, res.Reattached, res.HubRestarts, nil
}
