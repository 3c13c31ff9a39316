// Package sim is the experiment harness: it runs scheduler comparisons,
// parameter sweeps and ablations over generated workloads and renders
// the resulting tables. The benchmark harness (bench_test.go) and the
// tpsim command both drive their experiments through this package so
// that reported numbers come from one code path.
package sim

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/workload"
)

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "%s\n", t.Title)
	var head strings.Builder
	for i, c := range t.Columns {
		fmt.Fprintf(&head, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w, strings.TrimRight(head.String(), " "))
	fmt.Fprintln(w, strings.Repeat("-", len(strings.TrimRight(head.String(), " "))))
	for _, r := range t.Rows {
		var line strings.Builder
		for i, c := range r {
			if i < len(widths) {
				fmt.Fprintf(&line, "%-*s  ", widths[i], c)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(line.String(), " "))
	}
}

// AllModes lists the scheduler modes in comparison order.
func AllModes() []scheduler.Mode {
	return []scheduler.Mode{
		scheduler.Serial, scheduler.Conservative, scheduler.CCOnly, scheduler.PRED,
	}
}

// RunMode regenerates the workload of the profile and executes it under
// the given configuration.
func RunMode(p workload.Profile, cfg scheduler.Config) (*scheduler.Result, error) {
	w, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	eng, err := scheduler.New(w.Fed, cfg)
	if err != nil {
		return nil, err
	}
	return eng.RunJobs(w.Jobs)
}

// CompareSchedulers runs the same workload under every mode (experiment
// B1): who wins on makespan/throughput, at what cost in compensations,
// deferrals and restarts. Each run carries its own metrics
// registry; the derived columns report the deferred-commit rate (share
// of successful activity commits that went through Lemma-1 deferral),
// the compensation rate (compensations per terminated process) and the
// mean time a finished process spent blocked on its deferred 2PC commit.
func CompareSchedulers(p workload.Profile, modes []scheduler.Mode) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("B1 scheduler comparison (procs=%d, conflict=%.2f, permFail=%.2f, seed=%d)",
			p.Processes, p.ConflictProb, p.PermFailureProb, p.Seed),
		Columns: []string{"mode", "makespan", "throughput", "committed", "aborted",
			"compens", "defer", "deferRate", "compRate", "meanBlocked",
			"2pc", "restarts", "retries", "policyWaits", "lockWaits", "PRED"},
	}
	for _, mode := range modes {
		reg := metrics.New()
		res, err := RunMode(p, scheduler.Config{Mode: mode, Metrics: reg})
		if err != nil {
			return nil, fmt.Errorf("sim: mode %v: %w", mode, err)
		}
		m := res.Metrics
		deferRate := 0.0
		if commits := reg.Counter(metrics.CommitsImmediate) + reg.Counter(metrics.CommitsDeferred); commits > 0 {
			deferRate = float64(reg.Counter(metrics.CommitsDeferred)) / float64(commits)
		}
		compRate := 0.0
		if done := m.CommittedProcs + m.AbortedProcs; done > 0 {
			compRate = float64(reg.Counter(metrics.CompensationsIssued)) / float64(done)
		}
		meanBlocked := reg.Hist(metrics.HistProcBlocked).Mean
		pred := "-"
		if mode != scheduler.CCOnly {
			ok, _, _, err := res.Schedule.PRED()
			if err != nil {
				return nil, err
			}
			pred = fmt.Sprintf("%v", ok)
		} else {
			ok, _, _, err := res.Schedule.PRED()
			if err == nil {
				pred = fmt.Sprintf("%v", ok)
			}
		}
		t.AddRow(mode.String(),
			fmt.Sprintf("%d", m.Makespan),
			fmt.Sprintf("%.2f", m.Throughput()),
			fmt.Sprintf("%d", m.CommittedProcs),
			fmt.Sprintf("%d", m.AbortedProcs),
			fmt.Sprintf("%d", m.Compensations),
			fmt.Sprintf("%d", m.Deferrals),
			fmt.Sprintf("%.2f", deferRate),
			fmt.Sprintf("%.2f", compRate),
			fmt.Sprintf("%.1f", meanBlocked),
			fmt.Sprintf("%d", m.TwoPCCommits),
			fmt.Sprintf("%d", m.Restarts),
			fmt.Sprintf("%d", m.Retries),
			fmt.Sprintf("%d", m.PolicyWaits),
			fmt.Sprintf("%d", m.LockWaits),
			pred)
	}
	return t, nil
}

// ConflictSweep sweeps the conflict probability for each mode and
// reports makespan (experiment B1's x-axis: where do the protocols
// cross over as contention rises).
func ConflictSweep(p workload.Profile, conflicts []float64, modes []scheduler.Mode) (*Table, error) {
	cols := []string{"conflictProb"}
	for _, m := range modes {
		cols = append(cols, m.String())
	}
	t := &Table{
		Title:   fmt.Sprintf("B1 makespan vs conflict rate (procs=%d, permFail=%.2f, seed=%d)", p.Processes, p.PermFailureProb, p.Seed),
		Columns: cols,
	}
	for _, c := range conflicts {
		row := []string{fmt.Sprintf("%.2f", c)}
		for _, mode := range modes {
			pc := p
			pc.ConflictProb = c
			res, err := RunMode(pc, scheduler.Config{Mode: mode})
			if err != nil {
				return nil, fmt.Errorf("sim: conflict %.2f mode %v: %w", c, mode, err)
			}
			row = append(row, fmt.Sprintf("%d", res.Metrics.Makespan))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// FailureSweep sweeps the permanent-failure probability and reports how
// many processes each mode still commits plus the recovery work spent.
func FailureSweep(p workload.Profile, failures []float64, modes []scheduler.Mode) (*Table, error) {
	cols := []string{"permFail"}
	for _, m := range modes {
		cols = append(cols, m.String()+":ok", m.String()+":comp")
	}
	t := &Table{
		Title:   fmt.Sprintf("B1 commits & compensations vs failure rate (procs=%d, conflict=%.2f)", p.Processes, p.ConflictProb),
		Columns: cols,
	}
	for _, f := range failures {
		row := []string{fmt.Sprintf("%.2f", f)}
		for _, mode := range modes {
			pf := p
			pf.PermFailureProb = f
			res, err := RunMode(pf, scheduler.Config{Mode: mode})
			if err != nil {
				return nil, fmt.Errorf("sim: failure %.2f mode %v: %w", f, mode, err)
			}
			row = append(row,
				fmt.Sprintf("%d", res.Metrics.CommittedProcs),
				fmt.Sprintf("%d", res.Metrics.Compensations))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// QuasiCommitAblation compares the PRED scheduler with and without the
// deferred-commit execution of non-compensatable activities
// (experiments B2/B3): BlockPivots makes pivots wait instead of
// executing into the prepared state.
func QuasiCommitAblation(p workload.Profile) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("B2/B3 deferred-commit ablation (procs=%d, conflict=%.2f, seed=%d)", p.Processes, p.ConflictProb, p.Seed),
		Columns: []string{"variant", "makespan", "throughput", "deferrals", "2pc", "policyWaits"},
	}
	for _, v := range []struct {
		name string
		cfg  scheduler.Config
	}{
		{"pred (defer via 2PC)", scheduler.Config{Mode: scheduler.PRED}},
		{"pred (block pivots)", scheduler.Config{Mode: scheduler.PRED, BlockPivots: true}},
	} {
		res, err := RunMode(p, v.cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: %s: %w", v.name, err)
		}
		m := res.Metrics
		t.AddRow(v.name,
			fmt.Sprintf("%d", m.Makespan),
			fmt.Sprintf("%.2f", m.Throughput()),
			fmt.Sprintf("%d", m.Deferrals),
			fmt.Sprintf("%d", m.TwoPCCommits),
			fmt.Sprintf("%d", m.PolicyWaits))
	}
	return t, nil
}

// FaultMatrix force-fails every compensatable and pivot service of a
// generated workload, one at a time, and reports the outcome of each
// run: how many processes committed/aborted, how many compensations
// ran, and whether the schedule stayed prefix-reducible and the
// subsystem state consistent (no in-doubt transactions, no negative
// items). It is a systematic fault-injection campaign over the failure
// surface.
func FaultMatrix(p workload.Profile, mode scheduler.Mode) (*Table, error) {
	base, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	services := append(append([]string(nil), base.Pool.Compensatable...), base.Pool.Pivot...)
	t := &Table{
		Title:   fmt.Sprintf("fault matrix (%v, procs=%d, conflict=%.2f, seed=%d)", mode, p.Processes, p.ConflictProb, p.Seed),
		Columns: []string{"failedService", "committed", "aborted", "compens", "restarts", "PRED", "consistent"},
	}
	for _, svc := range services {
		w, err := workload.Generate(p)
		if err != nil {
			return nil, err
		}
		if sub, ok := w.Fed.Owner(svc); ok {
			sub.ForceFail(svc, 1)
		}
		eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: mode})
		if err != nil {
			return nil, err
		}
		res, err := eng.RunJobs(w.Jobs)
		if err != nil {
			return nil, fmt.Errorf("sim: fault matrix %s: %w", svc, err)
		}
		ok, _, _, err := res.Schedule.PRED()
		if err != nil {
			return nil, err
		}
		consistent := len(w.Fed.InDoubt()) == 0
		for _, v := range w.Fed.Snapshot() {
			if v < 0 {
				consistent = false
			}
		}
		m := res.Metrics
		t.AddRow(svc,
			fmt.Sprintf("%d", m.CommittedProcs),
			fmt.Sprintf("%d", m.AbortedProcs),
			fmt.Sprintf("%d", m.Compensations),
			fmt.Sprintf("%d", m.Restarts),
			fmt.Sprintf("%v", ok),
			fmt.Sprintf("%v", consistent))
	}
	return t, nil
}

// Gantt renders a per-process timeline of a run over virtual time: one
// row per process with its active interval, outcome and restart count.
func Gantt(res *scheduler.Result, width int) string {
	if width < 20 {
		width = 60
	}
	span := res.Metrics.Makespan
	if span <= 0 {
		span = 1
	}
	ids := make([]string, 0, len(res.Outcomes))
	for id := range res.Outcomes {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	var b strings.Builder
	fmt.Fprintf(&b, "virtual time 0..%d (one column ≈ %.1f ticks)\n", span, float64(span)/float64(width))
	for _, id := range ids {
		o := res.Outcomes[process.ID(id)]
		start := int(o.Start * int64(width) / span)
		end := int(o.End * int64(width) / span)
		if end >= width {
			end = width - 1
		}
		if end < start {
			end = start
		}
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for i := start; i <= end; i++ {
			row[i] = '='
		}
		mark := "C"
		if o.Aborted {
			mark = "A"
		}
		fmt.Fprintf(&b, "%-10s |%s| %s", id, string(row), mark)
		if o.Restarts > 0 {
			fmt.Fprintf(&b, " (restart %d)", o.Restarts)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CrashRecoverySweep crashes the scheduler after varying numbers of
// completions and reports recovery outcomes (experiment B4).
func CrashRecoverySweep(p workload.Profile, crashPoints []int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("B4 crash recovery (procs=%d, conflict=%.2f, seed=%d)", p.Processes, p.ConflictProb, p.Seed),
		Columns: []string{"crashAfter", "backward", "forward", "terminated", "2pcCommit", "2pcAbort", "compens", "forwardInvokes", "inDoubtLeft"},
	}
	for _, k := range crashPoints {
		w, err := workload.Generate(p)
		if err != nil {
			return nil, err
		}
		eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED, CrashAfterEvents: k})
		if err != nil {
			return nil, err
		}
		_, runErr := eng.RunJobs(w.Jobs)
		if runErr == nil {
			t.AddRow(fmt.Sprintf("%d", k), "-", "-", "run finished before crash", "-", "-", "-", "-", "0")
			continue
		}
		defs := make([]*process.Process, 0, len(w.Jobs))
		for _, j := range w.Jobs {
			defs = append(defs, j.Proc)
		}
		report, err := scheduler.Recover(w.Fed, eng.Log(), defs)
		if err != nil {
			return nil, fmt.Errorf("sim: recovery after %d events: %w", k, err)
		}
		t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", len(report.BackwardRecovered)),
			fmt.Sprintf("%d", len(report.ForwardRecovered)),
			fmt.Sprintf("%d", len(report.AlreadyTerminated)),
			fmt.Sprintf("%d", report.Resolved2PCCommitted),
			fmt.Sprintf("%d", report.Resolved2PCAborted),
			fmt.Sprintf("%d", report.Compensations),
			fmt.Sprintf("%d", report.ForwardInvocations),
			fmt.Sprintf("%d", len(w.Fed.InDoubt())))
	}
	return t, nil
}
