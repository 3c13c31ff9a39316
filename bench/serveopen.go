package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	gort "runtime"
	"strings"
	"time"

	"transproc/internal/serve"
	"transproc/internal/wal"
)

// serveSpec is the open-loop workload against the ingestion service
// over real HTTP on loopback: one process, two connections — a sender
// that posts on a fixed schedule and a watcher that polls the status
// URL of the oldest unsettled submission.
type serveSpec struct {
	name, why    string
	conflict     float64
	latencyRate  float64 // req/s of the latency phase
	overloadRate float64 // req/s of the overload phase
	diagRate     float64 // req/s of the traced diagnostic phase
	phaseReps    int     // latency and overload phases per run, each
}

// maxGenLateUS is the generator lateness (p99) above which a latency
// rep is reported as invalid instead of as a latency.
const maxGenLateUS = 1000

// pollGap is the watcher's pause between two polls of a submission
// that is not final yet; it bounds how late a settlement is seen.
// quietPollGap is the pause in a phase that reports no latency (the
// overload phase): there the load generator shares two saturated cores
// with the server, and every poll it saves is processor time the server
// gets, so that goodput measures the server and not the scheduler.
const (
	pollGap      = 200 * time.Microsecond
	quietPollGap = 5 * time.Millisecond
)

// request is one scheduled POST and what became of it.
type request struct {
	due       time.Time
	late      time.Duration // send start − max(due, connection free)
	ack       time.Duration // response read − due
	settle    time.Duration // Final observed − due
	code      int
	id        string
	statusURL string
	settled   bool
	committed bool
}

// phase is one open-loop run against a fresh server.
type phase struct {
	setup    time.Duration
	genTime  time.Duration
	bodySize float64
	reqs     []request
	elapsed  time.Duration // first due → last settlement seen
	heapMB   float64
	walBusy  time.Duration
	runSpan  int64
	share    float64
	err      error
}

// oneConnClient returns an HTTP client that keeps exactly one
// connection to the server.
func oneConnClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// dueTime is when request i of an open loop at rate req/s is due.
func dueTime(t0 time.Time, i int, rate float64) time.Time {
	return t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// generatorLateness is how late a send started through the generator's
// own doing: measured from when the request was due and the sender's
// connection free. Time spent waiting for the previous response is the
// server's doing; it stays in the latencies, which are all timed from
// the due time.
func generatorLateness(due, free, start time.Time) time.Duration {
	if free.After(due) {
		return start.Sub(free)
	}
	return start.Sub(due)
}

// spinShare is the share of the inter-arrival gap before a due time
// that the sender spends spinning instead of sleeping: a sleeping
// goroutine on a busy 2-core box wakes hundreds of microseconds late, a
// spinning one does not. A tenth of the gap is 1 ms at 100 req/s and
// costs a tenth of one core.
const spinShare = 0.1

// sleepUntil returns as close after t as the scheduler allows,
// spinning through the last spin of the wait.
func sleepUntil(t time.Time, spin time.Duration) {
	if d := time.Until(t); d > spin {
		time.Sleep(d - spin)
	}
	for time.Now().Before(t) {
	}
}

// runPhase offers n = rate × dur generated processes to a fresh server
// at the fixed rate and watches every accepted one settle. A quiet
// phase reports no latency: its sender sleeps up to each due time
// without spinning and its watcher polls every quietPollGap.
func (s serveSpec) runPhase(o *options, stream int, rate float64, dur time.Duration, quiet bool, tr *tracer) *phase {
	ph := &phase{}
	n := max(int(rate*dur.Seconds()), 8)
	root := tr.rep()
	dir := filepath.Join(o.dataDir, fmt.Sprintf("%s-%d", s.name, stream))
	defer os.RemoveAll(dir)

	setupScope, endSetup := root.begin("setup")
	_, endGen := setupScope.begin("generate")
	g, err := generate(baseProfile(n, s.conflict, 0, 0), o.seed, s.name, stream)
	ph.genTime = endGen()
	if err != nil {
		ph.err = err
		return ph
	}
	ph.share = g.share
	bodies := make([][]byte, n)
	for i, d := range g.defs {
		if bodies[i], err = submitBody(d); err != nil {
			ph.err = err
			return ph
		}
		ph.bodySize += float64(len(bodies[i])) / float64(n)
	}
	cfg := serve.Config{Dir: dir, GroupCommit: groupCommit}
	walMeter := &meter{name: "wal"}
	if tr != nil {
		cfg.WrapLog = func(l wal.Log) wal.Log { return newTimedBatchLog(l.(batchLog), walMeter) }
	}
	srv, err := serve.Open(g.w.Fed, cfg)
	if err != nil {
		ph.err = err
		return ph
	}
	defer srv.Close()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		ph.err = err
		return ph
	}
	base := "http://" + addr
	sender, watcher := oneConnClient(), oneConnClient()
	defer sender.CloseIdleConnections()
	defer watcher.CloseIdleConnections()
	for _, c := range []*http.Client{sender, watcher} {
		if err := get(c, base+"/healthz", nil); err != nil {
			ph.err = err
			return ph
		}
	}
	ph.setup = endSetup()

	gort.GC()
	runScope, endRun := root.begin("run")
	ph.runSpan = runScope.parent
	walMeter.attach(runScope)
	ph.reqs = make([]request, n)
	t0 := time.Now().Add(2 * time.Millisecond)
	accepted := make(chan int, n) // sized to the number of sends
	sendErr := make(chan error, 1)
	spin, gap := time.Duration(spinShare/rate*float64(time.Second)), pollGap
	if quiet {
		spin, gap = 0, quietPollGap
	}
	go func() {
		defer close(accepted)
		free := t0 // when the sender's connection last became free
		for i, body := range bodies {
			rq := &ph.reqs[i]
			rq.due = dueTime(t0, i, rate)
			sleepUntil(rq.due, spin)
			_, endPost := runScope.begin("http.post")
			start := time.Now()
			rq.late = generatorLateness(rq.due, free, start)
			resp, err := sender.Post(base+"/v1/processes", "application/json", bytes.NewReader(body))
			if err != nil {
				sendErr <- err
				return
			}
			var ack serve.SubmitResponse
			decErr := json.NewDecoder(resp.Body).Decode(&ack)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			endPost()
			free = time.Now()
			rq.ack, rq.code = free.Sub(rq.due), resp.StatusCode
			if resp.StatusCode == http.StatusAccepted && decErr == nil {
				rq.id, rq.statusURL = ack.ID, ack.Status
				accepted <- i
			}
		}
		sendErr <- nil
	}()
	var watchErr error
	last := t0
	for i := range accepted {
		rq := &ph.reqs[i]
		if watchErr != nil {
			continue // drain the channel so the sender can finish
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			var st serve.Status
			if err := get(watcher, base+rq.statusURL, &st); err != nil {
				watchErr = err
				break
			}
			if st.Final {
				last = time.Now()
				rq.settle, rq.settled, rq.committed = last.Sub(rq.due), true, st.Committed
				break
			}
			if time.Now().After(deadline) {
				watchErr = fmt.Errorf("%s not final after 30 s", rq.id)
				break
			}
			time.Sleep(gap)
		}
	}
	endRun()
	ph.elapsed = last.Sub(t0)
	if err := <-sendErr; err != nil {
		ph.err = fmt.Errorf("sender: %w", err)
	} else if watchErr != nil {
		ph.err = fmt.Errorf("watcher: %w", watchErr)
	}
	_, ph.walBusy = walMeter.snapshot()

	// Output check, outside the timed region: every 202 settles exactly
	// once, judged on the drained server's own log.
	idle := srv.WaitIdle(30 * time.Second)
	ph.heapMB = retainedHeapMB(srv)
	if _, err := srv.Drain(context.Background()); err != nil && ph.err == nil {
		ph.err = fmt.Errorf("drain: %w", err)
	}
	if !idle && ph.err == nil {
		ph.err = fmt.Errorf("server not idle 30 s after the last send")
	}
	if ph.err == nil {
		ph.err = exactlyOnce(filepath.Join(dir, "wal.log"), ph.reqs)
	}
	return ph
}

// get fetches url on c and decodes the JSON body into out (discarded
// when nil), always draining the body so the connection is reused.
func get(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	defer io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// exactlyOnce checks the server's log against what the clients saw:
// every accepted submission was seen final, committed at most once, its
// reported fate matches the log, and every incarnation it started was
// terminated.
func exactlyOnce(walPath string, reqs []request) error {
	log, err := wal.OpenFile(walPath, false)
	if err != nil {
		return err
	}
	defer log.Close()
	recs, err := log.Records()
	if err != nil {
		return err
	}
	commits := map[string]int{}
	open := map[string]int{}
	for _, r := range recs {
		origin := r.Proc
		if i := strings.IndexByte(origin, '+'); i >= 0 {
			origin = origin[:i]
		}
		switch r.Type {
		case wal.RecStart:
			open[origin]++
		case wal.RecTerminate:
			open[origin]--
			if r.Committed {
				commits[origin]++
			}
		}
	}
	for _, rq := range reqs {
		if rq.code != http.StatusAccepted {
			continue
		}
		switch {
		case !rq.settled:
			return fmt.Errorf("%s acknowledged but never seen final", rq.id)
		case commits[rq.id] > 1:
			return fmt.Errorf("%s committed %d times", rq.id, commits[rq.id])
		case rq.committed != (commits[rq.id] == 1):
			return fmt.Errorf("%s reported committed=%v, log has %d commits", rq.id, rq.committed, commits[rq.id])
		case open[rq.id] != 0:
			return fmt.Errorf("%s has %d unterminated incarnations", rq.id, open[rq.id])
		}
	}
	return nil
}

// tally is a phase's requests split into the samples and counts the
// report uses.
type tally struct {
	admitMS, settleMS, lateUS          []float64
	accepted, shed, refused, committed int
}

func (ph *phase) tally() tally {
	var t tally
	for _, rq := range ph.reqs {
		t.lateUS = append(t.lateUS, us(rq.late))
		switch rq.code {
		case http.StatusAccepted:
			t.accepted++
			t.admitMS = append(t.admitMS, ms(rq.ack))
			if rq.settled {
				t.settleMS = append(t.settleMS, ms(rq.settle))
			}
			if rq.committed {
				t.committed++
			}
		case http.StatusTooManyRequests:
			t.shed++
		default:
			t.refused++
		}
	}
	return t
}

func (t tally) shedShare() float64 {
	return float64(t.shed) / float64(t.accepted+t.shed+t.refused)
}

// latencyPhase digests one latency-phase run: refusals are failed
// operations, and a rep whose generator ran late is invalid.
type latencyPhase struct {
	admitMS, settleMS []float64
	lateP99           float64
	valid             bool
}

func (s serveSpec) run(o *options, micro map[string]float64) *report {
	r := newReport(s.name, s.why)
	// The budget is cut into equal slices, latency and overload phases
	// alternating so that both see the same machine state over the run.
	slices := 2 * s.phaseReps
	if o.trace {
		slices = 4
	}
	slice := time.Duration(o.seconds / float64(slices) * float64(time.Second))
	var setup, heap, goodput, shedShare []float64
	var lat []latencyPhase
	accepted, committed, offered := 0, 0, 0
	var share float64
	use := func(ph *phase, label string) bool {
		r.Attempted += len(ph.reqs)
		if ph.err != nil {
			r.fail(max(len(ph.reqs), 1), "%s: %v", label, ph.err)
			return false
		}
		share = ph.share
		return true
	}
	latency := func(ph *phase, label string) {
		t := ph.tally()
		if t.shed+t.refused > 0 {
			r.fail(t.shed+t.refused, "%s: %d of %d requests refused at %.0f req/s", label, t.shed+t.refused, len(ph.reqs), s.latencyRate)
		}
		accepted, committed = accepted+t.accepted, committed+t.committed
		// Retained heap is read where the number of submissions the
		// server holds is fixed by the schedule, not by what it shed.
		heap = append(heap, ph.heapMB)
		l := latencyPhase{admitMS: t.admitMS, settleMS: t.settleMS, lateP99: percentile(t.lateUS, 0.99)}
		if l.valid = l.lateP99 <= maxGenLateUS; !l.valid {
			r.Notes = append(r.Notes, fmt.Sprintf("%s invalid: generator lateness p99 %.0f us exceeds %d us", label, l.lateP99, maxGenLateUS))
		}
		lat = append(lat, l)
	}
	reps := s.phaseReps
	if o.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		lph := s.runPhase(o, 2*i, s.latencyRate, slice, false, nil)
		if use(lph, fmt.Sprintf("latency rep %d", i)) {
			latency(lph, fmt.Sprintf("latency rep %d", i))
		}
		if o.trace {
			setup = append(setup, lph.setup.Seconds())
			break
		}
		if ph := s.runPhase(o, 2*i+1, s.overloadRate, slice, true, nil); use(ph, fmt.Sprintf("overload rep %d", i)) {
			// one sample of set-up is what a latency and an overload
			// phase need together: the two differ tenfold in the inputs
			// they generate, and a median over both kinds would sit
			// between them
			if lph.err == nil {
				setup = append(setup, (lph.setup + ph.setup).Seconds())
			}
			t := ph.tally()
			if t.refused > 0 {
				r.fail(t.refused, "overload rep %d: %d requests answered neither 202 nor 429", i, t.refused)
			}
			accepted, committed, offered = accepted+t.accepted, committed+t.committed, offered+len(ph.reqs)
			goodput = append(goodput, float64(t.committed)/ph.elapsed.Seconds())
			shedShare = append(shedShare, t.shedShare())
		}
	}

	// Latencies come from the valid reps. With none, the rep whose
	// generator was least late stands in — its latencies, timed from the
	// due times, then include the generator's own delay — and a note
	// says so: the requests themselves did not fail.
	var admit, settle [][]float64
	var lateP99 float64
	best := -1
	for i, l := range lat {
		if l.valid {
			admit, settle = append(admit, l.admitMS), append(settle, l.settleMS)
			lateP99 = max(lateP99, l.lateP99)
		}
		if best < 0 || l.lateP99 < lat[best].lateP99 {
			best = i
		}
	}
	if len(admit) == 0 && best >= 0 {
		admit, settle, lateP99 = [][]float64{lat[best].admitMS}, [][]float64{lat[best].settleMS}, lat[best].lateP99
		r.Notes = append(r.Notes, "no valid latency rep: the latencies below include generator lateness")
	}
	samples := 0
	for _, a := range admit {
		samples += len(a)
	}
	r.E2E["admit_p50_ms"] = value{medianOfReps(admit, median), samples}
	r.E2E["admit_p95_ms"] = value{medianOfReps(admit, p95), samples}
	r.E2E["settle_p50_ms"] = value{medianOfReps(settle, median), samples}
	r.E2E["settle_p95_ms"] = value{medianOfReps(settle, p95), samples}
	r.E2E["op_ms"] = r.E2E["settle_p50_ms"]
	if len(goodput) > 0 {
		r.E2E["goodput_per_s"] = value{median(goodput), len(goodput)}
		r.E2E["procs_per_s"] = r.E2E["goodput_per_s"]
		r.E2E["overload_shed_share"] = value{median(shedShare), offered}
	}
	r.E2E["setup_s"] = value{median(setup), len(setup)}
	r.E2E["retained_heap_mb"] = value{median(heap), len(heap)}
	r.Samples["goodput"], r.Samples["shed"], r.Samples["setup_s"], r.Samples["heap_mb"] = goodput, shedShare, setup, heap
	for _, s := range settle {
		r.Samples["settle_p50"] = append(r.Samples["settle_p50"], median(s))
	}
	if accepted > 0 {
		r.E2E["commit_share"] = value{float64(committed) / float64(accepted), accepted}
	}
	r.Notes = append(r.Notes, fmt.Sprintf("%d × (latency phase at %.0f req/s, overload phase at %.0f req/s), %.1f s each on a fresh server; generator lateness p99 %.0f us; realised conflict share %.3f (nominal %.2f)",
		reps, s.latencyRate, s.overloadRate, slice.Seconds(), lateP99, share, s.conflict))
	if o.trace && len(settle) > 0 {
		s.traced(o, r, r.E2E["settle_p50_ms"].V, slice, micro)
	}
	return r
}

// traced repeats the latency rep with the log decorator on, adds a
// traced overload phase and the diagnostic-rate phase, and fills the
// serve layer's metrics.
func (s serveSpec) traced(o *options, r *report, plainSettleP50 float64, slice time.Duration, micro map[string]float64) {
	L := r.Layer
	t := s.runPhase(o, 0, s.latencyRate, slice, false, o.tr)
	r.Attempted += len(t.reqs)
	if t.err != nil {
		r.fail(len(t.reqs), "traced latency rep: %v", t.err)
		return
	}
	lt := t.tally()
	r.UntracedWall, r.TracedWall = plainSettleP50, median(lt.settleMS)
	L["trace_overhead_share"] = r.TracedWall/plainSettleP50 - 1
	L["serve.admit_p50_ms"] = median(lt.admitMS)
	L["serve.admit_p95_ms"] = p95(lt.admitMS)
	L["serve.settle_p95_ms"] = p95(lt.settleMS)
	L["serve.gen_late_p99_us"] = percentile(lt.lateUS, 0.99)
	L["serve.engine_wal_busy_s"] = t.walBusy.Seconds()
	L["wal.append_busy_s"] = t.walBusy.Seconds()
	L["workload.generate_ms"] = ms(t.genTime)
	L["spec.submit_body_bytes"] = t.bodySize

	over := s.runPhase(o, 1, s.overloadRate, slice, true, o.tr)
	r.Attempted += len(over.reqs)
	if over.err != nil {
		r.fail(len(over.reqs), "traced overload phase: %v", over.err)
	} else {
		L["serve.overload_shed_share"] = over.tally().shedShare()
	}
	diag := s.runPhase(o, 2, s.diagRate, slice, false, o.tr)
	r.Attempted += len(diag.reqs)
	if diag.err != nil {
		r.fail(len(diag.reqs), "traced %.0f req/s phase: %v", s.diagRate, diag.err)
	} else {
		L["serve.settle_p50_ms_r200"] = median(diag.tally().settleMS)
	}

	// The latency phase's wall is fixed by the schedule, so the table
	// decomposes it into what the server's log and its admissions were
	// busy with; the rest is idle time between arrivals plus engine and
	// HTTP work the decorators cannot see from outside.
	r.Stages = buildStages(o.tr.spans(), t.runSpan, []string{"wal"},
		[]stageRow{{"admission (accepted × admit_inproc_us)", float64(lt.accepted) * micro["serve.admit_inproc_us"] / 1e6}},
		"idle + engine + HTTP (remainder)")
}
