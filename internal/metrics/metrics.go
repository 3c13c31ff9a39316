// Package metrics is the scheduler's observability layer: atomic
// counters, bounded histograms and a ring-buffer decision trace,
// aggregated behind a Registry that the engine, the subsystems, the
// 2PC coordinator and the write-ahead log all record into.
//
// The package is dependency-free and safe for concurrent use. A nil
// *Registry is a valid no-op sink: every method nil-checks first and
// performs no work and no allocation, so an uninstrumented hot path
// pays only a predictable-branch pointer test (guarded by
// TestNoopRegistryZeroAlloc).
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// CounterID enumerates the fixed counter set. Counters are pre-declared
// rather than looked up by name so recording is a single array-indexed
// atomic add.
type CounterID int

const (
	// Process lifecycle (scheduler engine).
	ProcsAdmitted CounterID = iota
	ProcsCommitted
	ProcsAborted
	ProcsRestarted

	// Invocation admission decisions.
	InvokeDispatched
	InvokeLockBlocked
	InvokePolicyBlocked
	RetriesTransient

	// Commit decisions: immediate vs deferred (Lemma 1), and how each
	// deferred prepare eventually resolved. After a completed run,
	// CommitsDeferred == DeferredCommitted2PC + DeferredRolledBack.
	CommitsImmediate
	CommitsDeferred
	DeferredCommitted2PC
	DeferredRolledBack
	RollbacksOrphaned
	TwoPCDecisions

	// Recovery paths.
	CompensationsIssued
	BackwardRecoveries
	ForwardRecoveries
	VictimAborts
	GroupAborts
	RecoveryCompensations
	RecoveryForwardInvokes

	// Subsystem-level.
	SubInvocations
	SubAborts
	SubLockDenials
	IdemReplays

	// Fault-injecting transport (internal/chaos): injected transport
	// faults and reply recovery through the idempotency table.
	ChaosTransient
	ChaosTimeouts
	ChaosDuplicates
	ChaosSlow
	RepliesRecovered

	// Write-ahead log.
	WALAppends
	WALBytes
	WALFsyncs
	// Group commit: flushed batches and the fsyncs the batching saved
	// over a sync-per-append log (sum of batchSize-1 per synced batch).
	WALGroupBatches
	WALFsyncsSaved

	// Checkpointing and compaction: checkpoints taken, physical log
	// rewrites, and recoveries that found a corrupt checkpoint and
	// fell back to a wider replay.
	Checkpoints
	Compactions
	CheckpointFallbacks

	// Storage engine (internal/store): page I/O and buffer-pool
	// traffic, torn pages detected/repaired at open, and the logical
	// page redo/undo applied while reconciling durable subsystem state
	// against the WAL during composed recovery.
	StorePageReads
	StorePageWrites
	StorePageFsyncs
	StorePoolHits
	StorePoolMisses
	StoreEvictions
	StoreAllocs
	StoreTornDetected
	StoreTornRepaired
	StoreRedoItems
	StoreUndoItems

	// Federation (internal/federation): hub RPCs served, duplicate
	// requests absorbed by the hub's dedup table, wire-level faults
	// injected by the transport plan, stall victims designated by the
	// hub, scheduler-node deaths observed, hub kills and reopens,
	// membership-lease expiries, orphan adoptions, node re-attachments,
	// stale-epoch bounces and lease heartbeats.
	FedRPCs
	FedDedupReplays
	FedWireDrops
	FedWireDuplicates
	FedRPCRetries
	FedVictims
	FedNodeDeaths
	FedHubKills
	FedHubReopens
	FedLeaseExpiries
	FedAdoptions
	FedReattaches
	FedStaleBounces
	FedHeartbeats

	// Ingestion server (internal/serve): submissions offered, accepted
	// into the admission queue, shed with 429 (queue full, in-flight cap
	// or tenant rate budget), deduplicated by idempotency key, resumed
	// or re-run after a restart, and drains completed.
	ServeSubmitted
	ServeAccepted
	ServeShedQueue
	ServeShedTenant
	ServeDeduped
	ServeBatches
	ServeResumed
	ServeReruns
	ServeDrains

	numCounters
)

var counterNames = [numCounters]string{
	ProcsAdmitted:          "procs.admitted",
	ProcsCommitted:         "procs.committed",
	ProcsAborted:           "procs.aborted",
	ProcsRestarted:         "procs.restarted",
	InvokeDispatched:       "sched.invocations.dispatched",
	InvokeLockBlocked:      "sched.invocations.lock_blocked",
	InvokePolicyBlocked:    "sched.invocations.policy_blocked",
	RetriesTransient:       "sched.retries",
	CommitsImmediate:       "sched.commits.immediate",
	CommitsDeferred:        "sched.commits.deferred",
	DeferredCommitted2PC:   "twopc.commits",
	DeferredRolledBack:     "twopc.rollbacks",
	RollbacksOrphaned:      "sched.rollbacks.orphaned",
	TwoPCDecisions:         "twopc.decisions",
	CompensationsIssued:    "sched.compensations",
	BackwardRecoveries:     "sched.recovery.backward",
	ForwardRecoveries:      "sched.recovery.forward",
	VictimAborts:           "sched.victim_aborts",
	GroupAborts:            "recovery.group_aborts",
	RecoveryCompensations:  "recovery.compensations",
	RecoveryForwardInvokes: "recovery.forward_invocations",
	SubInvocations:         "subsystem.invocations",
	SubAborts:              "subsystem.aborts",
	SubLockDenials:         "subsystem.lock_denials",
	IdemReplays:            "subsystem.idem_replays",
	ChaosTransient:         "chaos.injected.transient",
	ChaosTimeouts:          "chaos.injected.timeouts",
	ChaosDuplicates:        "chaos.injected.duplicates",
	ChaosSlow:              "chaos.injected.slow",
	RepliesRecovered:       "chaos.replies_recovered",
	WALAppends:             "wal.appends",
	WALBytes:               "wal.bytes",
	WALFsyncs:              "wal.fsyncs",
	WALGroupBatches:        "wal.group_batches",
	WALFsyncsSaved:         "wal.fsyncs_saved",
	Checkpoints:            "wal.checkpoints",
	Compactions:            "wal.compactions",
	CheckpointFallbacks:    "recovery.checkpoint_fallbacks",
	StorePageReads:         "store.page_reads",
	StorePageWrites:        "store.page_writes",
	StorePageFsyncs:        "store.page_fsyncs",
	StorePoolHits:          "store.pool_hits",
	StorePoolMisses:        "store.pool_misses",
	StoreEvictions:         "store.evictions",
	StoreAllocs:            "store.allocs",
	StoreTornDetected:      "store.torn_detected",
	StoreTornRepaired:      "store.torn_repaired",
	StoreRedoItems:         "recovery.store_redo_items",
	StoreUndoItems:         "recovery.store_undo_items",
	FedRPCs:                "fed.rpcs",
	FedDedupReplays:        "fed.dedup_replays",
	FedWireDrops:           "fed.wire_drops",
	FedWireDuplicates:      "fed.wire_duplicates",
	FedRPCRetries:          "fed.rpc_retries",
	FedVictims:             "fed.victims",
	FedNodeDeaths:          "fed.node_deaths",
	FedHubKills:            "fed.hub_kills",
	FedHubReopens:          "fed.hub_reopens",
	FedLeaseExpiries:       "fed.lease_expiries",
	FedAdoptions:           "fed.adoptions",
	FedReattaches:          "fed.reattaches",
	FedStaleBounces:        "fed.stale_bounces",
	FedHeartbeats:          "fed.heartbeats",
	ServeSubmitted:         "serve.submitted",
	ServeAccepted:          "serve.accepted",
	ServeShedQueue:         "serve.shed.queue",
	ServeShedTenant:        "serve.shed.tenant",
	ServeDeduped:           "serve.deduped",
	ServeBatches:           "serve.batches",
	ServeResumed:           "serve.resumed",
	ServeReruns:            "serve.reruns",
	ServeDrains:            "serve.drains",
}

// String returns the dotted counter name.
func (c CounterID) String() string {
	if c < 0 || c >= numCounters {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return counterNames[c]
}

// HistID enumerates the fixed histogram set.
type HistID int

const (
	// HistProcDuration is the virtual-tick lifetime of a process,
	// admission to termination.
	HistProcDuration HistID = iota
	// HistProcBlocked is the time a finished process waited for its
	// deferred 2PC commit (Lemma-1 blocking) — the metric that
	// distinguishes the protocols under contention.
	HistProcBlocked
	// HistPreparedSet is the participant count per atomic 2PC commit.
	HistPreparedSet
	// HistInDoubt is the subsystem in-doubt set size observed after
	// each prepare.
	HistInDoubt
	// HistReplayRecords is the number of records each recovery pass
	// actually replayed (checkpoint live set + tail); bounded by the
	// tail length once checkpointing is on.
	HistReplayRecords
	// HistReplaySkipped is the number of summarized records each
	// recovery pass did NOT have to replay thanks to the checkpoint.
	HistReplaySkipped
	// HistWALBatch is the record count each group sync covers.
	HistWALBatch
	// HistCheckpointLive is the live-record count captured per
	// checkpoint (the checkpoint's own size driver).
	HistCheckpointLive
	// HistStoreFlushPages is the dirty-page count written per store
	// flush (checkpoint-driven flushes bound redo work).
	HistStoreFlushPages
	// HistServeAdmit is the wall-clock admission latency in
	// microseconds: request received to 202/429 written.
	HistServeAdmit
	// HistServeQueueDepth samples the admission-queue depth at each
	// submission.
	HistServeQueueDepth
	// HistServeBatch is the submission count per runner micro-batch.
	HistServeBatch

	numHists
)

var histNames = [numHists]string{
	HistProcDuration:    "proc.duration_ticks",
	HistProcBlocked:     "proc.blocked_commit_ticks",
	HistPreparedSet:     "twopc.prepared_set_size",
	HistInDoubt:         "subsystem.in_doubt_size",
	HistReplayRecords:   "recovery.replay_records",
	HistReplaySkipped:   "recovery.replay_skipped",
	HistWALBatch:        "wal.batch_size",
	HistCheckpointLive:  "wal.checkpoint_live_records",
	HistStoreFlushPages: "store.flush_pages",
	HistServeAdmit:      "serve.admit_latency_us",
	HistServeQueueDepth: "serve.queue_depth",
	HistServeBatch:      "serve.batch_size",
}

// String returns the dotted histogram name.
func (h HistID) String() string {
	if h < 0 || h >= numHists {
		return fmt.Sprintf("hist(%d)", int(h))
	}
	return histNames[h]
}

// histBuckets is the fixed bucket count of a Histogram: bucket i counts
// observations v with bits.Len64(v) == i, i.e. power-of-two ranges
// [2^(i-1), 2^i). Values ≥ 2^62 land in the last bucket.
const histBuckets = 64

// Histogram is a bounded, lock-free histogram over non-negative int64
// observations with power-of-two buckets. The zero value is ready.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	// minPlus1 stores min+1 so that 0 can mean "no observation yet"
	// (zero-value readiness without a constructor).
	minPlus1 atomic.Int64
	// maxPlus1 likewise, so an all-zero observation stream still
	// distinguishes "max is 0" from "unset".
	maxPlus1 atomic.Int64
	buckets  [histBuckets]atomic.Int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.minPlus1.Load()
		if cur != 0 && cur <= v+1 {
			break
		}
		if h.minPlus1.CompareAndSwap(cur, v+1) {
			break
		}
	}
	for {
		cur := h.maxPlus1.Load()
		if cur >= v+1 {
			break
		}
		if h.maxPlus1.CompareAndSwap(cur, v+1) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Bucket is one non-empty histogram bucket: Count observations were
// ≤ Le (and greater than the previous bucket's bound).
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramData is an immutable histogram snapshot.
type HistogramData struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistogramData {
	d := HistogramData{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	if d.Count > 0 {
		d.Mean = float64(d.Sum) / float64(d.Count)
		if m := h.minPlus1.Load(); m > 0 {
			d.Min = m - 1
		}
		if m := h.maxPlus1.Load(); m > 0 {
			d.Max = m - 1
		}
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			// Bucket i holds values with bit length i: [2^(i-1), 2^i).
			le := int64(0)
			if i > 0 {
				le = (int64(1) << i) - 1
			}
			d.Buckets = append(d.Buckets, Bucket{Le: le, Count: n})
		}
	}
	return d
}

// TraceKind classifies decision-trace events.
type TraceKind uint8

const (
	TAdmit TraceKind = iota
	TDispatch
	TLockWait
	TPolicyWait
	TFail
	TCommit
	TDeferCommit
	TTwoPCCommit
	TRollback
	TCompensate
	TRecoveryStep
	TRetry
	TBackward
	TForward
	TVictim
	TTerminate
	TGroupAbort

	numTraceKinds
)

var traceKindNames = [numTraceKinds]string{
	TAdmit:        "admit",
	TDispatch:     "dispatch",
	TLockWait:     "lock-wait",
	TPolicyWait:   "policy-wait",
	TFail:         "fail",
	TCommit:       "commit",
	TDeferCommit:  "defer-commit",
	TTwoPCCommit:  "2pc-commit",
	TRollback:     "rollback",
	TCompensate:   "compensate",
	TRecoveryStep: "recovery-step",
	TRetry:        "retry",
	TBackward:     "backward-recovery",
	TForward:      "forward-recovery",
	TVictim:       "victim-abort",
	TTerminate:    "terminate",
	TGroupAbort:   "group-abort",
}

// String returns the kind label.
func (k TraceKind) String() string {
	if int(k) >= int(numTraceKinds) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return traceKindNames[k]
}

// MarshalJSON emits the label rather than the raw byte.
func (k TraceKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Event is one structured decision-trace entry.
type Event struct {
	Seq     int64     `json:"seq"`
	Clock   int64     `json:"clock"`
	Kind    TraceKind `json:"kind"`
	Proc    string    `json:"proc,omitempty"`
	Local   int       `json:"local,omitempty"`
	Service string    `json:"service,omitempty"`
	// Other carries the decision's counterpart: the conflicting
	// predecessor a commit was deferred on, the denial reason of a
	// policy wait, the cascading aborter, or the terminal outcome.
	Other string `json:"other,omitempty"`
}

// String renders one trace line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6d @%-6d %-17s %s", e.Seq, e.Clock, e.Kind, e.Proc)
	if e.Service != "" {
		fmt.Fprintf(&b, "/%d %s", e.Local, e.Service)
	}
	if e.Other != "" {
		fmt.Fprintf(&b, " (%s)", e.Other)
	}
	return b.String()
}

// trace is a bounded ring buffer of Events.
type trace struct {
	mu    sync.Mutex
	buf   []Event
	next  int64 // total events ever recorded
	limit int
}

func (t *trace) record(ev Event) {
	t.mu.Lock()
	t.next++
	ev.Seq = t.next
	if len(t.buf) < t.limit {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[(t.next-1)%int64(t.limit)] = ev
	}
	t.mu.Unlock()
}

// events returns the retained window in chronological order.
func (t *trace) events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if t.next > int64(len(t.buf)) && len(t.buf) == t.limit {
		start := t.next % int64(t.limit)
		out = append(out, t.buf[start:]...)
		out = append(out, t.buf[:start]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// DefaultTraceCap is the decision-trace ring size of New.
const DefaultTraceCap = 4096

// Registry aggregates all instruments of one run (or one long-lived
// engine). The zero value is NOT ready; use New or NewSized. A nil
// *Registry is the no-op sink.
type Registry struct {
	counters [numCounters]atomic.Int64
	hists    [numHists]Histogram

	svcMu sync.RWMutex
	svc   map[string]*Histogram

	tr trace
}

// New returns a Registry with the default decision-trace capacity.
func New() *Registry { return NewSized(DefaultTraceCap) }

// NewSized returns a Registry whose decision trace retains the last
// traceCap events (traceCap < 1 disables the trace).
func NewSized(traceCap int) *Registry {
	if traceCap < 0 {
		traceCap = 0
	}
	return &Registry{
		svc: make(map[string]*Histogram),
		tr:  trace{limit: traceCap},
	}
}

// Inc adds one to a counter.
func (r *Registry) Inc(c CounterID) {
	if r == nil {
		return
	}
	r.counters[c].Add(1)
}

// Add adds n to a counter.
func (r *Registry) Add(c CounterID, n int64) {
	if r == nil {
		return
	}
	r.counters[c].Add(n)
}

// Counter reads a counter (0 on a nil registry).
func (r *Registry) Counter(c CounterID) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c].Load()
}

// Observe records a histogram observation.
func (r *Registry) Observe(h HistID, v int64) {
	if r == nil {
		return
	}
	r.hists[h].Observe(v)
}

// Hist reads a histogram snapshot (zero on a nil registry).
func (r *Registry) Hist(h HistID) HistogramData {
	if r == nil {
		return HistogramData{}
	}
	return r.hists[h].snapshot()
}

// ObserveService records a per-service latency observation (virtual
// ticks).
func (r *Registry) ObserveService(service string, v int64) {
	if r == nil {
		return
	}
	r.svcMu.RLock()
	h := r.svc[service]
	r.svcMu.RUnlock()
	if h == nil {
		r.svcMu.Lock()
		h = r.svc[service]
		if h == nil {
			h = &Histogram{}
			r.svc[service] = h
		}
		r.svcMu.Unlock()
	}
	h.Observe(v)
}

// Trace records one decision event. Seq is assigned by the trace.
func (r *Registry) Trace(kind TraceKind, clock int64, proc string, local int, service, other string) {
	if r == nil || r.tr.limit == 0 {
		return
	}
	r.tr.record(Event{Clock: clock, Kind: kind, Proc: proc, Local: local, Service: service, Other: other})
}

// Events returns the retained decision-trace window in order.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	return r.tr.events()
}

// TraceTotal returns how many events were ever recorded (including ones
// the ring has since overwritten).
func (r *Registry) TraceTotal() int64 {
	if r == nil {
		return 0
	}
	r.tr.mu.Lock()
	defer r.tr.mu.Unlock()
	return r.tr.next
}

// CountTrace counts retained trace events of one kind.
func (r *Registry) CountTrace(kind TraceKind) int64 {
	var n int64
	for _, ev := range r.Events() {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// Snapshot is a point-in-time copy of every instrument, ready for JSON
// marshalling or text rendering.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters"`
	Histograms map[string]HistogramData `json:"histograms"`
	Services   map[string]HistogramData `json:"services"`
	TraceTotal int64                    `json:"trace_total"`
	Trace      []Event                  `json:"trace,omitempty"`
}

// Snapshot captures the registry. On a nil registry it returns an empty
// (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   make(map[string]int64, int(numCounters)),
		Histograms: make(map[string]HistogramData, int(numHists)),
		Services:   make(map[string]HistogramData),
	}
	if r == nil {
		return s
	}
	for c := CounterID(0); c < numCounters; c++ {
		s.Counters[c.String()] = r.counters[c].Load()
	}
	for h := HistID(0); h < numHists; h++ {
		s.Histograms[h.String()] = r.hists[h].snapshot()
	}
	r.svcMu.RLock()
	for name, h := range r.svc {
		s.Services[name] = h.snapshot()
	}
	r.svcMu.RUnlock()
	s.TraceTotal = r.TraceTotal()
	s.Trace = r.Events()
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the snapshot as an aligned human-readable report.
// traceTail limits how many trailing trace events are printed (0 for
// none, negative for all retained).
func (s *Snapshot) WriteText(w io.Writer, traceTail int) {
	fmt.Fprintln(w, "== counters ==")
	names := make([]string, 0, len(s.Counters))
	width := 0
	for name := range s.Counters {
		names = append(names, name)
		if len(name) > width {
			width = len(name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-*s %d\n", width, name, s.Counters[name])
	}

	writeHist := func(name string, d HistogramData) {
		fmt.Fprintf(w, "  %-28s count=%d mean=%.1f min=%d max=%d", name, d.Count, d.Mean, d.Min, d.Max)
		if len(d.Buckets) > 0 {
			fmt.Fprint(w, "  [")
			for i, b := range d.Buckets {
				if i > 0 {
					fmt.Fprint(w, " ")
				}
				fmt.Fprintf(w, "≤%d:%d", b.Le, b.Count)
			}
			fmt.Fprint(w, "]")
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "== histograms ==")
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		writeHist(name, s.Histograms[name])
	}
	if len(s.Services) > 0 {
		fmt.Fprintln(w, "== service latency (virtual ticks) ==")
		names = names[:0]
		for name := range s.Services {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			writeHist(name, s.Services[name])
		}
	}
	if traceTail != 0 && len(s.Trace) > 0 {
		tail := s.Trace
		if traceTail > 0 && len(tail) > traceTail {
			tail = tail[len(tail)-traceTail:]
		}
		fmt.Fprintf(w, "== decision trace (%d/%d events) ==\n", len(tail), s.TraceTotal)
		for _, ev := range tail {
			fmt.Fprintf(w, "  %s\n", ev)
		}
	}
}
