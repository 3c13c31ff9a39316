// Package subsystem simulates the transactional subsystems of the paper
// (Section 2.3): autonomous resource managers that execute service
// invocations as local ACID transactions and provide either compensation
// for committed services or a two phase commit interface (prepared,
// in-doubt transactions) — the functionality a transactional
// coordination agent wraps around an application system.
//
// The simulated resource manager stores int64-valued data items. A
// service reads its read set and applies per-item deltas to its write
// set; the compensating service applies the inverse deltas, making the
// pair ⟨a a⁻¹⟩ effect-free by construction (Definition 2). Local
// transactions use strict two phase locking at data-item granularity;
// transactions of the same process share locks (a process's activities
// never block each other). Lock conflicts are reported immediately with
// ErrLocked instead of blocking, so a discrete-event scheduler can queue
// the invocation and retry when the holder releases.
package subsystem

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"transproc/internal/activity"
	"transproc/internal/chunk"
	"transproc/internal/metrics"
	"transproc/internal/store"
)

// TxID identifies a local transaction within a subsystem.
type TxID int64

// Mode selects the commit behaviour of an invocation.
type Mode int

const (
	// AutoCommit commits the local transaction immediately on success.
	AutoCommit Mode = iota
	// Prepare leaves the successful local transaction in the prepared
	// (in-doubt) state, holding its locks, until CommitPrepared or
	// AbortPrepared is called (the deferred commit of Lemma 1).
	Prepare
)

// Result describes a completed invocation.
type Result struct {
	Tx      TxID
	Outcome activity.Outcome
	// Reads holds the values of the service's read set at execution
	// time, in the order of its ReadSet (nil for an empty one);
	// commutativity is defined over such return values (Definition 6).
	Reads []int64
}

// Mutation is one applied write, kept in the subsystem journal.
type Mutation struct {
	Seq     int64
	Tx      TxID
	Proc    string
	Service string
	Item    string
	Delta   int64
}

// txn is a local transaction of service sv (its buffered deltas are
// sv.writes).
type txn struct {
	id       TxID
	proc     string
	service  string
	sv       *svc
	prepared bool
}

// itemState is one data item: its committed value (has: the item was
// written, set or restored) and its locks, by owning process (activities
// of one process share ownership): a short list of holders and their
// counts, which the lock operations scan instead of hashing. Readers are
// shared; write locks are exclusive across processes UNLESS every
// current holder acquired the item through the same Commutative lock
// family (a service and its compensation — increments and their inverse
// decrements commute, so prepared transactions of different processes
// may hold the item concurrently, exactly the pairs Definition 6's
// conflict relation exempts). commFam records that family; "" means the
// exclusive regime (some holder wrote through a different or
// non-commutative service). A degraded regime stays exclusive until all
// write locks drain — conservative, never unsound.
type itemState struct {
	val     int64
	has     bool
	readers []holder
	writers []holder
	commFam string
}

// holder is a process holding a lock n times.
type holder struct {
	proc string
	n    int
}

func (ls *itemState) otherWriter(proc string) (string, bool) {
	for _, h := range ls.writers {
		if h.proc != proc {
			return h.proc, true
		}
	}
	return "", false
}

// hold counts one more lock of proc.
func hold(hs []holder, proc string) []holder {
	for i := range hs {
		if hs[i].proc == proc {
			hs[i].n++
			return hs
		}
	}
	return append(hs, holder{proc, 1})
}

// release drops one lock of proc, and proc once it holds none.
func release(hs []holder, proc string) []holder {
	for i := range hs {
		if hs[i].proc == proc {
			if hs[i].n--; hs[i].n > 0 {
				return hs
			}
			return slices.Delete(hs, i, i+1)
		}
	}
	return hs
}

// Subsystem is a simulated transactional resource manager. It is safe
// for concurrent use.
type Subsystem struct {
	name string

	mu       sync.Mutex
	rng      *rand.Rand
	journal  chunk.List[Mutation]
	seq      int64
	nextTx   TxID
	services map[string]*svc
	items    map[string]*itemState
	inDoubt  map[TxID]txn
	// resolved records, for transactions that were once in doubt,
	// whether they committed (true) or aborted (false); crash recovery
	// consults it (TxFate) to tolerate a crash between a resolution's
	// subsystem-side apply and its log record.
	resolved map[TxID]bool
	// forced failure outcomes per service (deterministic injection).
	forceFail map[string]int
	// failRules makes every invocation of a service by a given process
	// abort, keyed proc+"/"+service. Unlike forceFail it is persistent
	// (restarted incarnations fail identically), which makes terminal
	// process fates independent of interleaving — the property the
	// differential runtime-vs-engine tests rely on.
	failRules map[string]bool
	// idem is the idempotency (dedup) table: successful executions
	// recorded by invocation key. A redelivery under the same key
	// replays the recorded outcome instead of executing again, keeping
	// at-least-once transports exactly-once. Aborted executions are not
	// recorded — atomicity left no effects, so re-executing is safe.
	idem        map[string]*Result
	idemReplays int64
	// stats
	invocations int64
	aborts      int64
	lockDenials int64
	// m is the optional observability registry (nil = no-op); it
	// receives invocation counters and in-doubt set-size observations.
	m *metrics.Registry
	// durable, when non-nil, is the heap-file store this subsystem
	// writes its state through to; see durable.go for the key layout
	// and crash-recovery contract.
	durable    *store.Store
	durableErr error
	// baselines records items initialized via Set, so recovery can
	// distinguish "value returned to zero" from "never existed".
	baselines map[string]int64
	// fates holds durable 2PC resolutions loaded by AttachStore.
	fates map[TxID]FateRecord
}

// write is one item a service writes and the delta it applies there.
type write struct {
	item  string
	delta int64
}

type svc struct {
	sub    *Subsystem
	spec   activity.Spec
	writes []write // one per write-set item, sorted by item
	// family is the lock-compatibility family: the service's own name,
	// or the base service's name for an auto-registered compensation
	// (by perfect commutativity, a commutative service's inverse
	// commutes with it and with itself).
	family string
	// locks are the lock-table entries of the read set and then of
	// writes, in their order, resolved at the first lock operation
	// (entries) so that registering stays cheap; nil until then.
	locks []*itemState
}

// New returns an empty subsystem. The seed drives probabilistic failure
// injection; subsystems with the same seed and call sequence behave
// identically.
func New(name string, seed int64) *Subsystem {
	return &Subsystem{
		name:      name,
		rng:       rand.New(rand.NewSource(seed)),
		services:  make(map[string]*svc),
		items:     make(map[string]*itemState),
		inDoubt:   make(map[TxID]txn),
		resolved:  make(map[TxID]bool),
		forceFail: make(map[string]int),
		failRules: make(map[string]bool),
		idem:      make(map[string]*Result),
		baselines: make(map[string]int64),
		fates:     make(map[TxID]FateRecord),
	}
}

// Name returns the subsystem name.
func (s *Subsystem) Name() string { return s.name }

// SetMetrics attaches an observability registry (nil detaches).
func (s *Subsystem) SetMetrics(m *metrics.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = m
}

// Register adds a service to the subsystem. The service's writes apply
// +1 per write-set item; if the spec declares a compensation, the
// compensating service is registered automatically with the inverse
// deltas and kind activity.Compensation.
func (s *Subsystem) Register(spec activity.Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.Subsystem != s.name {
		return fmt.Errorf("subsystem %s: spec %q belongs to subsystem %q", s.name, spec.Name, spec.Subsystem)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.services[spec.Name]; dup {
		return fmt.Errorf("subsystem %s: duplicate service %q", s.name, spec.Name)
	}
	items := slices.Clone(spec.WriteSet)
	slices.Sort(items)
	items = slices.Compact(items)
	writes := make([]write, len(items))
	for i, item := range items {
		writes[i] = write{item, 1}
	}
	s.services[spec.Name] = &svc{sub: s, spec: spec, writes: writes, family: spec.Name}
	if spec.Kind == activity.Compensatable {
		inv := make([]write, len(writes))
		for i, w := range writes {
			inv[i] = write{w.item, -w.delta}
		}
		compSpec := activity.Spec{
			Name:        spec.Compensation,
			Kind:        activity.Compensation,
			Subsystem:   s.name,
			ReadSet:     append([]string(nil), spec.ReadSet...),
			WriteSet:    append([]string(nil), spec.WriteSet...),
			Cost:        spec.Cost,
			Commutative: spec.Commutative,
		}
		if _, dup := s.services[compSpec.Name]; dup {
			return fmt.Errorf("subsystem %s: compensation %q already registered", s.name, compSpec.Name)
		}
		s.services[compSpec.Name] = &svc{sub: s, spec: compSpec, writes: inv, family: spec.Name}
	}
	return nil
}

// MustRegister is Register that panics on error.
func (s *Subsystem) MustRegister(spec activity.Spec) {
	if err := s.Register(spec); err != nil {
		panic(err)
	}
}

// Services returns the registered service names, sorted.
func (s *Subsystem) Services() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.services))
	for n := range s.services {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ForceFail makes the next n invocations of the service abort,
// regardless of its failure probability. Deterministic test hook.
func (s *Subsystem) ForceFail(service string, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forceFail[service] += n
}

// FailService makes every invocation of the service by the process
// abort, persistently (ForceFail's counted variant expires; this rule
// does not, so restarts replay the same failure). Deterministic test
// hook; proc must match the name passed to Invoke (engines pass the
// process origin).
func (s *Subsystem) FailService(proc, service string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failRules[proc+"/"+service] = true
}

// Invoke executes one invocation of the service on behalf of a process
// as a local transaction.
//
//   - If the locks cannot be acquired (another process holds conflicting
//     item locks, possibly through a prepared transaction), it returns
//     ErrLocked and nothing changes.
//   - If the transaction aborts (forced or probabilistic failure), it
//     returns a Result with Outcome Aborted and ErrAborted; atomicity of
//     the local transaction guarantees no effects.
//   - On success with AutoCommit the writes are applied and locks
//     released; with Prepare the transaction stays in-doubt, holding
//     locks, until CommitPrepared/AbortPrepared.
func (s *Subsystem) Invoke(proc, service string, mode Mode) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv, ok := s.services[service]
	if !ok {
		return nil, fmt.Errorf("subsystem %s: unknown service %q", s.name, service)
	}
	return s.invokeLocked(proc, sv, mode)
}

// InvokeIdem is Invoke with an idempotency key: a redelivery under a
// key whose execution already succeeded replays the recorded Result
// (replayed=true) without executing anything, so at-least-once
// transports stay exactly-once. Distinct logical invocations must use
// distinct keys; retries of the same logical invocation must reuse the
// key. Failed executions (lock conflicts, aborts) are not recorded —
// atomicity guarantees they left no effects.
func (s *Subsystem) InvokeIdem(key, proc, service string, mode Mode) (res *Result, replayed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.idem[key]; ok {
		s.idemReplays++
		s.m.Inc(metrics.IdemReplays)
		cp := *rec
		return &cp, true, nil
	}
	sv, ok := s.services[service]
	if !ok {
		return nil, false, fmt.Errorf("subsystem %s: unknown service %q", s.name, service)
	}
	res, err = s.invokeLocked(proc, sv, mode)
	if err == nil {
		cp := *res
		s.idem[key] = &cp
	}
	return res, false, err
}

// LookupIdem reports the recorded outcome of an idempotency key: the
// Result of its successful execution, or ok=false when the key never
// executed successfully here. An unreliable transport's caller uses it
// to resolve ErrTimeout ambiguity — a recorded Result means the
// invocation did execute and only its reply was lost.
func (s *Subsystem) LookupIdem(key string) (*Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.idem[key]
	if !ok {
		return nil, false
	}
	cp := *rec
	return &cp, true
}

// IdemStats reports the dedup table size and replay count.
func (s *Subsystem) IdemStats() (entries int, replays int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idem), s.idemReplays
}

// invokeLocked is the body of Invoke; the caller holds s.mu.
func (s *Subsystem) invokeLocked(proc string, sv *svc, mode Mode) (*Result, error) {
	service := sv.spec.Name
	s.invocations++
	s.m.Inc(metrics.SubInvocations)

	// Acquire strict-2PL item locks (all-or-nothing; no partial holds).
	if holder, ok := s.canLock(proc, sv); !ok {
		s.lockDenials++
		s.m.Inc(metrics.SubLockDenials)
		return nil, &SubsystemError{
			Subsystem: s.name, Service: service, Kind: ErrLocked,
			Detail: "held by " + holder,
		}
	}

	// Decide the outcome: deterministic rules first, then probability.
	fail := false
	if len(s.failRules) > 0 && s.failRules[proc+"/"+service] {
		fail = true
	} else if len(s.forceFail) > 0 && s.forceFail[service] > 0 {
		s.forceFail[service]--
		fail = true
	} else if sv.spec.FailureProb > 0 && s.rng.Float64() < sv.spec.FailureProb {
		fail = true
	}
	if fail {
		s.aborts++
		s.m.Inc(metrics.SubAborts)
		return &Result{Outcome: activity.Aborted},
			&SubsystemError{Subsystem: s.name, Service: service, Kind: ErrAborted}
	}

	s.nextTx++
	s.dPut(durNextTx, int64(s.nextTx))
	reads := s.readLocked(sv)
	if mode == AutoCommit {
		t := txn{id: s.nextTx, proc: proc, service: service, sv: sv}
		s.applyLocked(&t)
		return &Result{Tx: t.id, Outcome: activity.Committed, Reads: reads}, nil
	}
	// Prepared: take the locks durably until 2PC resolution.
	t := txn{id: s.nextTx, proc: proc, service: service, sv: sv, prepared: true}
	s.lock(proc, sv)
	s.inDoubt[t.id] = t
	s.putIntentLocked(&t)
	s.m.Observe(metrics.HistInDoubt, int64(len(s.inDoubt)))
	return &Result{Tx: t.id, Outcome: activity.Prepared, Reads: reads}, nil
}

// readLocked returns the values of the service's read set in the order
// of its ReadSet (nil for an empty one).
func (s *Subsystem) readLocked(sv *svc) []int64 {
	entries, _ := s.entries(sv)
	if len(entries) == 0 {
		return nil
	}
	reads := make([]int64, len(entries))
	for i, e := range entries {
		reads[i] = e.val
	}
	return reads
}

// canLock reports whether proc could acquire the service's locks, and
// when not, names a blocking process. Write-write compatibility is
// semantic: holders of the same Commutative lock family do not block
// each other (their writes are deltas that commute in any order).
func (s *Subsystem) canLock(proc string, sv *svc) (string, bool) {
	reads, writes := s.entries(sv)
	for _, ls := range reads {
		if w, blocked := ls.otherWriter(proc); blocked {
			return w, false
		}
	}
	commOK := sv.spec.Commutative
	for _, ls := range writes {
		if w, blocked := ls.otherWriter(proc); blocked && !(commOK && ls.commFam == sv.family) {
			return w, false
		}
		for _, r := range ls.readers {
			if r.proc != proc {
				return r.proc, false
			}
		}
	}
	return "", true
}

// lock records the locks of a prepared transaction.
func (s *Subsystem) lock(proc string, sv *svc) {
	reads, writes := s.entries(sv)
	for _, ls := range reads {
		ls.readers = hold(ls.readers, proc)
	}
	for _, ls := range writes {
		switch {
		case len(ls.writers) == 0:
			if sv.spec.Commutative {
				ls.commFam = sv.family
			} else {
				ls.commFam = ""
			}
		case !sv.spec.Commutative || ls.commFam != sv.family:
			// Mixing families (only possible when all holders are this
			// same proc) degrades the item to the exclusive regime.
			ls.commFam = ""
		}
		ls.writers = hold(ls.writers, proc)
	}
}

// unlock releases the locks of a prepared transaction.
func (s *Subsystem) unlock(t *txn) {
	reads, writes := s.entries(t.sv)
	for _, ls := range reads {
		ls.readers = release(ls.readers, t.proc)
	}
	for _, ls := range writes {
		if ls.writers = release(ls.writers, t.proc); len(ls.writers) == 0 {
			ls.commFam = ""
		}
	}
}

// entries returns the lock-table entries of the service's read set and
// of its writes, resolving them at the first call.
func (s *Subsystem) entries(sv *svc) (reads, writes []*itemState) {
	if sv.locks == nil {
		sv.locks = make([]*itemState, 0, len(sv.spec.ReadSet)+len(sv.writes))
		for _, item := range sv.spec.ReadSet {
			sv.locks = append(sv.locks, s.entry(item))
		}
		for _, w := range sv.writes {
			sv.locks = append(sv.locks, s.entry(w.item))
		}
	}
	n := len(sv.spec.ReadSet)
	return sv.locks[:n], sv.locks[n:]
}

// entry returns the state of an item, creating it on first sight.
func (s *Subsystem) entry(item string) *itemState {
	ls := s.items[item]
	if ls == nil {
		ls = &itemState{}
		s.items[item] = ls
	}
	return ls
}

// applyLocked applies a transaction's writes to the store and journal.
func (s *Subsystem) applyLocked(t *txn) {
	_, entries := s.entries(t.sv)
	for i, w := range t.sv.writes {
		e := entries[i]
		e.val, e.has = e.val+w.delta, true
		if s.durable != nil {
			s.dPut(durData+w.item, e.val)
		}
		s.seq++
		s.journal.Append(Mutation{
			Seq: s.seq, Tx: t.id, Proc: t.proc, Service: t.service, Item: w.item, Delta: w.delta,
		})
	}
}

// CommitPrepared commits an in-doubt transaction (second phase of 2PC):
// its writes are applied and its locks released.
func (s *Subsystem) CommitPrepared(id TxID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.inDoubt[id]
	if !ok {
		return fmt.Errorf("subsystem %s: transaction %d is not in doubt", s.name, id)
	}
	s.applyLocked(&t)
	s.unlock(&t)
	s.resolved[id] = true
	s.recordFateLocked(&t, true)
	delete(s.inDoubt, id)
	return nil
}

// AbortPrepared rolls an in-doubt transaction back: nothing is applied
// and its locks are released. Atomicity guarantees no effects.
func (s *Subsystem) AbortPrepared(id TxID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.inDoubt[id]
	if !ok {
		return fmt.Errorf("subsystem %s: transaction %d is not in doubt", s.name, id)
	}
	s.aborts++
	s.m.Inc(metrics.SubAborts)
	s.unlock(&t)
	s.resolved[id] = false
	s.recordFateLocked(&t, false)
	delete(s.inDoubt, id)
	return nil
}

// TxFate reports the durable fate of a transaction that was once in
// doubt here: committed (true) or rolled back (false). known is false
// for transactions still in doubt or never prepared at this subsystem.
// Crash recovery consults it when a presumed resolution finds the
// transaction already gone — the crash hit the window between the
// subsystem-side resolution and its log record, and the log must record
// the fate that actually happened.
func (s *Subsystem) TxFate(id TxID) (committed, known bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, inDoubt := s.inDoubt[id]; inDoubt {
		return false, false
	}
	committed, known = s.resolved[id]
	return committed, known
}

// InDoubtRecord describes a prepared transaction awaiting 2PC
// resolution; exposed for crash recovery.
type InDoubtRecord struct {
	Tx      TxID
	Proc    string
	Service string
}

// InDoubt returns the prepared transactions, sorted by id.
func (s *Subsystem) InDoubt() []InDoubtRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]InDoubtRecord, 0, len(s.inDoubt))
	for _, t := range s.inDoubt {
		out = append(out, InDoubtRecord{Tx: t.id, Proc: t.proc, Service: t.service})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tx < out[j].Tx })
	return out
}

// Get returns the committed value of an item.
func (s *Subsystem) Get(item string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.items[item]; e != nil {
		return e.val
	}
	return 0
}

// Set initializes an item's value (test/setup hook). The value is
// recorded as the item's baseline, which durable recovery adds beneath
// the log-derived deltas.
func (s *Subsystem) Set(item string, v int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entry(item)
	e.val, e.has = v, true
	s.baselines[item] = v
	s.dPut(durBase+item, v)
	s.dPut(durData+item, v)
}

// Snapshot returns a copy of the committed store.
func (s *Subsystem) Snapshot() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.items))
	for k, e := range s.items {
		if e.has {
			out[k] = e.val
		}
	}
	return out
}

// Journal returns a copy of the applied-mutation journal.
func (s *Subsystem) Journal() []Mutation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal.AppendTo(nil)
}

// Stats reports counters: total invocations, aborted invocations and
// lock denials.
func (s *Subsystem) Stats() (invocations, aborts, lockDenials int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.invocations, s.aborts, s.lockDenials
}

// Lookup returns the spec of a registered service.
func (s *Subsystem) Lookup(service string) (activity.Spec, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv, ok := s.services[service]
	if !ok {
		return activity.Spec{}, false
	}
	return sv.spec, true
}
