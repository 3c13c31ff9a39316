package federation

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"transproc/internal/activity"
	"transproc/internal/conflict"
	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler"
	"transproc/internal/scheduler/policy"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

// HubConfig configures the coordination hub.
type HubConfig struct {
	// MaxStalls bounds cluster-wide victim designations.
	MaxStalls int
	// Metrics is the optional observability registry.
	Metrics *metrics.Registry
	// Journal force-logs the few facts only the hub knows and that
	// stitched-WAL recovery cannot rebuild: stamp leases (so a
	// reopened hub never reissues an issued-but-unacked stamp), the
	// epoch, and the ownership table. Nil disables journaling.
	Journal HubJournal
	// LeaseTTL expires a node's membership lease when no frame from it
	// arrives for this long; zero disables lease expiry (nodes then die
	// only through an explicit NodeDown).
	LeaseTTL time.Duration
	// Inject fires the named hub crash points (PointHub*). A fault plan
	// panics through it with a crash sentinel that Handle converts into
	// a dead hub: the in-flight request — and every later one — gets no
	// response, modeling kill -9 of the coordination agent.
	Inject func(string)
	// Epoch seeds the hub incarnation number; ReopenHub bumps it so
	// frames from the previous incarnation bounce with StStale.
	Epoch uint32
	// Now is the lease clock (default time.Now); tests pin it.
	Now func() time.Time
}

// Crash points fired inside the hub's serial section: after a frontier
// dispatch prepared its subsystem transaction but before the node
// learns the stamp (the response is lost with the hub), after the
// Lemma-1 gate granted a 2PC decision stamp, and after a prepared
// participant was committed during resolution. Each models kill -9 of
// the coordination agent with mutated in-memory state the reopen must
// rebuild from the stitched WALs plus the hub journal.
const (
	PointHubDispatch = "hub:dispatch"
	PointHubDecision = "hub:decision"
	PointHubResolve  = "hub:resolve"
)

// leaseChunk is how far past the journaled floor the hub extends its
// stamp lease per force-log: one journal fsync amortizes over this many
// stamps, and a reopened hub's counter jumps at most this far ahead.
const leaseChunk = 512

// hubProc is the hub-side mirror of one process incarnation: the shared
// driver's record plus what only the hub tracks. The hub applies the
// same deterministic instance transitions as the owning node, in the
// order of the node's RPCs — each node drives its processes
// single-threaded, so per-process operations are serial and the two
// instances stay in lockstep.
type hubProc struct {
	scheduler.Proc
	node uint32

	// parked is Done for the policy view but distinguishable for the
	// dispatch handlers: a parked process's remaining completion steps
	// run only during post-run recovery — after every live event in the
	// stitched log — so the hub must bounce the owner's racing RPCs
	// (StPark) and hold conflicting live work behind the parked
	// footprint, or admitted work would order before steps that replay
	// after it and invert the forced serialization order.
	parked   bool
	inflight map[int]scheduler.PreparedTx // local -> prepared tx awaiting CommitLocal
	stepTx   scheduler.PreparedTx         // in-flight recovery-step transaction
	decided  bool                         // 2PC commit decision granted (point of no return)
	// committedEvents counts the process's committed (non-tentative)
	// policy events — the adoption gate: an orphan with zero committed
	// events has nothing recovery must compensate, so its origin can be
	// re-assigned to a survivor immediately instead of waiting for the
	// post-run composed recovery.
	committedEvents int
	// zombie marks a process whose owner died (crash or lease expiry).
	// It stays excluded from victim designation and liveness checks
	// even if the owner later revives: its subsystem residue was
	// settled at death and only recovery (or adoption) finishes it.
	zombie bool
	// fate is the terminal outcome once the process is settled (true =
	// committed), served to re-attaching owners that lost the response.
	fate bool
}

// settled reports a terminated (not merely parked) incarnation.
func (hp *hubProc) settled() bool { return hp.Phase == policy.Done && !hp.parked }

// hubNode is the hub's view of one scheduler node.
type hubNode struct {
	name    string
	dead    bool
	done    bool  // reported all owned work terminal
	idleGen int64 // progress generation of the last idle report
	victims []process.ID
	parks   []process.ID
	adopts  []adoptOffer
}

// adoptOffer is a queued re-assignment of an orphaned origin to a
// surviving node, delivered through its idle polls as StAdopt.
type adoptOffer struct {
	origin  process.ID
	id      process.ID // the fresh incarnation the survivor admits
	arrival int
	suffix  int // restart-suffix number of the fresh incarnation
}

// Hub is the coordination agent: it owns the subsystem federation, the
// single policy state, the global stamp counter and the process
// mirrors. Every handler runs under one mutex — the serial section that
// makes cross-node decisions total-ordered; the stamps it hands out
// place the nodes' WAL records into that order.
type Hub struct {
	mu    sync.Mutex
	fed   *subsystem.Federation
	table *conflict.Table
	pol   *policy.State
	// drv is the shared protocol driver over the mirrors. In this stage
	// the hub uses its process table (the policy view), gates and
	// victim choice; the logging transitions stay split between the
	// handlers here and the owning node.
	drv *scheduler.Driver
	cfg HubConfig
	reg *metrics.Registry

	defs map[string]*process.Process // by origin id
	byID map[process.ID]*hubProc

	nodes map[uint32]*hubNode
	dedup map[uint32]map[uint64]*Frame

	stamp  int64 // global sequence; doubles as the progress generation
	stalls int

	// Crash-safety state (see journal.go and recover.go).
	epoch      uint32
	journal    HubJournal
	leaseFloor int64 // stamps < leaseFloor are journaled as issuable
	killed     bool
	killedCh   chan struct{}
	lastSeen   map[uint32]time.Time
	maxSuffix  map[string]int // origin -> highest restart suffix seen
	// pending marks origins with an outstanding restart incarnation the
	// hub handed out (adoption offer or reattach grant) that no node has
	// admitted yet. Such an origin is live even though byID has no
	// running incarnation — granting a second restart for it would fork
	// the lineage and double-execute the process.
	pending map[string]bool
	// fates is set by ReopenHub: the recovered terminal fate of every
	// pre-crash incarnation (true = committed), served to re-attaching
	// nodes. reopened distinguishes "no fate" answers.
	fates    map[process.ID]bool
	reopened bool
}

// NewHub builds the hub over a federation and the process definitions
// (by origin id; restart incarnations derive from them).
func NewHub(fed *subsystem.Federation, defs []*process.Process, cfg HubConfig) (*Hub, error) {
	table, err := fed.ConflictTable()
	if err != nil {
		return nil, err
	}
	if cfg.MaxStalls <= 0 {
		cfg.MaxStalls = 4096
	}
	h := &Hub{
		fed:       fed,
		table:     table,
		pol:       policy.New(table, policy.Config{Mode: policy.PRED}),
		cfg:       cfg,
		reg:       cfg.Metrics,
		defs:      make(map[string]*process.Process, len(defs)),
		byID:      make(map[process.ID]*hubProc),
		nodes:     make(map[uint32]*hubNode),
		dedup:     make(map[uint32]map[uint64]*Frame),
		epoch:     cfg.Epoch,
		journal:   cfg.Journal,
		killedCh:  make(chan struct{}),
		lastSeen:  make(map[uint32]time.Time),
		maxSuffix: make(map[string]int),
		pending:   make(map[string]bool),
	}
	h.drv = &scheduler.Driver{Host: hubHost{h}, Fed: fed, Pol: h.pol, Reg: cfg.Metrics}
	if cfg.Metrics != nil {
		fed.SetMetrics(cfg.Metrics)
	}
	for _, p := range defs {
		h.defs[string(p.ID)] = p
	}
	return h, nil
}

// next issues the next global stamp inside the serial section. With a
// journal attached it enforces the stamp lease: before issuing past the
// journaled floor, a new floor one chunk ahead is force-logged — so a
// reopened hub resuming at the floor can never reissue a stamp this
// incarnation handed out, acked or not, and plain stamp sorting of the
// stitched history stays total across hub incarnations.
func (h *Hub) next() int64 {
	if h.journal != nil && h.stamp >= h.leaseFloor {
		nf := h.stamp + leaseChunk
		if err := h.journal.Append(JEntry{Kind: jLease, Stamp: nf}); err != nil {
			panic(fmt.Sprintf("federation: hub journal append: %v", err))
		}
		h.leaseFloor = nf
	}
	h.stamp++
	return h.stamp
}

// clock is the lease clock.
func (h *Hub) clock() time.Time {
	if h.cfg.Now != nil {
		return h.cfg.Now()
	}
	return time.Now()
}

// injectPoint fires a named hub crash point when an injector is armed.
func (h *Hub) injectPoint(p string) {
	if h.cfg.Inject != nil {
		h.cfg.Inject(p)
	}
}

// Killed reports whether a hub crash point fired.
func (h *Hub) Killed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.killed
}

// KilledCh closes when a hub crash point fires; the cluster monitor
// uses it to trigger the reopen cycle.
func (h *Hub) KilledCh() <-chan struct{} { return h.killedCh }

// Epoch reports the hub incarnation number.
func (h *Hub) Epoch() uint32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.epoch
}

// hubHost is the hub as the driver's Host. Only the clock is live in
// this stage: the hub grants stamps and has the owning node force-log
// the records inside its own handlers, not through driver transitions,
// so a force-log asked of it is refused.
type hubHost struct{ h *Hub }

func (hh hubHost) NextSeq() int64           { return hh.h.next() }
func (hh hubHost) ForceLog(wal.Record) bool { return false }
func (hh hubHost) Now() int64               { return hh.h.stamp }
func (hh hubHost) Released()                {}

// resp builds a response frame, carrying the current progress
// generation so idle nodes can tell stale quiescence from real, and the
// hub epoch so clients track the incarnation they are speaking to.
func (h *Hub) resp(st Status) *Frame {
	return &Frame{Type: MsgResponse, Status: st, Gen: h.stamp, Epoch: h.epoch}
}

func (h *Hub) errf(format string, args ...any) *Frame {
	f := h.resp(StError)
	f.Err = fmt.Sprintf(format, args...)
	return f
}

// Handle executes one request inside the serial section. Responses to
// non-idempotent requests are cached by (node, request id): a retry
// after an ambiguous timeout, or a duplicated delivery, replays the
// cached response instead of re-executing — RPCs are exactly-once.
//
// A hub crash point firing inside a handler kills the hub: the panic is
// converted into a nil response (the server drops the connection
// without answering — the in-flight request's effects are lost with the
// hub's memory, exactly like kill -9 mid-handler) and every later
// request also gets nil until the cluster reopens a fresh incarnation.
func (h *Hub) Handle(req *Frame) (out *Frame) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.killed {
		return nil
	}
	defer scheduler.OnInjectedCrash(func(string) {
		h.killed = true
		close(h.killedCh)
		h.reg.Inc(metrics.FedHubKills)
		out = nil
	})
	h.reg.Inc(metrics.FedRPCs)

	if req.Type == MsgHello {
		return h.handleHello(req)
	}
	// Stale-incarnation gate: a frame carrying a previous hub's epoch,
	// or arriving from a node whose membership lease expired, bounces
	// with StStale — uncached, so once the node re-hellos and
	// re-attaches, a retry of the same request id is not wedged behind
	// a poisoned dedup entry.
	if req.Epoch != h.epoch {
		h.reg.Inc(metrics.FedStaleBounces)
		return h.resp(StStale)
	}
	cache := h.dedup[req.Node]
	if cache == nil {
		return h.errf("unknown node %d (no hello)", req.Node)
	}
	if n := h.nodes[req.Node]; n != nil {
		if n.dead {
			h.reg.Inc(metrics.FedStaleBounces)
			return h.resp(StStale)
		}
		h.lastSeen[req.Node] = h.clock() // every frame refreshes the lease
	}
	if req.Type == MsgCancel {
		return h.handleCancel(req, cache)
	}
	if prior, ok := cache[req.Req]; ok {
		h.reg.Inc(metrics.FedDedupReplays)
		cp := *prior
		return &cp
	}
	switch req.Type {
	case MsgAdmit:
		out = h.handleAdmit(req)
	case MsgDispatch:
		out = h.handleDispatch(req)
	case MsgCommitLocal:
		out = h.handleCommitLocal(req)
	case MsgStepDispatch:
		out = h.handleStepDispatch(req)
	case MsgStepCommit:
		out = h.handleStepCommit(req)
	case MsgAbortTx:
		out = h.handleAbortTx(req)
	case MsgAbortBegin:
		out = h.handleAbortBegin(req)
	case MsgCommitClear:
		out = h.handleCommitClear(req)
	case MsgResolve:
		out = h.handleResolve(req)
	case MsgTerminate:
		out = h.handleTerminate(req)
	case MsgFailed:
		out = h.handleFailed(req)
	case MsgIdle:
		out = h.handleIdle(req)
	case MsgHeartbeat:
		h.reg.Inc(metrics.FedHeartbeats)
		out = h.resp(StOK) // the lease refresh above is the payload
	case MsgReattach:
		out = h.handleReattach(req)
	default:
		out = h.errf("unhandled message type %v", req.Type)
	}
	out.Gen = h.stamp
	cache[req.Req] = out
	cp := *out
	return &cp
}

func (h *Hub) handleHello(req *Frame) *Frame {
	if h.nodes[req.Node] == nil {
		h.nodes[req.Node] = &hubNode{name: req.Origin, idleGen: -1}
		h.dedup[req.Node] = make(map[uint64]*Frame)
	} else if h.nodes[req.Node].dead {
		// A lease-expired (or declared-dead) node re-attaching: revive
		// its membership. Its pre-death processes stay zombies — the
		// node learns their settled fates through MsgReattach.
		h.nodes[req.Node].dead = false
		h.nodes[req.Node].done = false
		h.nodes[req.Node].idleGen = -1
	}
	h.lastSeen[req.Node] = h.clock()
	return h.resp(StOK)
}

// handleCancel is the fetch-or-void protocol: after exhausting its
// transport retry budget on an invocation-class RPC, the node asks what
// became of the original request (Gen carries its id). If any delivery
// executed, the cached response is replayed (Flag2 set); otherwise the
// request id is voided — a marker response is cached under it so a
// straggling delivery can never execute it later — and the node takes
// the invocation-failure path.
func (h *Hub) handleCancel(req *Frame, cache map[uint64]*Frame) *Frame {
	orig := uint64(req.Gen)
	if prior, ok := cache[orig]; ok && prior.Err != "voided" {
		cp := *prior
		cp.Flag2 = true
		return &cp
	}
	void := h.resp(StError)
	void.Err = "voided"
	cache[orig] = void
	out := h.resp(StOK)
	out.Flag2 = false
	return out
}

func (h *Hub) handleAdmit(req *Frame) *Frame {
	id := process.ID(req.Proc)
	if h.byID[id] != nil {
		// Replayed admit of a known incarnation (a lost response whose
		// retry missed the dedup table, e.g. across a revival): answer
		// idempotently with Stamp 0 and Flag2 set — the node must not
		// force a second RecStart record.
		out := h.resp(StOK)
		out.Flag2 = true
		if hp := h.byID[id]; hp.settled() {
			// The incarnation was settled while the admitting node was
			// out (retired for re-homing, or terminated by a previous
			// owner). Carry the fate so the node files it as done instead
			// of driving a dead incarnation.
			if hp.fate {
				out.Extra = ReattachCommitted
			} else {
				out.Extra = ReattachAborted
			}
		}
		return out
	}
	def := h.defs[req.Origin]
	if def == nil {
		return h.errf("unknown origin %q", req.Origin)
	}
	if string(def.ID) != req.Proc {
		def = def.WithID(id)
	}
	hp := &hubProc{
		Proc: *scheduler.NewProc(def, int(req.Local), process.ID(req.Origin), process.ID(req.Origin), int(req.Extra)),
		node: req.Node, inflight: make(map[int]scheduler.PreparedTx),
	}
	h.drv.Add(&hp.Proc)
	h.byID[id] = hp
	delete(h.pending, req.Origin)
	if s := int(req.Extra); s > h.maxSuffix[req.Origin] {
		h.maxSuffix[req.Origin] = s
	}
	if h.journal != nil {
		// Ownership row: lets a reopened hub (or an operator) answer
		// "who owned this origin, at which incarnation" without the
		// stitched WALs.
		if err := h.journal.Append(JEntry{
			Kind: jAssign, Node: req.Node, Origin: req.Origin,
			Proc: req.Proc, Arrival: int64(req.Local),
		}); err != nil {
			panic(fmt.Sprintf("federation: hub journal append: %v", err))
		}
	}
	h.pol.Bump()
	out := h.resp(StOK)
	out.Stamp = h.next() // for the node's RecStart record
	return out
}

// handleDispatch policy-checks and prepares a frontier activity. On
// success the node must force-log the prepared outcome at the returned
// stamp BEFORE asking for CommitLocal: a crash after the subsystem
// prepare but before that record is the orphan window recovery resolves
// by presumed abort, and a committed effect without a log record would
// be unrepairable.
func (h *Hub) handleDispatch(req *Frame) *Frame {
	hp := h.byID[process.ID(req.Proc)]
	if hp == nil {
		return h.errf("dispatch for unknown process %s", req.Proc)
	}
	if hp.parked {
		out := h.resp(StPark)
		out.Victim = string(hp.ID)
		return out
	}
	if hp.Phase != policy.Running {
		return h.errf("dispatch for %s in phase %d", hp.ID, hp.Phase)
	}
	if hp.AbortPending {
		return h.resp(StVictim)
	}
	local := int(req.Local)
	a := hp.Def.Activity(local)
	if a == nil {
		return h.errf("dispatch for unknown activity %s/%d", hp.ID, local)
	}
	if !h.drv.MayDispatch(&hp.Proc, a) {
		return h.resp(StPolicyWait)
	}
	if h.parkedConflict(hp.ID, a.Service) {
		return h.resp(StPolicyWait)
	}
	res, err := h.fed.Invoke(string(hp.Origin), a.Service, subsystem.Prepare)
	switch {
	case errors.Is(err, subsystem.ErrLocked):
		return h.resp(StLockWait)
	case subsystem.IsInvocationFailure(err):
		return h.invocationFailed(hp, local, a.Service, a.Kind)
	case err != nil:
		return h.errf("invoke %s/%s: %v", hp.ID, a.Service, err)
	}
	sub, _ := h.fed.Owner(a.Service)
	hp.Running[local] = a.Service
	hp.inflight[local] = scheduler.PreparedTx{Sub: sub, Tx: res.Tx, Service: a.Service}
	h.pol.Bump()
	out := h.resp(StOK)
	out.Tx = int64(res.Tx)
	out.Subsystem = sub.Name()
	out.Service = a.Service
	out.Stamp = h.next() // for the node's "prepared" outcome record
	// Kill window: the subsystem transaction is prepared and the stamp
	// issued, but the response dies with the hub — the node never logs
	// the prepared outcome, leaving an orphan the reopen's recovery
	// presumes aborted.
	h.injectPoint(PointHubDispatch)
	return out
}

// invocationFailed is the policy half of the driver's failed completion
// (Driver.Complete): a retriable activity re-invokes (the node logs the
// aborted outcome at the stamp); anything else is a definitive failure
// (Definition 4).
func (h *Hub) invocationFailed(hp *hubProc, local int, service string, kind activity.Kind) *Frame {
	if kind.GuaranteedToCommit() {
		out := h.resp(StFailedTransient)
		out.Stamp = h.next() // for the node's "aborted" outcome record
		return out
	}
	// Permanent failure: FailedInvoke event, then the instance's failure
	// plan — ◁ alternative / forward recovery, or backward recovery.
	// The node computes the identical plan from its own mirror instance;
	// the response only carries stamps and which block ran.
	stampFail := h.next() // for the node's RecFailed record
	h.pol.AppendEvent(&policy.Event{
		Seq: stampFail, Proc: hp.ID, Local: local, Service: service, Kind: kind,
		Typ: schedule.FailedInvoke,
	})
	plan, err := hp.Inst.MarkFailed(local)
	if err != nil {
		return h.errf("mark failed %s/%d: %v", hp.ID, local, err)
	}
	out := h.resp(StFailedPermanent)
	out.Stamp = stampFail
	if hp.AbortPending {
		// A pending abort supersedes the failure's local plan.
		out.Flag2 = true
		h.pol.Bump()
		return out
	}
	if plan.Abort {
		hp.Phase = policy.Aborting
		hp.Recovery = plan.Steps
		out.Flag = true
		out.Stamp2 = h.next() // for the node's RecAbortBegin record
		h.pol.AppendEvent(&policy.Event{Seq: out.Stamp2, Proc: hp.ID, Typ: schedule.AbortBegin})
	} else {
		hp.Recovery = plan.Steps
	}
	h.pol.Bump()
	return out
}

// queueVictim records a designation for delivery through the owner's
// idle polls (dispatch-class RPCs deliver it redundantly).
func (h *Hub) queueVictim(hp *hubProc) {
	if n := h.nodes[hp.node]; n != nil && !n.dead {
		n.victims = append(n.victims, hp.ID)
	}
}

// handleCommitLocal resolves a prepared frontier activity after the
// node force-logged it: commit immediately when the activity is
// compensatable or the process has no active conflicting predecessor,
// else defer under Lemma 1 (the transaction stays prepared, its event
// tentative).
func (h *Hub) handleCommitLocal(req *Frame) *Frame {
	hp := h.byID[process.ID(req.Proc)]
	if hp == nil {
		return h.errf("commit-local for unknown process %s", req.Proc)
	}
	local := int(req.Local)
	ptx, ok := hp.inflight[local]
	if !ok {
		return h.errf("commit-local for %s/%d with no in-flight transaction", hp.ID, local)
	}
	a := hp.Def.Activity(local)
	delete(hp.Running, local)
	delete(hp.inflight, local)
	h.pol.Bump()
	if h.drv.CommitsNow(&hp.Proc, a.Kind) {
		if err := ptx.Sub.CommitPrepared(ptx.Tx); err != nil {
			return h.errf("commit %s/%s: %v", hp.ID, ptx.Service, err)
		}
		stamp := h.next() // for the node's RecResolved(commit) record
		if err := hp.Inst.MarkCommitted(local); err != nil {
			return h.errf("%v", err)
		}
		hp.committedEvents++
		h.pol.AppendEvent(&policy.Event{
			Seq: stamp, Proc: hp.ID, Local: local, Service: ptx.Service, Kind: a.Kind,
			Typ: schedule.Invoke,
		})
		out := h.resp(StOK)
		out.Stamp = stamp
		out.Tx = int64(ptx.Tx)
		out.Subsystem = ptx.Sub.Name()
		out.Service = ptx.Service
		return out
	}
	if err := hp.Inst.MarkPrepared(local); err != nil {
		return h.errf("%v", err)
	}
	hp.Prepared[local] = ptx
	h.pol.AppendEvent(&policy.Event{
		Seq: h.next(), Proc: hp.ID, Local: local, Service: ptx.Service, Kind: a.Kind,
		Typ: schedule.Invoke, Tentative: true,
	})
	return h.resp(StDeferred)
}

// handleStepDispatch gates (the driver's step gate: Lemmas 2 and 3 plus
// the forced-order and defer-to-aborting guards) and prepares a recovery
// step. Step invocation failures are always transient: the node
// re-invokes, no record is written.
func (h *Hub) handleStepDispatch(req *Frame) *Frame {
	hp := h.byID[process.ID(req.Proc)]
	if hp == nil {
		return h.errf("step-dispatch for unknown process %s", req.Proc)
	}
	if hp.parked {
		// The park raced an in-flight (or next-round retried) dispatch
		// from the owner: the process was parked between the node's last
		// observation and this RPC. Granting here would execute a step
		// the composed recovery also replans.
		out := h.resp(StPark)
		out.Victim = string(hp.ID)
		return out
	}
	if h.parkedConflict(hp.ID, req.Service) {
		return h.resp(StPolicyWait)
	}
	st := process.Step{Kind: process.StepKind(req.Extra), Local: int(req.Local), Service: req.Service}
	if st.Kind != process.StepCompensate && st.Kind != process.StepInvoke {
		return h.errf("step-dispatch with kind %v", st.Kind)
	}
	if !h.drv.StepGate(&hp.Proc, st) {
		return h.resp(StPolicyWait)
	}
	kind := hp.StepWork(st).Kind
	res, err := h.fed.Invoke(string(hp.Origin), st.Service, subsystem.Prepare)
	switch {
	case errors.Is(err, subsystem.ErrLocked):
		return h.resp(StLockWait)
	case subsystem.IsInvocationFailure(err):
		return h.resp(StFailedTransient)
	case err != nil:
		return h.errf("invoke step %s/%s: %v", hp.ID, st.Service, err)
	}
	sub, _ := h.fed.Owner(st.Service)
	hp.StepBusy = true
	hp.StepSvc = st.Service
	hp.stepTx = scheduler.PreparedTx{Sub: sub, Tx: res.Tx, Service: st.Service}
	h.pol.Bump()
	out := h.resp(StOK)
	out.Tx = int64(res.Tx)
	out.Subsystem = sub.Name()
	out.Kind = uint8(kind)
	out.Stamp = h.next() // for the node's RecCompensate / committed-outcome record
	return out
}

// handleStepCommit commits the prepared step transaction after the node
// force-logged it (the log-then-commit order whose crash window lands
// on recovery's redo rule).
func (h *Hub) handleStepCommit(req *Frame) *Frame {
	hp := h.byID[process.ID(req.Proc)]
	if hp == nil {
		return h.errf("step-commit for unknown process %s", req.Proc)
	}
	if !hp.StepBusy {
		return h.errf("step-commit for %s with no step in flight", hp.ID)
	}
	st := process.Step{Kind: process.StepKind(req.Extra), Local: int(req.Local), Service: req.Service}
	ptx := hp.stepTx
	hp.StepBusy = false
	hp.StepSvc = ""
	hp.stepTx = scheduler.PreparedTx{}
	h.pol.Bump()
	if err := ptx.Sub.CommitPrepared(ptx.Tx); err != nil {
		return h.errf("commit step %s/%s: %v", hp.ID, st.Service, err)
	}
	if len(hp.Recovery) > 0 && hp.Recovery[0] == st {
		hp.Recovery = hp.Recovery[1:]
	}
	hp.committedEvents++
	switch st.Kind {
	case process.StepCompensate:
		h.pol.MarkCompensated(hp.ID, st.Local)
		h.pol.AppendEvent(&policy.Event{
			Seq: h.next(), Proc: hp.ID, Local: st.Local, Service: st.Service,
			Kind: activity.Compensation, Typ: schedule.Invoke, Inverse: true,
		})
	case process.StepInvoke:
		h.pol.AppendEvent(&policy.Event{
			Seq: h.next(), Proc: hp.ID, Local: st.Local, Service: st.Service,
			Kind: activity.Kind(req.Kind), Typ: schedule.Invoke,
		})
	}
	if err := hp.Inst.ApplyStep(st); err != nil {
		return h.errf("%v", err)
	}
	return h.resp(StOK)
}

// handleAbortTx rolls back one prepared transaction: the
// StepAbortPrepared resolution of an abandoned branch (Flag set — the
// mirror step is applied) or an abort-completion leftover. The node
// logs the abort resolution at the stamp when Flag is set in the
// response.
func (h *Hub) handleAbortTx(req *Frame) *Frame {
	hp := h.byID[process.ID(req.Proc)]
	if hp == nil {
		return h.errf("abort-tx for unknown process %s", req.Proc)
	}
	local := int(req.Local)
	st := process.Step{Kind: process.StepAbortPrepared, Local: local, Service: req.Service}
	if req.Flag && len(hp.Recovery) > 0 && hp.Recovery[0].Kind == process.StepAbortPrepared && hp.Recovery[0].Local == local {
		hp.Recovery = hp.Recovery[1:]
	}
	out := h.resp(StOK)
	if ptx, ok := hp.Prepared[local]; ok {
		if err := ptx.Sub.AbortPrepared(ptx.Tx); err == nil {
			out.Flag = true
			out.Tx = int64(ptx.Tx)
			out.Subsystem = ptx.Sub.Name()
			out.Service = ptx.Service
			out.Stamp = h.next() // for the node's RecResolved(abort) record
		}
		delete(hp.Prepared, local)
	}
	h.pol.EraseTentative(hp.ID, local)
	if req.Flag {
		_ = hp.Inst.ApplyStep(st)
	}
	h.pol.Bump()
	return out
}

// handleAbortBegin starts backward recovery: both mirrors compute the
// identical completion C(P_i) from their instances.
func (h *Hub) handleAbortBegin(req *Frame) *Frame {
	hp := h.byID[process.ID(req.Proc)]
	if hp == nil {
		return h.errf("abort-begin for unknown process %s", req.Proc)
	}
	steps, err := hp.Inst.Abort()
	if err != nil {
		return h.errf("abort %s: %v", hp.ID, err)
	}
	hp.AbortPending = false
	hp.Phase = policy.Aborting
	hp.Recovery = steps
	out := h.resp(StOK)
	out.Stamp = h.next() // for the node's RecAbortBegin record
	h.pol.AppendEvent(&policy.Event{Seq: out.Stamp, Proc: hp.ID, Typ: schedule.AbortBegin})
	h.pol.Bump()
	return out
}

// handleCommitClear is the Lemma-1 gate for the 2PC commit of a
// process's prepared set. Granting is stable: active conflicting
// predecessor sets only shrink (new events of other processes order
// after ours; tentative events only finalize to later positions or
// erase), so a granted decision cannot be invalidated — the grant marks
// the process decided, excluding it from victim designation, and the
// node force-logs RecDecision at the stamp before resolving.
func (h *Hub) handleCommitClear(req *Frame) *Frame {
	hp := h.byID[process.ID(req.Proc)]
	if hp == nil {
		return h.errf("commit-clear for unknown process %s", req.Proc)
	}
	if hp.AbortPending {
		return h.resp(StVictim)
	}
	// The Lemma-1 gate only guards a deferred prepared set — a process
	// with nothing prepared terminates unconditionally, exactly like the
	// engine's tryFinish (otherwise a zombie predecessor could block a
	// fully committed process forever).
	if len(hp.Prepared) == 0 {
		return h.resp(StOK)
	}
	if h.pol.HasActiveConflictPred(h.drv, hp.ID) {
		return h.resp(StNotClear)
	}
	out := h.resp(StOK)
	if hp.Inst.Done() {
		hp.decided = true
	}
	out.Flag = true
	out.Stamp = h.next() // for the node's RecDecision record
	// Kill window: the decision is granted hub-side but the stamp dies
	// with the hub before the node can log RecDecision — the reopen's
	// recovery sees only an undecided prepared set and presumes abort,
	// reconciling any already-settled participant through TxFate.
	h.injectPoint(PointHubDecision)
	return out
}

// handleResolve commits one prepared 2PC participant; the tentative
// event finalizes at the resolve stamp (its locks were held throughout,
// so the move is conflict-safe — same argument as FinalizeTentative in
// the engine).
func (h *Hub) handleResolve(req *Frame) *Frame {
	hp := h.byID[process.ID(req.Proc)]
	if hp == nil {
		return h.errf("resolve for unknown process %s", req.Proc)
	}
	local := int(req.Local)
	ptx, ok := hp.Prepared[local]
	if !ok {
		return h.errf("resolve for %s/%d with no prepared transaction", hp.ID, local)
	}
	if err := ptx.Sub.CommitPrepared(ptx.Tx); err != nil {
		return h.errf("resolve %s/%s: %v", hp.ID, ptx.Service, err)
	}
	stamp := h.next() // for the node's RecResolved(commit) record
	if err := hp.Inst.MarkCommitted(local); err != nil {
		return h.errf("%v", err)
	}
	h.pol.FinalizeTentative(hp.ID, local, stamp)
	delete(hp.Prepared, local)
	hp.committedEvents++
	h.pol.Bump()
	out := h.resp(StOK)
	out.Stamp = stamp
	out.Tx = int64(ptx.Tx)
	out.Subsystem = ptx.Sub.Name()
	out.Service = ptx.Service
	// Kill window: the participant is committed at its subsystem but
	// the node never logs RecResolved — with RecDecision already
	// logged, the reopen's recovery presumes commit and redoes the
	// resolution idempotently through the subsystem's TxFate.
	h.injectPoint(PointHubResolve)
	return out
}

// handleTerminate emits the terminal transition. The engine's sweep
// over waiting prepared sets (Engine.terminate) has no hub-side
// equivalent — blocked nodes poll CommitClear and observe the
// unblocking themselves.
func (h *Hub) handleTerminate(req *Frame) *Frame {
	hp := h.byID[process.ID(req.Proc)]
	if hp == nil {
		return h.errf("terminate for unknown process %s", req.Proc)
	}
	if hp.parked {
		// A quiescence sweep on another node's idle poll parked this
		// process while its terminate was in flight. Parked processes
		// must not log a terminate record — recovery finishes them.
		out := h.resp(StPark)
		out.Victim = string(hp.ID)
		return out
	}
	hp.Phase = policy.Done
	hp.fate = req.Flag
	out := h.resp(StOK)
	out.Stamp = h.next() // for the node's RecTerminate record
	h.pol.AppendEvent(&policy.Event{Seq: out.Stamp, Proc: hp.ID, Typ: schedule.Terminate, Committed: req.Flag})
	hp.Inst.MarkTerminated(req.Flag)
	h.pol.Bump()
	return out
}

// handleFailed is the node-reported invocation failure: the transport
// voided a dispatch after retry exhaustion (Cancel certified it never
// ran), which the engine treats as an invocation failure the resilience
// layer could not mask.
func (h *Hub) handleFailed(req *Frame) *Frame {
	hp := h.byID[process.ID(req.Proc)]
	if hp == nil {
		return h.errf("failed-report for unknown process %s", req.Proc)
	}
	a := hp.Def.Activity(int(req.Local))
	if a == nil {
		return h.errf("failed-report for unknown activity %s/%d", hp.ID, req.Local)
	}
	return h.invocationFailed(hp, int(req.Local), a.Service, a.Kind)
}

// Reattach fates, carried in the response Extra field. After a hub
// restart (or a node's own lease-expiry exile) the node asks, per
// in-flight process, what the hub's recovered view says became of it.
const (
	// ReattachUnknown: the hub has never heard of the incarnation — the
	// admit response was lost before the node could force RecStart, so
	// no WAL record exists and re-admitting the same id is safe (had any
	// record existed, recovery would have terminated it and a fate would
	// be known).
	ReattachUnknown int32 = iota
	// ReattachCommitted: the incarnation terminated committed. The node
	// marks it done WITHOUT logging — the terminate record already
	// exists (pre-crash or in the recovery tail).
	ReattachCommitted
	// ReattachAborted: the incarnation terminated aborted (or recovery
	// will abort it). If the node asked for a restart (Flag) and the
	// origin is not already live elsewhere, the response carries a fresh
	// incarnation grant: Flag set, Victim = new id, Stamp2 = suffix.
	ReattachAborted
	// ReattachParked: the incarnation is a zombie or parked — the node
	// must stop driving it and log nothing; post-run composed recovery
	// finishes it.
	ReattachParked
	// ReattachLive: the hub still tracks the incarnation as running —
	// the node keeps driving it (the dedup table absorbs any replays).
	ReattachLive
)

// handleReattach answers a node's post-reconnect fate query for one
// in-flight process incarnation (see the Reattach* codes).
func (h *Hub) handleReattach(req *Frame) *Frame {
	h.reg.Inc(metrics.FedReattaches)
	id := process.ID(req.Proc)
	out := h.resp(StOK)
	if hp := h.byID[id]; hp != nil {
		switch {
		case hp.settled() && hp.fate:
			out.Extra = ReattachCommitted
		case hp.settled():
			out.Extra = ReattachAborted
			h.maybeGrantRestart(req, hp.Origin, out)
		case hp.parked || hp.zombie:
			out.Extra = ReattachParked
		default:
			out.Extra = ReattachLive
		}
		return out
	}
	if fate, ok := h.fates[id]; ok {
		// Recovered fate from the reopen's composed recovery pass.
		if fate {
			out.Extra = ReattachCommitted
		} else {
			out.Extra = ReattachAborted
			h.maybeGrantRestart(req, scheduler.Origin(id), out)
		}
		return out
	}
	out.Extra = ReattachUnknown
	return out
}

// maybeGrantRestart attaches a fresh-incarnation grant to an
// aborted-fate reattach response when the node asked for one (Flag) and
// no other incarnation of the origin is live — adoption or an earlier
// reattach may already have re-homed it, and two live incarnations of
// one origin would double-execute the process.
func (h *Hub) maybeGrantRestart(req *Frame, origin process.ID, out *Frame) {
	if !req.Flag {
		return
	}
	if h.pending[string(origin)] {
		// An un-admitted restart incarnation (adoption offer or earlier
		// grant) is already out for this origin — it counts as live even
		// though byID can't see it yet.
		return
	}
	for _, oid := range h.drv.Procs() {
		if q := h.byID[oid]; q.Origin == origin && !q.settled() {
			return
		}
	}
	suffix := h.maxSuffix[string(origin)] + 1
	h.maxSuffix[string(origin)] = suffix
	h.pending[string(origin)] = true
	out.Flag = true
	out.Victim = fmt.Sprintf("%s+r%d", origin, suffix)
	out.Stamp2 = int64(suffix)
}

// handleIdle is cluster-wide stall detection. A node reports the
// progress generation (Gen) of its latest response when a full driver
// round made no progress; Flag marks the node as finished (all owned
// work terminal). When every live node is idle at the current
// generation, the hub designates a victim by the driver's stall-victim
// choice — the abort breaks the cross-node wait cycle.
func (h *Hub) handleIdle(req *Frame) *Frame {
	n := h.nodes[req.Node]
	if n == nil {
		return h.errf("idle from unknown node %d", req.Node)
	}
	// Deliver a queued victim or park designation first.
	for len(n.victims) > 0 {
		id := n.victims[0]
		n.victims = n.victims[1:]
		if hp := h.byID[id]; hp != nil && hp.AbortPending && hp.Phase == policy.Running {
			out := h.resp(StVictim)
			out.Victim = string(id)
			return out
		}
	}
	if len(n.parks) > 0 {
		id := n.parks[0]
		n.parks = n.parks[1:]
		out := h.resp(StPark)
		out.Victim = string(id)
		return out
	}
	if len(n.adopts) > 0 {
		of := n.adopts[0]
		n.adopts = n.adopts[1:]
		out := h.resp(StAdopt)
		out.Origin = string(of.origin)
		out.Victim = string(of.id)
		out.Stamp2 = int64(of.arrival)
		out.Extra = int32(of.suffix)
		return out
	}
	if req.Flag {
		n.done = true
		return h.resp(StOK)
	}
	// Idle polls double as the lease sweep: a partitioned node cannot
	// refresh its lease, and the quiescent survivors polling here are
	// exactly the moment its expiry unblocks them (zombify + adopt).
	h.expireLocked()
	if req.Gen < h.stamp {
		return h.resp(StOK) // stale: progress happened since, re-poll
	}
	n.idleGen = req.Gen
	for _, other := range h.nodes {
		if other.dead || other.done {
			continue
		}
		if other.idleGen != h.stamp {
			return h.resp(StOK)
		}
	}
	// Cluster-wide quiescence: designate a victim.
	h.stalls++
	if h.stalls > h.cfg.MaxStalls {
		return h.errf("stalled with active processes and no progress (%d designations)", h.stalls)
	}
	victim := h.designateVictim()
	if victim == nil {
		return h.parkBlocked(req)
	}
	victim.AbortPending = true
	h.reg.Inc(metrics.FedVictims)
	h.next() // progress bump: every idle mark is now stale
	if victim.node == req.Node {
		out := h.resp(StVictim)
		out.Victim = string(victim.ID)
		return out
	}
	h.queueVictim(victim)
	return h.resp(StOK)
}

// parkBlocked handles quiescence with no designatable victim. With a
// dead node in the cluster this is the zombie-blocked case: surviving
// aborting processes whose next recovery step the Lemma-2/Lemma-3
// gates hold behind a zombie's uncompensated events — events only the
// post-run composed recovery will compensate. Parking hands exactly
// that contract to the node: stop driving the process, log no
// terminate record, and let recovery finish its group abort in correct
// global reverse order (it rebuilds the instance from the stitched
// WALs and re-plans the remaining steps). The parked process's
// subsystem residue is settled like a dead node's undecided work —
// aborted, which is what recovery will presume from its unresolved log
// records — and its policy events stay active so conflicting survivors
// still cannot commit past work that recovery will compensate.
// Without a dead node a nil victim means the stall logic itself is
// broken, which stays a hard error.
func (h *Hub) parkBlocked(req *Frame) *Frame {
	anyDead := false
	for _, n := range h.nodes {
		if n.dead {
			anyDead = true
			break
		}
	}
	if !anyDead {
		// A revived node clears its dead flag but leaves its pre-death
		// processes as zombies, which block survivors just the same.
		for _, id := range h.drv.Procs() {
			if hp := h.byID[id]; hp.zombie && !hp.settled() {
				anyDead = true
				break
			}
		}
	}
	if !anyDead {
		return h.errf("unresolvable stall")
	}
	var own *hubProc
	parked := 0
	for _, id := range h.drv.Procs() {
		hp := h.byID[id]
		n := h.nodes[hp.node]
		if n == nil || n.dead || hp.zombie || hp.Phase != policy.Aborting ||
			len(hp.Running) > 0 || hp.StepBusy {
			continue
		}
		for local, ptx := range hp.Prepared {
			_ = ptx.Sub.AbortPrepared(ptx.Tx)
			delete(hp.Prepared, local)
		}
		hp.Phase, hp.parked = policy.Done, true
		parked++
		if hp.node == req.Node && own == nil {
			own = hp
		} else {
			n.parks = append(n.parks, hp.ID)
		}
	}
	if parked == 0 {
		return h.errf("unresolvable stall\n%s", h.dumpLocked())
	}
	h.pol.Bump()
	h.next() // progress bump: every idle mark is now stale
	if own != nil {
		out := h.resp(StPark)
		out.Victim = string(own.ID)
		return out
	}
	return h.resp(StOK)
}

// parkedConflict reports whether a service conflicts with any parked
// process's remaining forward/compensation steps. Those steps execute
// only during post-run composed recovery — after every live event in
// the stitched log — so conflicting live work admitted now would be
// ordered before them, inverting the serialization order the forced
// gates promised while the process was still live. Blocked survivors
// quiesce and feed the victim/park cascade until recovery owns all the
// remaining conflicting work. StepAbortPrepared entries are skipped:
// parkBlocked already rolled the prepared transactions back.
func (h *Hub) parkedConflict(id process.ID, svc string) bool {
	for _, qid := range h.drv.Procs() {
		q := h.byID[qid]
		if !q.parked || q.ID == id {
			continue
		}
		for _, st := range q.Recovery {
			if st.Kind == process.StepAbortPrepared {
				continue
			}
			if h.table.Conflicts(st.Service, svc) {
				return true
			}
		}
	}
	return false
}

// designateVictim is the driver's stall-victim choice over live-owned,
// undecided processes. Dead nodes' processes are zombies — they stay
// policy-active (their uncommitted work must block conflicting
// survivors until recovery compensates it) but are never designated; a
// zombie stays undesignatable even after its owner revives: its residue
// was settled at death and belongs to recovery.
func (h *Hub) designateVictim() *hubProc {
	victim := h.drv.ChooseVictim(func(p *scheduler.Proc) bool {
		hp := h.byID[p.ID]
		n := h.nodes[hp.node]
		return n == nil || n.dead || hp.zombie || hp.decided
	})
	if victim == nil {
		return nil
	}
	return h.byID[victim.ID]
}

// NodeDown declares a scheduler node dead. Its processes become
// zombies: they keep their policy events (conflicting survivors must
// not commit past work that recovery will compensate) and are excluded
// from stall accounting and victim designation. Their subsystem
// transactions are settled the way recovery will see them, releasing
// locks so surviving compensations cannot deadlock on a corpse:
//
//   - decided processes (RecDecision granted): prepared participants
//     COMMIT — recovery presumes commit after a logged decision, and if
//     the record never made it the presumed abort reconciles through
//     the subsystem's journaled fate (TxFate wins);
//   - everything else (in-flight prepares, Lemma-1 deferred sets):
//     ABORT — the node's log shows at most an unresolved prepare, which
//     recovery presumes aborted; again TxFate reconciles.
//
// In-flight recovery-step transactions are left alone: the node may
// have force-logged the step outcome, which recovery must redo-COMMIT,
// and the hub cannot know — the defined federation crash points never
// fall in that window.
func (h *Hub) NodeDown(node uint32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.killed {
		return // the corpse of a killed hub reacts to nothing
	}
	if h.nodeDownLocked(node) {
		h.adoptOrphans(node)
	}
}

// nodeDownLocked zombifies and settles a node's processes; reports
// whether the node transitioned to dead.
func (h *Hub) nodeDownLocked(node uint32) bool {
	n := h.nodes[node]
	if n == nil || n.dead {
		return false
	}
	n.dead = true
	h.reg.Inc(metrics.FedNodeDeaths)
	for _, id := range h.drv.Procs() {
		hp := h.byID[id]
		if hp.node != node || hp.settled() {
			continue
		}
		hp.zombie = true
		if hp.parked {
			continue // parked residue was already settled by parkBlocked
		}
		if hp.decided {
			for local, ptx := range hp.Prepared {
				if err := ptx.Sub.CommitPrepared(ptx.Tx); err == nil {
					_ = hp.Inst.MarkCommitted(local)
				}
			}
			continue
		}
		for local, ptx := range hp.inflight {
			_ = ptx.Sub.AbortPrepared(ptx.Tx)
			delete(hp.inflight, local)
			delete(hp.Running, local)
		}
		for _, ptx := range hp.Prepared {
			_ = ptx.Sub.AbortPrepared(ptx.Tx)
		}
	}
	h.pol.Bump()
	return true
}

// ExpireLeases runs one lease sweep: every live, unfinished node whose
// last frame is older than LeaseTTL is declared dead (zombify + settle,
// exactly NodeDown) and its adoptable orphans are re-homed. The cluster
// calls this from a sweeper; idle polls piggyback it so a quiescent
// cluster blocked on a partitioned node unblocks without outside help.
func (h *Hub) ExpireLeases() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.expireLocked()
}

func (h *Hub) expireLocked() {
	if h.cfg.LeaseTTL <= 0 || h.killed {
		return
	}
	now := h.clock()
	for id, n := range h.nodes {
		if n.dead || n.done {
			continue
		}
		seen, ok := h.lastSeen[id]
		if !ok || now.Sub(seen) <= h.cfg.LeaseTTL {
			continue
		}
		h.reg.Inc(metrics.FedLeaseExpiries)
		if h.nodeDownLocked(id) {
			h.adoptOrphans(id)
		}
	}
}

// adoptOrphans re-homes a dead node's safe orphans: running,
// undecided processes with zero committed policy events. Such a
// process has nothing the composed recovery must compensate (its
// in-flight and deferred subsystem transactions were just aborted by
// nodeDownLocked), so its origin can restart on a survivor immediately
// instead of blocking until post-run recovery. Anything with committed
// events stays a plain zombie — its events must keep blocking
// conflicting survivors until recovery compensates them (the paper's
// zombie rule), and re-executing the origin before that would reorder
// committed work.
func (h *Hub) adoptOrphans(node uint32) {
	var survivors []uint32
	for id, n := range h.nodes {
		if id != node && !n.dead && !n.done {
			survivors = append(survivors, id)
		}
	}
	if len(survivors) == 0 {
		return // no one to adopt; recovery settles the zombies
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i] < survivors[j] })
	adopted := 0
	for _, id := range h.drv.Procs() {
		hp := h.byID[id]
		if hp.node != node || hp.Phase != policy.Running || hp.decided ||
			hp.StepBusy || len(hp.Recovery) > 0 || hp.committedEvents > 0 {
			continue
		}
		// Erase the tentative events of the (already aborted) Lemma-1
		// deferred set and retire the incarnation; recovery will
		// abort-terminate it from its RecStart record.
		for local := range hp.Prepared {
			h.pol.EraseTentative(hp.ID, local)
			delete(hp.Prepared, local)
		}
		hp.Phase = policy.Done
		hp.fate = false
		suffix := h.maxSuffix[string(hp.Origin)] + 1
		h.maxSuffix[string(hp.Origin)] = suffix
		h.pending[string(hp.Origin)] = true
		newID := process.ID(fmt.Sprintf("%s+r%d", hp.Origin, suffix))
		dst := survivors[adopted%len(survivors)]
		h.nodes[dst].adopts = append(h.nodes[dst].adopts, adoptOffer{
			origin: hp.Origin, id: newID, arrival: hp.Arrival, suffix: suffix,
		})
		// The done report, if the survivor already filed one, is stale:
		// it has work again and must resume polling.
		h.nodes[dst].done = false
		adopted++
		h.reg.Inc(metrics.FedAdoptions)
	}
	if adopted > 0 {
		h.pol.Bump()
		h.next() // progress bump: idle marks predate the new work
	}
}

// Stalls reports how many victim designations the hub performed.
func (h *Hub) Stalls() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stalls
}

// Stamp reports the current global stamp (for diagnostics).
func (h *Hub) Stamp() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stamp
}

// DumpState renders hub state for stall diagnostics.
func (h *Hub) DumpState() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dumpLocked()
}

func (h *Hub) dumpLocked() string {
	s := fmt.Sprintf("stamp=%d stalls=%d\n", h.stamp, h.stalls)
	ids := make([]string, 0, len(h.byID))
	for id := range h.byID {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		hp := h.byID[process.ID(id)]
		if hp.settled() {
			continue
		}
		s += fmt.Sprintf("  %s node=%d phase=%d done=%v running=%d recovery=%d busy=%v abortPending=%v prepared=%d decided=%v\n",
			hp.ID, hp.node, hp.Phase, hp.Inst.Done(), len(hp.Running), len(hp.Recovery),
			hp.StepBusy, hp.AbortPending, len(hp.Prepared), hp.decided)
	}
	return s
}
