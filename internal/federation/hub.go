package federation

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
	"unicode/utf8"

	"transproc/internal/conflict"
	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/scheduler/policy"
	"transproc/internal/subsystem"
	"transproc/internal/twopc"
	"transproc/internal/wal"
)

// HubConfig configures the coordination hub.
type HubConfig struct {
	// Metrics is the optional observability registry.
	Metrics *metrics.Registry
	// Journal force-logs the two facts only the hub knows and that
	// stitched-WAL recovery cannot rebuild: stamp leases (so a
	// reopened hub never reissues an issued-but-unacked stamp) and the
	// epoch. Nil disables journaling.
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

// maxStalls bounds the cluster-wide victim designations of one hub.
const maxStalls = 4096

// Crash points fired inside the hub's serial section, each right after
// the record it names was stamped onto the reply the kill destroys:
// the "prepared" outcome of a frontier dispatch (the subsystem
// transaction is prepared, the node never logs it — an orphan the
// reopen's recovery presumes aborted), the 2PC decision (the node never
// logs RecDecision — an undecided prepared set, presumed aborted), and
// the resolution of a 2PC participant (committed at its subsystem with
// RecDecision logged but RecResolved not — presumed commit, redone
// idempotently through the subsystem's TxFate). Each models kill -9 of
// the coordination agent with mutated in-memory state the reopen must
// rebuild from the stitched WALs plus the hub journal.
const (
	PointHubDispatch = "hub:dispatch"
	PointHubDecision = "hub:decision"
	PointHubResolve  = "hub:resolve"
)

// leaseChunk is how far past the journaled floor the hub extends its
// stamp lease per force-log: one journal append amortizes over this many
// stamps, and a reopened hub's counter jumps at most this far ahead.
const leaseChunk = 512

// hubProc is one process incarnation: the shared driver's record — the
// only instance of the process in the cluster — plus what only the hub
// tracks.
type hubProc struct {
	scheduler.Proc
	node uint32

	// parked is Done for the policy view but distinguishable for
	// advance: a parked process's remaining completion steps run only
	// during post-run recovery — after every live event in the stitched
	// log — so the hub must bounce the owner's racing requests (StPark)
	// and hold conflicting live work behind the parked footprint, or
	// admitted work would order before steps that replay after it and
	// invert the forced serialization order.
	parked bool
	// call is the invocation whose completion is parked: its write-ahead
	// record went out on a reply (sent) and the transition re-enters
	// when the owner's next request acknowledges the append (acked). A
	// parked 2PC decision uses the same two flags, with decided set.
	call        *hubCall
	sent, acked bool
	// decided marks a 2PC commit decision handed out and not yet carried
	// through: the point of no return — the process is exempt from
	// victim designation and its death settles the prepared set by
	// commit.
	decided bool
	// zombie marks a process whose owner died (crash or lease expiry).
	// It stays excluded from victim designation and liveness checks
	// even if the owner later revives: its subsystem residue was
	// settled at death and only recovery (or adoption) finishes it.
	zombie bool
}

// hubCall is a finished subsystem invocation awaiting its completion.
type hubCall struct {
	w   scheduler.Work
	res *subsystem.Result
}

// settled reports a terminated (not merely parked) incarnation.
func (hp *hubProc) settled() bool { return hp.Phase == policy.Done && !hp.parked }

// everCommitted is the adoption gate: an orphan none of whose activities
// ever committed has nothing recovery must compensate, so its origin can
// be re-assigned to a survivor immediately instead of waiting for the
// post-run composed recovery.
func (hp *hubProc) everCommitted() bool {
	for _, st := range hp.Inst.Snapshot() {
		if st == process.Committed || st == process.Compensated {
			return true
		}
	}
	return false
}

// hubNode is the hub's view of one scheduler node.
type hubNode struct {
	name    string
	dead    bool
	done    bool  // reported all owned work terminal
	idleGen int64 // progress generation of the last idle report
	adopts  []adoptOffer
}

// adoptOffer is a queued re-assignment of an orphaned origin to a
// surviving node, delivered through its idle polls as StAdopt.
type adoptOffer struct {
	origin   process.ID
	restarts int // the survivor admits origin.Restart(restarts), a fresh incarnation
	arrival  int
}

// Hub is the coordination agent: it owns the subsystem federation, the
// single policy state, the global stamp counter and the process table.
// Every handler runs under one mutex — the serial section that makes
// cross-node decisions total-ordered; the stamps it puts on the records
// place the nodes' WALs into that order.
type Hub struct {
	mu    sync.Mutex
	fed   *subsystem.Federation
	table *conflict.Table
	pol   *policy.State
	// drv is the shared protocol driver, hosted in full: its process
	// table is the policy view and what a process does next is its Next
	// (advance).
	drv *scheduler.Driver
	// out is the reply under construction: the records the current
	// request's transition force-logs land on it (hubHost.ForceLog).
	out *Frame
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
	// nodes.
	fates map[process.ID]bool
}

// NewHub builds the hub over a federation and the process definitions
// (by origin id; restart incarnations derive from them). The definitions
// pass the same validation as the engines' jobs.
func NewHub(fed *subsystem.Federation, defs []*process.Process, cfg HubConfig) (*Hub, error) {
	jobs := make([]scheduler.Job, len(defs))
	for i, p := range defs {
		jobs[i] = scheduler.Job{Proc: p}
	}
	if err := scheduler.ValidateJobs(fed, jobs); err != nil {
		return nil, err
	}
	table, err := fed.ConflictTable()
	if err != nil {
		return nil, err
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
	h.drv = &scheduler.Driver{Host: hubHost{h}, Fed: fed, Pol: h.pol, Coord: twopc.New(h.twopcAppend), Reg: cfg.Metrics}
	if cfg.Metrics != nil {
		h.drv.Coord.Metrics = cfg.Metrics
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

// KilledCh closes when a hub crash point fires; the cluster monitor
// uses it to trigger the reopen cycle.
func (h *Hub) KilledCh() <-chan struct{} { return h.killedCh }

// Epoch reports the hub incarnation number.
func (h *Hub) Epoch() uint32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.epoch
}

// hubHost is the hub as the driver's Host; its log is the owning node's
// WAL, one round trip away.
type hubHost struct{ h *Hub }

func (hh hubHost) NextSeq() int64 { return hh.h.next() }
func (hh hubHost) Now() int64     { return hh.h.stamp }

// ForceLog stamps the record and puts it on the reply under
// construction; the owning node appends a reply's records in order
// before it asks for the process again. A write-ahead record
// (wal.Record.WriteAhead, the runtime's rule too) is refused on the way
// out, which parks the transition (the driver leaves everything as it
// was), and accepted when the transition re-enters on the request that
// acknowledges the append. Every other record announces a change the
// log may lose with the reply: recovery then redoes or presumes it
// (DESIGN.md §6j).
func (hh hubHost) ForceLog(rec wal.Record) bool {
	h := hh.h
	ahead := rec.WriteAhead()
	var hp *hubProc
	if ahead {
		if hp = h.byID[process.ID(rec.Proc)]; hp.acked {
			hp.acked = false
			return true
		}
	}
	rec.Stamp = h.next()
	h.out.Records = append(h.out.Records, rec)
	if !ahead {
		return true
	}
	hp.sent = true
	switch {
	case rec.Type == wal.RecDecision:
		hp.decided = true
		h.injectPoint(PointHubDecision)
	case rec.Outcome == "prepared":
		h.injectPoint(PointHubDispatch)
	}
	return false
}

// errParked is how the 2PC coordinator sees a refused force-log.
var errParked = errors.New("federation: write-ahead record awaits the node's acknowledgement")

// twopcAppend is the append function of the hub's 2PC coordinator: the
// same force-log, so the decision parks like every other write-ahead
// record, and a logged resolution is the PointHubResolve crash point.
func (h *Hub) twopcAppend(rec wal.Record) (int64, error) {
	if !(hubHost{h}).ForceLog(rec) {
		return 0, errParked
	}
	if rec.Type == wal.RecResolved {
		h.injectPoint(PointHubResolve)
	}
	return h.stamp, nil
}

// resp builds a response frame, carrying the current progress
// generation so idle nodes can tell stale quiescence from real, and the
// hub epoch so clients track the incarnation they are speaking to.
func (h *Hub) resp(st Status) *Frame {
	return &Frame{Type: MsgResponse, Status: st, Gen: h.stamp, Epoch: h.epoch}
}

// errf builds an error response. The message is clipped to MaxString,
// with a visible mark, so that a long diagnostic (a stall dump, say)
// still reaches the node instead of a codec error.
func (h *Hub) errf(format string, args ...any) *Frame {
	f := h.resp(StError)
	f.Err = fmt.Sprintf(format, args...)
	if len(f.Err) > MaxString {
		const mark = "… [clipped]"
		n := MaxString - len(mark)
		for !utf8.RuneStart(f.Err[n]) {
			n--
		}
		f.Err = f.Err[:n] + mark
	}
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

// done answers for a settled incarnation: its fate (an incarnation
// retired without a terminate record counts as aborted), whether its
// work stands, and whether the owner may restart the origin.
func (h *Hub) done(hp *hubProc) *Frame {
	out := h.resp(StDone)
	out.Extra, out.Flag = ReattachAborted, hp.Restartable
	if hp.Outcome.Committed {
		out.Extra = ReattachCommitted
	}
	out.Kind = standing(hp.Outcome.Stands)
	return out
}

// standing is Frame.Kind for a settled incarnation's answer.
func standing(stands bool) uint8 {
	if stands {
		return KindStands
	}
	return 0
}

func (h *Hub) handleAdmit(req *Frame) *Frame {
	id := process.ID(req.Proc)
	if hp := h.byID[id]; hp != nil {
		// Replayed admit of a known incarnation (a lost response whose
		// retry missed the dedup table, e.g. across a revival): answer
		// idempotently, without a second RecStart record. An incarnation
		// settled while the admitting node was out (retired for
		// re-homing, or terminated by a previous owner) answers with its
		// fate, so the node files it as done instead of driving a dead
		// incarnation — never restartable: the origin was re-homed.
		if hp.settled() {
			out := h.done(hp)
			out.Flag = false
			return out
		}
		out := h.resp(StOK)
		out.Flag2 = true
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
		node: req.Node,
	}
	h.out = h.resp(StOK)
	h.drv.Admit(&hp.Proc)
	h.byID[id] = hp
	delete(h.pending, req.Origin)
	if s := int(req.Extra); s > h.maxSuffix[req.Origin] {
		h.maxSuffix[req.Origin] = s
	}
	h.out.Stamp = h.out.Records[0].Stamp
	return h.out
}

// handleDispatch drives a process one transition for its owner. The
// request is the acknowledgement that the node appended every record of
// the process's earlier replies — it sends none before it has — so a
// parked transition re-enters here.
func (h *Hub) handleDispatch(req *Frame) *Frame {
	hp := h.byID[process.ID(req.Proc)]
	if hp == nil {
		return h.errf("dispatch for unknown process %s", req.Proc)
	}
	if hp.sent {
		hp.sent, hp.acked = false, true
	}
	h.out = h.resp(StOK)
	st, err := h.advance(hp, req.Flag)
	switch {
	case err != nil:
		return h.errf("%v", err)
	case len(h.out.Records) > MaxRecords:
		return h.errf("transition of %s logs %d records, over the frame's %d", hp.ID, len(h.out.Records), MaxRecords)
	case st == StDone:
		out := h.done(hp)
		out.Records = h.out.Records
		return out
	}
	h.out.Status = st
	return h.out
}

// advance drives hp one transition: the hub's own gates in front — a
// parked process bounces, a parked completion re-enters before anything
// else is looked at — then Driver.Next, whose exec is the hub's. A parked
// 2PC decision re-enters through Next too: it asks Lemma 1 again, whose
// answer cannot turn back (active conflicting predecessor sets only
// shrink), and carries the commit through. voided marks the re-send of a
// request the transport gave up on (Cancel certified it never ran): the
// invocation this call would make fails instead — the engine's path for a
// delivery failure at the invocation boundary.
func (h *Hub) advance(hp *hubProc, voided bool) (Status, error) {
	d, p := h.drv, &hp.Proc
	switch {
	case hp.parked:
		// The park raced the owner's request: granting now would execute
		// a step the composed recovery also replans, or log a terminate
		// record for a process recovery must see non-terminal.
		return StPark, nil
	case p.Phase == policy.Done:
		return StDone, nil
	case hp.call != nil:
		return h.complete(hp)
	}
	act, w, err := d.Next(p, func(_ *scheduler.Proc, w scheduler.Work) (scheduler.Wait, bool) {
		return h.exec(hp, w, voided)
	})
	switch {
	case errors.Is(err, errParked):
		return StOK, nil // the decision is on its way to the log
	case err != nil:
		return StOK, err
	}
	hp.decided = false
	switch act {
	case scheduler.ActInvoke:
		d.Dispatch(p, w)
		return h.complete(hp)
	case scheduler.ActWait:
		return StWait, nil
	case scheduler.ActDone:
		return StDone, nil
	}
	return StOK, nil
}

// exec is the hub's hand in Driver.Next: work conflicting with a parked
// process's remaining steps waits on it; otherwise the subsystem is
// invoked (unless voided), and the first invocation item locks do not
// deny is taken, its completion parked on hp.call until advance has
// logged the dispatch.
func (h *Hub) exec(hp *hubProc, w scheduler.Work, voided bool) (scheduler.Wait, bool) {
	if q := h.parkedConflict(hp.ID, w.Service); q != "" {
		return scheduler.Wait{Rule: policy.RuleParked, Blockers: [][]process.ID{{q}}}, true
	}
	var res *subsystem.Result
	if !voided {
		var held scheduler.Wait
		if res, _, held = h.drv.Invoke(&hp.Proc, w); held.Rule != "" {
			return held, true
		}
	}
	hp.call = &hubCall{w, res}
	return scheduler.Wait{}, false
}

// complete applies (or re-enters) the completion of hp's invocation; it
// stays parked while its write-ahead record is on the way to the log.
func (h *Hub) complete(hp *hubProc) (Status, error) {
	err := h.drv.Complete(&hp.Proc, hp.call.w, hp.call.res)
	if !hp.sent {
		hp.call = nil
	}
	return StOK, err
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
	// incarnation grant: Flag set, Proc = new id.
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
		out.Kind = standing(hp.Outcome.Stands) // set only when it settles
		switch {
		case hp.settled() && hp.Outcome.Committed:
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
		// Recovered fate from the reopen's composed recovery pass: true
		// when the incarnation's work stands.
		out.Kind = standing(fate)
		if fate {
			out.Extra = ReattachCommitted
		} else {
			out.Extra = ReattachAborted
			h.maybeGrantRestart(req, id.Origin(), out)
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
	out.Proc, out.Local = string(origin.Restart(suffix)), int32(suffix)
}

// handleIdle is cluster-wide stall detection. A node reports the
// progress generation (Gen) of its latest response when a full round
// over its processes made no progress; Flag marks the node as finished
// (all owned work terminal). When every live node is idle at the
// current generation, the hub designates a victim by the driver's
// stall-victim choice — the abort breaks the cross-node wait cycle. The
// designation bumps the generation, so every idle mark is stale and the
// owner's next round drives the victim into its abort.
func (h *Hub) handleIdle(req *Frame) *Frame {
	n := h.nodes[req.Node]
	if n == nil {
		return h.errf("idle from unknown node %d", req.Node)
	}
	if len(n.adopts) > 0 {
		of := n.adopts[0]
		n.adopts = n.adopts[1:]
		out := h.resp(StAdopt)
		out.Origin = string(of.origin)
		out.Proc = string(of.origin.Restart(of.restarts))
		out.Local, out.Extra = int32(of.arrival), int32(of.restarts)
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
	if h.stalls > maxStalls {
		return h.errf("stalled with active processes and no progress (%d designations)", h.stalls)
	}
	victim := h.designateVictim()
	if victim == nil {
		return h.parkBlocked()
	}
	h.drv.MarkVictim(victim, "cluster-wide stall")
	h.reg.Inc(metrics.FedVictims)
	h.next() // progress bump: every idle mark is now stale
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
func (h *Hub) parkBlocked() *Frame {
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
	parked := 0
	for _, id := range h.drv.Procs() {
		hp := h.byID[id]
		n := h.nodes[hp.node]
		if n == nil || n.dead || hp.zombie || hp.Phase != policy.Aborting || !hp.Idle() {
			continue
		}
		for ptx := range hp.PreparedSet() {
			_ = ptx.Sub.AbortPrepared(ptx.Tx)
			hp.TakePrepared(ptx.Local)
		}
		hp.Phase, hp.parked = policy.Done, true
		h.pol.Bump(hp.ID)
		parked++
	}
	if parked == 0 {
		return h.errf("unresolvable stall\n%s", h.dumpLocked())
	}
	h.next() // progress bump: every idle mark is now stale
	return h.resp(StOK)
}

// parkedConflict names a parked process whose remaining forward or
// compensation steps conflict with a service ("" for none). Those steps execute
// only during post-run composed recovery — after every live event in
// the stitched log — so conflicting live work admitted now would be
// ordered before them, inverting the serialization order the forced
// gates promised while the process was still live. Blocked survivors
// quiesce and feed the victim/park cascade until recovery owns all the
// remaining conflicting work. StepAbortPrepared entries are skipped:
// parkBlocked already rolled the prepared transactions back.
func (h *Hub) parkedConflict(id process.ID, svc string) process.ID {
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
				return q.ID
			}
		}
	}
	return ""
}

// designateVictim is the driver's stall-victim choice over live-owned,
// undecided processes. Dead nodes' processes are zombies — they stay
// policy-active (their uncommitted work must block conflicting
// survivors until recovery compensates it) but are never designated; a
// zombie stays undesignatable even after its owner revives: its residue
// was settled at death and belongs to recovery.
func (h *Hub) designateVictim() *scheduler.Proc {
	return h.drv.ChooseVictim(func(p *scheduler.Proc) bool {
		hp := h.byID[p.ID]
		n := h.nodes[hp.node]
		return n == nil || n.dead || hp.zombie || hp.decided
	})
}

// NodeDown declares a scheduler node dead. Its processes become
// zombies: they keep their policy events (conflicting survivors must
// not commit past work that recovery will compensate) and are excluded
// from stall accounting and victim designation. Their subsystem
// transactions are settled the way recovery will see them, releasing
// locks so surviving compensations cannot deadlock on a corpse:
//
//   - decided processes (RecDecision handed out, the commit not yet
//     carried through): prepared participants COMMIT — recovery presumes
//     commit after a logged decision, and if the record never made it
//     the presumed abort reconciles through the subsystem's journaled
//     fate (TxFate wins);
//   - everything else (a parked frontier completion, Lemma-1 deferred
//     sets): ABORT — the node's log shows at most an unresolved prepare,
//     which recovery presumes aborted; again TxFate reconciles.
//
// A parked recovery-step transaction is left alone: the node may have
// force-logged the step record, which recovery must redo-COMMIT, and
// the hub cannot know; unlogged, it is an orphan recovery rolls back.
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
			for ptx := range hp.PreparedSet() {
				_ = ptx.Sub.CommitPrepared(ptx.Tx)
			}
			continue
		}
		if c := hp.call; c != nil && !c.w.IsStep {
			sub, _ := h.fed.Owner(c.w.Service)
			_ = sub.AbortPrepared(c.res.Tx)
			h.drv.Undispatch(&hp.Proc, c.w)
			hp.call, hp.sent = nil, false
		}
		for ptx := range hp.PreparedSet() {
			_ = ptx.Sub.AbortPrepared(ptx.Tx)
		}
	}
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
// undecided processes none of whose activities ever committed. Such a
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
			hp.StepBusy || len(hp.Recovery) > 0 || hp.everCommitted() {
			continue
		}
		// Erase the tentative events of the (already aborted) Lemma-1
		// deferred set and retire the incarnation; recovery will
		// abort-terminate it from its RecStart record.
		for ptx := range hp.PreparedSet() {
			h.pol.EraseTentative(hp.ID, ptx.Local)
			hp.TakePrepared(ptx.Local)
		}
		hp.Phase = policy.Done
		h.pol.Bump(hp.ID)
		suffix := h.maxSuffix[string(hp.Origin)] + 1
		h.maxSuffix[string(hp.Origin)] = suffix
		h.pending[string(hp.Origin)] = true
		dst := survivors[adopted%len(survivors)]
		h.nodes[dst].adopts = append(h.nodes[dst].adopts, adoptOffer{
			origin: hp.Origin, restarts: suffix, arrival: hp.Arrival,
		})
		// The done report, if the survivor already filed one, is stale:
		// it has work again and must resume polling.
		h.nodes[dst].done = false
		adopted++
		h.reg.Inc(metrics.FedAdoptions)
	}
	if adopted > 0 {
		h.next() // progress bump: idle marks predate the new work
	}
}

// DumpState renders hub state for stall diagnostics.
func (h *Hub) DumpState() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dumpLocked()
}

func (h *Hub) dumpLocked() string {
	s := fmt.Sprintf("stamp=%d stalls=%d\n%s", h.stamp, h.stalls, h.drv.Dump())
	for _, p := range h.drv.All() {
		if hp := h.byID[p.ID]; !hp.settled() {
			s += fmt.Sprintf("  %s node=%d decided=%v zombie=%v parked=%v\n", hp.ID, hp.node, hp.decided, hp.zombie, hp.parked)
		}
	}
	return s
}
