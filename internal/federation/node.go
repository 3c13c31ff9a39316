package federation

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/wal"
)

// NodeJob is a process owned by a node, with its global arrival rank.
type NodeJob struct {
	ID      process.ID
	Arrival int
}

// NodeConfig configures one scheduler node.
type NodeConfig struct {
	ID   uint32
	Name string
	// Transport reaches the hub (Dial, possibly wrapped by a fault
	// model).
	Transport Transport
	// WAL is the node's private log; records carry hub-issued stamps so
	// the stitcher can merge the per-node logs into one global history.
	WAL  wal.Log
	Jobs []NodeJob
	// MaxRestarts bounds restart incarnations per origin process.
	MaxRestarts int
	// DispatchBudget bounds transport attempts of an invocation RPC
	// (0 = default).
	DispatchBudget int
	// Inject fires the node's named crash points (PointFedDispatch,
	// PointFedAfterPrepared and, since the node's log is the 2PC
	// coordinator's, internal/twopc's "twopc:after-decision" and
	// "twopc:mid-resolve"); a fault plan panics through it with a crash
	// sentinel the node recovers.
	Inject  func(string)
	Metrics *metrics.Registry
	// HeartbeatEvery sends a lease-refreshing heartbeat when the driver
	// is sleeping (its RPCs refresh the lease implicitly otherwise);
	// zero disables heartbeats.
	HeartbeatEvery time.Duration
}

// Crash points fired by scheduler nodes: before a request to drive a
// process is sent, and right after the node force-logged a "prepared"
// outcome — before the request that acknowledges it lets the hub commit
// (the orphan-prepared window that recovery resolves by presumed abort).
const (
	PointFedDispatch      = "fed:dispatch"
	PointFedAfterPrepared = "fed:after-prepared"
)

// nodeProc is what a node knows of one process incarnation it owns: who
// it is, whether it was admitted and whether it is over. The instance
// lives at the hub.
type nodeProc struct {
	id       process.ID
	origin   process.ID
	arrival  int
	restarts int
	backoff  int // rounds to wait before (re-)admission
	admitted bool
	done     bool
	last     wal.RecType // type of the last record logged for it
}

// Node drives its owned processes against the hub, one transition per
// process and round, and is the force-log of the transitions the hub
// runs for them: every reply's records are appended, in order, before
// the process's next request goes out.
type Node struct {
	cfg   NodeConfig
	cli   *Client
	log   wal.Log
	reg   *metrics.Registry
	procs []*nodeProc
	gen   int64     // latest progress generation seen in a response
	beat  time.Time // last heartbeat send

	// Outcomes by incarnation id, as the engine reports them.
	Outcomes map[process.ID]*scheduler.Outcome
	// Crashed is set when an injected crash point stopped the node.
	Crashed bool
	// Reattached counts hub-restart (or lease-exile) recovery rounds the
	// node performed.
	Reattached int
}

// NewNode builds a node; Run connects and drives it.
func NewNode(cfg NodeConfig) *Node {
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 8
	}
	return &Node{
		cfg:      cfg,
		log:      cfg.WAL,
		reg:      cfg.Metrics,
		Outcomes: make(map[process.ID]*scheduler.Outcome),
	}
}

func (n *Node) inject(point string) {
	if n.cfg.Inject != nil {
		n.cfg.Inject(point)
	}
}

// logAll appends a reply's records to the node's WAL, firing the crash
// point that follows the record just logged; parked reports that the
// last one is write-ahead — the transition waits for the acknowledgement.
func (n *Node) logAll(p *nodeProc, recs []wal.Record) (parked bool) {
	for _, rec := range recs {
		if _, err := n.log.Append(rec); err != nil {
			panic(fmt.Sprintf("federation: node %s wal append: %v", n.cfg.Name, err))
		}
		switch {
		case rec.Type == wal.RecOutcome && rec.Outcome == "prepared":
			n.inject(PointFedAfterPrepared)
		case rec.Type == wal.RecDecision:
			n.inject("twopc:after-decision")
		case rec.Type == wal.RecResolved && p.last == wal.RecDecision:
			n.inject("twopc:mid-resolve")
		}
		p.last = rec.Type
	}
	return len(recs) > 0 && recs[len(recs)-1].WriteAhead()
}

// call wraps the client, tracking the progress generation.
func (n *Node) call(f *Frame, invocation bool) (*Frame, error) {
	resp, err := n.cli.Call(f, invocation)
	if resp != nil && resp.Gen > n.gen {
		n.gen = resp.Gen
	}
	if err == nil && resp.Status == StError {
		return resp, fmt.Errorf("federation: hub rejected %v for %s: %s", f.Type, f.Proc, resp.Err)
	}
	return resp, err
}

// Run drives the node until all owned work is terminal (or a crash
// point fires — the node then stops with Crashed set, its WAL and the
// hub's subsystem state surviving for stitched recovery). A hub restart
// surfacing as ErrHubRestart from any RPC triggers the re-attach flow
// (re-hello, per-process fate query) and the driver resumes.
func (n *Node) Run() (err error) {
	defer scheduler.OnInjectedCrash(func(string) {
		n.Crashed = true
		n.cli.Close()
	})
	n.cli = NewClient(n.cfg.ID, n.cfg.Name, n.cfg.Transport, n.cfg.DispatchBudget, n.reg)
	defer n.cli.Close()
	if _, err := n.call(&Frame{Type: MsgHello, Origin: n.cfg.Name}, false); err != nil {
		return err
	}
	jobs := append([]NodeJob(nil), n.cfg.Jobs...)
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Arrival < jobs[j].Arrival })
	for _, j := range jobs {
		n.procs = append(n.procs, &nodeProc{id: j.ID, origin: j.ID, arrival: j.Arrival})
	}
	n.beat = time.Now()

	for {
		done, err := n.roundOnce()
		if errors.Is(err, ErrHubRestart) {
			if rerr := n.reattach(); rerr != nil && !errors.Is(rerr, ErrHubRestart) {
				return rerr
			}
			// A reattach cut short by another hub death retries on the
			// next round — the next RPC bounces stale again.
			continue
		}
		if err != nil || done {
			return err
		}
	}
}

// roundOnce is one round over the owned processes; done reports clean completion (all
// owned work terminal and the hub acknowledged the final idle).
func (n *Node) roundOnce() (bool, error) {
	progress := false
	pendingRestart := false
	allDone := true
	for _, p := range n.procs {
		if p.done {
			continue
		}
		allDone = false
		if !p.admitted {
			if p.backoff > 0 {
				p.backoff--
				pendingRestart = true
				continue
			}
			if err := n.admit(p); err != nil {
				return false, err
			}
			progress = true
			continue
		}
		ok, err := n.drive(p)
		if err != nil {
			return false, err
		}
		if ok {
			progress = true
		}
	}
	if allDone {
		resp, err := n.call(&Frame{Type: MsgIdle, Flag: true}, false)
		if err != nil {
			return false, err
		}
		// The final idle can still carry queued work: an adoption offer
		// un-finishes the node.
		if resp.Status != StAdopt {
			return true, nil
		}
		n.adopt(resp)
		return false, nil
	}
	if progress {
		return false, nil
	}
	if pendingRestart {
		// Never report idle with a restart pending: the hub would
		// count this node as quiescent and designate a victim against
		// work that is about to re-enter.
		return false, n.idleSleep()
	}
	resp, err := n.call(&Frame{Type: MsgIdle, Gen: n.gen}, false)
	if err != nil {
		return false, err
	}
	if resp.Status != StAdopt {
		return false, n.idleSleep()
	}
	n.adopt(resp)
	return false, nil
}

// idleSleep naps between unproductive rounds, sending a lease-refresh
// heartbeat when one is due (every request refreshes the lease
// implicitly, so heartbeats only matter while the node is otherwise
// silent).
func (n *Node) idleSleep() error {
	if n.cfg.HeartbeatEvery > 0 && time.Since(n.beat) >= n.cfg.HeartbeatEvery {
		n.beat = time.Now()
		if _, err := n.call(&Frame{Type: MsgHeartbeat}, false); err != nil {
			return err
		}
	}
	time.Sleep(100 * time.Microsecond)
	return nil
}

// adopt queues a fresh incarnation of a dead peer's orphaned origin,
// granted by the hub through an idle poll (StAdopt).
func (n *Node) adopt(resp *Frame) {
	newID := process.ID(resp.Proc)
	for _, p := range n.procs {
		if p.id == newID {
			return // duplicate delivery (lost response replayed)
		}
	}
	n.procs = append(n.procs, &nodeProc{
		id: newID, origin: process.ID(resp.Origin), arrival: int(resp.Local), restarts: int(resp.Extra),
	})
}

// reattach is the hub-restart recovery flow: re-hello (adopting the new
// epoch), then ask the hub for the recovered fate of every in-flight
// process and file it. Fates come from the reopen's composed recovery
// pass, so this resolves every in-doubt transition — a process the node
// last saw mid-2PC comes back either committed (decision was logged;
// recovery redid the resolution) or aborted (no decision; presumed
// abort), never in between.
func (n *Node) reattach() error {
	if _, err := n.call(&Frame{Type: MsgHello, Origin: n.cfg.Name}, false); err != nil {
		return err
	}
	n.Reattached++
	for _, p := range n.procs {
		if p.done {
			continue
		}
		// Not-yet-admitted procs are queried too: a pending adopted
		// incarnation may have been re-homed to another survivor while
		// this node's lease was expired, in which case the hub retired
		// it and admitting it now would drive a dead incarnation. A
		// never-admitted original simply comes back Unknown and the
		// reset below is a no-op for it.
		resp, err := n.call(&Frame{
			Type: MsgReattach, Proc: string(p.id),
			Flag: p.restarts < n.cfg.MaxRestarts,
		}, false)
		if err != nil {
			return err
		}
		switch resp.Extra {
		case ReattachCommitted, ReattachAborted:
			// Terminated; the terminate record already exists (pre-crash
			// or in the recovery tail) — log nothing. An aborted origin
			// may come with a hub-granted restart incarnation (suffix
			// chosen hub-side so it never collides across owners).
			n.settleAs(p, resp)
			if resp.Flag && resp.Proc != "" {
				n.procs = append(n.procs, &nodeProc{
					id: process.ID(resp.Proc), origin: p.origin, arrival: p.arrival,
					restarts: int(resp.Local), backoff: 4,
				})
			}
		case ReattachParked:
			n.settle(p, false, false)
		case ReattachLive:
			// Still tracked live (the hub never actually died from this
			// node's perspective — e.g. a revived membership): keep going.
		case ReattachUnknown:
			// No WAL record exists for this incarnation (the admit reply
			// was lost before RecStart was forced), so recovery cannot
			// have settled it and re-admitting the same id is safe.
			p.admitted = false
		default:
			return fmt.Errorf("federation: unknown reattach fate %d for %s", resp.Extra, p.id)
		}
	}
	return nil
}

// settle files a process as over. A parked process — its remaining
// recovery steps blocked behind a dead node's zombie events — counts as
// aborted: no terminate record is logged, so the composed recovery sees
// it non-terminal and finishes its group abort in correct global order.
func (n *Node) settle(p *nodeProc, committed, stands bool) {
	p.done = true
	if n.Outcomes[p.id] == nil {
		n.Outcomes[p.id] = &scheduler.Outcome{}
	}
	out := n.Outcomes[p.id]
	out.Committed, out.Aborted, out.Stands, out.Restarts = committed, !committed, stands, p.restarts
}

// settleAs files a process as over with the fate a hub answer carries.
func (n *Node) settleAs(p *nodeProc, resp *Frame) {
	n.settle(p, resp.Extra == ReattachCommitted, resp.Kind == KindStands)
}

func (n *Node) admit(p *nodeProc) error {
	resp, err := n.call(&Frame{
		Type: MsgAdmit, Proc: string(p.id), Origin: string(p.origin),
		Local: int32(p.arrival), Extra: int32(p.restarts),
	}, false)
	if err != nil {
		return err
	}
	// A first admit carries RecStart; an idempotent replay of a known
	// incarnation (a lost admit response re-asked across a reconnect)
	// carries nothing — the record was forced at the original stamp.
	n.logAll(p, resp.Records)
	if resp.Status == StDone {
		// The replayed incarnation was settled while this node was out
		// (re-homed after a lease expiry, or finished by another owner):
		// file the fate instead of driving a dead incarnation.
		n.settleAs(p, resp)
		return nil
	}
	p.admitted = true
	if n.Outcomes[p.id] == nil {
		n.Outcomes[p.id] = &scheduler.Outcome{Restarts: p.restarts}
	}
	return nil
}

// drive asks the hub to drive p one transition and logs what it did;
// progress reports whether p moved. A transition that parked on its
// write-ahead record is acknowledged in the same round, so the
// processes waiting behind p poll once per transition of p, not twice.
func (n *Node) drive(p *nodeProc) (progress bool, err error) {
	n.inject(PointFedDispatch)
	resp, err := n.call(&Frame{Type: MsgDispatch, Proc: string(p.id)}, true)
	if errors.Is(err, ErrVoided) {
		// The transport gave up and the hub certified the request never
		// ran: re-send it marked, and the hub fails the invocation it
		// would have made (the engine's unmaskable-transport-failure
		// path).
		resp, err = n.call(&Frame{Type: MsgDispatch, Proc: string(p.id), Flag: true}, false)
	}
	if err != nil {
		return false, err
	}
	parked := n.logAll(p, resp.Records)
	switch resp.Status {
	case StOK:
		if parked {
			return n.drive(p)
		}
		return true, nil
	case StWait:
		return false, nil
	case StPark:
		// The hub parked the process: stop driving it, log nothing more —
		// post-run recovery replans and executes the remaining steps.
		n.settle(p, false, false)
		return true, nil
	case StDone:
		n.settleAs(p, resp)
		if resp.Flag && p.restarts < n.cfg.MaxRestarts {
			n.restart(p)
		}
		return true, nil
	}
	return false, fmt.Errorf("federation: unexpected dispatch status %v for %s", resp.Status, p.id)
}

// restart re-enters an aborted origin as a fresh incarnation under a
// derived id, admitted after an exponential backoff.
func (n *Node) restart(p *nodeProc) {
	n.reg.Inc(metrics.ProcsRestarted)
	backoff := 4 << (p.restarts + 1)
	if backoff > 128 {
		backoff = 128
	}
	n.procs = append(n.procs, &nodeProc{
		id: p.origin.Restart(p.restarts + 1), origin: p.origin,
		arrival: p.arrival, restarts: p.restarts + 1, backoff: backoff,
	})
}
