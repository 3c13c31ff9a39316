package federation

import (
	"fmt"
	"testing"
	"time"

	"transproc/internal/process"
	"transproc/internal/scheduler/policy"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// unitWorld builds a small failure-free world for direct Hub.Handle
// tests.
func unitWorld(t *testing.T) (*subsystem.Federation, []*process.Process) {
	t.Helper()
	p := workload.DefaultProfile(11)
	p.Processes = 6
	p.PermFailureProb = 0
	p.TransientFailureProb = 0
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	defs := make([]*process.Process, len(w.Jobs))
	for i, j := range w.Jobs {
		defs[i] = j.Proc
	}
	return w.Fed, defs
}

func unitHub(t *testing.T, cfg HubConfig) (*Hub, []*process.Process) {
	t.Helper()
	fed, defs := unitWorld(t)
	h, err := NewHub(fed, defs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, defs
}

// hubCaller issues frames against a hub with fresh request ids, the way
// one connected node would.
type hubCaller struct {
	h    *Hub
	node uint32
	req  uint64
}

func (c *hubCaller) call(f *Frame) *Frame {
	f.Node = c.node
	f.Epoch = c.h.Epoch()
	c.req++
	f.Req = c.req<<8 | uint64(c.node)
	return c.h.Handle(f)
}

func (c *hubCaller) hello() *Frame {
	return c.h.Handle(&Frame{Type: MsgHello, Node: c.node, Origin: fmt.Sprintf("n%d", c.node)})
}

// finish drives a process to its end the way its owner would — one
// MsgDispatch per transition, each acknowledging the records of the one
// before — and returns the terminal reply. abort designates it a victim
// first, so the end is an abort.
func (c *hubCaller) finish(t *testing.T, proc string, abort bool) *Frame {
	t.Helper()
	if abort {
		c.h.drv.MarkVictim(&c.h.byID[process.ID(proc)].Proc, "test")
	}
	for i := 0; i < 1000; i++ {
		switch got := c.call(&Frame{Type: MsgDispatch, Proc: proc}); got.Status {
		case StOK:
		case StDone:
			return got
		default:
			t.Fatalf("driving %s: %+v", proc, got)
		}
	}
	t.Fatalf("%s did not terminate", proc)
	return nil
}

// TestHubStaleFrameBounces pins the incarnation and membership gates:
// a frame carrying a previous hub epoch bounces StStale, as does any
// non-hello frame from a dead node; MsgHello alone bypasses both and
// revives a dead node.
func TestHubStaleFrameBounces(t *testing.T) {
	h, _ := unitHub(t, HubConfig{Epoch: 7})
	c := &hubCaller{h: h, node: 1}
	if got := c.hello(); got.Status != StOK {
		t.Fatalf("hello: %+v", got)
	}

	// Previous-epoch frame: stale, and NOT cached (the retry after
	// re-hello must not be wedged behind a poisoned dedup entry).
	stale := &Frame{Type: MsgHeartbeat, Node: 1, Epoch: 6, Req: 9999}
	if got := h.Handle(stale); got.Status != StStale {
		t.Fatalf("old-epoch frame: got %v, want StStale", got.Status)
	}
	if got := h.Handle(&Frame{Type: MsgHeartbeat, Node: 1, Epoch: 7, Req: 9999}); got.Status != StOK {
		t.Fatalf("same id at the current epoch after a stale bounce: got %v, want StOK", got.Status)
	}

	// Unknown node (never helloed): hard error, not a silent grant.
	if got := h.Handle(&Frame{Type: MsgHeartbeat, Node: 2, Epoch: 7, Req: 1}); got.Status != StError {
		t.Fatalf("frame from unknown node: got %v, want StError", got.Status)
	}

	// Dead node: every non-hello frame bounces stale until a re-hello
	// revives the membership.
	h.NodeDown(1)
	if got := c.call(&Frame{Type: MsgHeartbeat}); got.Status != StStale {
		t.Fatalf("frame from dead node: got %v, want StStale", got.Status)
	}
	if got := c.hello(); got.Status != StOK {
		t.Fatalf("reviving hello: %+v", got)
	}
	if got := c.call(&Frame{Type: MsgHeartbeat}); got.Status != StOK {
		t.Fatalf("frame after revival: got %v, want StOK", got.Status)
	}
}

// TestHubAdmitReplayCarriesFate pins the idempotent-admit contract: a
// replayed admit of a known incarnation (a lost response re-asked
// outside the dedup window) answers Flag2 without a second start
// record, and once the incarnation is terminal the replay answers
// StDone with its fate — and no restart grant — so the returning node
// files it instead of driving a dead incarnation.
func TestHubAdmitReplayCarriesFate(t *testing.T) {
	h, defs := unitHub(t, HubConfig{})
	c := &hubCaller{h: h, node: 1}
	c.hello()

	committed, aborted := string(defs[0].ID), string(defs[1].ID)
	for _, origin := range []string{committed, aborted} {
		first := c.call(&Frame{Type: MsgAdmit, Proc: origin, Origin: origin})
		if first.Status != StOK || first.Flag2 || len(first.Records) != 1 ||
			first.Records[0].Type != wal.RecStart || first.Stamp != first.Records[0].Stamp || first.Stamp == 0 {
			t.Fatalf("first admit of %s: %+v", origin, first)
		}
		replay := c.call(&Frame{Type: MsgAdmit, Proc: origin, Origin: origin})
		if replay.Status != StOK || !replay.Flag2 || len(replay.Records) != 0 {
			t.Fatalf("live replay of %s: %+v", origin, replay)
		}
	}

	if got := c.finish(t, committed, false); got.Extra != ReattachCommitted || got.Flag {
		t.Fatalf("end of %s: %+v, want committed", committed, got)
	}
	if got := c.finish(t, aborted, true); got.Extra != ReattachAborted || !got.Flag {
		t.Fatalf("end of the victim %s: %+v, want aborted and restartable", aborted, got)
	}

	if got := c.call(&Frame{Type: MsgAdmit, Proc: committed, Origin: committed}); got.Status != StDone || got.Extra != ReattachCommitted {
		t.Errorf("replayed admit of a committed incarnation: %+v, want StDone + ReattachCommitted", got)
	}
	if got := c.call(&Frame{Type: MsgAdmit, Proc: aborted, Origin: aborted}); got.Status != StDone || got.Extra != ReattachAborted || got.Flag {
		t.Errorf("replayed admit of an aborted incarnation: %+v, want StDone + ReattachAborted, no restart", got)
	}
}

// TestHubReattachFates walks a node's post-reconnect fate query through
// every answer: unknown, live, committed, aborted (with and without a
// restart grant), and parked-as-zombie.
func TestHubReattachFates(t *testing.T) {
	h, defs := unitHub(t, HubConfig{})
	c1 := &hubCaller{h: h, node: 1}
	c2 := &hubCaller{h: h, node: 2}
	c1.hello()
	c2.hello()

	if got := c1.call(&Frame{Type: MsgReattach, Proc: "never-admitted"}); got.Extra != ReattachUnknown {
		t.Fatalf("unknown incarnation: fate %d, want ReattachUnknown", got.Extra)
	}

	origin := string(defs[0].ID)
	c1.call(&Frame{Type: MsgAdmit, Proc: origin, Origin: origin})
	if got := c1.call(&Frame{Type: MsgReattach, Proc: origin}); got.Extra != ReattachLive {
		t.Fatalf("running incarnation: fate %d, want ReattachLive", got.Extra)
	}

	c1.finish(t, origin, false)
	if got := c1.call(&Frame{Type: MsgReattach, Proc: origin}); got.Extra != ReattachCommitted {
		t.Fatalf("committed incarnation: fate %d, want ReattachCommitted", got.Extra)
	}

	// A zombie (owner died with committed history) must answer Parked:
	// the node stops driving it and recovery finishes it.
	zorigin := string(defs[1].ID)
	c1.call(&Frame{Type: MsgAdmit, Proc: zorigin, Origin: zorigin})
	for !h.byID[process.ID(zorigin)].everCommitted() { // not a safe orphan
		if got := c1.call(&Frame{Type: MsgDispatch, Proc: zorigin}); got.Status != StOK {
			t.Fatalf("driving %s: %+v", zorigin, got)
		}
	}
	h.NodeDown(1)
	if got := c2.call(&Frame{Type: MsgReattach, Proc: zorigin}); got.Extra != ReattachParked {
		t.Fatalf("zombie incarnation: fate %d, want ReattachParked", got.Extra)
	}
}

// TestHubRestartGrantSingleLineage pins the at-most-one-live-incarnation
// rule: an aborted origin gets exactly one outstanding restart grant —
// further requests are refused until the granted incarnation is
// admitted (or otherwise retired), because a forked lineage would
// double-execute the process.
func TestHubRestartGrantSingleLineage(t *testing.T) {
	h, defs := unitHub(t, HubConfig{})
	c1 := &hubCaller{h: h, node: 1}
	c2 := &hubCaller{h: h, node: 2}
	c1.hello()
	c2.hello()

	origin := string(defs[0].ID)
	c1.call(&Frame{Type: MsgAdmit, Proc: origin, Origin: origin})
	c1.finish(t, origin, true)

	// Fate query without a restart request: no grant.
	if got := c1.call(&Frame{Type: MsgReattach, Proc: origin}); got.Extra != ReattachAborted || got.Flag {
		t.Fatalf("fate-only reattach: %+v, want ReattachAborted without a grant", got)
	}

	grant := c1.call(&Frame{Type: MsgReattach, Proc: origin, Flag: true})
	wantID := origin + "+r1"
	if !grant.Flag || grant.Proc != wantID {
		t.Fatalf("first restart request: %+v, want grant of %s", grant, wantID)
	}

	// The grant is un-admitted: a second requester (say the origin's
	// old owner bouncing back through another reconnect) must NOT fork
	// the lineage.
	if got := c2.call(&Frame{Type: MsgReattach, Proc: origin, Flag: true}); got.Flag {
		t.Fatalf("second restart request while one grant is pending: %+v, want no grant", got)
	}

	// Admitting the granted incarnation clears the pending marker; once
	// it aborts too, the next request is granted the next suffix.
	if got := c2.call(&Frame{Type: MsgAdmit, Proc: wantID, Origin: origin, Extra: 1}); got.Status != StOK {
		t.Fatalf("admit of granted incarnation: %+v", got)
	}
	if got := c1.call(&Frame{Type: MsgReattach, Proc: origin, Flag: true}); got.Flag {
		t.Fatalf("restart request while %s is live: %+v, want no grant", wantID, got)
	}
	c2.finish(t, wantID, true)
	if got := c1.call(&Frame{Type: MsgReattach, Proc: origin, Flag: true}); !got.Flag || got.Proc != origin+"+r2" || got.Local != 2 {
		t.Fatalf("restart request after %s aborted: %+v, want grant of %s+r2", wantID, got, origin)
	}
}

// TestHubParkedBounces pins the StPark contract: every request to drive
// a parked process bounces with StPark and logs nothing; a request for
// a retired incarnation answers its fate again, and one for an unknown
// process is a hard error.
func TestHubParkedBounces(t *testing.T) {
	h, defs := unitHub(t, HubConfig{})
	c := &hubCaller{h: h, node: 1}
	c.hello()

	origin := string(defs[0].ID)
	c.call(&Frame{Type: MsgAdmit, Proc: origin, Origin: origin})
	hp := h.byID[process.ID(origin)]
	hp.Phase, hp.parked = policy.Done, true

	for i := 0; i < 2; i++ {
		if got := c.call(&Frame{Type: MsgDispatch, Proc: origin}); got.Status != StPark || len(got.Records) != 0 {
			t.Errorf("dispatch against a parked process: %+v, want a bare StPark", got)
		}
	}

	done := string(defs[1].ID)
	c.call(&Frame{Type: MsgAdmit, Proc: done, Origin: done})
	c.finish(t, done, false)
	if got := c.call(&Frame{Type: MsgDispatch, Proc: done}); got.Status != StDone || got.Extra != ReattachCommitted || len(got.Records) != 0 {
		t.Errorf("dispatch against a retired incarnation: %+v, want its fate and no records", got)
	}
	if got := c.call(&Frame{Type: MsgDispatch, Proc: "ghost"}); got.Status != StError {
		t.Errorf("dispatch for an unknown process: %+v, want StError", got)
	}
}

// TestHubParksWriteAheadRecords walks one process through the hub and
// checks the parking rule on every reply: a write-ahead record ("prepared"
// outcome, decision, recovery step) is the last record of its reply and
// its subsystem transaction stays in doubt until the next request
// acknowledges it; stamps rise strictly along the whole log.
func TestHubParksWriteAheadRecords(t *testing.T) {
	h, defs := unitHub(t, HubConfig{})
	c := &hubCaller{h: h, node: 1}
	c.hello()
	origin := string(defs[0].ID)
	log := c.call(&Frame{Type: MsgAdmit, Proc: origin, Origin: origin}).Records
	parked := 0
	for done := false; !done; {
		got := c.call(&Frame{Type: MsgDispatch, Proc: origin})
		if got.Status != StOK && got.Status != StDone {
			t.Fatalf("driving %s: %+v", origin, got)
		}
		done = got.Status == StDone
		for i, r := range got.Records {
			ahead := r.WriteAhead()
			if ahead && i != len(got.Records)-1 {
				t.Fatalf("write-ahead record %+v is not the last of its reply %+v", r, got.Records)
			}
			if ahead && r.Type == wal.RecOutcome {
				parked++
				if n := len(h.fed.InDoubt()); n == 0 {
					t.Fatalf("transaction of %+v resolved before the record was acknowledged", r)
				}
			}
		}
		log = append(log, got.Records...)
	}
	if parked == 0 {
		t.Fatal("no invocation parked on its outcome record")
	}
	for i := 1; i < len(log); i++ {
		if log[i].Stamp <= log[i-1].Stamp {
			t.Fatalf("stamps not strictly rising: %+v then %+v", log[i-1], log[i])
		}
	}
	if last := log[len(log)-1]; last.Type != wal.RecTerminate || !last.Committed {
		t.Fatalf("log ends with %+v, want a committed terminate", last)
	}
	if n := len(h.fed.InDoubt()); n != 0 {
		t.Fatalf("%d subsystems hold in-doubt transactions after the end", n)
	}
}

// TestHubCancelFetchOrVoid pins the ambiguous-timeout protocol: a
// cancel for an executed request replays its cached response (Flag2
// set); a cancel for a never-executed request voids the id so a
// straggling delivery can never execute later.
func TestHubCancelFetchOrVoid(t *testing.T) {
	h, _ := unitHub(t, HubConfig{})
	c := &hubCaller{h: h, node: 1}
	c.hello()

	// Executed request → fetch path.
	exec := &Frame{Type: MsgHeartbeat}
	if got := c.call(exec); got.Status != StOK {
		t.Fatalf("heartbeat: %+v", got)
	}
	fetch := c.call(&Frame{Type: MsgCancel, Gen: int64(exec.Req)})
	if fetch.Status != StOK || !fetch.Flag2 {
		t.Fatalf("cancel of an executed request: %+v, want cached replay (Flag2)", fetch)
	}

	// Never-executed request → void path.
	const ghost = uint64(0xDEAD)
	void := c.call(&Frame{Type: MsgCancel, Gen: int64(ghost)})
	if void.Status != StOK || void.Flag2 {
		t.Fatalf("cancel of an unseen request: %+v, want voided (no Flag2)", void)
	}
	straggler := h.Handle(&Frame{Type: MsgHeartbeat, Node: 1, Epoch: h.Epoch(), Req: ghost})
	if straggler.Status != StError || straggler.Err != "voided" {
		t.Fatalf("straggling delivery of a voided request: %+v, want the void marker", straggler)
	}
}

// TestHubLeaseExpiry drives the silence-based death detector with a
// pinned clock: a node that stops heartbeating past the TTL is expired,
// its safe orphan is retired and re-offered to the survivor, and a
// revived owner learns the retirement through its admit replay — the
// exact path that once forked a lineage.
func TestHubLeaseExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	h, defs := unitHub(t, HubConfig{
		LeaseTTL: 100 * time.Millisecond,
		Now:      func() time.Time { return now },
	})
	c1 := &hubCaller{h: h, node: 1}
	c2 := &hubCaller{h: h, node: 2}
	c1.hello()
	c2.hello()

	origin := string(defs[0].ID)
	if got := c2.call(&Frame{Type: MsgAdmit, Proc: origin, Origin: origin}); got.Status != StOK {
		t.Fatalf("admit: %+v", got)
	}

	// Node 1 keeps heartbeating; node 2 goes silent.
	now = now.Add(60 * time.Millisecond)
	c1.call(&Frame{Type: MsgHeartbeat})
	now = now.Add(60 * time.Millisecond)
	h.ExpireLeases()

	if got := c1.call(&Frame{Type: MsgHeartbeat}); got.Status != StOK {
		t.Errorf("heartbeating node expired: %+v", got)
	}
	if got := c2.call(&Frame{Type: MsgHeartbeat}); got.Status != StStale {
		t.Errorf("silent node not expired: %+v, want StStale", got)
	}

	// The zero-committed-events orphan was retired for re-homing: an
	// adoption offer is queued on the survivor and its origin is marked
	// pending, so no reattach can fork the lineage meanwhile.
	if n := len(h.nodes[1].adopts); n != 1 {
		t.Fatalf("survivor holds %d adoption offers, want 1", n)
	}
	if offer := h.nodes[1].adopts[0]; string(offer.origin) != origin || offer.restarts != 1 {
		t.Fatalf("adoption offer %+v, want origin %s as %s+r1", offer, origin, origin)
	}
	if !h.pending[origin] {
		t.Error("re-homed origin not marked pending")
	}
	if got := c1.call(&Frame{Type: MsgReattach, Proc: origin, Flag: true}); got.Flag {
		t.Errorf("restart granted while the adoption offer is outstanding: %+v", got)
	}

	// The silent owner comes back: hello revives it, and the admit
	// replay of its retired incarnation carries the abort fate instead
	// of letting it drive a dead incarnation.
	if got := c2.hello(); got.Status != StOK {
		t.Fatalf("reviving hello: %+v", got)
	}
	replay := c2.call(&Frame{Type: MsgAdmit, Proc: origin, Origin: origin})
	if replay.Status != StDone || replay.Extra != ReattachAborted || replay.Flag {
		t.Fatalf("revived owner's admit replay: %+v, want StDone + ReattachAborted, no restart", replay)
	}
}
