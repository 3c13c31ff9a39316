package battery

import (
	"errors"
	"fmt"
	"testing"

	"transproc/internal/chaos"
	"transproc/internal/federation"
	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/workload"
)

// recorder is a transport that records what reached the far side: every
// delivered request with its response.
type recorder struct {
	federation.Transport // nil: answer every delivery with an empty frame
	reqs, resps          []federation.Frame
}

func (r *recorder) RoundTrip(f *federation.Frame) (*federation.Frame, error) {
	resp := &federation.Frame{Req: f.Req}
	if r.Transport != nil {
		var err error
		if resp, err = r.Transport.RoundTrip(f); err != nil {
			return nil, err
		}
	}
	r.reqs, r.resps = append(r.reqs, *f), append(r.resps, *resp)
	return resp, nil
}

// TestChaosWireFollowsThePlan: for 10,000 attempts the wrapper does to
// an attempt exactly what Plan.WireFateAt / WireOutage decide for
// (seed, node, attempt#) — the decision the client's attempt loop used
// to take itself.
func TestChaosWireFollowsThePlan(t *testing.T) {
	plan := chaos.Plan{
		Seed: 99, PTransient: 0.1, PTimeout: 0.2, PDuplicate: 0.1, PSlow: 0.1,
		Outages: []chaos.Outage{{Subsystem: "node1", From: 4000, To: 4500}, {Subsystem: "node0", From: 1, To: 9999}},
	}
	reg := metrics.New()
	rec := &recorder{}
	w := ChaosWire(plan, reg)("node1", rec)
	var drops, dups int64
	for attempt := int64(1); attempt <= 10000; attempt++ {
		before := len(rec.reqs)
		resp, err := w.RoundTrip(&federation.Frame{Req: uint64(attempt)})
		delivered := len(rec.reqs) - before
		want := plan.WireFateAt("node1", attempt)
		if plan.WireOutage("node1", attempt) {
			want = chaos.WireDrop
		}
		var ok bool
		switch want {
		case chaos.WireDrop:
			drops++
			ok = delivered == 0 && errors.Is(err, federation.ErrLost)
		case chaos.WireExecLostReply:
			ok = delivered == 1 && errors.Is(err, federation.ErrLost)
		case chaos.WireDuplicate:
			dups++
			ok = delivered == 2 && err == nil && resp.Req == uint64(attempt)
		default:
			ok = delivered == 1 && err == nil && resp.Req == uint64(attempt)
		}
		if !ok {
			t.Fatalf("attempt %d: plan says fate %v, wrapper delivered %d times and returned (%v, %v)", attempt, want, delivered, resp, err)
		}
	}
	if drops < 1000 || dups < 500 {
		t.Errorf("plan exercised %d drops and %d duplicates, too few to mean anything", drops, dups)
	}
	if got := reg.Counter(metrics.FedWireDrops); got != drops {
		t.Errorf("FedWireDrops = %d, want %d", got, drops)
	}
	if got := reg.Counter(metrics.FedWireDuplicates); got != dups {
		t.Errorf("FedWireDuplicates = %d, want %d", got, dups)
	}
}

// wireHub starts a real hub behind its TCP server and a client for
// "node0" whose transport runs through the chaos wire model.
func wireHub(t *testing.T, plan chaos.Plan, dispatchBudget int) (*federation.Client, *recorder, *metrics.Registry, []*process.Process) {
	t.Helper()
	p := workload.DefaultProfile(11)
	p.Processes = 4
	p.PermFailureProb, p.TransientFailureProb = 0, 0
	wl := workload.MustGenerate(p)
	defs := make([]*process.Process, len(wl.Jobs))
	for i, j := range wl.Jobs {
		defs[i] = j.Proc
	}
	reg := metrics.New()
	hub, err := federation.NewHub(wl.Fed, defs, federation.HubConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := federation.Serve(hub)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	rec := &recorder{Transport: federation.Dial(srv.Addr())}
	cli := federation.NewClient(1, "node0", ChaosWire(plan, reg)("node0", rec), dispatchBudget, reg)
	t.Cleanup(cli.Close)
	return cli, rec, reg, defs
}

// planWith finds the seed under which node0's attempts 1..len(fates)
// meet exactly the given fates.
func planWith(t *testing.T, fates ...chaos.WireFate) chaos.Plan {
	t.Helper()
seeds:
	for seed := int64(0); seed < 100000; seed++ {
		plan := chaos.Plan{Seed: seed, PTimeout: 0.3, PDuplicate: 0.3}
		for i, want := range fates {
			if plan.WireFateAt("node0", int64(i+1)) != want {
				continue seeds
			}
		}
		return plan
	}
	t.Fatal("no seed produces the wanted fates")
	return chaos.Plan{}
}

// TestChaosWireLostReplyHitsDedup: a request that executed but whose
// reply was lost is retried under the same request id and answered from
// the hub's dedup table — the handler ran once.
func TestChaosWireLostReplyHitsDedup(t *testing.T) {
	cli, rec, reg, defs := wireHub(t, planWith(t, chaos.WireDeliver, chaos.WireExecLostReply, chaos.WireDeliver), 0)
	if _, err := cli.Call(&federation.Frame{Type: federation.MsgHello, Origin: "node0"}, false); err != nil {
		t.Fatal(err)
	}
	origin := string(defs[0].ID)
	resp, err := cli.Call(&federation.Frame{Type: federation.MsgAdmit, Proc: origin, Origin: origin}, false)
	if err != nil {
		t.Fatal(err)
	}
	// A second run of the admit handler would answer "known incarnation"
	// (Flag2, no stamp); the cached first answer carries the start stamp.
	if resp.Status != federation.StOK || resp.Flag2 || resp.Stamp == 0 {
		t.Errorf("retried admit answered %+v, want the first execution's response", resp)
	}
	if len(rec.reqs) != 3 || rec.reqs[1].Req != rec.reqs[2].Req {
		t.Fatalf("hub saw %d deliveries, want hello + the admit twice under one request id", len(rec.reqs))
	}
	if got := reg.Counter(metrics.FedDedupReplays); got != 1 {
		t.Errorf("FedDedupReplays = %d, want 1", got)
	}
	if got := reg.Counter(metrics.FedRPCRetries); got != 1 {
		t.Errorf("FedRPCRetries = %d, want 1", got)
	}
}

// TestChaosWireDuplicateAnsweredIdentically: a duplicated request
// reaches the hub twice and both deliveries get the same answer.
func TestChaosWireDuplicateAnsweredIdentically(t *testing.T) {
	cli, rec, reg, defs := wireHub(t, planWith(t, chaos.WireDeliver, chaos.WireDuplicate), 0)
	if _, err := cli.Call(&federation.Frame{Type: federation.MsgHello, Origin: "node0"}, false); err != nil {
		t.Fatal(err)
	}
	origin := string(defs[0].ID)
	resp, err := cli.Call(&federation.Frame{Type: federation.MsgAdmit, Proc: origin, Origin: origin}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.resps) != 3 {
		t.Fatalf("hub saw %d deliveries, want hello + the admit twice", len(rec.resps))
	}
	first, second := fmt.Sprintf("%+v", rec.resps[1]), fmt.Sprintf("%+v", rec.resps[2])
	if first != second || second != fmt.Sprintf("%+v", *resp) || resp.Flag2 {
		t.Errorf("duplicate deliveries answered\n%s\n%s\nclient got %+v", first, second, resp)
	}
	if reg.Counter(metrics.FedWireDuplicates) != 1 || reg.Counter(metrics.FedDedupReplays) != 1 {
		t.Errorf("duplicates %d, dedup replays %d, want 1 and 1",
			reg.Counter(metrics.FedWireDuplicates), reg.Counter(metrics.FedDedupReplays))
	}
}

// TestChaosWireOutageVoidsDispatch: a partition window longer than the
// dispatch budget voids the dispatch through Cancel — the hub certifies
// it never executed — while the cancel itself and later control RPCs
// ride the window out.
func TestChaosWireOutageVoidsDispatch(t *testing.T) {
	plan := chaos.Plan{Seed: 1, Outages: []chaos.Outage{{Subsystem: "node0", From: 3, To: 43}}}
	cli, rec, reg, defs := wireHub(t, plan, 8)
	if _, err := cli.Call(&federation.Frame{Type: federation.MsgHello, Origin: "node0"}, false); err != nil {
		t.Fatal(err)
	}
	origin := string(defs[0].ID)
	if _, err := cli.Call(&federation.Frame{Type: federation.MsgAdmit, Proc: origin, Origin: origin}, false); err != nil {
		t.Fatal(err)
	}
	_, err := cli.Call(&federation.Frame{Type: federation.MsgDispatch, Proc: origin, Local: 1}, true)
	if !errors.Is(err, federation.ErrVoided) {
		t.Fatalf("dispatch inside the window: %v, want ErrVoided", err)
	}
	for _, f := range rec.reqs {
		if f.Type == federation.MsgDispatch {
			t.Error("the voided dispatch reached the hub")
		}
	}
	if got := reg.Counter(metrics.FedWireDrops); got != 40 {
		t.Errorf("FedWireDrops = %d, want the window's 40 attempts", got)
	}
	if resp, err := cli.Call(&federation.Frame{Type: federation.MsgHeartbeat}, false); err != nil || resp.Status != federation.StOK {
		t.Errorf("control RPC after the window: %+v, %v", resp, err)
	}
}
