package battery

import (
	"transproc/internal/chaos"
	"transproc/internal/federation"
	"transproc/internal/metrics"
)

// ChaosWire puts the chaos transport fault model on the federation's
// transport seam (federation.Config.WrapTransport). Each delivery
// attempt of a node gets the fate plan.WireFateAt / plan.WireOutage
// decide for (plan.Seed, node name, attempt number): a drop or a
// partition-window attempt is not sent; an executed-but-lost reply is
// delivered and its response discarded (the client's retry under the
// same request id hits the hub's dedup table); a duplicate is delivered
// twice and the second response returned. The wire underneath stays
// reliable TCP — unreliability is simulated, which is what makes it
// seedable. Windows are measured in attempts, so a partition
// deterministically heals: every retry advances the count.
func ChaosWire(plan chaos.Plan, reg *metrics.Registry) func(node string, t federation.Transport) federation.Transport {
	return func(node string, t federation.Transport) federation.Transport {
		return &chaosWire{Transport: t, plan: plan, node: node, reg: reg}
	}
}

type chaosWire struct {
	federation.Transport
	plan    chaos.Plan
	node    string
	reg     *metrics.Registry
	attempt int64
}

func (w *chaosWire) RoundTrip(f *federation.Frame) (*federation.Frame, error) {
	w.attempt++
	fate := w.plan.WireFateAt(w.node, w.attempt)
	if w.plan.WireOutage(w.node, w.attempt) {
		fate = chaos.WireDrop
	}
	switch fate {
	case chaos.WireDrop:
		w.reg.Inc(metrics.FedWireDrops)
		return nil, federation.ErrLost
	case chaos.WireExecLostReply:
		if _, err := w.Transport.RoundTrip(f); err != nil {
			return nil, err
		}
		return nil, federation.ErrLost
	case chaos.WireDuplicate:
		w.reg.Inc(metrics.FedWireDuplicates)
		if _, err := w.Transport.RoundTrip(f); err != nil {
			return nil, err
		}
	}
	return w.Transport.RoundTrip(f)
}
