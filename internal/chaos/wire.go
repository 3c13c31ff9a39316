package chaos

// Wire-level fate adapter: the same fault model for the federation's
// hub RPCs (applied by battery.ChaosWire on federation.Transport), keyed
// by scheduler-node name instead of process name. Partitions are
// expressed as Outage windows whose Subsystem field names a node; the
// windows are measured in per-node delivery-attempt counts, so a
// partition deterministically heals once the node has burned through
// the window — every retry advances the index.

// WireFate is the transport-level outcome of one RPC delivery attempt.
type WireFate int

const (
	// WireDeliver: the request reaches the hub and the reply returns.
	WireDeliver WireFate = iota
	// WireDrop: the request never reaches the hub (transient loss, or
	// a timeout before delivery) — safe to resend.
	WireDrop
	// WireExecLostReply: the request reaches the hub and executes, but
	// the reply is lost — the ambiguous-timeout case. The client must
	// resend under the same request id; the hub's dedup table replays
	// the cached response instead of re-executing.
	WireExecLostReply
	// WireDuplicate: the request is delivered twice under the same
	// request id; the hub executes once and answers both.
	WireDuplicate
)

// WireFateAt decides the deterministic fate of one RPC delivery attempt
// of a scheduler node, as a pure function of (Seed, node, attempt).
func (p Plan) WireFateAt(node string, attempt int64) WireFate {
	switch p.fateAt(node, "wire", attempt) {
	case fateTransient, fateTimeout:
		return WireDrop
	case fateTimeoutEx:
		return WireExecLostReply
	case fateDuplicate:
		return WireDuplicate
	default:
		// Deliveries and latency spikes both deliver; the federation
		// transport has no virtual clock to charge the spike to.
		return WireDeliver
	}
}

// WireOutage reports whether the node's attempt falls inside a
// partition window (an Outage whose Subsystem names the node).
func (p Plan) WireOutage(node string, attempt int64) bool {
	for _, o := range p.Outages {
		if o.Subsystem == node && attempt >= o.From && attempt < o.To {
			return true
		}
	}
	return false
}
