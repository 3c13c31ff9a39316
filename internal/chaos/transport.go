package chaos

import (
	"errors"
	"fmt"
	"sync"

	"transproc/internal/metrics"
	"transproc/internal/subsystem"
)

// TransportStats aggregates what a Transport injected and delivered.
type TransportStats struct {
	Attempts         int64 // delivery attempts, one per InvokeResilient call
	Delivered        int64 // attempts that reached a subsystem
	Transient        int64 // injected transient delivery failures
	Timeouts         int64 // injected timeouts (executed or not)
	Duplicates       int64 // injected duplicate deliveries
	Slow             int64 // injected latency spikes
	OutageHits       int64 // attempts swallowed by an outage window
	RepliesRecovered int64 // timeouts resolved to success via the idem table
}

// Transport wraps a Federation with the deterministic fault plan and
// implements subsystem.ResilientInvoker: each call is one delivery
// attempt that either passes through (possibly duplicated or slowed) or
// fails with a typed transport error. It never retries; the driver
// re-invokes what the paper's typing lets it re-invoke. All deliveries
// go through the idempotency table (InvokeIdem), so duplicates and
// lost replies stay exactly-once.
type Transport struct {
	fed  *subsystem.Federation
	plan Plan
	reg  *metrics.Registry

	mu sync.Mutex
	// attempts counts transport attempts per proc+"/"+service — the
	// attempt index the plan's fate function is keyed on.
	attempts map[string]int64
	// subTries counts delivery attempts per subsystem; outage windows
	// are measured against it.
	subTries map[string]int64
	stats    TransportStats
}

// NewTransport wraps the federation with a fault plan. reg may be nil.
func NewTransport(fed *subsystem.Federation, plan Plan, reg *metrics.Registry) *Transport {
	return &Transport{
		fed:      fed,
		plan:     plan.withDefaults(),
		reg:      reg,
		attempts: make(map[string]int64),
		subTries: make(map[string]int64),
	}
}

// Stats returns a snapshot of the injection counters.
func (t *Transport) Stats() TransportStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// CheckConsistent checks the transport's own accounting (battery hook).
func (t *Transport) CheckConsistent() error {
	if st := t.Stats(); st.Delivered > st.Attempts {
		return fmt.Errorf("transport accounting broken: delivered=%d > attempts=%d", st.Delivered, st.Attempts)
	}
	return nil
}

// InvokeResilient implements subsystem.ResilientInvoker with one
// delivery attempt of the keyed invocation. A timeout is resolved
// through the reliable control plane before it surfaces: if the
// invocation executed and only the reply was lost, its outcome is
// recorded under key and returned as a success, since surfacing a
// failure would orphan a prepared transaction.
func (t *Transport) InvokeResilient(proc, service string, mode subsystem.Mode, key string) (*subsystem.Result, int64, error) {
	res, lat, err := t.deliver(key, proc, service, mode)
	if errors.Is(err, subsystem.ErrTimeout) {
		if rec, found := t.fed.LookupIdem(service, key); found {
			t.mu.Lock()
			t.stats.RepliesRecovered++
			t.mu.Unlock()
			t.reg.Inc(metrics.RepliesRecovered)
			return rec, lat, nil
		}
	}
	return res, lat, err
}

// deliver makes one attempt of the keyed invocation. It returns the
// subsystem's Result on delivery, the virtual latency the transport
// added, and a typed error: the subsystem's own (ErrLocked/ErrAborted,
// passed through) or an injected transport failure (ErrTransient,
// ErrTimeout). An outage window swallows every attempt to the affected
// subsystem; each swallowed attempt still advances the per-subsystem
// index, so finite windows always pass.
func (t *Transport) deliver(key, proc, service string, mode subsystem.Mode) (*subsystem.Result, int64, error) {
	sub, ok := t.fed.Owner(service)
	if !ok {
		res, err := t.fed.Invoke(proc, service, mode)
		return res, 0, err
	}
	subName := sub.Name()

	t.mu.Lock()
	ps := proc + "/" + service
	attempt := t.attempts[ps]
	t.attempts[ps]++
	t.subTries[subName]++
	t.stats.Attempts++

	n := t.subTries[subName] - 1
	for _, o := range t.plan.Outages {
		if o.Subsystem == subName && n >= o.From && n < o.To {
			t.stats.OutageHits++
			// Alternate transient/timeout flavours deterministically.
			kind := subsystem.ErrTransient
			lat := int64(0)
			if t.plan.hashAt(proc, service, attempt, 0x07a1)&1 == 0 {
				kind = subsystem.ErrTimeout
				lat = t.plan.TimeoutTicks
			}
			t.mu.Unlock()
			t.incKind(kind)
			return nil, lat, &subsystem.SubsystemError{
				Subsystem: subName, Service: service, Kind: kind, Detail: "outage",
			}
		}
	}

	f := t.plan.fateAt(proc, service, attempt)
	switch f {
	case fateTransient:
		t.stats.Transient++
		t.mu.Unlock()
		t.reg.Inc(metrics.ChaosTransient)
		return nil, 0, &subsystem.SubsystemError{
			Subsystem: subName, Service: service, Kind: subsystem.ErrTransient,
		}
	case fateTimeout:
		t.stats.Timeouts++
		t.mu.Unlock()
		t.reg.Inc(metrics.ChaosTimeouts)
		return nil, t.plan.TimeoutTicks, &subsystem.SubsystemError{
			Subsystem: subName, Service: service, Kind: subsystem.ErrTimeout,
		}
	}

	// The attempt reaches the subsystem.
	t.stats.Delivered++
	switch f {
	case fateTimeoutEx:
		t.stats.Timeouts++
		t.mu.Unlock()
		t.reg.Inc(metrics.ChaosTimeouts)
		// Execute, then lose the reply: the ambiguity the idempotency
		// table resolves. A failed execution left no effects, so the
		// lost reply is indistinguishable from fateTimeout — either
		// way LookupIdem finds nothing and resending is safe.
		_, _, _ = t.fed.InvokeIdem(key, proc, service, mode)
		return nil, t.plan.TimeoutTicks, &subsystem.SubsystemError{
			Subsystem: subName, Service: service, Kind: subsystem.ErrTimeout,
			Detail: "reply lost",
		}
	case fateDuplicate:
		t.stats.Duplicates++
		t.mu.Unlock()
		t.reg.Inc(metrics.ChaosDuplicates)
		// Deliver twice under the same key; the dedup table makes the
		// second delivery a replay of the first outcome.
		res, _, err := t.fed.InvokeIdem(key, proc, service, mode)
		if err == nil {
			res, _, err = t.fed.InvokeIdem(key, proc, service, mode)
		}
		return res, 0, err
	case fateSlow:
		t.stats.Slow++
		t.mu.Unlock()
		t.reg.Inc(metrics.ChaosSlow)
		res, _, err := t.fed.InvokeIdem(key, proc, service, mode)
		return res, t.plan.SlowTicks, err
	default:
		t.mu.Unlock()
		res, _, err := t.fed.InvokeIdem(key, proc, service, mode)
		return res, 0, err
	}
}

// incKind bumps the matching injection counter.
func (t *Transport) incKind(kind error) {
	if errors.Is(kind, subsystem.ErrTimeout) {
		t.reg.Inc(metrics.ChaosTimeouts)
	} else {
		t.reg.Inc(metrics.ChaosTransient)
	}
}
