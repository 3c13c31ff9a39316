// Package chaos is the fault model of the subsystem boundary: it makes
// the boundary unreliable on purpose so that the batteries can show the
// paper's guarantees hold anyway.
//
// The paper's guaranteed-termination result (Definition 5, Theorem 1)
// rests on activity typing: retriable activities may be re-invoked
// arbitrarily often, pivot failures are absorbed by alternative
// execution paths in preference order ◁, and compensation undoes
// committed compensatable work. The driver applies that typing to every
// failed invocation; this package supplies the failures. Transport
// (transport.go) wraps a Federation with a seedable, deterministic
// per-(process,service) fault plan injecting transient delivery
// failures, latency spikes, timeouts (whose execute/lost ambiguity only
// the idempotency table can resolve), duplicate deliveries and
// sustained per-subsystem outages. It makes one delivery attempt per
// call and retries nothing.
//
// The package is a library: the engines reach it only as an injected
// subsystem.ResilientInvoker, and the seeded chaos battery that drives
// it through both engines lives in internal/battery, as does the wrapper
// that puts the wire fates (wire.go) on the federation's transport seam.
//
// Everything is deterministic per seed: the per-attempt fate of an
// invocation depends only on (seed, process, service, attempt index),
// never on interleaving, so a failing seed reproduces anywhere.
package chaos

import (
	"math/bits"
)

// Plan is a deterministic transport-fault plan. Probabilities are per
// transport attempt; each attempt's fate is a pure function of
// (Seed, process, service, attempt index).
type Plan struct {
	// Seed drives every fate decision.
	Seed int64
	// PTransient is the probability of a transient delivery failure:
	// the invocation never reaches the subsystem (safe to resend).
	PTransient float64
	// PTimeout is the probability of a timeout: the reply is lost and —
	// on half of the timeouts, decided by a further seeded bit — the
	// invocation executed anyway, leaving a prepared transaction only
	// the idempotency table can recover.
	PTimeout float64
	// PDuplicate is the probability of a duplicate delivery: the
	// invocation is delivered twice under the same idempotency key.
	PDuplicate float64
	// PSlow is the probability of a latency spike of SlowTicks.
	PSlow float64
	// SlowTicks is the extra virtual latency of a slow delivery.
	// Default 16.
	SlowTicks int64
	// TimeoutTicks is the virtual latency a timed-out attempt costs the
	// caller. Default 32.
	TimeoutTicks int64
	// Outages are sustained per-subsystem outage windows.
	Outages []Outage
}

func (p Plan) withDefaults() Plan {
	if p.SlowTicks == 0 {
		p.SlowTicks = 16
	}
	if p.TimeoutTicks == 0 {
		p.TimeoutTicks = 32
	}
	return p
}

// Outage is a sustained outage of one subsystem: every delivery
// attempt with per-subsystem index in [From, To) fails. Measuring the
// window in delivery attempts (rather than ticks) keeps scenarios
// deterministic in the sequential engine and guarantees the window
// passes: every re-invocation advances the index.
type Outage struct {
	Subsystem string
	From, To  int64
}

// fate is the transport-level outcome of one delivery attempt.
type fate int

const (
	fateDeliver fate = iota
	fateTransient
	fateTimeout   // reply lost, invocation NOT executed
	fateTimeoutEx // reply lost, invocation executed (ambiguity case)
	fateDuplicate
	fateSlow
)

// mix64 is a splitmix64 finalizer: a bijective avalanche over 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashStr folds a string into a 64-bit value (FNV-1a).
func hashStr(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(uint64(1)<<53)
}

// hashAt derives the decision hash of one (proc, service, attempt)
// triple under the plan's seed. A further salt decorrelates independent
// decisions of the same attempt (fate vs. executed-bit vs. outage
// flavour).
func (p Plan) hashAt(proc, service string, attempt int64, salt uint64) uint64 {
	h := mix64(uint64(p.Seed) ^ 0x9e3779b97f4a7c15)
	h = mix64(h ^ hashStr(proc))
	h = mix64(h ^ hashStr(service))
	h = mix64(h ^ uint64(attempt) ^ bits.RotateLeft64(salt, 17))
	return h
}

// fateAt decides the deterministic fate of one delivery attempt.
func (p Plan) fateAt(proc, service string, attempt int64) fate {
	u := unit(p.hashAt(proc, service, attempt, 0xfa7e))
	switch {
	case u < p.PTransient:
		return fateTransient
	case u < p.PTransient+p.PTimeout:
		if p.hashAt(proc, service, attempt, 0xe8ec)&1 == 0 {
			return fateTimeoutEx
		}
		return fateTimeout
	case u < p.PTransient+p.PTimeout+p.PDuplicate:
		return fateDuplicate
	case u < p.PTransient+p.PTimeout+p.PDuplicate+p.PSlow:
		return fateSlow
	default:
		return fateDeliver
	}
}
