package chaos

// RetryPolicy parameterizes the typed retry loop in Layer. Backoff is
// exponential with deterministic, seeded jitter: the delay before
// transport attempt k (k >= 1 retries) is
//
//	min(BackoffCap, BackoffBase << (k-1)) * (0.5 + jitter)
//
// where jitter in [0, 0.5) is a pure function of (seed, process,
// service, attempt), so the entire retry schedule of a run is
// reproducible from its seed.
type RetryPolicy struct {
	// MaxAttempts bounds transport attempts per InvokeResilient call
	// (first try included). Default 5.
	MaxAttempts int
	// BackoffBase is the pre-jitter delay in virtual ticks before the
	// first retry. Default 2.
	BackoffBase int64
	// BackoffCap caps the pre-jitter exponential delay. Default 64.
	BackoffCap int64
	// Deadline bounds the total virtual latency (injected latency plus
	// backoff) one InvokeResilient call may accumulate; once exceeded,
	// no further retries are attempted. Default 256.
	Deadline int64
	// ProcessBudget bounds transport-level retries per process across
	// its whole execution (retry budget). The first attempt of each
	// call is free, so exhaustion can never starve an activity outright
	// — it only stops the layer from masking failures, surfacing them
	// to the scheduler instead. Default 32.
	ProcessBudget int
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 5
	}
	if p.BackoffBase == 0 {
		p.BackoffBase = 2
	}
	if p.BackoffCap == 0 {
		p.BackoffCap = 64
	}
	if p.Deadline == 0 {
		p.Deadline = 256
	}
	if p.ProcessBudget == 0 {
		p.ProcessBudget = 32
	}
	return p
}

// backoff returns the jittered delay in virtual ticks before retry
// number retryIdx (1-based) of the (proc, service) invocation, under
// the plan seed. Deterministic: same inputs, same schedule.
func (p RetryPolicy) backoff(plan Plan, proc, service string, retryIdx int) int64 {
	base := p.BackoffBase
	for i := 1; i < retryIdx; i++ {
		base <<= 1
		if base >= p.BackoffCap {
			base = p.BackoffCap
			break
		}
	}
	if base > p.BackoffCap {
		base = p.BackoffCap
	}
	// jitter in [0.5, 1.0): deterministic per (seed, proc, service, retry).
	j := 0.5 + unit(plan.hashAt(proc, service, int64(retryIdx), 0x0b0f))/2
	d := int64(float64(base) * j)
	if d < 1 {
		d = 1
	}
	return d
}
