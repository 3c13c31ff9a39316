// Per-tenant budgets: a token-bucket rate limit on admissions and a
// retry budget consumed by restarts at the ingestion boundary. Both are deterministic given the injected clock, so
// batteries can drive them with a virtual clock and assert exact shed
// decisions.
package serve

import (
	"math"
	"sync"
	"time"
)

// TenantConfig bounds one tenant namespace. The zero value disables
// rate limiting and grants the default retry budget.
type TenantConfig struct {
	// Rate is the sustained admission rate in submissions per second
	// (token-bucket refill). 0 disables rate limiting.
	Rate float64
	// Burst is the bucket capacity (defaults to 8 when Rate > 0).
	Burst int
	// RetryBudget bounds restarts charged to the tenant: engine
	// restarts of its processes plus post-crash re-runs. When
	// exhausted, crash-interrupted work settles as aborted instead of
	// being re-run. 0 means the default of 64.
	RetryBudget int
}

const defaultRetryBudget = 64

// tenantState is one tenant's live budget state, guarded by tenants.mu.
type tenantState struct {
	tokens      float64
	last        time.Time
	retriesUsed int
}

// tenants tracks every namespace seen by the server.
type tenants struct {
	mu  sync.Mutex
	cfg TenantConfig
	now func() time.Time
	m   map[string]*tenantState
}

func newTenants(cfg TenantConfig, now func() time.Time) *tenants {
	if cfg.Rate > 0 && cfg.Burst <= 0 {
		cfg.Burst = 8
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = defaultRetryBudget
	}
	return &tenants{cfg: cfg, now: now, m: make(map[string]*tenantState)}
}

func (t *tenants) state(name string) *tenantState {
	st := t.m[name]
	if st == nil {
		st = &tenantState{tokens: float64(t.cfg.Burst), last: t.now()}
		t.m[name] = st
	}
	return st
}

// admit consumes one token, or reports how long until one refills.
func (t *tenants) admit(name string) (bool, time.Duration) {
	if t.cfg.Rate <= 0 {
		return true, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state(name)
	now := t.now()
	if dt := now.Sub(st.last).Seconds(); dt > 0 {
		st.tokens = math.Min(float64(t.cfg.Burst), st.tokens+dt*t.cfg.Rate)
		st.last = now
	}
	if st.tokens >= 1 {
		st.tokens--
		return true, 0
	}
	wait := time.Duration((1 - st.tokens) / t.cfg.Rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}

// takeRetry reserves one re-run from the tenant's retry budget.
func (t *tenants) takeRetry(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state(name)
	if st.retriesUsed >= t.cfg.RetryBudget {
		return false
	}
	st.retriesUsed++
	return true
}

// debitRestarts charges engine-level restarts to the tenant (clamped
// at the budget; exhaustion then gates future re-runs, not live work).
func (t *tenants) debitRestarts(name string, n int) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state(name)
	st.retriesUsed += n
	if st.retriesUsed > t.cfg.RetryBudget {
		st.retriesUsed = t.cfg.RetryBudget
	}
}
