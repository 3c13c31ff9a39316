package chaos

import "testing"

// TestFateDeterministic pins the transport fate function: same seed,
// same (proc, service, attempt) — same fate; and the distribution
// roughly matches the plan.
func TestFateDeterministic(t *testing.T) {
	p := Plan{Seed: 42, PTransient: 0.2, PTimeout: 0.1, PDuplicate: 0.1, PSlow: 0.1}.withDefaults()
	counts := make(map[fate]int)
	for i := int64(0); i < 4000; i++ {
		f1 := p.fateAt("P1", "svc", i)
		f2 := p.fateAt("P1", "svc", i)
		if f1 != f2 {
			t.Fatalf("attempt %d: fate not deterministic (%v vs %v)", i, f1, f2)
		}
		counts[f1]++
	}
	frac := func(f ...fate) float64 {
		n := 0
		for _, x := range f {
			n += counts[x]
		}
		return float64(n) / 4000
	}
	if got := frac(fateTransient); got < 0.15 || got > 0.25 {
		t.Errorf("transient fraction %.3f, want ~0.20", got)
	}
	if got := frac(fateTimeout, fateTimeoutEx); got < 0.06 || got > 0.14 {
		t.Errorf("timeout fraction %.3f, want ~0.10", got)
	}
	if got := frac(fateDeliver, fateSlow, fateDuplicate); got < 0.6 {
		t.Errorf("delivery fraction %.3f suspiciously low", got)
	}
	// Different seeds decorrelate.
	q := p
	q.Seed = 43
	same := 0
	for i := int64(0); i < 1000; i++ {
		if p.fateAt("P1", "svc", i) == q.fateAt("P1", "svc", i) {
			same++
		}
	}
	if same > 990 {
		t.Errorf("seeds 42 and 43 agree on %d/1000 fates; seed not mixed in", same)
	}
}
