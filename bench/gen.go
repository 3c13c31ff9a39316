package main

import (
	"fmt"
	"math"

	"transproc/internal/process"
	"transproc/internal/workload"
)

// splitmix64 derives independent sub-seeds from the run seed, so every
// rep of every workload gets inputs of its own and the same run seed
// always gives the same inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed is the seed of the stream-th input of workload wl under the
// run seed.
func subSeed(seed int64, wl string, stream int) int64 {
	h := uint64(seed)
	for _, c := range []byte(wl) {
		h = splitmix64(h ^ uint64(c))
	}
	return int64(splitmix64(h^uint64(stream)) >> 1)
}

// genCandidates is how many candidate seeds generate draws for one
// input. It always draws all of them, so that set-up costs the same
// every time, and keeps the one whose realised conflict structure is
// closest to the profile's.
const genCandidates = 32

// generated is one accepted input.
type generated struct {
	w       *workload.Workload
	defs    []*process.Process
	profile workload.Profile
	share   float64 // realised conflict share
	pairs   float64 // realised pair-conflict probability
}

// conflictStructure returns the share of the jobs' activities whose
// service writes a shared hot item, and the probability that two
// activities drawn at random conflict. A hot writer conflicts with every
// hot writer of its subsystem, itself included, and with nothing else,
// so the second is the sum over subsystems of the squared share of
// activities that are hot writers there: the same share of hot
// activities conflicts twice as often packed into two subsystems as
// spread over four.
func conflictStructure(w *workload.Workload) (share, pairs float64, err error) {
	table, err := w.Fed.ConflictTable()
	if err != nil {
		return 0, 0, err
	}
	subs := w.Fed.Subsystems()
	subOf := make(map[string]int)
	for i, sub := range subs {
		for _, svc := range sub.Services() {
			subOf[svc] = i
		}
	}
	hot, allHot, total := make([]int, len(subs)), 0, 0
	for _, j := range w.Jobs {
		for _, a := range j.Proc.Activities() {
			total++
			if table.Conflicts(a.Service, a.Service) {
				hot[subOf[a.Service]]++
				allHot++
			}
		}
	}
	if total == 0 {
		return 0, 0, fmt.Errorf("workload has no activities")
	}
	for _, h := range hot { // in the federation's order: the same sum every time
		f := float64(h) / float64(total)
		pairs += f * f
	}
	return float64(allHot) / float64(total), pairs, nil
}

// nominalPairs is the pair-conflict probability workload.Generate gives
// on average: each of a subsystem's 3 × ServicesPerSubsystem services
// (one per kind) is a hot writer with probability ConflictProb,
// independently.
func nominalPairs(p workload.Profile) float64 {
	c, n := p.ConflictProb, float64(3*p.ServicesPerSubsystem)
	return (c*c + c*(1-c)/n) / float64(p.Subsystems)
}

// generate draws genCandidates candidate seeds from (seed, wl, stream)
// and returns the workload.Generate output whose realised conflict
// share and pair-conflict probability are closest to the profile's
// nominal ones. workload.Generate decides per service, with probability
// ConflictProb, whether it writes the hot item, so with 16 services per
// kind the realised share of one draw scatters by ±40 % and the
// runtime's throughput with it (3× between neighbouring seeds), and at
// one share the pair probability still scatters by ±25 % with how the
// hot services fall over the subsystems; taking the closest of 32 draws
// is what keeps a rep's work a function of the profile and not of the
// seed.
func generate(p workload.Profile, seed int64, wl string, stream int) (*generated, error) {
	base := uint64(subSeed(seed, wl, stream))
	wantPairs := nominalPairs(p)
	distance := func(g *generated) float64 {
		return math.Abs(g.share-p.ConflictProb)/p.ConflictProb + math.Abs(g.pairs-wantPairs)/wantPairs
	}
	var best *generated
	for attempt := 0; attempt < genCandidates; attempt++ {
		base = splitmix64(base)
		p.Seed = int64(base >> 1)
		w, err := workload.Generate(p)
		if err != nil {
			return nil, err
		}
		share, pairs, err := conflictStructure(w)
		if err != nil {
			return nil, err
		}
		if g := newGenerated(w, p, share, pairs); best == nil || distance(g) < distance(best) {
			best = g
		}
	}
	return best, nil
}

// draw is one workload.Generate output on the seed derived from (seed,
// wl, stream), taken as it comes.
func draw(p workload.Profile, seed int64, wl string, stream int) (*generated, error) {
	p.Seed = subSeed(seed, wl, stream)
	w, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	share, pairs, err := conflictStructure(w)
	if err != nil {
		return nil, err
	}
	return newGenerated(w, p, share, pairs), nil
}

func newGenerated(w *workload.Workload, p workload.Profile, share, pairs float64) *generated {
	g := &generated{w: w, profile: p, share: share, pairs: pairs, defs: make([]*process.Process, len(w.Jobs))}
	for i, j := range w.Jobs {
		g.defs[i] = j.Proc
	}
	return g
}

// regenerate rebuilds an accepted input from its recorded profile: a
// second, untouched federation and job set with the identical content.
func (g *generated) regenerate() (*generated, error) {
	w, err := workload.Generate(g.profile)
	if err != nil {
		return nil, err
	}
	return newGenerated(w, g.profile, g.share, g.pairs), nil
}

// baseProfile is the shared base of every generated workload.
func baseProfile(procs int, conflict, permFail, transFail float64) workload.Profile {
	p := workload.DefaultProfile(0)
	p.Processes = procs
	p.ConflictProb = conflict
	p.PermFailureProb = permFail
	p.TransientFailureProb = transFail
	return p
}
