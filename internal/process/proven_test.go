package process_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"transproc/internal/paper"
	"transproc/internal/process"
)

// judged returns corpus(1, 3000) followed by the fuzz seeds' processes:
// what the explorer's judges run over.
func judged() []*process.Process {
	return append(corpus(1, 3000), seedProcesses()...)
}

// TestExplorerMatchesReference holds the explorer to the reference it
// replaced: equal verdicts and byte-equal error texts.
func TestExplorerMatchesReference(t *testing.T) {
	t.Parallel()
	failing := 0
	for _, p := range judged() {
		got, want := process.ExploreTermination(p), refValidateGuaranteedTermination(p)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("explorer answered %v, the reference %v\n%s", got, want, p)
		}
		if want != nil {
			failing++
		}
	}
	if failing == 0 {
		t.Fatal("no process of the corpus fails: the error texts were never compared")
	}
}

// TestProvenShapes holds ValidateGuaranteedTermination, which answers a
// shape it proved before from its set, to the explorer. It does not run
// in parallel: it empties the set and counts its keys.
func TestProvenShapes(t *testing.T) {
	procs := judged()
	want := make([]string, len(procs))
	for i, p := range procs {
		want[i] = fmt.Sprint(process.ExploreTermination(p))
	}

	t.Run("verdicts", func(t *testing.T) {
		process.ResetProvenShapes()
		for pass := range 2 { // the second pass answers every proven shape from the set
			for i, p := range procs {
				if got := fmt.Sprint(process.ValidateGuaranteedTermination(p)); got != want[i] {
					t.Fatalf("pass %d: the set answered %v, the explorer %v\n%s", pass, got, want[i], p)
				}
			}
		}
		if process.ProvenLen() == 0 {
			t.Fatal("nothing was proven")
		}
	})

	t.Run("failures are not stored", func(t *testing.T) {
		process.ResetProvenShapes()
		bad := twoPivotsNoAlt()
		for _, id := range []process.ID{"B1", "B2"} {
			q := relabel(bad, id, string(id)+".")
			err := process.ValidateGuaranteedTermination(q)
			if want := process.ExploreTermination(q); err == nil || err.Error() != want.Error() {
				t.Fatalf("%s: validation answered %v, the explorer %v", id, err, want)
			}
			if !strings.Contains(err.Error(), "process "+string(id)+":") {
				t.Fatalf("%s: the error names another process: %v", id, err)
			}
		}
		if n := process.ProvenLen(); n != 0 {
			t.Fatalf("a failing shape left %d keys in the set", n)
		}
	})

	t.Run("hits allocate nothing", func(t *testing.T) {
		for _, p := range []*process.Process{paper.P1(), paper.P2(), paper.P3()} {
			if err := process.ValidateGuaranteedTermination(p); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(50, func() { process.ValidateGuaranteedTermination(p) }); n != 0 {
				t.Fatalf("%s: a proven shape allocates %.0f times per validation", p.ID, n)
			}
		}
	})

	t.Run("the set empties at its cap", func(t *testing.T) {
		process.ResetProvenShapes()
		for i := range process.ProvenCap {
			process.RecordProven(fmt.Sprintf("key %d", i))
		}
		if n := process.ProvenLen(); n != process.ProvenCap {
			t.Fatalf("%d distinct keys left %d in the set", process.ProvenCap, n)
		}
		if err := process.ValidateGuaranteedTermination(paper.P1()); err != nil {
			t.Fatal(err)
		}
		if n := process.ProvenLen(); n != 1 {
			t.Fatalf("proving a shape into a full set left %d keys, want 1", n)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		process.ResetProvenShapes()
		const workers = 8
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Each worker proves half the corpus, from its own offset:
				// neighbours overlap by most of it.
				n := len(procs) / 2
				for k := range n {
					i := (w*len(procs)/(2*workers) + k) % len(procs)
					if got := fmt.Sprint(process.ValidateGuaranteedTermination(procs[i])); got != want[i] {
						errs <- fmt.Errorf("worker %d: validation answered %v, the explorer %v\n%s", w, got, want[i], procs[i])
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}
