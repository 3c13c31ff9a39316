package scheduler_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"transproc/internal/fault"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// BenchmarkRecover times restart recovery as a restart pays for it:
// wal.OpenFile on a file log of 50,000 records of terminated history — a
// clean 12-process generated run cloned under renamed process ids — with
// the same workload crashed on top, then Recover. Every iteration
// recovers a fresh copy; only the open and the recovery are timed. In
// first-record-live, an interrupted restart incarnation of one of the
// workload's processes wrote the log's first record, so the records
// recovery decodes in full span the whole log.
func BenchmarkRecover(b *testing.B) {
	b.Run("tail", func(b *testing.B) { benchmarkRecover(b, false) })
	b.Run("first-record-live", func(b *testing.B) { benchmarkRecover(b, true) })
}

func benchmarkRecover(b *testing.B, firstLive bool) {
	profile := workload.DefaultProfile(12)
	profile.Processes, profile.ConflictProb = 12, 0.4
	tmpl := wal.NewMemLog()
	w := workload.MustGenerate(profile)
	eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED, Log: tmpl, MaxRestarts: 16})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.RunJobs(w.Jobs); err != nil {
		b.Fatal(err)
	}
	recs, err := tmpl.Records()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	path := filepath.Join(dir, "wal.log")
	flog, err := wal.OpenFile(filepath.Join(dir, "history.log"), false)
	if err != nil {
		b.Fatal(err)
	}
	if firstLive {
		if _, err := flog.Append(wal.Record{Type: wal.RecStart, Proc: string(w.Jobs[0].Proc.ID.Restart(1))}); err != nil {
			b.Fatal(err)
		}
	}
	for n, k := 0, 0; n < 50_000; k++ {
		for _, r := range recs {
			// A clone lives in its own id and transaction-id range.
			r.Proc = fmt.Sprintf("%s~%d", r.Proc, k)
			if r.Tx != 0 {
				r.Tx += int64(k+1) * 1_000_000
			}
			if _, err := flog.Append(r); err != nil {
				b.Fatal(err)
			}
			n++
		}
	}
	if err := flog.Close(); err != nil {
		b.Fatal(err)
	}
	history, err := os.ReadFile(filepath.Join(dir, "history.log"))
	if err != nil {
		b.Fatal(err)
	}
	var defs []*process.Process
	for _, j := range w.Jobs {
		defs = append(defs, j.Proc)
	}

	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		if err := os.WriteFile(path, history, 0o644); err != nil {
			b.Fatal(err)
		}
		live := workload.MustGenerate(profile)
		flog, err := wal.OpenFile(path, false)
		if err != nil {
			b.Fatal(err)
		}
		// The crash takes the run after 36 appended records, as in the
		// benchmark module's recover-50k.
		crash := fault.WrapWAL(flog, 36)
		eng, err := scheduler.New(live.Fed, scheduler.Config{Mode: scheduler.PRED, Log: crash, MaxRestarts: 16})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.RunJobs(live.Jobs); !errors.Is(err, scheduler.ErrCrashed) {
			b.Fatalf("live run: want ErrCrashed, got %v", err)
		}
		if err := flog.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		log, err := wal.OpenFile(path, false)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := scheduler.Recover(live.Fed, log, defs)
		if err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		if len(rep.ForwardRecovered)+len(rep.BackwardRecovered) == 0 {
			b.Fatal("the crash interrupted no process")
		}
		if first := w.Jobs[0].Proc.ID.Restart(1); firstLive && !slices.Contains(rep.BackwardRecovered, first) {
			b.Fatalf("%s, live since the log's first record, was not recovered: %v", first, rep.BackwardRecovered)
		}
		if err := log.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
