package wal_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"transproc/internal/fault"
	"transproc/internal/metrics"
	"transproc/internal/wal"
)

// TestGroupAppenderOneSyncCoversEverythingWritten: records written
// without a wait stay in the file's buffer, and the first wait syncs
// them all at once; a wait its record an earlier sync covered returns
// without a sync of its own.
func TestGroupAppenderOneSyncCoversEverythingWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	inner, err := wal.OpenFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	reg := metrics.New()
	ga := wal.NewGroupAppender(inner, wal.GroupCommit{MaxBatch: 1}, nil)
	ga.SetMetrics(reg)
	frames := func() int {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return len(wal.FrameBounds(data)) - 1
	}
	var lsns []int64
	for i := 1; i <= 5; i++ {
		lsn, err := ga.AppendNoSync(wal.Record{Type: wal.RecStart, Proc: fmt.Sprintf("P%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if n := frames(); n != 0 {
		t.Fatalf("%d records reached the file before any sync", n)
	}
	for _, lsn := range []int64{lsns[4], lsns[0]} {
		if err := ga.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if n := frames(); n != 5 {
		t.Fatalf("%d records reached the file after the sync, want 5", n)
	}
	if b, saved := reg.Counter(metrics.WALGroupBatches), reg.Counter(metrics.WALFsyncsSaved); b != 1 || saved != 4 {
		t.Errorf("syncs = %d, saved = %d, want 1 and 4", b, saved)
	}
}

// TestGroupCommitConcurrentNoAckedLost hammers the group appender with
// concurrent writers while a checkpoint+compact loop runs against the
// same appender, then verifies (a) every acknowledged record is still
// replayable through wal.Expand — group commit must not lose or reorder
// acked records, and compaction must not eat them — and (b) the sync
// count stayed below the append count (the whole point of group
// commit). Run under -race this also checks the shared-sync handoff and
// the compaction-vs-append interleaving.
func TestGroupCommitConcurrentNoAckedLost(t *testing.T) {
	const (
		writers = 8
		each    = 150
	)
	reg := metrics.New()
	inner, err := wal.OpenFile(filepath.Join(t.TempDir(), "wal.log"), true)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ga := wal.NewGroupAppender(inner, wal.GroupCommit{MaxBatch: 32}, nil)
	ga.SetMetrics(reg)

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			proc := fmt.Sprintf("g%d", g)
			for i := 0; i < each; i++ {
				// Dispatch records of never-terminated processes: a
				// checkpoint keeps them verbatim in its Live set, so
				// compaction cannot legitimately drop any of them.
				lsn, err := ga.Append(wal.Record{Type: wal.RecDispatch, Proc: proc, Local: i, Service: "svc"})
				if err != nil {
					t.Errorf("append %s/%d: %v", proc, i, err)
					return
				}
				if lsn <= 0 {
					t.Errorf("append %s/%d: lsn %d", proc, i, lsn)
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := wal.TakeCheckpoint(ga, nil, nil, reg); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			if err := ga.Compact(nil); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	<-ckptDone
	if t.Failed() {
		return
	}

	recs, err := ga.Records()
	if err != nil {
		t.Fatalf("records: %v", err)
	}
	seen := make(map[string]bool)
	for _, r := range wal.Expand(recs).Records {
		if r.Type == wal.RecDispatch {
			seen[fmt.Sprintf("%s/%d", r.Proc, r.Local)] = true
		}
	}
	for g := 0; g < writers; g++ {
		for i := 0; i < each; i++ {
			key := fmt.Sprintf("g%d/%d", g, i)
			if !seen[key] {
				t.Errorf("acked record %s lost", key)
			}
		}
	}

	appends := reg.Counter(metrics.WALAppends)
	fsyncs := reg.Counter(metrics.WALFsyncs)
	if fsyncs >= appends {
		t.Errorf("group commit saved nothing: %d fsyncs for %d appends", fsyncs, appends)
	}
	if saved := reg.Counter(metrics.WALFsyncsSaved); saved <= 0 {
		t.Errorf("fsyncs-saved = %d, want > 0", saved)
	}
	if batches := reg.Counter(metrics.WALGroupBatches); batches <= 0 || batches >= appends {
		t.Errorf("batches = %d for %d appends, want 0 < batches < appends", batches, appends)
	}
	if err := ga.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestGroupFsyncCrashLosesOnlyUnacked crashes a shared sync before it
// syncs (the wal:group-fsync point) and verifies the ack contract:
// every Append that returned without panicking is on disk after
// reopening the file; every goroutine whose record the doomed sync was
// to cover observes the crash sentinel from its own Append call.
func TestGroupFsyncCrashLosesOnlyUnacked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	inner, err := wal.OpenFile(path, true)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	inj := fault.NewInjector(fault.Plan{CrashAtPoint: fault.PointGroupFsync, CrashAtCount: 5})
	ga := wal.NewGroupAppender(inner, wal.GroupCommit{MaxBatch: 8}, inj.Point)

	const writers = 6
	var (
		mu      sync.Mutex
		acked   = make(map[string]bool)
		crashes int
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			proc := fmt.Sprintf("g%d", g)
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("%s/%d", proc, i)
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := fault.AsCrash(r); !ok {
								panic(r)
							}
							err = fmt.Errorf("crashed")
						}
					}()
					_, aerr := ga.Append(wal.Record{Type: wal.RecDispatch, Proc: proc, Local: i, Service: "svc"})
					return aerr
				}()
				mu.Lock()
				if err != nil {
					crashes++
					mu.Unlock()
					return // this writer's system crashed
				}
				acked[key] = true
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if !inj.Tripped() {
		t.Fatalf("crash point never fired")
	}
	if crashes == 0 {
		t.Fatalf("no appender observed the crash sentinel")
	}

	// Recovery view: reopen the file fresh (the old handle's unflushed
	// buffer plays the page cache a real crash would lose).
	reopened, err := wal.OpenFile(path, true)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	recs, err := reopened.Records()
	if err != nil {
		t.Fatalf("records: %v", err)
	}
	onDisk := make(map[string]bool)
	for _, r := range recs {
		onDisk[fmt.Sprintf("%s/%d", r.Proc, r.Local)] = true
	}
	for key := range acked {
		if !onDisk[key] {
			t.Errorf("acked record %s missing after crash", key)
		}
	}
}
