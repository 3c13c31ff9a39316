// Package twopc implements the atomic commitment of all
// non-compensatable activities of a process. Lemma 1 of the paper
// requires the commits of non-compensatable activities to be deferred
// until every conflicting predecessor process has committed, and
// Section 3.5 requires "the commitment of all non-compensatable
// activities of P_j … to be performed atomically by exploiting a two
// phase commit protocol in order to ensure that either all activities
// commit or none of them".
//
// The first phase (prepare) already happened when the subsystems
// executed the activities into the prepared state (subsystem.Prepare);
// the coordinator here implements the decision and the second phase,
// writing the decision to the scheduler's write-ahead log first so that
// a crash between decision and completion is resolved by presumed
// commit during recovery.
package twopc

import (
	"fmt"
	"sort"

	"transproc/internal/metrics"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

// Participant is one prepared local transaction taking part in the
// atomic commit.
type Participant struct {
	Sub     *subsystem.Subsystem
	Tx      subsystem.TxID
	Proc    string
	Local   int
	Service string
}

// Coordinator drives the second phase of 2PC against the subsystems,
// journaling to the write-ahead log.
type Coordinator struct {
	log func(wal.Record) (int64, error)
	// Metrics is the optional observability registry (nil = no-op): it
	// receives decision counts, per-participant resolution counters and
	// the prepared-set size histogram.
	Metrics *metrics.Registry
	// Inject, when non-nil, is called at named crash points:
	// "twopc:after-decision" right after the decision record is forced,
	// and "twopc:mid-resolve" after the first participant's resolution
	// — the window between prepare and commit of the remaining
	// participants. A fault plan (internal/fault) may panic through it
	// with a crash sentinel the calling engine recovers; no-op when nil.
	Inject func(point string)
}

// New returns a coordinator that logs through the host's append
// function (a wal.Log's Append, or the host's own force-log), which
// returns the record's LSN.
func New(log func(wal.Record) (int64, error)) *Coordinator { return &Coordinator{log: log} }

func (c *Coordinator) inject(point string) {
	if c.Inject != nil {
		c.Inject(point)
	}
}

// CommitAll atomically commits the prepared transactions of one
// process. All participants must already be prepared (phase one); the
// decision record makes the outcome durable, after which every
// participant is committed (presumed commit). Partial failures after
// the decision are repaired by Resolve during recovery.
func (c *Coordinator) CommitAll(proc string, parts []Participant) error {
	if len(parts) == 0 {
		return nil
	}
	if _, err := c.log(wal.Record{Type: wal.RecDecision, Proc: proc}); err != nil {
		return fmt.Errorf("twopc: logging decision for %s: %w", proc, err)
	}
	c.Metrics.Inc(metrics.TwoPCDecisions)
	c.Metrics.Observe(metrics.HistPreparedSet, int64(len(parts)))
	c.inject("twopc:after-decision")
	for i, p := range parts {
		if err := p.Sub.CommitPrepared(p.Tx); err != nil {
			return fmt.Errorf("twopc: committing %s tx %d at %s: %w", proc, p.Tx, p.Sub.Name(), err)
		}
		if _, err := c.log(wal.Record{
			Type: wal.RecResolved, Proc: proc, Local: p.Local,
			Service: p.Service, Subsystem: p.Sub.Name(), Tx: int64(p.Tx), Commit: true,
		}); err != nil {
			return fmt.Errorf("twopc: logging resolution: %w", err)
		}
		if i == 0 {
			c.inject("twopc:mid-resolve")
		}
	}
	return nil
}

// Resolve finishes in-doubt transactions after a crash: if a decision
// was logged for the process, unresolved prepared transactions are
// committed (presumed commit); otherwise they are rolled back (presumed
// abort). It returns the resolution records it logged, in log order.
//
// Participants are resolved in ascending local order so that recovery
// writes the same log for the same crash image on every run. If the
// subsystem already resolved a transaction (a crash fell between the
// subsystem commit/abort and its resolution record), the subsystem's
// journaled fate wins over the presumption and only the log record is
// replayed — resolution stays idempotent across repeated recoveries.
func (c *Coordinator) Resolve(fed *subsystem.Federation, img *wal.ProcImage) (resolved []wal.Record, err error) {
	locals := make([]int, 0, len(img.Prepared))
	for local := range img.Prepared {
		if !img.Resolved[local] {
			locals = append(locals, local)
		}
	}
	sort.Ints(locals)
	for _, local := range locals {
		ptx := img.Prepared[local]
		sub, ok := fed.Subsystem(ptx.Subsystem)
		if !ok {
			return resolved, fmt.Errorf("twopc: unknown subsystem %q during resolution", ptx.Subsystem)
		}
		tx := subsystem.TxID(ptx.Tx)
		commit := img.Decided
		var rerr error
		if commit {
			rerr = sub.CommitPrepared(tx)
		} else {
			rerr = sub.AbortPrepared(tx)
		}
		if rerr != nil {
			fate, known := sub.TxFate(tx)
			if !known {
				return resolved, rerr
			}
			commit = fate
		}
		if commit {
			c.Metrics.Inc(metrics.DeferredCommitted2PC)
		} else {
			c.Metrics.Inc(metrics.DeferredRolledBack)
		}
		rec := wal.Record{
			Type: wal.RecResolved, Proc: img.Proc, Local: local,
			Service: ptx.Service, Subsystem: ptx.Subsystem, Tx: ptx.Tx, Commit: commit,
		}
		if rec.LSN, err = c.log(rec); err != nil {
			return resolved, err
		}
		resolved = append(resolved, rec)
	}
	return resolved, nil
}
