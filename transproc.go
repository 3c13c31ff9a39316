// Package transproc is a transactional process management library: an
// implementation of Schuldt, Alonso and Schek, "Concurrency Control and
// Recovery in Transactional Process Management" (PODS 1999).
//
// It provides:
//
//   - the transactional process model: activities with termination
//     guarantees (compensatable / pivot / retriable), precedence and
//     preference orders, guaranteed termination (generalized atomicity);
//   - the unified theory of concurrency control and recovery for
//     processes: process schedules, completed schedules, reducibility
//     (RED), prefix-reducibility (PRED), serializability and
//     process-recoverability checking;
//   - a process scheduler executing processes against simulated
//     transactional subsystems while maintaining PRED online — with
//     deferred 2PC commits of non-compensatable activities (Lemma 1),
//     globally reverse-ordered compensation (Lemma 2), compensation
//     before conflicting retriables (Lemma 3), quasi-commit
//     exploitation (Example 10), optional cascading aborts, write-ahead
//     logging and crash recovery via the group abort (Definition 8);
//   - baseline schedulers (serial, conservative locking, CC-only) and a
//     workload generator for quantitative comparison.
//
// # Quick start
//
//	sub := transproc.NewSubsystem("hotel", 1)
//	sub.MustRegister(transproc.ServiceSpec{
//	    Name: "book", Kind: transproc.Compensatable, Subsystem: "hotel",
//	    Compensation: "book⁻¹", WriteSet: []string{"rooms"},
//	})
//	fed := transproc.NewFederation()
//	fed.MustAdd(sub)
//
//	trip := transproc.NewProcess("Trip").
//	    Add(1, "book", transproc.Compensatable).
//	    MustBuild()
//
//	eng, _ := transproc.NewEngine(fed, transproc.Config{Mode: transproc.PRED})
//	res, _ := eng.Run([]*transproc.Process{trip})
//	ok, _, _, _ := res.Schedule.PRED() // true
package transproc

import (
	"transproc/internal/activity"
	"transproc/internal/conflict"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler"
	"transproc/internal/spec"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// Activity kinds (termination guarantees of the flex transaction model,
// Definitions 2-4 of the paper).
const (
	// Compensatable activities have a compensating activity a⁻¹ such
	// that ⟨a a⁻¹⟩ is effect-free.
	Compensatable = activity.Compensatable
	// Pivot activities are neither compensatable nor retriable; their
	// commit is the point of no return ("quasi commit").
	Pivot = activity.Pivot
	// Retriable activities are guaranteed to commit after finitely many
	// invocations.
	Retriable = activity.Retriable
)

// Kind is the termination guarantee of an activity.
type Kind = activity.Kind

// ServiceSpec describes a service offered by a transactional subsystem.
type ServiceSpec = activity.Spec

// Registry is the set Â of services provided by all subsystems.
type Registry = activity.Registry

// NewRegistry returns an empty service registry.
func NewRegistry() *Registry { return activity.NewRegistry() }

// ConflictTable is the commutativity-based conflict relation
// (Definition 6) with perfect commutativity.
type ConflictTable = conflict.Table

// NewConflictTable returns an empty conflict table.
func NewConflictTable() *ConflictTable { return conflict.NewTable() }

// Process is an immutable process definition P = (A, ≪, ◁)
// (Definition 5).
type Process = process.Process

// ProcessID identifies a process.
type ProcessID = process.ID

// ProcessBuilder assembles a Process.
type ProcessBuilder = process.Builder

// NewProcess returns a builder for a process with the given id.
func NewProcess(id ProcessID) *ProcessBuilder { return process.NewBuilder(id) }

// Instance is the mutable execution state of one process, including its
// recovery mode (B-REC / F-REC) and completion C(P).
type Instance = process.Instance

// NewInstance returns a fresh instance of a process.
func NewInstance(p *Process) *Instance { return process.NewInstance(p) }

// ValidateGuaranteedTermination verifies the guaranteed-termination
// property by exhaustive failure exploration, once per shape per OS
// process: processes with equal ShapeKeys (the structure, without names)
// get equal verdicts, so a proven shape is answered from a set of at
// most 1,024 keys, and a failing process is always explored and named
// in its error.
func ValidateGuaranteedTermination(p *Process) error {
	return process.ValidateGuaranteedTermination(p)
}

// IsWellFormedFlex structurally checks the well-formed flex structure
// grammar on chain-shaped processes.
func IsWellFormedFlex(p *Process) (bool, string) { return process.IsWellFormedFlex(p) }

// Executions enumerates all terminal executions of a process under
// every failure scenario (Figure 3 of the paper).
func Executions(p *Process) ([]process.Execution, error) { return process.Executions(p) }

// Schedule is a process schedule S = (P_S, A_S, ≪_S) (Definition 7),
// offering Serializable, Completed, Reduce, RED, PRED and
// ProcessRecoverable.
type Schedule = schedule.Schedule

// NewSchedule returns an empty schedule over the given processes.
func NewSchedule(table *ConflictTable, procs ...*Process) (*Schedule, error) {
	return schedule.New(table, procs...)
}

// Subsystem is a simulated transactional resource manager.
type Subsystem = subsystem.Subsystem

// NewSubsystem returns an empty subsystem with a deterministic seed.
func NewSubsystem(name string, seed int64) *Subsystem { return subsystem.New(name, seed) }

// Federation is the set of subsystems a process scheduler coordinates.
type Federation = subsystem.Federation

// NewFederation returns an empty federation.
func NewFederation() *Federation { return subsystem.NewFederation() }

// Scheduler modes.
const (
	// PRED is the paper's protocol.
	PRED = scheduler.PRED
	// Serial runs one process at a time.
	Serial = scheduler.Serial
	// Conservative uses process-level conservative locking.
	Conservative = scheduler.Conservative
	// CCOnly orders conflicts but ignores recovery (the insufficient
	// baseline of Section 2.2).
	CCOnly = scheduler.CCOnly
)

// Mode selects a scheduling policy.
type Mode = scheduler.Mode

// Config parameterizes an engine.
type Config = scheduler.Config

// Engine executes processes against a federation.
type Engine = scheduler.Engine

// Job is a process with an arrival time.
type Job = scheduler.Job

// Result is the outcome of an engine run.
type Result = scheduler.Result

// Metrics aggregates run counters.
type Metrics = scheduler.Metrics

// NewEngine creates a scheduler engine over the federation.
func NewEngine(fed *Federation, cfg Config) (*Engine, error) { return scheduler.New(fed, cfg) }

// Recover performs crash recovery from a write-ahead log: it resolves
// in-doubt transactions and executes the group abort of all active
// processes (Definition 8.2b) on the protocol driver the engines run,
// from the process table and policy state the log holds.
func Recover(fed *Federation, log WAL, defs []*Process) (*scheduler.RecoveryReport, error) {
	return scheduler.Recover(fed, log, defs)
}

// RecoveryReport summarizes crash recovery.
type RecoveryReport = scheduler.RecoveryReport

// WAL is the scheduler's write-ahead log interface.
type WAL = wal.Log

// NewMemWAL returns an in-memory write-ahead log.
func NewMemWAL() WAL { return wal.NewMemLog() }

// OpenFileWAL opens a file-backed write-ahead log.
func OpenFileWAL(path string, syncEvery bool) (WAL, error) { return wal.OpenFile(path, syncEvery) }

// WorkloadProfile parameterizes synthetic workload generation.
type WorkloadProfile = workload.Profile

// Workload is a generated federation plus jobs.
type Workload = workload.Workload

// DefaultWorkloadProfile returns a moderate baseline profile.
func DefaultWorkloadProfile(seed int64) WorkloadProfile { return workload.DefaultProfile(seed) }

// GenerateWorkload builds the federation and processes of a profile.
func GenerateWorkload(p WorkloadProfile) (*Workload, error) { return workload.Generate(p) }

// Compose builds a sequential composition of subprocesses: each
// subprocess's exits precede the next one's entries (the subprocess
// extension named as future work in the paper's conclusion). The
// result is validated for guaranteed termination.
func Compose(id ProcessID, subs ...*Process) (*Process, error) {
	return process.Compose(id, subs...)
}

// EffectiveKind classifies a process by the termination guarantee it
// offers when used as a subprocess: "c" (fully compensatable), "p"
// (contains non-compensatable activities) or "r" (all retriable).
func EffectiveKind(p *Process) string { return process.EffectiveKind(p) }

// LoadSpec parses a declarative JSON definition of subsystems and
// processes (see package transproc/internal/spec for the format) and
// materializes the federation and jobs.
func LoadSpec(data []byte) (*Federation, []Job, error) { return spec.Load(data) }
