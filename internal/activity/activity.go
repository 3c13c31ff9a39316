// Package activity implements the activity model of Schuldt, Alonso and
// Schek, "Concurrency Control and Recovery in Transactional Process
// Management" (PODS'99), Definitions 1-4.
//
// Activities are service invocations in underlying transactional
// subsystems. Each activity is itself a local transaction and therefore
// atomic: an invocation terminates either committing or aborting.
// Activities differ in their termination guarantees: they are
// compensatable, retriable, or pivot (flex transaction model).
package activity

import (
	"errors"
	"fmt"
)

// Kind classifies the termination guarantee of an activity
// (Definitions 2-4 of the paper, following the flex transaction model).
type Kind int

const (
	// Compensatable activities have a compensating activity a⁻¹ such
	// that ⟨a a⁻¹⟩ is effect-free (Definition 2).
	Compensatable Kind = iota
	// Pivot activities are neither compensatable nor retriable. Their
	// successful termination is the "quasi commit" of a process: once a
	// pivot commits, backward recovery is no longer possible.
	Pivot
	// Retriable activities are guaranteed to terminate with commit after
	// a finite number of invocations (Definition 3).
	Retriable
	// Compensation marks a compensating activity a⁻¹. Compensating
	// activities are themselves not compensatable but are retriable and
	// therefore guaranteed to commit (paper, Section 3.1).
	Compensation
)

// String returns the conventional superscript notation used in the paper.
func (k Kind) String() string {
	switch k {
	case Compensatable:
		return "c"
	case Pivot:
		return "p"
	case Retriable:
		return "r"
	case Compensation:
		return "-1"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Valid reports whether k is one of the defined kinds.
func (k Kind) Valid() bool {
	return k >= Compensatable && k <= Compensation
}

// NonCompensatable reports whether an already-committed activity of this
// kind can no longer be undone by compensation. Pivot and retriable
// activities have no compensating activity in the flex transaction model;
// neither do compensating activities themselves.
func (k Kind) NonCompensatable() bool {
	return k != Compensatable
}

// GuaranteedToCommit reports whether an invocation of this kind can never
// fail permanently (Definition 4): retriable activities and compensating
// activities always eventually commit.
func (k Kind) GuaranteedToCommit() bool {
	return k == Retriable || k == Compensation
}

// Spec describes a service offered by a transactional subsystem. The set
// of all Specs across subsystems is the paper's Â.
type Spec struct {
	// Name uniquely identifies the service across all subsystems.
	Name string
	// Kind is the termination guarantee of invocations of this service.
	Kind Kind
	// Subsystem names the transactional subsystem providing the service.
	Subsystem string
	// Compensation is the name of the compensating service for
	// compensatable activities; it must be empty otherwise.
	Compensation string
	// ReadSet and WriteSet optionally declare the data items touched by
	// the service. When present they can be used to derive the conflict
	// relation (two services conflict if one writes an item the other
	// reads or writes). The formal conflict relation of the paper
	// (Definition 6) is based on return values; declared sets are the
	// practical approximation a scheduler works with.
	ReadSet  []string
	WriteSet []string
	// Commutative declares that two invocations of this service commute
	// with each other even though both write (e.g. increments or
	// appends): the return values are independent of their order. The
	// unified theory is defined over such semantically rich operations;
	// a derived conflict table then omits the self-conflict, unless the
	// service reads an item it writes (its return value then depends on
	// the order after all). Conflicts with *other* services sharing data
	// items are unaffected.
	Commutative bool
	// FailureProb is the probability in [0,1) that a single invocation
	// of this service aborts, used by the simulation substrate. Retriable
	// services with FailureProb > 0 abort transiently and are re-invoked;
	// compensatable and pivot services abort permanently (the activity
	// has failed in the sense of Definition 4).
	FailureProb float64
	// Cost is the simulated execution time of one invocation in abstract
	// virtual-time ticks (>= 1 after normalization).
	Cost int
}

// Validate checks internal consistency of the spec.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return errors.New("activity: spec has empty name")
	}
	if !s.Kind.Valid() {
		return fmt.Errorf("activity: spec %q has invalid kind %d", s.Name, int(s.Kind))
	}
	if s.Subsystem == "" {
		return fmt.Errorf("activity: spec %q has empty subsystem", s.Name)
	}
	if s.Kind == Compensatable && s.Compensation == "" {
		return fmt.Errorf("activity: compensatable spec %q lacks a compensation service", s.Name)
	}
	if s.Kind != Compensatable && s.Compensation != "" {
		return fmt.Errorf("activity: %v spec %q must not declare a compensation service", s.Kind, s.Name)
	}
	if s.Compensation == s.Name && s.Name != "" && s.Compensation != "" {
		return fmt.Errorf("activity: spec %q compensates itself", s.Name)
	}
	if s.FailureProb < 0 || s.FailureProb >= 1 {
		return fmt.Errorf("activity: spec %q has failure probability %v outside [0,1)", s.Name, s.FailureProb)
	}
	if s.Cost < 0 {
		return fmt.Errorf("activity: spec %q has negative cost %d", s.Name, s.Cost)
	}
	return nil
}

// Outcome is the termination state of a single activity invocation. As
// activities are transactions in the underlying subsystems, they are by
// definition atomic and terminate either committing or aborting.
type Outcome int

const (
	// Committed means the invocation terminated with commit.
	Committed Outcome = iota
	// Aborted means the invocation terminated with abort. For a
	// retriable activity this is transient; for a compensatable or pivot
	// activity it means the activity has failed (Definition 4).
	Aborted
	// Prepared means the invocation has executed and entered the
	// prepared state of a two phase commit protocol: its commit is
	// deferred (Lemma 1 requires the commits of non-compensatable
	// activities to be deferred until conflicting predecessor processes
	// have committed).
	Prepared
)

// String returns a readable outcome label.
func (o Outcome) String() string {
	switch o {
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	case Prepared:
		return "prepared"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Invocation records the n-th invocation a_i(n) of an activity
// (Definition 3 labels invocations to define retriability).
type Invocation struct {
	Service string
	Attempt int
	Outcome Outcome
	// Return is the value returned by the subsystem; the commutativity
	// of activities is defined over return values (Definition 6).
	Return any
	Err    error
}

// String renders the invocation in the paper's a(n) notation.
func (inv Invocation) String() string {
	return fmt.Sprintf("%s(%d)=%s", inv.Service, inv.Attempt, inv.Outcome)
}

// Registry is the set Â of all services provided by all subsystems,
// indexed by name. The zero value is not usable; use NewRegistry.
type Registry struct {
	specs map[string]*Spec
}

// NewRegistry returns an empty service registry.
func NewRegistry() *Registry {
	return &Registry{specs: make(map[string]*Spec)}
}

// Register validates and adds a spec. It rejects duplicate names.
func (r *Registry) Register(s Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if _, dup := r.specs[s.Name]; dup {
		return fmt.Errorf("activity: duplicate service %q", s.Name)
	}
	cp := s
	r.specs[s.Name] = &cp
	return nil
}

// MustRegister is Register that panics on error; it is intended for
// statically known test and example fixtures.
func (r *Registry) MustRegister(s Spec) {
	if err := r.Register(s); err != nil {
		panic(err)
	}
}

// Lookup returns the spec for a service name.
func (r *Registry) Lookup(name string) (*Spec, bool) {
	s, ok := r.specs[name]
	return s, ok
}

// Len returns the number of registered services.
func (r *Registry) Len() int { return len(r.specs) }

// Names returns all registered service names in unspecified order.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.specs))
	for n := range r.specs {
		out = append(out, n)
	}
	return out
}

// CompensationOf returns the spec of the compensating service of name, if
// name is registered, compensatable, and its compensation is registered.
func (r *Registry) CompensationOf(name string) (*Spec, error) {
	s, ok := r.specs[name]
	if !ok {
		return nil, fmt.Errorf("activity: unknown service %q", name)
	}
	if s.Kind != Compensatable {
		return nil, fmt.Errorf("activity: service %q (%v) is not compensatable", name, s.Kind)
	}
	c, ok := r.specs[s.Compensation]
	if !ok {
		return nil, fmt.Errorf("activity: compensation %q of %q is not registered", s.Compensation, name)
	}
	if c.Kind != Compensation {
		return nil, fmt.Errorf("activity: service %q is declared as compensation of %q but has kind %v", c.Name, name, c.Kind)
	}
	return c, nil
}

// Validate checks registry-wide invariants: every compensatable service
// has a registered Compensation-kind inverse on the same subsystem, and
// every Compensation-kind service is the inverse of some compensatable
// service.
func (r *Registry) Validate() error {
	inverseOf := make(map[string]string) // compensation name -> owner
	for name, s := range r.specs {
		if s.Kind != Compensatable {
			continue
		}
		c, err := r.CompensationOf(name)
		if err != nil {
			return err
		}
		if c.Subsystem != s.Subsystem {
			return fmt.Errorf("activity: compensation %q of %q lives on subsystem %q, want %q",
				c.Name, name, c.Subsystem, s.Subsystem)
		}
		if prev, dup := inverseOf[c.Name]; dup {
			return fmt.Errorf("activity: service %q is the compensation of both %q and %q", c.Name, prev, name)
		}
		inverseOf[c.Name] = name
	}
	for name, s := range r.specs {
		if s.Kind == Compensation {
			if _, used := inverseOf[name]; !used {
				return fmt.Errorf("activity: compensation service %q is not the inverse of any compensatable service", name)
			}
		}
	}
	return nil
}
