package subsystem

import (
	"fmt"
	"sort"
	"sync/atomic"

	"transproc/internal/activity"
	"transproc/internal/conflict"
	"transproc/internal/metrics"
)

// Federation is the set of transactional subsystems a process scheduler
// coordinates (Â, the union of all provided services). It routes service
// invocations to the owning subsystem and derives the activity registry
// and conflict table the scheduler works with.
type Federation struct {
	subs  map[string]*Subsystem
	route map[string]*svc // service -> its registration at its subsystem
	order []string
	// reg is the validated registry, built by the first Registry call
	// (engines, runtimes and the hub each derive their conflict table
	// from it) and dropped by Add.
	reg atomic.Pointer[activity.Registry]
}

// NewFederation returns an empty federation.
func NewFederation() *Federation {
	return &Federation{
		subs:  make(map[string]*Subsystem),
		route: make(map[string]*svc),
	}
}

// Add registers a subsystem and indexes its services. Service names must
// be unique across the federation.
func (f *Federation) Add(s *Subsystem) error {
	if _, dup := f.subs[s.Name()]; dup {
		return fmt.Errorf("federation: duplicate subsystem %q", s.Name())
	}
	names := s.Services()
	for _, name := range names {
		if owner, dup := f.route[name]; dup {
			return fmt.Errorf("federation: service %q provided by both %q and %q", name, owner.sub.Name(), s.Name())
		}
	}
	f.subs[s.Name()] = s
	f.order = append(f.order, s.Name())
	s.mu.Lock()
	for _, name := range names {
		f.route[name] = s.services[name]
	}
	s.mu.Unlock()
	f.reg.Store(nil)
	return nil
}

// MustAdd is Add that panics on error.
func (f *Federation) MustAdd(s *Subsystem) {
	if err := f.Add(s); err != nil {
		panic(err)
	}
}

// Subsystem returns a subsystem by name.
func (f *Federation) Subsystem(name string) (*Subsystem, bool) {
	s, ok := f.subs[name]
	return s, ok
}

// Subsystems returns the subsystems in registration order.
func (f *Federation) Subsystems() []*Subsystem {
	out := make([]*Subsystem, 0, len(f.order))
	for _, n := range f.order {
		out = append(out, f.subs[n])
	}
	return out
}

// SetMetrics attaches an observability registry to every subsystem of
// the federation (nil detaches).
func (f *Federation) SetMetrics(m *metrics.Registry) {
	for _, name := range f.order {
		f.subs[name].SetMetrics(m)
	}
}

// Owner returns the subsystem providing a service.
func (f *Federation) Owner(service string) (*Subsystem, bool) {
	sv, ok := f.route[service]
	if !ok {
		return nil, false
	}
	return sv.sub, true
}

// Route is a service resolved once by name (Federation.Route): the
// subsystem that provides it and its registration there. Invoking and
// probing through a Route look no name up. The zero Route resolves
// nothing.
type Route struct{ sv *svc }

// Route resolves a service.
func (f *Federation) Route(service string) (Route, bool) {
	sv, ok := f.route[service]
	return Route{sv}, ok
}

// Valid reports whether the route resolved a service.
func (r Route) Valid() bool { return r.sv != nil }

// Sub is the subsystem providing the service (nil for the zero Route).
func (r Route) Sub() *Subsystem {
	if r.sv == nil {
		return nil
	}
	return r.sv.sub
}

// Spec is the service's registered spec.
func (r Route) Spec() *activity.Spec { return &r.sv.spec }

// Invoke is Subsystem.Invoke of the routed service.
func (r Route) Invoke(proc string, mode Mode) (*Result, error) {
	s := r.sv.sub
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.invokeLocked(proc, r.sv, mode)
}

// LockBlocker reports whether proc could currently acquire the routed
// service's strict-2PL item locks (a snapshot; no state changes) and, if
// not, one process holding a conflicting lock (the first found).
// Schedulers park on the holder instead of burning an invocation that
// would return ErrLocked: the probe can only stop failing after that
// holder commits or rolls back, so the wait-for edge is sound.
func (r Route) LockBlocker(proc string) (string, bool) {
	s := r.sv.sub
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.canLock(proc, r.sv)
}

// Invoke routes an invocation to the owning subsystem.
func (f *Federation) Invoke(proc, service string, mode Mode) (*Result, error) {
	r, ok := f.Route(service)
	if !ok {
		return nil, fmt.Errorf("federation: unknown service %q", service)
	}
	return r.Invoke(proc, mode)
}

// InvokeIdem routes an idempotency-keyed invocation to the owning
// subsystem (see Subsystem.InvokeIdem).
func (f *Federation) InvokeIdem(key, proc, service string, mode Mode) (*Result, bool, error) {
	sv, ok := f.route[service]
	if !ok {
		return nil, false, fmt.Errorf("federation: unknown service %q", service)
	}
	return sv.sub.InvokeIdem(key, proc, service, mode)
}

// LookupIdem resolves an idempotency key at the service's owning
// subsystem (see Subsystem.LookupIdem).
func (f *Federation) LookupIdem(service, key string) (*Result, bool) {
	sv, ok := f.route[service]
	if !ok {
		return nil, false
	}
	return sv.sub.LookupIdem(key)
}

// Spec returns the spec of a service anywhere in the federation.
func (f *Federation) Spec(service string) (activity.Spec, bool) {
	sv, ok := f.route[service]
	if !ok {
		return activity.Spec{}, false
	}
	return sv.spec, true
}

// Services returns all service names across the federation, sorted.
func (f *Federation) Services() []string {
	out := make([]string, 0, len(f.route))
	for svc := range f.route {
		out = append(out, svc)
	}
	sort.Strings(out)
	return out
}

// Registry returns the validated activity registry Â of the federation.
// It is built once until Add changes the federation, and every caller
// shares it: none may register into it.
func (f *Federation) Registry() (*activity.Registry, error) {
	if reg := f.reg.Load(); reg != nil {
		return reg, nil
	}
	reg := activity.NewRegistry()
	for _, name := range f.order {
		s := f.subs[name]
		for _, svc := range s.Services() {
			spec, _ := s.Lookup(svc)
			if err := reg.Register(spec); err != nil {
				return nil, err
			}
		}
	}
	if err := reg.Validate(); err != nil {
		return nil, err
	}
	f.reg.Store(reg)
	return reg, nil
}

// ConflictTable derives the conflict relation from the declared
// read/write sets of all services (plus perfect commutativity for
// compensations).
func (f *Federation) ConflictTable() (*conflict.Table, error) {
	reg, err := f.Registry()
	if err != nil {
		return nil, err
	}
	return conflict.FromRegistry(reg), nil
}

// Snapshot returns the committed stores of all subsystems, keyed
// "subsystem/item".
func (f *Federation) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	for _, name := range f.order {
		for item, v := range f.subs[name].Snapshot() {
			out[name+"/"+item] = v
		}
	}
	return out
}

// InDoubt returns all prepared transactions across subsystems, keyed by
// subsystem name.
func (f *Federation) InDoubt() map[string][]InDoubtRecord {
	out := make(map[string][]InDoubtRecord)
	for _, name := range f.order {
		if recs := f.subs[name].InDoubt(); len(recs) > 0 {
			out[name] = recs
		}
	}
	return out
}
