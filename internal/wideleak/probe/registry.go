package probe

import (
	"fmt"
	"strings"
	"sync"
)

// Registry owns the probe set: registration order, dependency
// validation, selection and execution-order resolution.
//
// Registration order doubles as topological order: Register refuses a
// spec whose dependencies are not yet registered, so iterating specs in
// registration order always runs dependencies first.
type Registry[T any] struct {
	mu    sync.RWMutex
	order []string
	specs map[string]*Spec[T]
}

// NewRegistry returns an empty registry.
func NewRegistry[T any]() *Registry[T] {
	return &Registry[T]{specs: make(map[string]*Spec[T])}
}

// Register adds a spec. It fails on an empty or duplicate ID, a missing
// entry point, or a dependency that is not registered yet.
func (r *Registry[T]) Register(s Spec[T]) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ID == "" {
		return fmt.Errorf("probe: spec with empty ID")
	}
	if s.Run == nil {
		return fmt.Errorf("probe: %s: nil Run", s.ID)
	}
	if _, dup := r.specs[s.ID]; dup {
		return fmt.Errorf("probe: duplicate ID %q", s.ID)
	}
	for _, dep := range s.Requires {
		if _, ok := r.specs[dep]; !ok {
			return fmt.Errorf("probe: %s requires unregistered probe %q", s.ID, dep)
		}
	}
	spec := s
	r.specs[s.ID] = &spec
	r.order = append(r.order, s.ID)
	return nil
}

// MustRegister is Register panicking on error — for package init blocks,
// where a bad spec is a programming error.
func (r *Registry[T]) MustRegister(s Spec[T]) {
	if err := r.Register(s); err != nil {
		panic(err)
	}
}

// IDs returns every registered probe ID in registration order.
func (r *Registry[T]) IDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// DefaultIDs returns the IDs of the default selection, in registration
// order.
func (r *Registry[T]) DefaultIDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for _, id := range r.order {
		if r.specs[id].Default {
			out = append(out, id)
		}
	}
	return out
}

// Get returns the spec for an ID.
func (r *Registry[T]) Get(id string) (*Spec[T], bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.specs[id]
	return s, ok
}

// Infos describes every registered probe in registration order.
func (r *Registry[T]) Infos() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Info, 0, len(r.order))
	for _, id := range r.order {
		s := r.specs[id]
		out = append(out, Info{
			ID:       s.ID,
			Title:    s.Title,
			Doc:      s.Doc,
			Requires: append([]string(nil), s.Requires...),
			Default:  s.Default,
			Columns:  append([]Column(nil), s.Columns...),
		})
	}
	return out
}

// Resolve turns a probe selection into the ordered ID lists the engine
// iterates. ids nil or empty selects the default probes. selected is the
// deduplicated selection in registration order (what rows display);
// execution additionally pulls in every transitive dependency (what
// actually runs), also in registration order — which is a valid
// topological order by construction.
//
// An unknown ID fails with an error listing the registered probes, so a
// typo in a CLI flag explains itself.
func (r *Registry[T]) Resolve(ids []string) (selected, execution []string, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(ids) == 0 {
		for _, id := range r.order {
			if r.specs[id].Default {
				ids = append(ids, id)
			}
		}
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		if _, ok := r.specs[id]; !ok {
			return nil, nil, fmt.Errorf("probe: unknown probe %q (registered: %s)",
				id, strings.Join(r.order, ", "))
		}
		want[id] = true
	}
	need := make(map[string]bool, len(want))
	var expand func(id string)
	expand = func(id string) {
		if need[id] {
			return
		}
		need[id] = true
		for _, dep := range r.specs[id].Requires {
			expand(dep)
		}
	}
	for id := range want {
		expand(id)
	}
	for _, id := range r.order {
		if want[id] {
			selected = append(selected, id)
		}
		if need[id] {
			execution = append(execution, id)
		}
	}
	return selected, execution, nil
}
