// Package registry is the one name → value catalog behind the
// simulator's named axes: lifetime models, provider markets, fleet
// schedulers and elastic resize policies each keep a Registry of their
// own, so every axis shares one set of rules.
//
// Names are first-come-first-served for the life of the process.
// Scenario and fleet keys embed them, and the planner cache depends on
// a name meaning one behavior, so a conflict is a programmer error:
// Register panics with the offending name rather than returning an
// error a startup path could ignore. The empty name always means the
// registry's default. Builtins register at init; the only later writer
// is a startup path (cmd/pland -trace), and lookups run once per query,
// session or fleet run, never per simulated step.
package registry

import (
	"fmt"
	"sort"
	"sync"
)

// Registry maps names to values of one kind. The zero value is not
// usable; build one with New.
type Registry[T any] struct {
	pkg, what, def string

	mu sync.RWMutex
	m  map[string]T
}

// New returns an empty registry. pkg and what label its panics and
// errors ("cloud", "lifetime model"); defaultName is the entry the
// empty name resolves to and Names lists first.
func New[T any](pkg, what, defaultName string) *Registry[T] {
	return &Registry[T]{pkg: pkg, what: what, def: defaultName, m: map[string]T{}}
}

// Register adds v under name. It panics on an empty name or one that
// is already taken, naming the offender.
func (r *Registry[T]) Register(name string, v T) {
	if name == "" {
		panic(fmt.Sprintf("%s: %s has an empty name", r.pkg, r.what))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		panic(fmt.Sprintf("%s: %s %q already registered", r.pkg, r.what, name))
	}
	r.m[name] = v
}

// Lookup resolves a name; the empty string means the default. Unknown
// names report the available ones.
func (r *Registry[T]) Lookup(name string) (T, error) {
	if name == "" {
		name = r.def
	}
	r.mu.RLock()
	v, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return v, fmt.Errorf("%s: unknown %s %q (available: %v)", r.pkg, r.what, name, r.Names())
	}
	return v, nil
}

// Names lists every registered name: the default first, then the rest
// sorted — the order catalogs report.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.m))
	for name := range r.m {
		if name != r.def {
			names = append(names, name)
		}
	}
	_, hasDefault := r.m[r.def]
	r.mu.RUnlock()
	sort.Strings(names)
	if hasDefault {
		names = append([]string{r.def}, names...)
	}
	return names
}
