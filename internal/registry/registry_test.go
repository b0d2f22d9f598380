package registry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// newTestRegistry holds the default "b" plus "c" and "a", registered
// out of order so Names has to sort.
func newTestRegistry() *Registry[int] {
	r := New[int]("test", "widget", "b")
	r.Register("c", 3)
	r.Register("b", 2)
	r.Register("a", 1)
	return r
}

// mustPanic runs f and returns its panic message, failing the test if
// f returns normally.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("want a panic")
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

func TestRegisterPanicsNameTheOffender(t *testing.T) {
	r := newTestRegistry()
	if msg := mustPanic(t, func() { r.Register("", 0) }); msg != "test: widget has an empty name" {
		t.Errorf("empty-name panic = %q", msg)
	}
	if msg := mustPanic(t, func() { r.Register("a", 9) }); msg != `test: widget "a" already registered` {
		t.Errorf("duplicate-name panic = %q", msg)
	}
	// First come wins: the failed re-registration changed nothing.
	if v, err := r.Lookup("a"); err != nil || v != 1 {
		t.Errorf(`Lookup("a") = %v, %v; want 1`, v, err)
	}
}

func TestLookup(t *testing.T) {
	r := newTestRegistry()
	if v, err := r.Lookup(""); err != nil || v != 2 {
		t.Errorf(`Lookup("") = %v, %v; want the default's 2`, v, err)
	}
	if v, err := r.Lookup("c"); err != nil || v != 3 {
		t.Errorf(`Lookup("c") = %v, %v; want 3`, v, err)
	}
	_, err := r.Lookup("zz")
	want := fmt.Sprintf(`test: unknown widget "zz" (available: %v)`, r.Names())
	if err == nil || err.Error() != want {
		t.Errorf(`Lookup("zz") error = %v, want %q`, err, want)
	}
}

func TestNamesDefaultFirstThenSorted(t *testing.T) {
	r := newTestRegistry()
	if got, want := strings.Join(r.Names(), ","), "b,a,c"; got != want {
		t.Errorf("Names() = %s, want %s", got, want)
	}
	// A registry whose default is not (yet) registered lists only what
	// Lookup can resolve.
	empty := New[int]("test", "widget", "b")
	if names := empty.Names(); len(names) != 0 {
		t.Errorf("empty Names() = %v", names)
	}
}

// TestConcurrentUse runs writers and readers at once; under -race it
// pins the registry's locking.
func TestConcurrentUse(t *testing.T) {
	r := newTestRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Register(fmt.Sprintf("w%d-%d", w, i), i)
				if _, err := r.Lookup(""); err != nil {
					t.Error(err)
					return
				}
				if names := r.Names(); names[0] != "b" {
					t.Errorf("Names()[0] = %q, want the default", names[0])
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := len(r.Names()), 3+4*50; got != want {
		t.Errorf("len(Names()) = %d, want %d", got, want)
	}
}
