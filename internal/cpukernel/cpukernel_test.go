package cpukernel

import "testing"

// The registry is process-global and registration is permanent, so this
// file is one sequential scenario: each step builds on the registrations
// of the previous ones, exactly like package init order does in the real
// process. The scenario restores the registry it found, so a -count=N
// rerun starts from the same state instead of tripping the
// duplicate-name panic.

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestRegistrySelection(t *testing.T) {
	prev := ScalarOnly()
	mu.Lock()
	saved := make(map[string]Impl, len(impls))
	for name, impl := range impls {
		saved[name] = impl
	}
	mu.Unlock()
	t.Cleanup(func() {
		mu.Lock()
		impls = saved
		mu.Unlock()
		SetScalarOnly(prev)
	})
	SetScalarOnly(false)

	if got := Names(); len(got) == 0 || got[0] != ScalarName && !contains(got, ScalarName) {
		t.Fatalf("scalar reference missing from registry: %v", got)
	}

	mustPanic(t, "empty-name Register", func() { Register(Impl{Priority: 1}) })

	Register(Impl{Name: "turbo-test", Priority: 5})
	if Active() != "turbo-test" || !Fast() {
		t.Fatalf("after registering priority 5: active %q fast %v", Active(), Fast())
	}

	mustPanic(t, "duplicate Register", func() { Register(Impl{Name: "turbo-test", Priority: 9}) })

	// An unavailable implementation never wins, whatever its priority.
	Register(Impl{Name: "unavailable-test", Priority: 50, Available: func() bool { return false }})
	if Active() != "turbo-test" {
		t.Fatalf("unavailable implementation selected: active %q", Active())
	}

	Register(Impl{Name: "mega-test", Priority: 10})
	if Active() != "mega-test" {
		t.Fatalf("higher priority did not win: active %q", Active())
	}

	// Priority ties break deterministically by name.
	Register(Impl{Name: "alpha-test", Priority: 10})
	if Active() != "alpha-test" {
		t.Fatalf("tie-break not deterministic by name: active %q", Active())
	}

	// The kill switch pins scalar regardless of the registry, and
	// releasing it re-runs selection.
	SetScalarOnly(true)
	if Active() != ScalarName || Fast() || !ScalarOnly() {
		t.Fatalf("kill switch engaged: active %q fast %v scalarOnly %v", Active(), Fast(), ScalarOnly())
	}
	SetScalarOnly(false)
	if Active() != "alpha-test" || !Fast() {
		t.Fatalf("kill switch released: active %q fast %v", Active(), Fast())
	}
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
