package main

import (
	"reflect"
	"testing"

	"dlbooster/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestCheckFixture runs the check over testdata/tree, which plants each
// case: a dead function, its second-order helper, a dead function named
// like a live method, a type kept alive only by `var _ I = (*T)(nil)` and
// two stale allowlist entries. Anything reported makes the command exit
// 1. The tree's live code — methods of a reached type, an init, an
// allowlisted function and its helper, and a function whose only user is
// the bench module's binary — must not be reported.
func TestCheckFixture(t *testing.T) {
	allow := map[string]string{
		"fix/internal/a.Allowed": "kept on purpose",
		"fix/internal/a.Reached": "cmd/app calls it now",
		"fix/internal/a.Gone":    "deleted since",
	}
	want := []string{
		"allowlist: fix/internal/a.Gone is stale (missing, or reached by a binary); delete the entry",
		"allowlist: fix/internal/a.Reached is stale (missing, or reached by a binary); delete the entry",
		"internal/a/a.go:43: fix/internal/a.Dead is reached by no binary",
		"internal/a/a.go:46: fix/internal/a.deadHelper is reached by no binary",
		"internal/a/a.go:49: fix/internal/a.Close is reached by no binary",
		"internal/a/a.go:52: fix/internal/a.T is reached by no binary",
		"internal/a/a.go:55: fix/internal/a.T.M is reached by no binary",
	}
	if got := check("testdata/tree", allow); !reflect.DeepEqual(got, want) {
		t.Errorf("check reported\n%q\nwant\n%q", got, want)
	}
	delete(allow, "fix/internal/a.Reached")
	delete(allow, "fix/internal/a.Gone")
	if got := check("testdata/tree", allow); !reflect.DeepEqual(got, want[2:]) {
		t.Errorf("with the allowlist fixed, check reported\n%q\nwant\n%q", got, want[2:])
	}
}
