package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cloud"
)

// validTrace is a two-record trace in cmd/revstudy's CSV format: one
// revoked K80 and one survivor censored at the 24 h cap.
const validTrace = `gpu,region,stressed,revoked,lifetime_hours,revocation_local_hour
K80,us-central1,false,true,3.5,14
K80,us-central1,false,false,24,-1
`

// traceRuns numbers the registrations TestRegisterTrace makes: the
// lifetime-model registry lives for the whole process, so each run
// (under -count) needs a fresh name.
var traceRuns int

func writeTrace(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRegisterTraceRejectsMalformedArgs(t *testing.T) {
	for _, arg := range []string{"x", "=a.csv", "n="} {
		if err := registerTrace(arg); err == nil {
			t.Errorf("registerTrace(%q) accepted a malformed argument", arg)
		}
	}
}

// TestRegisterTraceRejectsBuiltinName: a user retyping a builtin name
// is a usage error, reported as one instead of the registry's
// conflict panic.
func TestRegisterTraceRejectsBuiltinName(t *testing.T) {
	arg := cloud.DefaultLifetimeModelName + "=" + writeTrace(t, validTrace)
	if err := registerTrace(arg); err == nil {
		t.Fatalf("registerTrace(%q) accepted a builtin name", arg)
	}
}

// TestRegisterTrace: a valid trace becomes a selectable lifetime model,
// and its name is then taken like any builtin's.
func TestRegisterTrace(t *testing.T) {
	traceRuns++
	name := fmt.Sprintf("pland-test-trace-%d", traceRuns)
	arg := name + "=" + writeTrace(t, validTrace)
	if err := registerTrace(arg); err != nil {
		t.Fatalf("registerTrace(%q): %v", arg, err)
	}
	if names := cloud.LifetimeModelNames(); !slices.Contains(names, name) {
		t.Fatalf("LifetimeModelNames() = %v, missing %q", names, name)
	}
	if m, err := cloud.LookupLifetimeModel(name); err != nil || m.Name() != name {
		t.Fatalf("LookupLifetimeModel(%q) = %v, %v", name, m, err)
	}
	if err := registerTrace(arg); err == nil {
		t.Fatalf("registerTrace(%q) accepted a second registration", arg)
	}
}
