package main

import (
	"bytes"
	"testing"
)

// TestStandaloneModuleClean is the dogfood gate: every analyzer over
// every package of this module must come back clean.
func TestStandaloneModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"minequiv/..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("minlint minequiv/... = exit %d\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}
