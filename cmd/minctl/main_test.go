package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

func TestList(t *testing.T) {
	out, err := runCmd(t, "list")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"baseline", "omega", "flip", "indirect-binary-cube"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestDraw(t *testing.T) {
	out, err := runCmd(t, "draw", "-net", "omega", "-n", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "omega, n=3") || !strings.Contains(out, "stage 1 -> 2:") {
		t.Errorf("draw output wrong:\n%s", out)
	}
	out, err = runCmd(t, "draw", "-net", "baseline", "-n", "3", "-tuples")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(0,0)") {
		t.Errorf("tuples flag ignored:\n%s", out)
	}
}

func TestCheck(t *testing.T) {
	out, err := runCmd(t, "check", "-net", "flip", "-n", "4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "baseline-equivalent") || strings.Contains(out, "NOT") {
		t.Errorf("check output wrong:\n%s", out)
	}
}

func TestWindows(t *testing.T) {
	out, err := runCmd(t, "windows", "-net", "baseline", "-n", "4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(1,4)") || strings.Contains(out, "VIOLATED") {
		t.Errorf("windows output wrong:\n%s", out)
	}
}

func TestEquiv(t *testing.T) {
	out, err := runCmd(t, "equiv", "-net", "omega", "-net2", "flip", "-n", "4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "topologically equivalent") {
		t.Errorf("equiv output wrong:\n%s", out)
	}
}

func TestIso(t *testing.T) {
	out, err := runCmd(t, "iso", "-net", "modified-data-manipulator", "-n", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "isomorphism modified-data-manipulator -> baseline") {
		t.Errorf("iso output wrong:\n%s", out)
	}
	if !strings.Contains(out, "stage 3:") {
		t.Errorf("iso missing stage maps:\n%s", out)
	}
}

func TestRoute(t *testing.T) {
	out, err := runCmd(t, "route", "-net", "omega", "-n", "4", "-src", "5", "-dst", "12")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "route 5 -> 12") || !strings.Contains(out, "stage 4:") {
		t.Errorf("route output wrong:\n%s", out)
	}
}

func TestCounter(t *testing.T) {
	out, err := runCmd(t, "counter", "-n", "4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "NOT baseline-equivalent") || !strings.Contains(out, "VIOLATED") {
		t.Errorf("counter output wrong:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	if _, err := runCmd(t); err == nil {
		t.Error("no subcommand accepted")
	}
	if _, err := runCmd(t, "frobnicate"); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if _, err := runCmd(t, "draw", "-net", "nope"); err == nil {
		t.Error("unknown network accepted")
	}
	if _, err := runCmd(t, "route", "-net", "omega", "-n", "3", "-src", "99", "-dst", "0"); err == nil {
		t.Error("out-of-range terminal accepted")
	}
	if _, err := runCmd(t, "counter", "-n", "2"); err == nil {
		t.Error("n=2 counterexample accepted")
	}
}
