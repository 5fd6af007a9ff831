package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestListSubcommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"list"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"F1", "F5", "T1", "T12"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("list missing %s", want)
		}
	}
}

func TestSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"F5"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "theta^-1(0) = 0") {
		t.Errorf("F5 output wrong:\n%s", buf.String())
	}
}

func TestMultipleExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"F1", "F2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig 1") || !strings.Contains(buf.String(), "Fig 2") {
		t.Error("multi-run missing experiments")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"T99"}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestWorkersFlagDeterministicT1(t *testing.T) {
	var one, four bytes.Buffer
	if err := run([]string{"-workers", "1", "T1"}, &one); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-workers", "4", "T1"}, &four); err != nil {
		t.Fatal(err)
	}
	if one.String() != four.String() {
		t.Error("T1 output differs across worker counts")
	}
	if !strings.Contains(one.String(), "pairwise equivalence matrix") {
		t.Errorf("T1 output wrong:\n%s", one.String())
	}
}

var update = flag.Bool("update", false, "rewrite testdata/minbench.golden from this run")

// timedFrom gives, for each experiment that prints wall-clock numbers,
// the index of the first timed field in its table rows (rows whose
// first field is an integer); that field and every later one — times
// and the speedups derived from them — are masked.
var timedFrom = map[string]int{"T4": 3, "T9": 2, "T10": 2}

var sectionRe = regexp.MustCompile(`^([TF][0-9]+)  `)

// maskTimes replaces the wall-clock columns of T4, T9 and T10 with "~"
// and T10's timing-dependent crossover sentence with a fixed line, so
// the rest of the output can be compared byte for byte.
func maskTimes(out string) string {
	var b strings.Builder
	section := ""
	for _, line := range strings.SplitAfter(out, "\n") {
		if m := sectionRe.FindStringSubmatch(line); m != nil {
			section = m[1]
		}
		from, timed := timedFrom[section]
		if !timed {
			b.WriteString(line)
			continue
		}
		fields := strings.Fields(line)
		switch {
		case section == "T10" && strings.HasPrefix(line, "the window sweeps"):
			b.WriteString("the window sweeps ~\n")
			continue
		case section == "T10" && strings.HasPrefix(line, "Banyan reach-set verdict"):
			continue
		case len(fields) > from:
			if _, err := strconv.Atoi(fields[0]); err == nil {
				for i := from; i < len(fields); i++ {
					fields[i] = "~"
				}
				b.WriteString(strings.Join(fields, " ") + "\n")
				continue
			}
		}
		b.WriteString(line)
	}
	return b.String()
}

// TestOutputGolden pins the full minbench output, wall-clock columns
// masked, against testdata/minbench.golden. A change that moves an
// experiment's numbers regenerates the file with -update, and its diff
// is the record of what moved.
func TestOutputGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err != nil {
		t.Fatal(err)
	}
	got := maskTimes(buf.String())
	const path = "testdata/minbench.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update after checking the change)", path, i+1, g, w)
		}
	}
}
