package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"minequiv/min"
	"minequiv/minserve"
)

// TestPublicAPIOnly pins the benchmark to the public surface: it may
// import the min façade, the minserve service and the standard library,
// nothing under minequiv/internal.
func TestPublicAPIOnly(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		parsed, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			first, _, _ := strings.Cut(path, "/")
			switch {
			case path == "minequiv/min", path == "minequiv/minserve":
			case !strings.Contains(first, ".") && first != "minequiv" && first != "perfbench":
				// standard library
			default:
				t.Errorf("%s imports %s: only min, minserve and the standard library are allowed", f, path)
			}
		}
	}
}

func TestWorkloadsAreSeeded(t *testing.T) {
	for _, name := range []string{"serve-hot", "simulate", "sweep"} {
		a, err := generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7)
		c, _ := generate(name, 8)
		same, differ := true, false
		for i := range a.ops {
			same = same && bytes.Equal(a.ops[i].body, b.ops[i].body)
			differ = differ || !bytes.Equal(a.ops[i].body, c.ops[i].body)
		}
		if !same || !differ {
			t.Errorf("%s: same seed same bodies = %v, other seed different bodies = %v", name, same, differ)
		}
	}
}

// TestRelabelKeepsEquivalence checks the serve-cold generator against
// the theorem: relabeled catalog wirings are equivalent, relabeled
// tail cycles and double-arc wirings are not.
func TestRelabelKeepsEquivalence(t *testing.T) {
	for _, shape := range []string{"relabel", "tail", "nonbanyan"} {
		for sub := uint64(1); sub <= 3; sub++ {
			nw, err := buildNet(netSpec{Network: "cold", Stages: 6, LinkPerms: coldPerms(shape, "omega", 6, sub)})
			if err != nil {
				t.Fatal(err)
			}
			got := min.IsBaselineEquivalent(nw)
			if want := shape == "relabel"; got != want {
				t.Errorf("%s wiring %d: equivalent = %v, want %v", shape, sub, got, want)
			}
		}
	}
}

func newTestTarget(t *testing.T) *target {
	t.Helper()
	t.Chdir(t.TempDir())
	srv, err := minserve.New(minserve.Config{JobsDir: "jobs"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close(t.Context()) })
	return newTarget(srv.Handler())
}

// TestCorruptedExpectationFails proves the output checks are live: an
// op whose expectation is wrong counts as failed, on each kind of check.
func TestCorruptedExpectationFails(t *testing.T) {
	tgt := newTestTarget(t)
	results := &sweepResults{byOp: map[*op][]byte{}}
	g := &gen{rng: rand.New(rand.NewPCG(1, 2))}

	// Quick check: the theorem's verdict on a relabeled wiring, flipped.
	for _, bin := range []bool{false, true} {
		o := g.coldCheck(6, true, "relabel", bin)
		if res := tgt.exec(o, true, results); !res.ok {
			t.Fatalf("honest check failed: %s", res.reason)
		}
		o.wantEquivalent = false
		var tl tally
		tl.add(tgt.exec(o, false, results))
		if tl.failed != 1 {
			t.Errorf("bin=%v: a check with a corrupted verdict was not counted as failed", bin)
		}
	}

	// Deep check: a simulate response compared against a direct call on
	// a different seed.
	for _, bin := range []bool{false, true} {
		req := &simReq{netSpec: netSpec{Network: "omega", Stages: 5}, Waves: 64, Seed: 3}
		o := g.finish(&op{kind: kindSimulate, endpoint: "simulate", bin: bin, bitOK: true, sim: req}, req)
		res := tgt.exec(o, true, results)
		if !res.ok {
			t.Fatalf("simulate failed: %s", res.reason)
		}
		p := &pass{}
		p.add(res)
		p.deepChecks()
		if p.failed != 0 {
			t.Fatalf("bin=%v: honest deep check failed: %v", bin, p.failures)
		}
		o.sim.Seed = 4 // the expectation now describes another run
		p = &pass{}
		p.add(tgt.exec(o, true, results))
		p.deepChecks()
		if p.failed != 1 {
			t.Errorf("bin=%v: a simulate with a corrupted expectation was not counted as failed", bin)
		}
	}

	// Sweep: a resubmission whose recorded first result differs.
	spec := &sweepSpec{Networks: []string{"omega"}, Stages: 4, TrialsPerCell: 256, ShardTrials: 64, Seed: 5}
	first := g.finish(&op{kind: kindSweep, endpoint: "jobs", sweep: spec}, spec)
	again := g.finish(&op{kind: kindSweep, endpoint: "jobs", sweep: spec, original: first}, spec)
	if res := tgt.exec(first, false, results); !res.ok {
		t.Fatalf("sweep failed: %s", res.reason)
	}
	if res := tgt.exec(again, false, results); !res.ok {
		t.Fatalf("honest resubmission failed: %s", res.reason)
	}
	results.byOp[first] = append(bytes.Clone(results.byOp[first]), ' ')
	if res := tgt.exec(again, false, results); res.ok {
		t.Error("a resubmission compared against corrupted first bytes was not counted as failed")
	}
}

// TestRunPrintsContractLine runs every workload briefly in both modes
// and checks that the last line carries exactly the metrics, with the
// units, that BENCHMARK.json declares.
func TestRunPrintsContractLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var contract struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json lists the steady workloads; every one must exist
	// here, and every workload here must print the declared metrics.
	for _, w := range contract.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program (have %v)", w.Name, workloadNames)
		}
	}
	t.Chdir(t.TempDir())
	for _, name := range workloadNames {
		for trace, want := range [][]decl{contract.EndToEnd, contract.PerLayer} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", name, "--seed", "3", "--seconds", "0.6", "--trace", strconv.Itoa(trace)}
			if err := run(args, &out, &errOut); err != nil {
				t.Fatalf("%s trace %d: %v\n%s", name, trace, err, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, errOut.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s missing", name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace %d: metric %s in %s, declared %s", name, trace, d.Name, m.Unit, d.Unit)
				case trace == 0 && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want a positive value", name, d.Name, m.Value)
				}
			}
		}
	}
}
