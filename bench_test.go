// Root benchmark harness: one benchmark per experiment table/figure of
// EXPERIMENTS.md, so `go test -bench=. -benchmem` regenerates the
// performance side of every reported artifact.
package minequiv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"minequiv/internal/codec"
	"minequiv/internal/conn"
	"minequiv/internal/engine"
	"minequiv/internal/equiv"
	"minequiv/internal/experiments"
	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
	"minequiv/internal/pipid"
	"minequiv/internal/randnet"
	"minequiv/internal/route"
	"minequiv/internal/sim"
	"minequiv/internal/topology"
	"minequiv/min"
	"minequiv/minserve"
)

// steadyRows are the gated benchmark rows: each names the setup helper
// that returns the row's steady-state op, and the most allocations one
// call of that op may make. A zero row must stay at exactly 0. The
// non-zero counts were measured on go1.24. The serving and cold-check
// rows draw their buffers from sync.Pools, which the race detector
// empties at random.
var steadyRows = []struct {
	name   string
	op     func(testing.TB) func()
	allocs float64
	pooled bool
}{
	{"CheckAllWindows/sweep", checkAllWindowsSweep, 0, false},
	{"CheckFamilies", checkFamilies, 0, false},
	{"Banyan/baseline/n=10", banyanBaseline(10), 0, false},
	{"Banyan/baseline/n=14", banyanBaseline(14), 0, false},
	{"BaselineLabels/omega/n=10", baselineLabels(10), 0, false},
	{"BaselineLabels/omega/n=14", baselineLabels(14), 0, false},
	{"EngineWaveLoop", engineWaveLoop, 0, false},
	{"TableWaveLoop", tableWaveLoop, 0, false},
	{"BufferedRunner", bufferedRunner, 0, false},
	{"FabricKernel/intact", fabricKernel("intact"), 0, false},
	{"FabricKernel/faulted", fabricKernel("faulted"), 0, false},
	{"FabricKernel/table", fabricKernel("table"), 0, false},
	{"FaultedWaveLoop", faultedWaveLoop, 0, false},
	{"FaultResample/dead+link/n=8", faultResample(8), 0, false},
	{"FaultResample/dead+link/n=10", faultResample(10), 0, false},
	{"BitWaveLoop", bitWaveLoop, 0, false},
	{"BitFabricKernel/intact", bitFabricKernel("intact"), 0, false},
	{"BitFabricKernel/faulted", bitFabricKernel("faulted"), 0, false},
	{"CodecEncode", codecEncode, 0, false},
	{"CodecDecode", codecDecode, 0, false},
	{"ColdCheck/check/n=10", coldCheck(10, false), 2, true},
	{"ColdCheck/isocheck/n=10", coldCheck(10, true), 5, true},
	{"FabricCompile/relabeled/n=10", fabricCompileRelabeled(10), 26, true},
	{"ServeCheckCached", serveCheckCached, 21, true},
	// Per 16-item batch request; the benchmark reports it per item.
	{"ServeBatchWarm/batch/item", serveBatchWarm, 72, true},
}

// TestSteadyAllocs pins the allocations of every gated benchmark's
// steady-state op. Counts do not depend on the host, so this runs with
// the tests rather than only under -bench.
func TestSteadyAllocs(t *testing.T) {
	for _, row := range steadyRows {
		t.Run(row.name, func(t *testing.T) {
			if row.pooled && raceEnabled {
				t.Skip("the race detector empties sync.Pools at random")
			}
			if got := testing.AllocsPerRun(10, row.op(t)); got > row.allocs {
				t.Errorf("%v allocs per op, want at most %v", got, row.allocs)
			}
		})
	}
}

// benchSteady times op, a gated row's steady-state op, after one
// untimed call that sizes its buffers.
func benchSteady(b *testing.B, op func()) {
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// newFabric compiles perms or fails tb.
func newFabric(tb testing.TB, perms []perm.Perm) *sim.Fabric {
	tb.Helper()
	f, err := sim.NewFabric(perms)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// omegaFabric is the compiled n-stage Omega.
func omegaFabric(tb testing.TB, n int) *sim.Fabric {
	return newFabric(tb, topology.MustBuild(topology.NameOmega, n).LinkPerms)
}

// sampledFaults is the fault state the faulted kernel rows steer under.
func sampledFaults(tb testing.TB, f *sim.Fabric) *sim.FaultState {
	fs := sim.NewFaultState(f.Spans)
	err := fs.Sample(sim.FaultPlan{SwitchDeadRate: 0.02, SwitchStuckRate: 0.02, LinkDownRate: 0.01},
		engine.NewFaultRand(7, 0))
	if err != nil {
		tb.Fatal(err)
	}
	return fs
}

// BenchmarkBuildBaseline (F1): constructing the Baseline MI-digraph.
func BenchmarkBuildBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topology.Baseline(10)
	}
}

// BenchmarkComponentTable (F3): component/stage intersection tables.
func BenchmarkComponentTable(b *testing.B) {
	g := topology.Baseline(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ComponentStageTable(1, g.Stages()-1)
	}
}

// BenchmarkSixNetworksEquiv (T1): pairwise equivalence of the catalog.
func BenchmarkSixNetworksEquiv(b *testing.B) {
	nets, err := topology.BuildAll(7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, nw := range nets {
			if !equiv.Check(nw.Graph).Equivalent() {
				b.Fatal("classical network rejected")
			}
		}
	}
}

// BenchmarkReverseConnection (T2): Proposition 1 constructive reverse.
func BenchmarkReverseConnection(b *testing.B) {
	c := conn.RandomIndependent(rand.New(rand.NewPCG(1, 0)), 12, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Reverse(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPSuffixCheck (T3): the P(*,n) family on one graph.
func BenchmarkPSuffixCheck(b *testing.B) {
	g := topology.Baseline(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CheckSuffix()
	}
}

// BenchmarkCheckAllWindows pins the analysis-core rewrite: the full
// O(n²) window table at n=16 via the sweep Analyzer (one incremental
// union-find sweep per left edge, reused scratch, 0 allocs/op, pinned
// by TestSteadyAllocs) against the retained pre-PR per-window
// implementation. The acceptance bar is a >= 5x sweep/naive ratio.
func BenchmarkCheckAllWindows(b *testing.B) {
	b.Run("sweep", func(b *testing.B) { benchSteady(b, checkAllWindowsSweep(b)) })
	b.Run("naive", func(b *testing.B) {
		g := topology.Baseline(16)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !midigraph.AllOK(g.CheckAllWindowsNaive()) {
				b.Fatal("baseline violated a window property")
			}
		}
	})
}

func checkAllWindowsSweep(tb testing.TB) func() {
	g := topology.Baseline(16)
	a := midigraph.NewAnalyzer()
	var buf []midigraph.WindowResult
	return func() {
		buf = a.CheckAllWindows(g, buf)
		if !midigraph.AllOK(buf) {
			tb.Fatal("baseline violated a window property")
		}
	}
}

// BenchmarkCheckFamilies: the two families the characterization theorem
// actually consumes, as single sweeps on a reused Analyzer (0 allocs/op,
// pinned).
func BenchmarkCheckFamilies(b *testing.B) { benchSteady(b, checkFamilies(b)) }

func checkFamilies(tb testing.TB) func() {
	g := topology.Baseline(16)
	a := midigraph.NewAnalyzer()
	var prefix, suffix []midigraph.WindowResult
	return func() {
		prefix = a.CheckPrefix(g, prefix)
		suffix = a.CheckSuffix(g, suffix)
		if !midigraph.AllOK(prefix) || !midigraph.AllOK(suffix) {
			tb.Fatal("baseline violated a family property")
		}
	}
}

// BenchmarkIsoToBaseline (T4): explicit isomorphism construction.
func BenchmarkIsoToBaseline(b *testing.B) {
	g := topology.MustBuild(topology.NameOmega, 10).Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := equiv.IsoToBaseline(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBanyan is the canonical Banyan-verdict benchmark. The
// baseline rows run Analyzer.Banyan on a reused Analyzer (0 allocs/op,
// pinned). The double-arc row runs IsBanyan on a Baseline whose last
// two stage-0 cells, buddies sharing both children, each send both arcs
// to one of them: the verdict fails and the path-count scan walks all
// but one source before it finds the witness.
func BenchmarkBanyan(b *testing.B) {
	for _, n := range []int{10, 14} {
		b.Run(fmt.Sprintf("baseline/n=%d", n), func(b *testing.B) { benchSteady(b, banyanBaseline(n)(b)) })
	}
	g := topology.Baseline(10)
	x := uint32(g.CellsPerStage() - 2)
	f, c := g.Children(0, x)
	g.SetChildren(0, x, f, f)
	g.SetChildren(0, x+1, c, c)
	if err := g.Validate(); err != nil {
		b.Fatal(err)
	}
	b.Run("double-arc/n=10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ok, v := g.IsBanyan(); ok || v.Src != x {
				b.Fatalf("witness %+v, want source %d", v, x)
			}
		}
	})
}

func banyanBaseline(n int) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		g := topology.Baseline(n)
		a := midigraph.NewAnalyzer()
		return func() {
			if !a.Banyan(g) {
				tb.Fatal("baseline not Banyan")
			}
		}
	}
}

// BenchmarkBaselineLabels is the labeler Certify runs first: both
// window sweeps of Analyzer.BaselineLabels on the Omega network, on a
// reused Analyzer and label buffer (0 allocs/op, pinned).
func BenchmarkBaselineLabels(b *testing.B) {
	for _, n := range []int{10, 14} {
		b.Run(fmt.Sprintf("omega/n=%d", n), func(b *testing.B) { benchSteady(b, baselineLabels(n)(b)) })
	}
}

func baselineLabels(n int) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		g := topology.MustBuild(topology.NameOmega, n).Graph
		a := midigraph.NewAnalyzer()
		labels := make([]uint64, g.Stages()*g.CellsPerStage())
		return func() {
			if !a.BaselineLabels(g, labels) {
				tb.Fatal("omega failed a P family")
			}
		}
	}
}

// BenchmarkPIPIDConnection (T5): connection induced by one theta plus
// its independence decision.
func BenchmarkPIPIDConnection(b *testing.B) {
	theta := pipid.BitReversal(14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := conn.FromIndexPerm(theta)
		if !c.IsIndependent() {
			b.Fatal("not independent")
		}
	}
}

// BenchmarkEquivalentMatrix: the worker-parallel pairwise catalog sweep
// (characterize once per graph, shard the pairs). Also the -race smoke
// target CI runs so the parallel equivalence path stays race-clean.
func BenchmarkEquivalentMatrix(b *testing.B) {
	nets, err := topology.BuildAll(8)
	if err != nil {
		b.Fatal(err)
	}
	graphs := make([]*midigraph.Graph, len(nets))
	for i, nw := range nets {
		graphs[i] = nw.Graph
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := equiv.PairwiseEquivalent(graphs, workers)
				if err != nil {
					b.Fatal(err)
				}
				if !m[0][len(m)-1] {
					b.Fatal("catalog pair rejected")
				}
			}
		})
	}
}

// newServeHandler builds an in-memory minserve handler with cfg's
// settings, closed when tb ends.
func newServeHandler(tb testing.TB, cfg minserve.Config) http.Handler {
	tb.Helper()
	svc, err := minserve.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := svc.Close(context.Background()); err != nil {
			tb.Error(err)
		}
	})
	return svc.Handler()
}

// post serves one POST of body to path on h.
func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec
}

// BenchmarkServeCheckCached: a warm /v1/check hit through the minserve
// LRU — the full HTTP handler path minus the analysis it caches away.
func BenchmarkServeCheckCached(b *testing.B) { benchSteady(b, serveCheckCached(b)) }

func serveCheckCached(tb testing.TB) func() {
	h := newServeHandler(tb, minserve.Config{})
	const body = `{"network":"indirect-binary-cube","stages":10}`
	if cold := post(h, "/v1/check", body); cold.Code != 200 {
		tb.Fatalf("cold check failed: %s", cold.Body.String())
	}
	return func() {
		rec := post(h, "/v1/check", body)
		if rec.Code != 200 || rec.Header().Get("X-Cache") != "HIT" {
			tb.Fatal("expected a cache hit")
		}
	}
}

// batchItems is the size of BenchmarkServeBatchWarm's batch.
const batchItems = 16

// warmBatchHandler returns the check bodies of BenchmarkServeBatchWarm
// and a handler whose cache already holds each one's response.
func warmBatchHandler(tb testing.TB) (http.Handler, []string) {
	h := newServeHandler(tb, minserve.Config{})
	bodies := make([]string, batchItems)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"network":"indirect-binary-cube","stages":%d}`, 3+i%8)
		if rec := post(h, "/v1/check", bodies[i]); rec.Code != 200 {
			tb.Fatalf("warm: %s", rec.Body.String())
		}
	}
	return h, bodies
}

// BenchmarkServeBatchWarm: a warm 16-item check batch through
// /v1/batch versus 16 sequential warm single calls — the amortization
// the batch API exists for (one request parse, one admission slot, one
// response write for N cache probes). The two sub-benchmarks report
// ns per *item*, so batch/item must beat single/item by >= 2x.
func BenchmarkServeBatchWarm(b *testing.B) {
	b.Run("single/item", func(b *testing.B) {
		h, bodies := warmBatchHandler(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if post(h, "/v1/check", bodies[i%batchItems]).Code != 200 {
				b.Fatal("single failed")
			}
		}
	})
	b.Run("batch/item", func(b *testing.B) {
		op := serveBatchWarm(b)
		op()
		b.ReportAllocs()
		b.ResetTimer()
		// Each op serves batchItems requests; report per-item cost.
		for i := 0; i < b.N; i += batchItems {
			op()
		}
	})
}

// serveBatchWarm's op is one warm batchItems-item /v1/batch request.
func serveBatchWarm(tb testing.TB) func() {
	h, bodies := warmBatchHandler(tb)
	var batch strings.Builder
	batch.WriteString(`{"requests":[`)
	for i, body := range bodies {
		if i > 0 {
			batch.WriteByte(',')
		}
		fmt.Fprintf(&batch, `{"op":"check","request":%s}`, body)
	}
	batch.WriteString(`]}`)
	batchBody := batch.String()
	return func() {
		if post(h, "/v1/batch", batchBody).Code != 200 {
			tb.Fatal("batch failed")
		}
	}
}

// BenchmarkCounterexampleCheck (T6): characterization check rejecting
// the tail-cycle Banyan.
func BenchmarkCounterexampleCheck(b *testing.B) {
	g, err := randnet.TailCycleBanyan(10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if equiv.Check(g).Equivalent() {
			b.Fatal("counterexample accepted")
		}
	}
}

// BenchmarkSimUniform (T7): one uniform wave through the fabric on a
// reused WaveRunner — the steady-state hot loop, 0 allocs/op.
func BenchmarkSimUniform(b *testing.B) {
	f := omegaFabric(b, 8)
	rng := rand.New(rand.NewPCG(2, 0))
	pattern := sim.Uniform()
	runner := f.NewWaveRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunTraffic(pattern, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineThroughput: the parallel trial engine at n=10 under
// uniform traffic, swept over worker counts. On a multi-core machine
// the workers=8 case should run >= 3x faster than workers=1; per-trial
// PCG streams make the aggregates identical across the sweep.
func BenchmarkEngineThroughput(b *testing.B) {
	f := omegaFabric(b, 10)
	const waves = 128
	pattern := sim.Uniform()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := engine.RunWaves(context.Background(), f, pattern, waves, engine.Config{Workers: workers, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if st.Delivered == 0 {
					b.Fatal("engine delivered nothing")
				}
			}
		})
	}
}

// BenchmarkEngineWaveLoop pins the zero-allocation claim: the
// steady-state wave loop (reused runner, engine-derived stream) must
// report 0 allocs/op.
func BenchmarkEngineWaveLoop(b *testing.B) { benchSteady(b, engineWaveLoop(b)) }

func engineWaveLoop(tb testing.TB) func() { return waveLoop(tb, omegaFabric(tb, 10)) }

// BenchmarkTableWaveLoop is BenchmarkEngineWaveLoop on the 10-stage
// double-arc wiring, so every steer is a table-path lookup under
// uniform random destinations. FabricKernel/table sweeps destinations
// in a fixed order, which hides a lookup that branches on the port;
// this row does not. Must be 0 allocs/op (pinned).
func BenchmarkTableWaveLoop(b *testing.B) { benchSteady(b, tableWaveLoop(b)) }

func tableWaveLoop(tb testing.TB) func() { return waveLoop(tb, newFabric(tb, doubleArcPerms10())) }

// waveLoop's op is one uniform wave through f on a reused runner.
func waveLoop(tb testing.TB, f *sim.Fabric) func() {
	runner := f.NewWaveRunner()
	rng := engine.NewRand(1, 0)
	pattern := sim.Uniform()
	return func() {
		if _, err := runner.RunTraffic(pattern, rng); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkEngineBuffered: sharded replications of the buffered model
// on per-worker reused runners.
func BenchmarkEngineBuffered(b *testing.B) {
	f := newFabric(b, topology.MustBuild(topology.NameBaseline, 6).LinkPerms)
	cfg := sim.BufferedConfig{Pattern: sim.Bernoulli(0.6), Queue: 4, Lanes: 2, Cycles: 200, Warmup: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.RunBuffered(context.Background(), f, cfg, 8, engine.Config{Seed: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBufferedRunner pins the buffered engine's zero-allocation
// claim: the steady-state replication loop (reused BufferedRunner,
// engine-derived stream) must report 0 allocs/op (pinned).
func BenchmarkBufferedRunner(b *testing.B) { benchSteady(b, bufferedRunner(b)) }

func bufferedRunner(tb testing.TB) func() {
	runner, err := omegaFabric(tb, 6).NewBufferedRunner(sim.BufferedConfig{
		Pattern: sim.Bernoulli(0.8), Queue: 4, Lanes: 2, Cycles: 200, Warmup: 20,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rng := engine.NewRand(5, 0)
	ctx := context.Background()
	return func() {
		res, err := runner.Run(ctx, rng)
		if err != nil || res.Delivered == 0 {
			tb.Fatalf("nothing delivered (err %v)", err)
		}
	}
}

// BenchmarkFabricKernel pins the unified fabric kernel both runners
// drive: a full fabric's worth of crossbar decisions (every stage, every
// cell, a rotating destination) plus the inter-stage forward, on the
// intact fabric and under an active fault state. The intact and faulted
// rows run the relabeled Omega; the table row runs the 10-stage
// double-arc wiring of BenchmarkFabricCompile, whose ports the table
// path looks up. Every row must be 0 allocs/op (pinned).
func BenchmarkFabricKernel(b *testing.B) {
	for _, row := range []string{"intact", "faulted", "table"} {
		b.Run(row, func(b *testing.B) { benchSteady(b, fabricKernel(row)(b)) })
	}
}

func fabricKernel(row string) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		var f *sim.Fabric
		var fs *sim.FaultState
		switch row {
		case "intact":
			f = omegaFabric(tb, 10)
		case "faulted":
			f = omegaFabric(tb, 10)
			fs = sampledFaults(tb, f)
		case "table":
			f = newFabric(tb, doubleArcPerms10())
			if f.BitSliceable() {
				tb.Fatal("double-arc wiring compiled relabeled")
			}
		}
		salt := 0
		return func() {
			if f.SteerSweep(fs, salt) == 0 {
				tb.Fatal("kernel steered nothing")
			}
			salt++
		}
	}
}

// doubleArcPerms10 is a 10-stage Baseline whose stage-0 cell 0 sends
// both outlinks into one cell: not Banyan, so it compiles to the table
// path.
func doubleArcPerms10() []perm.Perm {
	perms := topology.BaselineLinkPerms(10)
	p := perms[0].Clone()
	// Send cell 0's port 1 into the cell its port 0 enters.
	for x, y := range p {
		if y == p[0]^1 {
			p[x], p[1] = p[1], p[x]
			break
		}
	}
	perms[0] = p
	return perms
}

// BenchmarkFabricCompile pins the compile layer: sim.NewFabric's
// equiv.Certify verdict, then either the relabeled form of an
// equivalent wiring or the table path's one backward pass building the
// reach rows and the Banyan verdict. Relabeled: Baseline wirings at
// 6, 8 and 10 stages and a seeded relabeling of the Omega at 10, 12 and
// 14 stages. Table path: a 10-stage wiring whose first stage has a
// double arc (it misses P(1,2), the second window of the labeler's
// prefix sweep, and the table pass finds it non-Banyan only at its
// last step) and the 10-stage tail cycle (Banyan, but it misses a
// P(*,n) count in the labeler's suffix sweep).
func BenchmarkFabricCompile(b *testing.B) {
	run := func(b *testing.B, perms []perm.Perm, banyan bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := sim.NewFabric(perms)
			if err != nil {
				b.Fatal(err)
			}
			if f.Banyan() != banyan {
				b.Fatalf("Banyan() = %t, want %t", f.Banyan(), banyan)
			}
		}
	}
	for _, n := range []int{6, 8, 10} {
		perms := topology.BaselineLinkPerms(n)
		b.Run(fmt.Sprintf("baseline/n=%d", n), func(b *testing.B) { run(b, perms, true) })
	}
	arc := doubleArcPerms10()
	b.Run("double-arc/n=10", func(b *testing.B) { run(b, arc, false) })
	for _, n := range []int{10, 12, 14} {
		b.Run(fmt.Sprintf("relabeled/n=%d", n), func(b *testing.B) { benchSteady(b, fabricCompileRelabeled(n)(b)) })
	}
	tail, err := randnet.TailCycleLinkPerms(10)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tail-cycle/n=10", func(b *testing.B) { run(b, tail, true) })
}

// fabricCompileRelabeled compiles a seeded relabeling of the n-stage
// Omega, which compiles relabeled.
func fabricCompileRelabeled(n int) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		perms := randnet.RelabelLinks(rand.New(rand.NewPCG(uint64(n), 1)), topology.MustBuild(topology.NameOmega, n).LinkPerms)
		return func() {
			if !newFabric(tb, perms).BitSliceable() {
				tb.Fatal("relabeled Omega compiled to the table path")
			}
		}
	}
}

// BenchmarkFaultedWaveLoop pins the degraded hot path: the steady-state
// wave loop with a per-wave fault resample (exactly what the engine
// does per trial, minus the per-trial rng derivation). Must stay
// 0 allocs/op (pinned).
func BenchmarkFaultedWaveLoop(b *testing.B) { benchSteady(b, faultedWaveLoop(b)) }

func faultedWaveLoop(tb testing.TB) func() {
	f := omegaFabric(tb, 10)
	runner := f.NewWaveRunner()
	fs := sim.NewFaultState(f.Spans)
	if err := runner.SetFaults(fs); err != nil {
		tb.Fatal(err)
	}
	plan := sim.FaultPlan{SwitchDeadRate: 0.02, LinkDownRate: 0.01}
	trafficRng := engine.NewRand(1, 0)
	faultRng := engine.NewFaultRand(1, 0)
	pattern := sim.Uniform()
	return func() {
		if err := fs.Sample(plan, faultRng); err != nil {
			tb.Fatal(err)
		}
		if _, err := runner.RunTraffic(pattern, trafficRng); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkFaultResample pins the fault draw on its own: one
// FaultState.Resample of a dead-switch plus severed-link plan per
// iteration, from one running stream, on Omega at 8 and 10 stages. Its
// cost is one draw per hit plus one per empty 64-element block, so it
// scales with the fault count, not the fabric. Must stay 0 allocs/op
// (pinned).
func BenchmarkFaultResample(b *testing.B) {
	for _, n := range []int{8, 10} {
		b.Run(fmt.Sprintf("dead+link/n=%d", n), func(b *testing.B) { benchSteady(b, faultResample(n)(b)) })
	}
}

func faultResample(n int) func(testing.TB) func() {
	return func(testing.TB) func() {
		plan := sim.FaultPlan{SwitchDeadRate: 0.01, LinkDownRate: 0.01}
		fs := sim.NewFaultState(n)
		rng := engine.NewFaultRand(1, 0)
		return func() { fs.Resample(plan, rng) }
	}
}

// BenchmarkBitWaveLoop pins the bit-sliced executor's throughput claim:
// one iteration steers a full 64-wave batch exactly as the engine does —
// per-batch PCG reseeding from the trial-indexed engine streams, reused
// BitWaveRunner — and must report 0 allocs/op (pinned). The ns/wave
// metric is the number to compare against BenchmarkEngineWaveLoop's
// ns/op (one scalar wave); the acceptance bar is >= 8x.
func BenchmarkBitWaveLoop(b *testing.B) {
	benchSteady(b, bitWaveLoop(b))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/64, "ns/wave")
}

func bitWaveLoop(tb testing.TB) func() {
	runner, err := omegaFabric(tb, 10).NewBitWaveRunner()
	if err != nil {
		tb.Fatal(err)
	}
	var pcg [64]rand.PCG
	rngs := make([]*rand.Rand, 64)
	for j := range rngs {
		rngs[j] = rand.New(&pcg[j])
	}
	pattern := sim.Uniform()
	t0 := uint64(0)
	return func() {
		for j := range pcg {
			pcg[j].Seed(engine.SeedPair(1, t0+uint64(j)))
		}
		if _, err := runner.RunTraffic(pattern, rngs); err != nil {
			tb.Fatal(err)
		}
		t0 += 64
	}
}

// BenchmarkBitFabricKernel pins the word-parallel plane algebra itself,
// mirroring BenchmarkFabricKernel: one full-load 64-lane pass over every
// stage with synthetic salts, on the intact fabric and with a sampled
// fault state folded into the per-stage lane masks. Both paths must be
// 0 allocs/op (pinned).
func BenchmarkBitFabricKernel(b *testing.B) {
	for _, row := range []string{"intact", "faulted"} {
		b.Run(row, func(b *testing.B) { benchSteady(b, bitFabricKernel(row)(b)) })
	}
}

func bitFabricKernel(row string) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		f := omegaFabric(tb, 10)
		runner, err := f.NewBitWaveRunner()
		if err != nil {
			tb.Fatal(err)
		}
		if row == "faulted" {
			if err := runner.SetLaneFaults(^uint64(0), sampledFaults(tb, f)); err != nil {
				tb.Fatal(err)
			}
		}
		salt := 0
		return func() {
			if runner.BitSteerSweep(salt) == 0 {
				tb.Fatal("kernel steered nothing")
			}
			salt++
		}
	}
}

// BenchmarkFaultedBitRange pins the shape of a faulted sweep cell: one
// 1024-trial engine.RunWaveRange under the bit-sliced kernel on Omega
// n = 8 with random fault rates, so every 64-trial batch resamples and
// folds 64 fault realizations into the kernel's lane masks. "dead" is a
// dead-switch rate alone; "dead+stuck" adds a stuck rate, so every hit
// also draws its kind; "dead+link" adds a severed-link rate, the shape
// of perfbench's faulty simulate op. It builds an executor per call, so
// it carries no allocs gate.
func BenchmarkFaultedBitRange(b *testing.B) {
	f := omegaFabric(b, 8)
	const trials = 1024
	pattern := sim.Uniform()
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		plan sim.FaultPlan
	}{
		{"dead", sim.FaultPlan{SwitchDeadRate: 0.01}},
		{"dead+stuck", sim.FaultPlan{SwitchDeadRate: 0.01, SwitchStuckRate: 0.01}},
		{"dead+link", sim.FaultPlan{SwitchDeadRate: 0.01, LinkDownRate: 0.01}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := engine.Config{Seed: 1, Kernel: engine.KernelBit, Faults: &bc.plan}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := engine.RunWaveRange(ctx, f, pattern, 0, trials, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if p.FaultDropped == 0 {
					b.Fatal("no fault drops")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/trials, "ns/wave")
		})
	}
}

// BenchmarkSimBuffered (T7): buffered queueing simulation, one fresh
// runner per replication.
func BenchmarkSimBuffered(b *testing.B) {
	f := newFabric(b, topology.MustBuild(topology.NameBaseline, 6).LinkPerms)
	rng := rand.New(rand.NewPCG(3, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := f.NewBufferedRunner(sim.BufferedConfig{Pattern: sim.Bernoulli(0.6), Queue: 4, Cycles: 200, Warmup: 20})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(context.Background(), rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteAllPairs (T8): all N^2 routes on the 8-stage Flip,
// destination by destination, so the router rebuilds its reachability
// table once per destination.
func BenchmarkRouteAllPairs(b *testing.B) {
	r, err := route.NewFaultyRouter(topology.MustBuild(topology.NameFlip, 8).LinkPerms, nil)
	if err != nil {
		b.Fatal(err)
	}
	N := r.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for dst := 0; dst < N; dst++ {
			for src := 0; src < N; src++ {
				if _, err := r.Route(src, dst); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkRoute is one uncached route as the serving handler computes
// it: min.Route on a fresh network, plus TagPositions. Rows: the
// 10-stage Omega (PIPID, so it has a tag schedule) and a seeded
// relabeling of it (not PIPID: the shape of serve-cold's routes).
func BenchmarkRoute(b *testing.B) {
	omega := min.MustBuild(min.Omega, 10)
	perms := randnet.RelabelLinks(rand.New(rand.NewPCG(10, 1)), topology.MustBuild(topology.NameOmega, 10).LinkPerms)
	rows := make([][]int, len(perms))
	for s, p := range perms {
		rows[s] = make([]int, len(p))
		for x, y := range p {
			rows[s][x] = int(y)
		}
	}
	relabeled, err := min.FromLinkPerms("relabeled", 10, rows)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range []struct {
		name string
		nw   *min.Network
	}{{"omega/n=10", omega}, {"relabeled/n=10", relabeled}} {
		b.Run(row.name, func(b *testing.B) {
			N := row.nw.Terminals()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src, dst := i*37%N, i*101%N
				if _, err := min.Route(row.nw, src, dst); err != nil {
					b.Fatal(err)
				}
				_, _ = min.TagPositions(row.nw)
			}
		})
	}
}

// BenchmarkIndependenceDef and BenchmarkIndependenceFast (T9 ablation).
func BenchmarkIndependenceDef(b *testing.B) {
	c := conn.RandomIndependent(rand.New(rand.NewPCG(4, 0)), 9, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.IsIndependentDef() {
			b.Fatal("not independent")
		}
	}
}

func BenchmarkIndependenceFast(b *testing.B) {
	c := conn.RandomIndependent(rand.New(rand.NewPCG(4, 0)), 9, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.IsIndependent() {
			b.Fatal("not independent")
		}
	}
}

// BenchmarkCharacterization (T10): the full check at a larger size.
func BenchmarkCharacterization(b *testing.B) {
	g := topology.MustBuild(topology.NameIndirectCube, 12).Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !equiv.Check(g).Equivalent() {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkExperimentF1 keeps the figure path itself honest.
func BenchmarkExperimentF1(b *testing.B) {
	e, ok := experiments.ByID("F1")
	if !ok {
		b.Fatal("F1 missing")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// codecFixtureRequest is a fault-heavy simulate request: the shape the
// binary wire codec exists for (sweeps ship large pinned fault plans).
func codecFixtureRequest() *codec.SimulateRequest {
	plan := &min.FaultPlan{Faults: make([]min.Fault, 128)}
	for i := range plan.Faults {
		f := min.Fault{Stage: i % 5, Cell: i % 16}
		switch i % 3 {
		case 0:
			f.Kind = min.SwitchDead
		case 1:
			f.Kind = min.SwitchStuck1
		default:
			f.Kind = min.LinkDown
			f.Link = i % 32
		}
		plan.Faults[i] = f
	}
	return &codec.SimulateRequest{
		NetworkSpec: codec.NetworkSpec{Network: "omega", Stages: 5},
		Seed:        7,
		Waves:       64,
		Faults:      plan,
	}
}

// BenchmarkCodecEncode pins the binary wire codec's encode hot loop:
// steady-state re-encoding of a fault-heavy simulate request must not
// allocate.
func BenchmarkCodecEncode(b *testing.B) { benchSteady(b, codecEncode(b)) }

func codecEncode(testing.TB) func() {
	v := codecFixtureRequest()
	var e codec.Encoder
	return func() {
		e.Reset()
		e.SimulateRequest(v)
	}
}

// BenchmarkCodecDecode pins the decode hot loop: decoding the same
// frame into a reused target must reach zero allocs/op once the
// target's slices and intern table are warm.
func BenchmarkCodecDecode(b *testing.B) { benchSteady(b, codecDecode(b)) }

func codecDecode(tb testing.TB) func() {
	wire, err := codec.Encode(codecFixtureRequest())
	if err != nil {
		tb.Fatal(err)
	}
	var d codec.Decoder
	dst := new(codec.SimulateRequest)
	return func() {
		d.Reset(wire)
		if err := d.SimulateRequest(dst); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkDecodeRequest is the decode layer of an uncached check: a
// seeded cell relabeling of Omega sent as linkPerms, decoded from JSON
// by the server's JSON path (codec.DecodeJSON) and from its binary
// frame (codec.Decode), each into a fresh request as a handler does.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, wire := range []struct {
		name   string
		encode func(any) ([]byte, error)
		decode func([]byte, any) error
	}{
		{"json", json.Marshal, codec.DecodeJSON},
		{"bin", codec.Encode, codec.Decode},
	} {
		for _, n := range []int{6, 8, 10} {
			req := &codec.CheckRequest{NetworkSpec: codec.NetworkSpec{Network: "cold", Stages: n, LinkPerms: relabeledOmegaRows(n)}}
			body, err := wire.encode(req)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/n=%d", wire.name, n), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(body)))
				for i := 0; i < b.N; i++ {
					var v codec.CheckRequest
					if err := wire.decode(body, &v); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// relabeledOmegaRows is the cold wiring of BenchmarkDecodeRequest and
// BenchmarkColdCheck: a seeded cell relabeling of the n-stage Omega,
// as the linkPerms rows of a request.
func relabeledOmegaRows(n int) [][]int {
	perms := randnet.RelabelLinks(rand.New(rand.NewPCG(uint64(n), 7)), topology.MustBuild("omega", n).LinkPerms)
	rows := make([][]int, len(perms))
	for s, p := range perms {
		rows[s] = make([]int, len(p))
		for x, y := range p {
			rows[s][x] = int(y)
		}
	}
	return rows
}

// BenchmarkColdCheck is the characterization layer of an uncached
// check on the relabeled Omega of BenchmarkDecodeRequest, after the
// request is decoded: build is min.FromLinkPerms, check is min.Check
// on the built network (a check without iso), and isocheck is
// min.CheckIso, what a check with iso runs.
func BenchmarkColdCheck(b *testing.B) {
	for _, n := range []int{6, 8, 10} {
		rows := relabeledOmegaRows(n)
		b.Run(fmt.Sprintf("build/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := min.FromLinkPerms("cold", n, rows); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("check/n=%d", n), func(b *testing.B) { benchSteady(b, coldCheck(n, false)(b)) })
		b.Run(fmt.Sprintf("isocheck/n=%d", n), func(b *testing.B) { benchSteady(b, coldCheck(n, true)(b)) })
	}
}

// coldCheck is BenchmarkColdCheck's check op (iso false) or isocheck op
// (iso true) on the relabeled n-stage Omega.
func coldCheck(n int, iso bool) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		nw, err := min.FromLinkPerms("cold", n, relabeledOmegaRows(n))
		if err != nil {
			tb.Fatal(err)
		}
		if iso {
			return func() {
				if _, m, err := min.CheckIso(nw); err != nil || m == nil {
					tb.Fatal("rejected", err)
				}
			}
		}
		return func() {
			if !min.Check(nw).Equivalent {
				tb.Fatal("rejected")
			}
		}
	}
}

// BenchmarkServeColdCheck is an uncached /v1/check through the whole
// minserve handler, its response cache off so no op can hit: the
// relabeled Omega of BenchmarkColdCheck as linkPerms, without iso
// (check) and with it (iso), in JSON and in the binary codec both ways.
func BenchmarkServeColdCheck(b *testing.B) {
	h := newServeHandler(b, minserve.Config{CacheEntries: -1})
	for _, iso := range []bool{false, true} {
		kind := "check"
		if iso {
			kind = "iso"
		}
		for _, wire := range []struct {
			name, media string
			encode      func(any) ([]byte, error)
		}{
			{"json", "application/json", json.Marshal},
			{"bin", minserve.MediaTypeBinary, codec.Encode},
		} {
			for _, n := range []int{6, 8, 10} {
				req := &codec.CheckRequest{Iso: iso, NetworkSpec: codec.NetworkSpec{
					Network: "cold", Stages: n, LinkPerms: relabeledOmegaRows(n)}}
				body, err := wire.encode(req)
				if err != nil {
					b.Fatal(err)
				}
				b.Run(fmt.Sprintf("%s/%s/n=%d", kind, wire.name, n), func(b *testing.B) {
					b.ReportAllocs()
					b.SetBytes(int64(len(body)))
					for i := 0; i < b.N; i++ {
						rec := httptest.NewRecorder()
						r := httptest.NewRequest("POST", "/v1/check", bytes.NewReader(body))
						r.Header.Set("Content-Type", wire.media)
						r.Header.Set("Accept", wire.media)
						h.ServeHTTP(rec, r)
						if rec.Code != 200 || rec.Header().Get("X-Cache") == "HIT" {
							b.Fatalf("status %d, X-Cache %q: %s", rec.Code, rec.Header().Get("X-Cache"), rec.Body.String())
						}
					}
				})
			}
		}
	}
}
