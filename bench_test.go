// Root benchmark harness: one benchmark per experiment table/figure of
// EXPERIMENTS.md, so `go test -bench=. -benchmem` regenerates the
// performance side of every reported artifact.
package minequiv

import (
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
			if !equiv.IsBaselineEquivalent(nw.Graph) {
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
// union-find sweep per left edge, reused scratch, 0 allocs/op — CI
// gates on it) against the retained pre-PR per-window implementation.
// The acceptance bar is a >= 5x sweep/naive ratio.
func BenchmarkCheckAllWindows(b *testing.B) {
	g := topology.Baseline(16)
	b.Run("sweep", func(b *testing.B) {
		a := midigraph.NewAnalyzer()
		buf := a.CheckAllWindows(g, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = a.CheckAllWindows(g, buf)
			if !midigraph.AllOK(buf) {
				b.Fatal("baseline violated a window property")
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !midigraph.AllOK(g.CheckAllWindowsNaive()) {
				b.Fatal("baseline violated a window property")
			}
		}
	})
}

// BenchmarkCheckFamilies: the two families the characterization theorem
// actually consumes, as single sweeps on a reused Analyzer (0 allocs/op,
// CI-gated).
func BenchmarkCheckFamilies(b *testing.B) {
	g := topology.Baseline(16)
	a := midigraph.NewAnalyzer()
	prefix := a.CheckPrefix(g, nil)
	suffix := a.CheckSuffix(g, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prefix = a.CheckPrefix(g, prefix)
		suffix = a.CheckSuffix(g, suffix)
		if !midigraph.AllOK(prefix) || !midigraph.AllOK(suffix) {
			b.Fatal("baseline violated a family property")
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
// CI-gated). The double-arc row runs IsBanyan on a Baseline whose last
// two stage-0 cells, buddies sharing both children, each send both arcs
// to one of them: the verdict fails and the path-count scan walks all
// but one source before it finds the witness.
func BenchmarkBanyan(b *testing.B) {
	for _, n := range []int{10, 14} {
		g := topology.Baseline(n)
		b.Run(fmt.Sprintf("baseline/n=%d", n), func(b *testing.B) {
			a := midigraph.NewAnalyzer()
			a.Banyan(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !a.Banyan(g) {
					b.Fatal("baseline not Banyan")
				}
			}
		})
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

// BenchmarkBaselineLabels is the labeler Relabeling runs first: both
// window sweeps of Analyzer.BaselineLabels on the Omega network, on a
// reused Analyzer and label buffer (0 allocs/op, CI-gated).
func BenchmarkBaselineLabels(b *testing.B) {
	for _, n := range []int{10, 14} {
		g := topology.MustBuild(topology.NameOmega, n).Graph
		b.Run(fmt.Sprintf("omega/n=%d", n), func(b *testing.B) {
			a := midigraph.NewAnalyzer()
			labels := make([]uint64, g.Stages()*g.CellsPerStage())
			a.BaselineLabels(g, labels)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !a.BaselineLabels(g, labels) {
					b.Fatal("omega failed a P family")
				}
			}
		})
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

// newServeHandler builds an in-memory minserve handler with defaults.
func newServeHandler(b *testing.B) http.Handler {
	b.Helper()
	svc, err := minserve.New(minserve.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return svc.Handler()
}

// BenchmarkServeCheckCached: a warm /v1/check hit through the minserve
// LRU — the full HTTP handler path minus the analysis it caches away.
func BenchmarkServeCheckCached(b *testing.B) {
	h := newServeHandler(b)
	const body = `{"network":"indirect-binary-cube","stages":10}`
	request := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/check", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	cold := request() // populate the cache
	if cold.Code != 200 {
		b.Fatalf("cold check failed: %s", cold.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := request()
		if rec.Code != 200 || rec.Header().Get("X-Cache") != "HIT" {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkServeBatchWarm: a warm 16-item check batch through
// /v1/batch versus 16 sequential warm single calls — the amortization
// the batch API exists for (one request parse, one admission slot, one
// response write for N cache probes). The two sub-benchmarks report
// ns per *item*, so batch/item must beat single/item by >= 2x.
func BenchmarkServeBatchWarm(b *testing.B) {
	const items = 16
	bodies := make([]string, items)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"network":"indirect-binary-cube","stages":%d}`, 3+i%8)
	}
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

	newWarmHandler := func(b *testing.B) http.Handler {
		h := newServeHandler(b)
		for _, body := range bodies {
			req := httptest.NewRequest("POST", "/v1/check", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatalf("warm: %s", rec.Body.String())
			}
		}
		return h
	}

	b.Run("single/item", func(b *testing.B) {
		h := newWarmHandler(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body := bodies[i%items]
			req := httptest.NewRequest("POST", "/v1/check", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatal("single failed")
			}
		}
	})
	b.Run("batch/item", func(b *testing.B) {
		h := newWarmHandler(b)
		b.ReportAllocs()
		b.ResetTimer()
		// Each iteration serves `items` requests; report per-item cost.
		for i := 0; i < b.N; i += items {
			req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(batchBody))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatal("batch failed")
			}
		}
	})
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
		if equiv.IsBaselineEquivalent(g) {
			b.Fatal("counterexample accepted")
		}
	}
}

// BenchmarkSimUniform (T7): one uniform wave through the fabric on a
// reused WaveRunner — the steady-state hot loop, 0 allocs/op.
func BenchmarkSimUniform(b *testing.B) {
	f, err := sim.NewFabric(topology.MustBuild(topology.NameOmega, 8).LinkPerms)
	if err != nil {
		b.Fatal(err)
	}
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
	f, err := sim.NewFabric(topology.MustBuild(topology.NameOmega, 10).LinkPerms)
	if err != nil {
		b.Fatal(err)
	}
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
func BenchmarkEngineWaveLoop(b *testing.B) {
	f, err := sim.NewFabric(topology.MustBuild(topology.NameOmega, 10).LinkPerms)
	if err != nil {
		b.Fatal(err)
	}
	runner := f.NewWaveRunner()
	rng := engine.NewRand(1, 0)
	pattern := sim.Uniform()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunTraffic(pattern, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableWaveLoop is BenchmarkEngineWaveLoop on the 10-stage
// double-arc wiring, so every steer is a table-path lookup under
// uniform random destinations. FabricKernel/table sweeps destinations
// in a fixed order, which hides a lookup that branches on the port;
// this row does not. Must be 0 allocs/op; CI gates on it.
func BenchmarkTableWaveLoop(b *testing.B) {
	f, err := sim.NewFabric(doubleArcPerms10())
	if err != nil {
		b.Fatal(err)
	}
	runner := f.NewWaveRunner()
	rng := engine.NewRand(1, 0)
	pattern := sim.Uniform()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunTraffic(pattern, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBuffered: sharded replications of the buffered model
// on per-worker reused runners.
func BenchmarkEngineBuffered(b *testing.B) {
	f, err := sim.NewFabric(topology.MustBuild(topology.NameBaseline, 6).LinkPerms)
	if err != nil {
		b.Fatal(err)
	}
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
// engine-derived stream) must report 0 allocs/op. CI gates on this.
func BenchmarkBufferedRunner(b *testing.B) {
	f, err := sim.NewFabric(topology.MustBuild(topology.NameOmega, 6).LinkPerms)
	if err != nil {
		b.Fatal(err)
	}
	runner, err := f.NewBufferedRunner(sim.BufferedConfig{
		Pattern: sim.Bernoulli(0.8), Queue: 4, Lanes: 2, Cycles: 200, Warmup: 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := engine.NewRand(5, 0)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(ctx, rng)
		if err != nil || res.Delivered == 0 {
			b.Fatalf("nothing delivered (err %v)", err)
		}
	}
}

// BenchmarkFabricKernel pins the unified fabric kernel both runners
// drive: a full fabric's worth of crossbar decisions (every stage, every
// cell, a rotating destination) plus the inter-stage forward, on the
// intact fabric and under an active fault state. The intact and faulted
// rows run the relabeled Omega; the table row runs the 10-stage
// double-arc wiring of BenchmarkFabricCompile, whose ports the table
// path looks up. Every row must be 0 allocs/op; CI gates on it.
func BenchmarkFabricKernel(b *testing.B) {
	f, err := sim.NewFabric(topology.MustBuild(topology.NameOmega, 10).LinkPerms)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, f *sim.Fabric, fs *sim.FaultState) {
		b.ReportAllocs()
		b.ResetTimer()
		sink := uint64(0)
		for i := 0; i < b.N; i++ {
			sink += f.SteerSweep(fs, i)
		}
		if sink == 0 {
			b.Fatal("kernel steered nothing")
		}
	}
	b.Run("intact", func(b *testing.B) { run(b, f, nil) })
	b.Run("faulted", func(b *testing.B) {
		fs := sim.NewFaultState(f.Spans)
		err := fs.Sample(sim.FaultPlan{SwitchDeadRate: 0.02, SwitchStuckRate: 0.02, LinkDownRate: 0.01},
			engine.NewFaultRand(7, 0))
		if err != nil {
			b.Fatal(err)
		}
		run(b, f, fs)
	})
	b.Run("table", func(b *testing.B) {
		tf, err := sim.NewFabric(doubleArcPerms10())
		if err != nil {
			b.Fatal(err)
		}
		if tf.BitSliceable() {
			b.Fatal("double-arc wiring compiled relabeled")
		}
		run(b, tf, nil)
	})
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
// verdict-only characterization, then either the relabeled form of an
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
		relabeled := randnet.RelabelLinks(rand.New(rand.NewPCG(uint64(n), 1)), topology.MustBuild(topology.NameOmega, n).LinkPerms)
		b.Run(fmt.Sprintf("relabeled/n=%d", n), func(b *testing.B) { run(b, relabeled, true) })
	}
	tail, err := randnet.TailCycleLinkPerms(10)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tail-cycle/n=10", func(b *testing.B) { run(b, tail, true) })
}

// BenchmarkFaultedWaveLoop pins the degraded hot path: the steady-state
// wave loop with a per-wave fault resample (exactly what the engine
// does per trial, minus the per-trial rng derivation). Must stay
// 0 allocs/op; CI gates on it.
func BenchmarkFaultedWaveLoop(b *testing.B) {
	f, err := sim.NewFabric(topology.MustBuild(topology.NameOmega, 10).LinkPerms)
	if err != nil {
		b.Fatal(err)
	}
	runner := f.NewWaveRunner()
	fs := sim.NewFaultState(f.Spans)
	if err := runner.SetFaults(fs); err != nil {
		b.Fatal(err)
	}
	plan := sim.FaultPlan{SwitchDeadRate: 0.02, LinkDownRate: 0.01}
	trafficRng := engine.NewRand(1, 0)
	faultRng := engine.NewFaultRand(1, 0)
	pattern := sim.Uniform()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.Sample(plan, faultRng); err != nil {
			b.Fatal(err)
		}
		if _, err := runner.RunTraffic(pattern, trafficRng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultResample pins the fault draw on its own: one
// FaultState.Resample of a dead-switch plus severed-link plan per
// iteration, from one running stream, on Omega at 8 and 10 stages. Its
// cost is one draw per hit plus one per empty 64-element block, so it
// scales with the fault count, not the fabric. Must stay 0 allocs/op;
// CI gates on it.
func BenchmarkFaultResample(b *testing.B) {
	plan := sim.FaultPlan{SwitchDeadRate: 0.01, LinkDownRate: 0.01}
	for _, n := range []int{8, 10} {
		b.Run(fmt.Sprintf("dead+link/n=%d", n), func(b *testing.B) {
			fs := sim.NewFaultState(n)
			rng := engine.NewFaultRand(1, 0)
			fs.Resample(plan, rng) // sizes the index once, as the engine's first trial does
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fs.Resample(plan, rng)
			}
		})
	}
}

// BenchmarkBitWaveLoop pins the bit-sliced executor's throughput claim:
// one iteration steers a full 64-wave batch exactly as the engine does —
// per-batch PCG reseeding from the trial-indexed engine streams, reused
// BitWaveRunner — and must report 0 allocs/op. The ns/wave metric is
// the number to compare against BenchmarkEngineWaveLoop's ns/op (one
// scalar wave); the acceptance bar is >= 8x. CI gates on the allocs.
func BenchmarkBitWaveLoop(b *testing.B) {
	f, err := sim.NewFabric(topology.MustBuild(topology.NameOmega, 10).LinkPerms)
	if err != nil {
		b.Fatal(err)
	}
	runner, err := f.NewBitWaveRunner()
	if err != nil {
		b.Fatal(err)
	}
	var pcg [64]rand.PCG
	rngs := make([]*rand.Rand, 64)
	for j := range rngs {
		rngs[j] = rand.New(&pcg[j])
	}
	pattern := sim.Uniform()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := uint64(i) * 64
		for j := range pcg {
			pcg[j].Seed(engine.SeedPair(1, t0+uint64(j)))
		}
		if _, err := runner.RunTraffic(pattern, rngs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/64, "ns/wave")
}

// BenchmarkBitFabricKernel pins the word-parallel plane algebra itself,
// mirroring BenchmarkFabricKernel: one full-load 64-lane pass over every
// stage with synthetic salts, on the intact fabric and with a sampled
// fault state folded into the per-stage lane masks. Both paths must be
// 0 allocs/op; CI gates on it.
func BenchmarkBitFabricKernel(b *testing.B) {
	f, err := sim.NewFabric(topology.MustBuild(topology.NameOmega, 10).LinkPerms)
	if err != nil {
		b.Fatal(err)
	}
	runner, err := f.NewBitWaveRunner()
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		sink := uint64(0)
		for i := 0; i < b.N; i++ {
			sink += runner.BitSteerSweep(i)
		}
		if sink == 0 {
			b.Fatal("kernel steered nothing")
		}
	}
	b.Run("intact", run)
	b.Run("faulted", func(b *testing.B) {
		fs := sim.NewFaultState(f.Spans)
		err := fs.Sample(sim.FaultPlan{SwitchDeadRate: 0.02, SwitchStuckRate: 0.02, LinkDownRate: 0.01},
			engine.NewFaultRand(7, 0))
		if err != nil {
			b.Fatal(err)
		}
		if err := runner.SetLaneFaults(^uint64(0), fs); err != nil {
			b.Fatal(err)
		}
		run(b)
	})
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
	f, err := sim.NewFabric(topology.MustBuild(topology.NameOmega, 8).LinkPerms)
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkSimBuffered (T7): buffered queueing simulation.
func BenchmarkSimBuffered(b *testing.B) {
	f, err := sim.NewFabric(topology.MustBuild(topology.NameBaseline, 6).LinkPerms)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.RunBuffered(sim.BufferedConfig{Pattern: sim.Bernoulli(0.6), Queue: 4, Cycles: 200, Warmup: 20}, rng); err != nil {
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

// BenchmarkCodecEncode gates the binary wire codec's encode hot loop:
// steady-state re-encoding of a fault-heavy simulate request must not
// allocate (CI fails the build on a nonzero allocs/op).
func BenchmarkCodecEncode(b *testing.B) {
	v := codecFixtureRequest()
	var e codec.Encoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.SimulateRequest(v)
	}
}

// BenchmarkCodecDecode gates the decode hot loop: decoding the same
// frame into a reused target must reach zero allocs/op once the
// target's slices and intern table are warm.
func BenchmarkCodecDecode(b *testing.B) {
	wire, err := codec.Encode(codecFixtureRequest())
	if err != nil {
		b.Fatal(err)
	}
	var d codec.Decoder
	dst := new(codec.SimulateRequest)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Reset(wire)
		if err := d.SimulateRequest(dst); err != nil {
			b.Fatal(err)
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
			perms := randnet.RelabelLinks(rand.New(rand.NewPCG(uint64(n), 7)), topology.MustBuild("omega", n).LinkPerms)
			req := &codec.CheckRequest{NetworkSpec: codec.NetworkSpec{Network: "cold", Stages: n, LinkPerms: make([][]int, len(perms))}}
			for s, p := range perms {
				for _, y := range p {
					req.LinkPerms[s] = append(req.LinkPerms[s], int(y))
				}
			}
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
