// Package minequiv is a full reproduction of Bermond & Fourneau,
// "Independent Connections: An Easy Characterization of Baseline-
// Equivalent Multistage Interconnection Networks" (ICPP 1988; TCS 64,
// 1989).
//
// The library models multistage interconnection networks as MI-digraphs,
// decides baseline-equivalence via the paper's characterization (Banyan +
// P(1,*) + P(*,n)), constructs explicit isomorphisms onto the Baseline
// network, implements independent connections and PIPID permutations
// with their §4 relationship, and adds routing and packet-simulation
// layers that give the equivalence theorem its systems-level meaning.
//
// # Public API
//
// The package min is the supported surface: build networks (catalog,
// explicit permutations, or the fluent Builder), check the
// characterization (min.Check, min.Iso, min.Equivalent), route packets
// (min.Route, min.TagPositions) and run the parallel simulation engine
// (min.Simulate, min.SimulateBuffered with functional options and
// context cancellation). The package minserve serves that API over
// HTTP — JSON by default, with a negotiated binary wire codec
// (Content-Type/Accept: application/x-min-bin) for the hot request
// and response shapes — and cmd/minserve is its binary. Everything under
// internal/ is plumbing with no stability promise; all CLIs (except
// the module-internal cmd/minbench) and all examples consume only the
// public API.
//
// Layout:
//
//	min                  the public façade API (start here)
//	minserve             HTTP service over min (library; JSON + binary codec)
//	internal/bitops      label bit manipulation
//	internal/codec       wire shapes and their binary frame rendering
//	internal/gf2         GF(2) linear algebra and affine maps
//	internal/perm        permutations on symbols (link level)
//	internal/pipid       index-digit permutations (PIPID)
//	internal/midigraph   the MI-digraph model, windows, P(i,j), Banyan
//	internal/conn        connections (f,g), independence, Proposition 1
//	internal/topology    the six classical networks and generic builders
//	internal/equiv       characterization check, isomorphism construction
//	internal/route       reachability routing, tag schedules, admissibility
//	internal/sim         packet simulation (wave and buffered models)
//	internal/engine      parallel trial runner (sharded waves, CI stats)
//	internal/randnet     random networks and counterexample families
//	internal/census      exhaustive census of small MI-digraphs
//	internal/ascii       text rendering of networks and figures
//	internal/experiments the F*/T* experiment harness
//	cmd/minctl           inspection CLI (public API only)
//	cmd/minsim           traffic simulation driver (public API only)
//	cmd/minserve         the HTTP service binary
//	cmd/minload          network load generator for a live minserve
//	cmd/minbench         regenerates every figure/table (module-internal)
//	examples/            runnable tours, including a minserve client
//
// See README.md for a tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record.
package minequiv
