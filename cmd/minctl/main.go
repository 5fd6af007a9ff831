// Command minctl inspects multistage interconnection networks through
// the public min API: build the classical networks, check the paper's
// characterization, construct isomorphisms, draw figures, route
// packets. Traffic simulation lives in cmd/minsim.
//
// Usage:
//
//	minctl list
//	minctl draw     -net omega -n 4 [-tuples]
//	minctl check    -net flip -n 5
//	minctl equiv    -net omega -net2 baseline -n 5
//	minctl iso      -net indirect-binary-cube -n 4
//	minctl route    -net omega -n 4 -src 3 -dst 12
//	minctl windows  -net baseline -n 5
//	minctl counter  -n 5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"minequiv/min"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "minctl:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (list, draw, check, equiv, iso, route, windows, counter)")
	}
	sub := args[0]
	fs := flag.NewFlagSet(sub, flag.ContinueOnError)
	netName := fs.String("net", min.Baseline, "network name")
	netName2 := fs.String("net2", min.Omega, "second network name (equiv)")
	n := fs.Int("n", 4, "number of stages")
	tuples := fs.Bool("tuples", false, "print labels as binary tuples")
	src := fs.Int("src", 0, "source terminal (route)")
	dst := fs.Int("dst", 0, "destination terminal (route)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}

	switch sub {
	case "list":
		for _, info := range min.Catalog() {
			fmt.Fprintf(w, "%-28s %s\n", info.Name, info.Description)
		}
		return nil

	case "draw":
		nw, err := min.Build(*netName, *n)
		if err != nil {
			return err
		}
		fmt.Fprint(w, nw.Draw(min.DrawOptions{
			Title: fmt.Sprintf("%s, n=%d", nw.Name(), *n), Tuples: *tuples, OneBased: true}))
		return nil

	case "check":
		nw, err := min.Build(*netName, *n)
		if err != nil {
			return err
		}
		fmt.Fprint(w, min.Check(nw).String())
		return nil

	case "windows":
		nw, err := min.Build(*netName, *n)
		if err != nil {
			return err
		}
		printWindows(w, min.CheckAllWindows(nw))
		return nil

	case "equiv":
		a, err := min.Build(*netName, *n)
		if err != nil {
			return err
		}
		b, err := min.Build(*netName2, *n)
		if err != nil {
			return err
		}
		iso, err := min.IsoBetween(a, b)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s and %s (n=%d) are topologically equivalent.\n", a.Name(), b.Name(), *n)
		fmt.Fprintf(w, "stage-0 node mapping: %v\n", iso.Maps[0])
		return nil

	case "iso":
		nw, err := min.Build(*netName, *n)
		if err != nil {
			return err
		}
		iso, err := min.Iso(nw)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "isomorphism %s -> baseline (n=%d):\n", nw.Name(), *n)
		for s, m := range iso.Maps {
			fmt.Fprintf(w, "stage %d: %v\n", s+1, m)
		}
		return nil

	case "route":
		nw, err := min.Build(*netName, *n)
		if err != nil {
			return err
		}
		p, err := min.Route(nw, *src, *dst)
		if err != nil {
			return err
		}
		tags, err := min.TagPositions(nw)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: route %d -> %d (tag bits %v)\n", nw.Name(), *src, *dst, tags)
		for _, h := range p.Hops {
			fmt.Fprintf(w, "  stage %d: cell %d, in port %d, out port %d\n",
				h.Stage+1, h.Cell, h.InPort, h.OutPort)
		}
		return nil

	case "counter":
		nw, err := min.TailCycle(*n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "tail-cycle counterexample, n=%d:\n", *n)
		fmt.Fprint(w, min.Check(nw).String())
		printWindows(w, min.CheckAllWindows(nw))
		return nil

	default:
		return fmt.Errorf("unknown subcommand %q", sub)
	}
}

// printWindows renders a P(i,j) window table, one window per line.
func printWindows(w io.Writer, rs []min.WindowCheck) {
	for _, r := range rs {
		fmt.Fprintf(w, "  %s\n", r)
	}
}
