// Command mcviz renders the data-access DAG of a trace directory as
// Graphviz DOT — the visualization of the paper's Figure 4: vertices are
// runtime events grouped per rank, intra-rank program order and matched
// synchronization form the edges, and concurrent regions appear as
// horizontal bands.
//
// Usage:
//
//	mcviz -trace DIR [-max-events N] > dag.dot
//	dot -Tsvg dag.dot > dag.svg
//
//	mcviz -check-trace timeline.json
//	    Validate a Chrome trace JSON timeline written by `mcchecker run`,
//	    `explore` or `analyze` with -trace timeline.json and print a
//	    summary (event, track, and lane counts). Exits nonzero on
//	    malformed input.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/dag"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/obs/tracing"
	"repro/internal/trace"
)

func main() {
	traceDir := flag.String("trace", "", "trace directory")
	maxEvents := flag.Int("max-events", 400, "refuse to render more events than this")
	checkTrace := flag.String("check-trace", "", "validate a Chrome trace JSON timeline file and print a summary")
	flag.Parse()
	if *checkTrace != "" {
		if err := checkTimeline(*checkTrace); err != nil {
			fmt.Fprintln(os.Stderr, "mcviz:", err)
			os.Exit(1)
		}
		return
	}
	if *traceDir == "" {
		fmt.Fprintln(os.Stderr, "usage: mcviz -trace DIR [-max-events N] > dag.dot\n       mcviz -check-trace timeline.json")
		os.Exit(2)
	}
	if err := run(*traceDir, *maxEvents); err != nil {
		fmt.Fprintln(os.Stderr, "mcviz:", err)
		os.Exit(1)
	}
}

// checkTimeline validates a recorded timeline and prints its shape.
func checkTimeline(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sum, err := tracing.ValidateChromeTrace(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: valid Chrome trace JSON: %d event(s), %d track(s), %d lane(s), %d metadata record(s)\n",
		path, sum.Events, sum.Tracks, sum.Lanes, sum.Metadata)
	return nil
}

func run(dir string, maxEvents int) error {
	set, err := trace.ReadDir(dir)
	if err != nil {
		return err
	}
	if set.TotalEvents() > maxEvents {
		return fmt.Errorf("trace has %d events; raise -max-events to render anyway", set.TotalEvents())
	}
	m, err := model.Build(set)
	if err != nil {
		return err
	}
	ms, err := match.Run(m)
	if err != nil {
		return err
	}
	d, err := dag.Build(m, ms)
	if err != nil {
		return err
	}
	return writeDOT(os.Stdout, set, ms, d)
}

func nodeID(id trace.ID) string { return fmt.Sprintf("r%d_%d", id.Rank, id.Seq) }

func esc(s string) string { return strings.ReplaceAll(s, `"`, `\"`) }

func writeDOT(w *os.File, set *trace.Set, ms *match.Matches, d *dag.DAG) error {
	fmt.Fprintln(w, "digraph mcchecker {")
	fmt.Fprintln(w, `  rankdir=TB; node [shape=box, fontsize=9, fontname="monospace"];`)

	// One column (cluster) per rank, program order as invisible backbone.
	for _, t := range set.Traces {
		fmt.Fprintf(w, "  subgraph cluster_rank%d {\n    label=\"P%d\";\n", t.Rank, t.Rank)
		for i := range t.Events {
			ev := &t.Events[i]
			label := fmt.Sprintf("%s\\n%s", ev.Kind, esc(ev.Loc()))
			style := ""
			if ev.Kind.IsRMAComm() {
				style = `, style=filled, fillcolor="#ffe0b0"`
			} else if ev.Kind.IsLocalAccess() {
				style = `, style=filled, fillcolor="#d0e8ff"`
			} else if ev.Kind.IsSync() {
				style = `, style=filled, fillcolor="#e0ffe0"`
			}
			fmt.Fprintf(w, "    %s [label=\"%s\"%s];\n", nodeID(ev.ID()), label, style)
		}
		for i := 1; i < len(t.Events); i++ {
			fmt.Fprintf(w, "    %s -> %s [weight=10, color=gray];\n",
				nodeID(t.Events[i-1].ID()), nodeID(t.Events[i].ID()))
		}
		fmt.Fprintln(w, "  }")
	}

	// Cross-process edges.
	edge := func(a, b trace.ID, color, label string) {
		fmt.Fprintf(w, "  %s -> %s [color=%s, constraint=false, label=\"%s\", fontsize=8];\n",
			nodeID(a), nodeID(b), color, label)
	}
	for _, p := range ms.P2P {
		edge(p.From, p.To, "blue", "msg")
	}
	for _, p := range ms.PostStart {
		edge(p.From, p.To, "purple", "post")
	}
	for _, p := range ms.CompleteWait {
		edge(p.From, p.To, "purple", "complete")
	}
	for i := range ms.Groups {
		g := &ms.Groups[i]
		switch g.Direction {
		case match.DirFromRoot:
			for _, id := range g.Events {
				if id != g.Root {
					edge(g.Root, id, "darkgreen", "root")
				}
			}
		case match.DirToRoot:
			for _, id := range g.Events {
				if id != g.Root {
					edge(id, g.Root, "darkgreen", "root")
				}
			}
		default:
			// Barrier-like: draw a ring through the members.
			for j := range g.Events {
				k := (j + 1) % len(g.Events)
				fmt.Fprintf(w, "  %s -> %s [color=darkgreen, dir=both, constraint=false, style=dashed];\n",
					nodeID(g.Events[j]), nodeID(g.Events[k]))
			}
		}
	}

	// Region annotations.
	fmt.Fprintf(w, "  label=\"%d concurrent regions\"; labelloc=t;\n", len(d.Regions()))
	fmt.Fprintln(w, "}")
	return nil
}
