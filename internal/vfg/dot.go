package vfg

import (
	"fmt"
	"io"
)

// WriteDot renders the graph in Graphviz DOT form: objects as boxes,
// variable definitions as ellipses, interference edges dashed (matching
// the paper's Fig. 2(b) notation), with guards as edge labels.
func (g *Graph) WriteDot(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph vfg {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=LR;")
	for i := range g.nodes {
		n := &g.nodes[i]
		shape := "ellipse"
		if n.Kind == NodeObj {
			shape = "box"
		}
		id := NodeID(i + 1)
		fmt.Fprintf(w, "  n%d [label=%q shape=%s];\n", id, g.NodeString(id), shape)
	}
	for i := range g.edges {
		e := &g.edges[i]
		style := "solid"
		color := "black"
		switch e.Kind {
		case EdgeInterference:
			style, color = "dashed", "red"
		case EdgeDD:
			color = "blue"
		case EdgeObj:
			color = "gray"
		}
		label := g.Prog.Pool.String(e.Guard)
		if len(label) > 40 {
			label = label[:37] + "..."
		}
		fmt.Fprintf(w, "  n%d -> n%d [label=%q style=%s color=%s];\n",
			e.From, e.To, label, style, color)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
