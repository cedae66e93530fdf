package graph

import (
	"fmt"
	"io"
)

// DOTOptions controls snapshot rendering.
type DOTOptions struct {
	// Highlight colors specific vertices (e.g. deadlocked ones).
	Highlight map[VertexID]string
}

// WriteDOT renders a graph snapshot as Graphviz DOT, omitting free-list
// vertices. Solid arcs are args edges (bold for vital, dashed-weight for
// eager); dotted arcs are requested(v) entries, drawn from the requester as
// in the paper's figures.
func WriteDOT(w io.Writer, snap *Snapshot, root VertexID, opts DOTOptions) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("digraph computation {\n  rankdir=TB;\n  node [shape=circle fontsize=10];\n")

	var live []*SnapVertex
	for i := 1; i <= snap.Len(); i++ {
		if sv := snap.Vertex(VertexID(i)); sv != nil && sv.Kind != KindFree {
			live = append(live, sv)
		}
	}
	for _, sv := range live {
		attrs := fmt.Sprintf("label=%q", dotLabel(sv))
		if sv.ID == root {
			attrs += " penwidth=2 shape=doublecircle"
		}
		if color, ok := opts.Highlight[sv.ID]; ok {
			attrs += fmt.Sprintf(" style=filled fillcolor=%q", color)
		}
		p("  v%d [%s];\n", sv.ID, attrs)
	}
	for _, sv := range live {
		for j, c := range sv.Args {
			style := ""
			switch sv.ReqKinds[j] {
			case ReqVital:
				style = ` [label="*v" penwidth=2]`
			case ReqEager:
				style = ` [label="*e"]`
			}
			p("  v%d -> v%d%s;\n", sv.ID, c, style)
		}
		for _, r := range sv.Requested {
			p("  v%d -> v%d [style=dotted constraint=false];\n", r.Src, sv.ID)
		}
	}
	p("}\n")
	return err
}

func dotLabel(sv *SnapVertex) string {
	switch sv.Kind {
	case KindInt:
		return fmt.Sprintf("%d", sv.Val)
	case KindBool:
		if sv.Val != 0 {
			return "true"
		}
		return "false"
	case KindComb:
		return Comb(sv.Val).String()
	case KindSuper:
		return fmt.Sprintf("$%d", sv.Val)
	case KindPrim, KindPrimApp:
		return Prim(sv.Val).String()
	case KindApply:
		return "@"
	case KindInd:
		return "→"
	case KindCons:
		return ":"
	case KindNil:
		return "[]"
	default:
		return sv.Kind.String()
	}
}
