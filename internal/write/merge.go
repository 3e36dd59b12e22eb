package write

import (
	"fmt"
	"slices"

	"pgiv/internal/cypher"
	"pgiv/internal/expr"
	"pgiv/internal/graph"
	"pgiv/internal/value"
)

// nodeCons is one MERGE pattern node resolved for one binding row: either
// a bound vertex or a label/property constraint over candidate vertices.
type nodeCons struct {
	bound   bool
	boundID int64
	labels  []string
	props   map[string]value.Value
}

// relCons is one MERGE relationship constraint.
type relCons struct {
	typ   string
	dir   cypher.Direction
	props map[string]value.Value
}

// patMatch is one complete deterministic match of a MERGE pattern.
type patMatch struct {
	nodes []int64
	edges []int64
}

// applyMerge implements MERGE pattern [ON CREATE SET ...] [ON MATCH SET
// ...]: per binding row the fixed-length pattern is matched against the
// live graph (so a MERGE observes the creations of earlier rows — the
// openCypher behaviour that makes UNWIND + MERGE idempotent); every match
// becomes an output row and runs ON MATCH SET, and a matchless row
// creates the pattern's unbound elements and runs ON CREATE SET.
func (x *exec) applyMerge(c *cypher.MergeClause) error {
	sch := x.sch.Clone()
	cp, err := compileCreatePattern(c.Pattern, &sch, x.params, true)
	if err != nil {
		return err
	}
	onCreate, err := x.compileSetItems(c.OnCreate, sch)
	if err != nil {
		return err
	}
	onMatch, err := x.compileSetItems(c.OnMatch, sch)
	if err != nil {
		return err
	}
	env := &expr.Env{G: x.g}
	out := make([]value.Row, 0, len(x.rows))
	for _, row := range x.rows {
		nr := make(value.Row, len(sch))
		copy(nr, row)
		env.Row = nr
		nodes, rels, err := x.mergeConstraints(c.Pattern, cp, nr, env)
		if err != nil {
			return err
		}
		matches := x.matchPattern(nodes, rels)
		if len(matches) == 0 {
			if _, err := x.createPattern(cp, nr, env); err != nil {
				return err
			}
			for _, ci := range onCreate {
				if err := x.applySetItem(ci, nr, env); err != nil {
					return err
				}
			}
			out = append(out, nr)
			continue
		}
		for _, m := range matches {
			mr := make(value.Row, len(sch))
			copy(mr, row)
			for i, n := range cp.nodes {
				if n.bindIdx >= 0 {
					mr[n.bindIdx] = value.NewVertex(m.nodes[i])
				}
			}
			for j, r := range cp.rels {
				if r.bindIdx >= 0 {
					mr[r.bindIdx] = value.NewEdge(m.edges[j])
				}
			}
			env.Row = mr
			for _, ci := range onMatch {
				if err := x.applySetItem(ci, mr, env); err != nil {
					return err
				}
			}
			out = append(out, mr)
		}
	}
	x.sch, x.rows = sch, out
	return nil
}

// mergeConstraints resolves the pattern's node and relationship
// constraints for one binding row. Null constraint values are an error,
// as is a bound endpoint that is not a live vertex.
func (x *exec) mergeConstraints(pat *cypher.PathPattern, cp *cPattern, row value.Row, env *expr.Env) ([]nodeCons, []relCons, error) {
	nodes := make([]nodeCons, len(cp.nodes))
	for i, n := range cp.nodes {
		if n.useIdx >= 0 {
			v := row[n.useIdx]
			if v.Kind() != value.KindVertex {
				return nil, nil, fmt.Errorf("write: MERGE endpoint is %s, not a vertex (self-referential patterns are not supported)", v)
			}
			if _, ok := x.g.VertexByID(v.ID()); !ok {
				return nil, nil, fmt.Errorf("write: MERGE endpoint vertex %d no longer exists", v.ID())
			}
			nodes[i] = nodeCons{bound: true, boundID: v.ID()}
			continue
		}
		props, err := evalPropsStrict(env, n.props)
		if err != nil {
			return nil, nil, err
		}
		nodes[i] = nodeCons{labels: n.labels, props: props}
	}
	rels := make([]relCons, len(cp.rels))
	for j, r := range cp.rels {
		props, err := evalPropsStrict(env, r.props)
		if err != nil {
			return nil, nil, err
		}
		rels[j] = relCons{typ: r.typ, dir: pat.Rels[j].Dir, props: props}
	}
	return nodes, rels, nil
}

func evalPropsStrict(env *expr.Env, ps []propSet) (map[string]value.Value, error) {
	if len(ps) == 0 {
		return nil, nil
	}
	m := make(map[string]value.Value, len(ps))
	for _, p := range ps {
		v := p.fn(env)
		if v.IsNull() {
			return nil, fmt.Errorf("write: cannot MERGE using null property value for %q", p.key)
		}
		m[p.key] = v
	}
	return m, nil
}

func nodeSatisfies(v *graph.Vertex, c nodeCons) bool {
	for _, l := range c.labels {
		if !v.HasLabel(l) {
			return false
		}
	}
	for k, want := range c.props {
		if !value.Equal(v.Prop(k), want) {
			return false
		}
	}
	return true
}

func edgeSatisfies(e *graph.Edge, c relCons) bool {
	for k, want := range c.props {
		if !value.Equal(e.Prop(k), want) {
			return false
		}
	}
	return true
}

// matchPattern enumerates every match of the constraint chain in
// deterministic order (vertices and edges in ascending ID order), with
// openCypher relationship uniqueness (an edge binds at most one pattern
// relationship).
func (x *exec) matchPattern(nodes []nodeCons, rels []relCons) []patMatch {
	ids := make([]int64, len(nodes))
	eids := make([]int64, len(rels))
	used := make(map[int64]bool)
	var out []patMatch

	var step func(pos int)
	emit := func() {
		m := patMatch{nodes: append([]int64(nil), ids...)}
		if len(eids) > 0 {
			m.edges = append([]int64(nil), eids...)
		}
		out = append(out, m)
	}
	// tryEdge extends the match over rels[pos] with edge e toward the
	// vertex other, then recurses.
	tryEdge := func(pos int, e *graph.Edge, other int64) {
		if used[e.ID] || !edgeSatisfies(e, rels[pos]) {
			return
		}
		next := nodes[pos+1]
		if next.bound {
			if other != next.boundID {
				return
			}
		} else {
			v, ok := x.g.VertexByID(other)
			if !ok || !nodeSatisfies(v, next) {
				return
			}
		}
		eids[pos] = e.ID
		ids[pos+1] = other
		used[e.ID] = true
		step(pos + 1)
		used[e.ID] = false
	}
	step = func(pos int) {
		if pos == len(rels) {
			emit()
			return
		}
		from := ids[pos]
		rc := rels[pos]
		if rc.dir == cypher.DirOut || rc.dir == cypher.DirBoth {
			x.g.ForEachOutEdge(from, rc.typ, func(e *graph.Edge) bool {
				tryEdge(pos, e, e.Trg)
				return true
			})
		}
		if rc.dir == cypher.DirIn || rc.dir == cypher.DirBoth {
			x.g.ForEachInEdge(from, rc.typ, func(e *graph.Edge) bool {
				// A self-loop already appeared among the out-edges.
				if rc.dir == cypher.DirBoth && e.Src == e.Trg {
					return true
				}
				tryEdge(pos, e, e.Src)
				return true
			})
		}
	}

	// Candidates for the first node, in ascending ID order: the bound
	// vertex itself; else, when a later node is bound, only the vertices
	// the chain can reach backwards from it; else the label's extent,
	// streamed with the constraints checked inline so that only matching
	// vertices are kept and sorted.
	var starts []int64
	switch anchor := firstBound(nodes); {
	case anchor == 0:
		starts = []int64{nodes[0].boundID}
	case anchor > 0:
		starts = x.reachBack(nodes, rels, anchor)
	default:
		first := nodes[0]
		primary := ""
		if len(first.labels) > 0 {
			primary = first.labels[0]
		}
		x.g.ForEachVertexByLabel(primary, func(v *graph.Vertex) bool {
			if nodeSatisfies(v, first) {
				starts = append(starts, v.ID)
			}
			return true
		})
	}
	slices.Sort(starts)
	for _, id := range starts {
		ids[0] = id
		step(0)
	}
	return out
}

// firstBound returns the position of the first bound node, or -1.
func firstBound(nodes []nodeCons) int {
	for i, n := range nodes {
		if n.bound {
			return i
		}
	}
	return -1
}

// reachBack walks the constraint chain backwards from the bound node at
// position anchor and returns the vertices that can stand at position 0.
// It ignores relationship uniqueness, so it may return a vertex that
// starts no match; the forward enumeration decides, and finds every
// match because every match's first vertex is reachable this way.
func (x *exec) reachBack(nodes []nodeCons, rels []relCons, anchor int) []int64 {
	frontier := []int64{nodes[anchor].boundID}
	for pos := anchor - 1; pos >= 0; pos-- {
		rc, nc := rels[pos], nodes[pos]
		seen := make(map[int64]bool)
		var prev []int64
		try := func(e *graph.Edge, other int64) bool {
			if seen[other] || !edgeSatisfies(e, rc) {
				return true
			}
			if v, ok := x.g.VertexByID(other); ok && nodeSatisfies(v, nc) {
				seen[other] = true
				prev = append(prev, other)
			}
			return true
		}
		for _, id := range frontier {
			// rels[pos] leads from nodes[pos] to nodes[pos+1]: an outgoing
			// relationship arrives at id as an in-edge.
			if rc.dir == cypher.DirOut || rc.dir == cypher.DirBoth {
				x.g.ForEachInEdge(id, rc.typ, func(e *graph.Edge) bool { return try(e, e.Src) })
			}
			if rc.dir == cypher.DirIn || rc.dir == cypher.DirBoth {
				x.g.ForEachOutEdge(id, rc.typ, func(e *graph.Edge) bool { return try(e, e.Trg) })
			}
		}
		frontier = prev
	}
	return frontier
}
