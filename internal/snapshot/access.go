package snapshot

import (
	"slices"
	"sort"

	"pgiv/internal/cypher"
	"pgiv/internal/expr"
	"pgiv/internal/graph"
	"pgiv/internal/nra"
	"pgiv/internal/schema"
	"pgiv/internal/value"
)

// Access paths. The logical plan is walked unchanged; what changes is how
// much of each leaf's extent is touched. While descending, the evaluator
// carries an access: what the selections above a subtree already demand
// of its rows. A subtree may then return any bag that agrees with its
// unrestricted result on the rows meeting those demands — rows that do
// not meet them are dropped above anyway, because every selection still
// applies its full predicate to whatever comes back. The leaves use that
// freedom: an id restriction becomes a VertexByID / EdgeByID seek or an
// adjacency expansion from the bound endpoint, and on a scan the
// conjuncts that only mention the leaf's own variables run against a
// scratch row before a result row is allocated.

// idSeek is the restriction v ↦ ID drawn from a conjunct id(v) = K: above
// this subtree only rows whose attribute v is the element with this ID
// survive.
type idSeek struct {
	attr string
	id   int64
}

// access is the demand handed down to a subtree. The zero value demands
// nothing and is what every operator that reshapes rows (projection,
// aggregation, top, dedup) hands to its input.
type access struct {
	ids []idSeek
	// conds are conjuncts of enclosing selections: a row on which one is
	// not true is dropped above. Unlike ids they are not null-rejecting
	// in general, so they stop at the null-padding side of an outer join.
	conds []cypher.Expr
}

// within keeps the restrictions on attributes the schema binds. Conjuncts
// carry on: the leaves match them by variable.
func (a access) within(s schema.Schema) access {
	if len(a.ids) == 0 {
		return a
	}
	out := access{conds: a.conds}
	for _, r := range a.ids {
		if s.Has(r.attr) {
			out.ids = append(out.ids, r)
		}
	}
	return out
}

// and adds further id restrictions.
func (a access) and(ids []idSeek) access {
	if len(ids) == 0 {
		return a
	}
	return access{ids: append(a.ids[:len(a.ids):len(a.ids)], ids...), conds: a.conds}
}

// idsOnly drops the conjuncts: the demand for a side whose rows may come
// back null-padded, or whose columns the enclosing selections never see.
func (a access) idsOnly() access { return access{ids: a.ids} }

// seek returns the ID attr is restricted to. none is set when two
// restrictions on attr disagree: no row can meet both.
func (a access) seek(attr string) (id int64, ok, none bool) {
	for _, r := range a.ids {
		if r.attr != attr {
			continue
		}
		if ok && r.id != id {
			return 0, true, true
		}
		id, ok = r.id, true
	}
	return id, ok, false
}

// under extends the demand with a selection's condition: an id(v) = K
// conjunct whose K does not depend on the row and evaluates to an Int
// becomes a restriction, every other conjunct a candidate leaf filter.
func (ev *evaluator) under(a access, cond cypher.Expr) access {
	conj := cypher.Conjuncts(cond)
	out := access{
		ids:   a.ids[:len(a.ids):len(a.ids)],
		conds: a.conds[:len(a.conds):len(a.conds)],
	}
	for _, c := range conj {
		if r, ok := ev.idRestriction(c); ok {
			out.ids = append(out.ids, r)
		} else {
			out.conds = append(out.conds, c)
		}
	}
	return out
}

// guaranteed returns the id restrictions every row of op's result meets
// because op's own selections impose them. A join hands them to its
// other side: rows there that differ on a shared restricted attribute
// match nothing, so `MATCH (a) WHERE id(a) = $a OPTIONAL MATCH (a)-->(b)`
// and `… AND NOT (a)-->()` expand from a instead of scanning.
func (ev *evaluator) guaranteed(op nra.Op) []idSeek {
	switch o := op.(type) {
	case *nra.Select:
		return append(ev.under(access{}, o.Cond).ids, ev.guaranteed(o.Input)...)
	case *nra.AllDifferent:
		return ev.guaranteed(o.Input)
	}
	return nil
}

// idRestriction recognises id(v) = e and e = id(v). Compiling e against
// the empty schema is the row-independence test: a variable or a property
// of one fails to resolve. A missing parameter fails the same way and a
// Float, String or NULL constant is not an Int, so each of those simply
// yields no restriction and the selection decides as it always did.
func (ev *evaluator) idRestriction(c cypher.Expr) (idSeek, bool) {
	b, ok := c.(*cypher.Binary)
	if !ok || b.Op != cypher.OpEq {
		return idSeek{}, false
	}
	for _, side := range [2][2]cypher.Expr{{b.L, b.R}, {b.R, b.L}} {
		fc, ok := side[0].(*cypher.FuncCall)
		if !ok || fc.Name != "id" || len(fc.Args) != 1 {
			continue
		}
		v, ok := fc.Args[0].(*cypher.Variable)
		if !ok {
			continue
		}
		fn, err := expr.Compile(side[1], nil, ev.params)
		if err != nil {
			continue
		}
		if k := fn(&expr.Env{}); k.Kind() == value.KindInt {
			return idSeek{attr: v.Name, id: k.Int()}, true
		}
	}
	return idSeek{}, false
}

// leafFilter compiles the conjuncts that mention only the leaf's own
// variables against the leaf's schema. It returns nil when none applies.
// A conjunct that does not compile here is skipped, not reported: the
// selection it came from compiles it again and owns the error.
func (ev *evaluator) leafFilter(conds []cypher.Expr, s schema.Schema, vars ...string) func(value.Row) bool {
	var fns []expr.Fn
	for _, c := range conds {
		local := true
		cypher.WalkExpr(c, func(x cypher.Expr) {
			if v, ok := x.(*cypher.Variable); ok && !slices.Contains(vars, v.Name) {
				local = false
			}
		})
		if !local {
			continue
		}
		if fn, err := ev.compile(c, s); err == nil {
			fns = append(fns, fn)
		}
	}
	if len(fns) == 0 {
		return nil
	}
	env := &expr.Env{G: ev.g}
	return func(row value.Row) bool {
		env.Row = row
		for _, fn := range fns {
			if ok, known := expr.Truth(fn(env)); !known || !ok {
				return false
			}
		}
		return true
	}
}

// restrictRows filters an injected leaf's rows (EvalWithRows) by the id
// restrictions on its schema. The memo's rows are shared, so survivors
// go to a fresh slice.
func restrictRows(rows []value.Row, s schema.Schema, a access) []value.Row {
	a = a.within(s)
	if len(a.ids) == 0 {
		return rows
	}
	cols := make([]int, len(a.ids))
	for i, r := range a.ids {
		cols[i] = s.Index(r.attr)
	}
	var out []value.Row
	for _, row := range rows {
		keep := true
		for i, r := range a.ids {
			v := row[cols[i]]
			if k := v.Kind(); (k != value.KindVertex && k != value.KindEdge) || v.ID() != r.id {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, row)
		}
	}
	return out
}

// sortByID restores ascending element-ID order on column col. A reader
// that streams in ID order (the MVCC snapshot) pays one linear check; the
// map-backed live graph pays a sort of the survivors only. The sort is
// stable so the two orientations of one undirected edge stay in emission
// order.
func sortByID(rows []value.Row, col int) {
	less := func(i, j int) bool { return rows[i][col].ID() < rows[j][col].ID() }
	if !sort.SliceIsSorted(rows, less) {
		sort.SliceStable(rows, less)
	}
}

func vertexMatches(v *graph.Vertex, labels []string) bool {
	for _, l := range labels {
		if !v.HasLabel(l) {
			return false
		}
	}
	return true
}

func vertexRow(o *nra.GetVertices, v *graph.Vertex, row value.Row) value.Row {
	row = append(row, value.NewVertex(v.ID))
	for _, p := range o.Props {
		row = append(row, v.Prop(p.Key))
	}
	return row
}

// scanVertices answers GetVertices(v): a VertexByID seek when v is
// restricted, else one streamed pass over the label's extent that
// allocates a row per survivor.
func (ev *evaluator) scanVertices(o *nra.GetVertices, a access) []value.Row {
	width := 1 + len(o.Props)
	if id, ok, none := a.seek(o.Var); ok {
		if none {
			return nil
		}
		v, found := ev.g.VertexByID(id)
		if !found || !vertexMatches(v, o.Labels) {
			return nil
		}
		return []value.Row{vertexRow(o, v, make(value.Row, 0, width))}
	}
	primary := ""
	if len(o.Labels) > 0 {
		primary = o.Labels[0]
	}
	filter := ev.leafFilter(a.conds, o.Schema(), o.Var)
	scratch := make(value.Row, 0, width)
	var rows []value.Row
	ev.g.ForEachVertexByLabel(primary, func(v *graph.Vertex) bool {
		if !vertexMatches(v, o.Labels) {
			return true
		}
		scratch = vertexRow(o, v, scratch[:0])
		if filter == nil || filter(scratch) {
			rows = append(rows, append(make(value.Row, 0, width), scratch...))
		}
		return true
	})
	sortByID(rows, 0)
	return rows
}

// edgeRow appends a GetEdges output row for one orientation (a → b).
func edgeRow(o *nra.GetEdges, a, b *graph.Vertex, e *graph.Edge, row value.Row) value.Row {
	row = append(row, value.NewVertex(a.ID), value.NewEdge(e.ID), value.NewVertex(b.ID))
	for _, p := range o.AProps {
		row = append(row, a.Prop(p.Key))
	}
	for _, p := range o.EProps {
		row = append(row, e.Prop(p.Key))
	}
	for _, p := range o.BProps {
		row = append(row, b.Prop(p.Key))
	}
	return row
}

// scanEdges answers GetEdges(a, e, b). Per edge type, in the order the
// operator lists them: an EdgeByID seek when e is restricted, else an
// expansion over the adjacency of a restricted endpoint (both directions
// for an undirected pattern), else one streamed pass over the type's
// extent. Rows come out in ascending edge-ID order within a type, the
// forward orientation of an undirected edge before the swapped one.
func (ev *evaluator) scanEdges(o *nra.GetEdges, a access) []value.Row {
	aID, aOK, aNone := a.seek(o.AVar)
	eID, eOK, eNone := a.seek(o.EVar)
	bID, bOK, bNone := a.seek(o.BVar)
	if aNone || eNone || bNone {
		return nil
	}
	width := 3 + len(o.AProps) + len(o.EProps) + len(o.BProps)
	filter := ev.leafFilter(a.conds, o.Schema(), o.AVar, o.EVar, o.BVar)
	scratch := make(value.Row, 0, width)
	var rows []value.Row
	// emit adds the orientation src → dst of e when it meets the labels,
	// the endpoint restrictions and the leaf's own conjuncts.
	emit := func(src, dst *graph.Vertex, e *graph.Edge) {
		if (aOK && src.ID != aID) || (bOK && dst.ID != bID) ||
			!vertexMatches(src, o.ALabels) || !vertexMatches(dst, o.BLabels) {
			return
		}
		scratch = edgeRow(o, src, dst, e, scratch[:0])
		if filter == nil || filter(scratch) {
			rows = append(rows, append(make(value.Row, 0, width), scratch...))
		}
	}
	visit := func(e *graph.Edge) bool {
		src, okS := ev.g.VertexByID(e.Src)
		trg, okT := ev.g.VertexByID(e.Trg)
		if !okS || !okT {
			return true
		}
		emit(src, trg, e)
		if o.Undirected && e.Src != e.Trg {
			emit(trg, src, e)
		}
		return true
	}
	// A self-loop sits in both adjacency lists of its vertex; an expansion
	// that walks both visits it from the out side only.
	visitNonLoop := func(e *graph.Edge) bool { return e.Src == e.Trg || visit(e) }

	types := o.Types
	if len(types) == 0 {
		types = allEdgeTypes
	}
	for _, t := range types {
		start := len(rows)
		switch {
		case eOK:
			if e, found := ev.g.EdgeByID(eID); found && (t == "" || e.Type == t) {
				visit(e)
			}
		case (aOK || bOK) && o.Undirected:
			anchor := aID
			if !aOK {
				anchor = bID
			}
			ev.g.ForEachOutEdge(anchor, t, visit)
			ev.g.ForEachInEdge(anchor, t, visitNonLoop)
		case aOK:
			ev.g.ForEachOutEdge(aID, t, visit)
		case bOK:
			ev.g.ForEachInEdge(bID, t, visit)
		default:
			ev.g.ForEachEdgeByType(t, visit)
		}
		sortByID(rows[start:], 1)
	}
	return rows
}
