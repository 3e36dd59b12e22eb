// Package snapshot implements a non-incremental evaluator for FRA plans:
// every call re-evaluates the query against the current graph from
// scratch.
//
// It serves two roles in the reproduction:
//
//   - it is the baseline an incremental engine is measured against (the
//     paper's motivation: complex queries with low latency requirements
//     cannot afford full recomputation), and
//   - it is the test oracle: the differential test harness checks after
//     every update that the Rete-maintained view equals a fresh snapshot
//     evaluation — for ordered views row for row, in window order.
//
// It supports the full parsed language; the incremental engine accepts
// the maintainable fragment (which since PR 5 includes
// ORDER BY/SKIP/LIMIT with keys over the returned columns — this
// package's Top evaluation defines the ordering contract both engines
// share, see TopCompare).
package snapshot

import (
	"fmt"
	"sort"
	"strings"

	"pgiv/internal/cypher"
	"pgiv/internal/expr"
	"pgiv/internal/fra"
	"pgiv/internal/gra"
	"pgiv/internal/graph"
	"pgiv/internal/nra"
	"pgiv/internal/schema"
	"pgiv/internal/stmt"
	"pgiv/internal/value"
)

// Result is an evaluated query result: a schema and a bag of rows. Row
// order is deterministic only if the query has ORDER BY; Sorted() gives a
// canonical order for comparisons.
type Result struct {
	Schema schema.Schema
	Rows   []value.Row
}

// Sorted returns the rows in canonical (lexicographic) order; it does not
// modify the result.
func (r *Result) Sorted() []value.Row {
	out := make([]value.Row, len(r.Rows))
	copy(out, r.Rows)
	sort.Slice(out, func(i, j int) bool { return value.CompareRows(out[i], out[j]) < 0 })
	return out
}

// Query compiles a query (through the shared statement cache) and
// evaluates it against g.
func Query(g graph.Reader, query string, params map[string]value.Value) (*Result, error) {
	plan, err := stmt.Read(query)
	if err != nil {
		return nil, err
	}
	return Eval(g, plan, params)
}

// Eval evaluates a compiled plan against g.
func Eval(g graph.Reader, plan *fra.Plan, params map[string]value.Value) (*Result, error) {
	ev := &evaluator{g: g, params: params}
	rows, err := ev.eval(plan.Root, access{})
	if err != nil {
		return nil, err
	}
	return &Result{Schema: plan.OutSchema, Rows: rows}, nil
}

// EvalWithRows evaluates an NRA tree in which one designated leaf
// operator (matched by pointer identity) is answered from a precomputed
// row bag instead of being evaluated — the residual-over-memo path of
// the query-rewrite planner. Property lookups in residual expressions
// still go through g, so callers pass an epoch-pinned snapshot matching
// the memo's publish epoch.
func EvalWithRows(g graph.Reader, root nra.Op, out schema.Schema, leaf nra.Op, leafRows []value.Row, params map[string]value.Value) (*Result, error) {
	ev := &evaluator{g: g, params: params, leaf: leaf, leafRows: leafRows}
	rows, err := ev.eval(root, access{})
	if err != nil {
		return nil, err
	}
	return &Result{Schema: out, Rows: rows}, nil
}

type evaluator struct {
	g      graph.Reader
	params map[string]value.Value

	leaf     nra.Op // when non-nil, eval(leaf) short-circuits to leafRows
	leafRows []value.Row
}

func (ev *evaluator) compile(e cypher.Expr, s schema.Schema) (expr.Fn, error) {
	return expr.Compile(e, s, ev.params)
}

// eval evaluates op under the demand a of the operators above it (see
// access.go). Selections extend the demand; the operators that keep
// their input's rows and columns pass it on to the side binding each
// restricted attribute; every other operator evaluates its input
// undemanded.
func (ev *evaluator) eval(op nra.Op, a access) ([]value.Row, error) {
	if ev.leaf != nil && op == ev.leaf {
		return restrictRows(ev.leafRows, op.Schema(), a), nil
	}
	switch o := op.(type) {
	case *nra.Unit:
		return []value.Row{{}}, nil
	case *nra.GetVertices:
		return ev.scanVertices(o, a), nil
	case *nra.GetEdges:
		return ev.scanEdges(o, a), nil
	case *nra.TransitiveJoin:
		return ev.evalTransitiveJoin(o, a)
	case *nra.ShortestPath:
		return ev.evalShortestPath(o, a)
	case *nra.Join:
		return ev.evalJoin(o, a)
	case *nra.LeftOuterJoin:
		return ev.evalLeftOuterJoin(o, a)
	case *nra.SemiJoin:
		return ev.evalSemiJoin(o.L, o.R, false, a)
	case *nra.AntiJoin:
		return ev.evalSemiJoin(o.L, o.R, true, a)
	case *nra.Select:
		return ev.evalSelect(o, a)
	case *nra.Project:
		return ev.evalProject(o)
	case *nra.Dedup:
		return ev.evalDedup(o)
	case *nra.AllDifferent:
		return ev.evalAllDifferent(o, a)
	case *nra.PathBuild:
		return ev.evalPathBuild(o, a)
	case *nra.Aggregate:
		return ev.evalAggregate(o)
	case *nra.Unwind:
		return ev.evalUnwind(o, a)
	case *nra.Top:
		return ev.evalTop(o)
	}
	return nil, fmt.Errorf("snapshot: unsupported operator %T", op)
}

// evalInput evaluates the input of an operator that extends each input
// row with further columns: a demand on the input's own attributes holds
// for the input rows unchanged.
func (ev *evaluator) evalInput(in nra.Op, a access) ([]value.Row, error) {
	if len(a.ids) > 0 {
		a = a.within(in.Schema())
	}
	return ev.eval(in, a)
}

// PathEnum enumerates edge-distinct paths from a source vertex following
// edges of the given types in the given direction, invoking emit for every
// path whose length lies within [min, max] (max == -1 means unbounded) and
// whose final vertex carries all dstLabels. It is shared with the Rete
// transitive-join node (package rete), which must produce identical path
// sets.
func PathEnum(g graph.Reader, src graph.ID, types []string, dir cypher.Direction, min, max int, dstLabels []string, emit func(p *value.Path, dst *graph.Vertex)) {
	srcV, ok := g.VertexByID(src)
	if !ok {
		return
	}
	if min == 0 && vertexMatches(srcV, dstLabels) {
		emit(&value.Path{Vertices: []int64{src}}, srcV)
	}
	used := make(map[graph.ID]bool)
	var dfs func(cur graph.ID, p *value.Path)
	dfs = func(cur graph.ID, p *value.Path) {
		if max != -1 && p.Len() >= max {
			return
		}
		forEachExpansionStep(g, cur, types, dir, func(edge, nextID graph.ID) {
			if used[edge] {
				return
			}
			next, ok := g.VertexByID(nextID)
			if !ok {
				return
			}
			np := p.Extend(edge, nextID)
			if np.Len() >= min && vertexMatches(next, dstLabels) {
				emit(np, next)
			}
			used[edge] = true
			dfs(nextID, np)
			used[edge] = false
		})
	}
	dfs(src, &value.Path{Vertices: []int64{src}})
}

var allEdgeTypes = []string{""}

// forEachExpansionStep invokes fn for every one-hop expansion from cur,
// walking the graph's typed adjacency index without allocating a step
// list. Iteration is re-entrant: fn may recurse.
func forEachExpansionStep(g graph.Reader, cur graph.ID, types []string, dir cypher.Direction, fn func(edge, next graph.ID)) {
	ts := types
	if len(ts) == 0 {
		ts = allEdgeTypes
	}
	for _, t := range ts {
		if dir == cypher.DirOut || dir == cypher.DirBoth {
			// Range over the returned adjacency slice rather than passing
			// a closure through the Reader interface: an interface call
			// defeats escape analysis, so the closure (and fn with it)
			// would be heap-allocated on every expansion step of every
			// path. The slice is an immutable snapshot either way.
			for _, e := range g.OutEdges(cur, t) {
				fn(e.ID, e.Trg)
			}
		}
		if dir == cypher.DirIn || dir == cypher.DirBoth {
			for _, e := range g.InEdges(cur, t) {
				// A self-loop already appears among the out-edges in
				// DirBoth mode; do not traverse it twice.
				if dir == cypher.DirBoth && e.Src == e.Trg {
					continue
				}
				fn(e.ID, e.Src)
			}
		}
	}
}

func (ev *evaluator) evalTransitiveJoin(o *nra.TransitiveJoin, a access) ([]value.Row, error) {
	in, err := ev.evalInput(o.Input, a)
	if err != nil {
		return nil, err
	}
	srcIdx := o.Input.Schema().Index(o.SrcAttr)
	if srcIdx < 0 {
		return nil, fmt.Errorf("snapshot: transitive join source %q not in input schema", o.SrcAttr)
	}
	var rows []value.Row
	for _, row := range in {
		srcVal := row[srcIdx]
		if srcVal.Kind() != value.KindVertex {
			continue
		}
		PathEnum(ev.g, srcVal.ID(), o.Types, o.Dir, o.Min, o.Max, o.DstLabels, func(p *value.Path, dst *graph.Vertex) {
			out := make(value.Row, 0, len(row)+2+len(o.DstProps))
			out = append(out, row...)
			out = append(out, value.NewVertex(dst.ID))
			if o.PathAttr != "" {
				out = append(out, value.NewPath(p))
			}
			for _, ps := range o.DstProps {
				out = append(out, dst.Prop(ps.Key))
			}
			rows = append(rows, out)
		})
	}
	return rows, nil
}

func (ev *evaluator) evalJoin(o *nra.Join, a access) ([]value.Row, error) {
	ls, rs := o.L.Schema(), o.R.Schema()
	left, err := ev.eval(o.L, a.and(ev.guaranteed(o.R)).within(ls))
	if err != nil {
		return nil, err
	}
	right, err := ev.eval(o.R, a.and(ev.guaranteed(o.L)).within(rs))
	if err != nil {
		return nil, err
	}
	lIdx, rIdx, rKeep := schema.JoinKeys(ls, rs)
	index := make(map[string][]value.Row)
	var keyBuf []byte
	for _, rr := range right {
		keyBuf = keyBuf[:0]
		for _, i := range rIdx {
			keyBuf = value.AppendKey(keyBuf, rr[i])
		}
		index[string(keyBuf)] = append(index[string(keyBuf)], rr)
	}
	var rows []value.Row
	for _, lr := range left {
		keyBuf = keyBuf[:0]
		for _, i := range lIdx {
			keyBuf = value.AppendKey(keyBuf, lr[i])
		}
		for _, rr := range index[string(keyBuf)] {
			out := make(value.Row, 0, len(lr)+len(rKeep))
			out = append(out, lr...)
			for _, i := range rKeep {
				out = append(out, rr[i])
			}
			rows = append(rows, out)
		}
	}
	return rows, nil
}

// evalLeftOuterJoin implements the natural left outer join: every left
// row pairs with each of its matches in R on the shared attributes
// (bag semantics — one output row per match); a matchless left row
// survives once with R's non-shared attributes null-padded.
//
// An id restriction also narrows R: a left row it turns matchless comes
// out null-padded where it would have carried another element, and either
// way id(v) = K is not true of it. Other conjuncts can be true of a
// null-padded row, so they stay on the left.
func (ev *evaluator) evalLeftOuterJoin(o *nra.LeftOuterJoin, a access) ([]value.Row, error) {
	ls, rs := o.L.Schema(), o.R.Schema()
	left, err := ev.eval(o.L, a.within(ls))
	if err != nil {
		return nil, err
	}
	right, err := ev.eval(o.R, a.idsOnly().and(ev.guaranteed(o.L)).within(rs))
	if err != nil {
		return nil, err
	}
	lIdx, rIdx, rKeep := schema.JoinKeys(ls, rs)
	index := make(map[string][]value.Row)
	var keyBuf []byte
	for _, rr := range right {
		keyBuf = keyBuf[:0]
		for _, i := range rIdx {
			keyBuf = value.AppendKey(keyBuf, rr[i])
		}
		index[string(keyBuf)] = append(index[string(keyBuf)], rr)
	}
	var rows []value.Row
	for _, lr := range left {
		keyBuf = keyBuf[:0]
		for _, i := range lIdx {
			keyBuf = value.AppendKey(keyBuf, lr[i])
		}
		matches := index[string(keyBuf)]
		if len(matches) == 0 {
			out := make(value.Row, 0, len(lr)+len(rKeep))
			out = append(out, lr...)
			for range rKeep {
				out = append(out, value.Null)
			}
			rows = append(rows, out)
			continue
		}
		for _, rr := range matches {
			out := make(value.Row, 0, len(lr)+len(rKeep))
			out = append(out, lr...)
			for _, i := range rKeep {
				out = append(out, rr[i])
			}
			rows = append(rows, out)
		}
	}
	return rows, nil
}

// evalSemiJoin implements semijoin (negate=false) and antijoin
// (negate=true) on the shared attributes of L and R. The output is a
// subset of L, so the demand is on L; R shares in the id restrictions on
// the attributes it is matched on.
func (ev *evaluator) evalSemiJoin(lop, rop nra.Op, negate bool, a access) ([]value.Row, error) {
	ls, rs := lop.Schema(), rop.Schema()
	a = a.within(ls)
	left, err := ev.eval(lop, a)
	if err != nil {
		return nil, err
	}
	right, err := ev.eval(rop, a.idsOnly().and(ev.guaranteed(lop)).within(rs))
	if err != nil {
		return nil, err
	}
	lIdx, rIdx, _ := schema.JoinKeys(ls, rs)
	keys := make(map[string]bool)
	var buf []byte
	for _, rr := range right {
		buf = buf[:0]
		for _, i := range rIdx {
			buf = value.AppendKey(buf, rr[i])
		}
		keys[string(buf)] = true
	}
	var rows []value.Row
	for _, lr := range left {
		buf = buf[:0]
		for _, i := range lIdx {
			buf = value.AppendKey(buf, lr[i])
		}
		if keys[string(buf)] != negate {
			rows = append(rows, lr)
		}
	}
	return rows, nil
}

func (ev *evaluator) evalSelect(o *nra.Select, a access) ([]value.Row, error) {
	in, err := ev.eval(o.Input, ev.under(a, o.Cond))
	if err != nil {
		return nil, err
	}
	fn, err := ev.compile(o.Cond, o.Input.Schema())
	if err != nil {
		return nil, err
	}
	env := &expr.Env{G: ev.g}
	var rows []value.Row
	for _, row := range in {
		env.Row = row
		if ok, known := expr.Truth(fn(env)); known && ok {
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func (ev *evaluator) evalProject(o *nra.Project) ([]value.Row, error) {
	in, err := ev.eval(o.Input, access{})
	if err != nil {
		return nil, err
	}
	fns := make([]expr.Fn, len(o.Items))
	for i, it := range o.Items {
		fn, err := ev.compile(it.Expr, o.Input.Schema())
		if err != nil {
			return nil, err
		}
		fns[i] = fn
	}
	env := &expr.Env{G: ev.g}
	rows := make([]value.Row, 0, len(in))
	for _, row := range in {
		env.Row = row
		out := make(value.Row, len(fns))
		for i, fn := range fns {
			out[i] = fn(env)
		}
		rows = append(rows, out)
	}
	return rows, nil
}

func (ev *evaluator) evalDedup(o *nra.Dedup) ([]value.Row, error) {
	in, err := ev.eval(o.Input, access{})
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(in))
	var rows []value.Row
	for _, row := range in {
		k := value.RowKey(row)
		if !seen[k] {
			seen[k] = true
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// EdgesDisjoint checks openCypher's relationship uniqueness over a row:
// the single edges (edgeIdx positions) and path edges (pathIdx positions)
// must be pairwise distinct. Shared with the Rete AllDifferent node.
func EdgesDisjoint(row value.Row, edgeIdx, pathIdx []int) bool {
	seen := make(map[int64]bool)
	for _, i := range edgeIdx {
		v := row[i]
		if v.Kind() != value.KindEdge {
			continue
		}
		if seen[v.ID()] {
			return false
		}
		seen[v.ID()] = true
	}
	for _, i := range pathIdx {
		v := row[i]
		if v.Kind() != value.KindPath {
			continue
		}
		for _, e := range v.Path().Edges {
			if seen[e] {
				return false
			}
			seen[e] = true
		}
	}
	return true
}

func (ev *evaluator) evalAllDifferent(o *nra.AllDifferent, a access) ([]value.Row, error) {
	in, err := ev.eval(o.Input, a)
	if err != nil {
		return nil, err
	}
	s := o.Input.Schema()
	edgeIdx := make([]int, 0, len(o.EdgeAttrs))
	for _, a := range o.EdgeAttrs {
		i := s.Index(a)
		if i < 0 {
			return nil, fmt.Errorf("snapshot: all-different attribute %q missing", a)
		}
		edgeIdx = append(edgeIdx, i)
	}
	pathIdx := make([]int, 0, len(o.PathAttrs))
	for _, a := range o.PathAttrs {
		i := s.Index(a)
		if i < 0 {
			return nil, fmt.Errorf("snapshot: all-different attribute %q missing", a)
		}
		pathIdx = append(pathIdx, i)
	}
	var rows []value.Row
	for _, row := range in {
		if EdgesDisjoint(row, edgeIdx, pathIdx) {
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PathItemRef is a path-construction item resolved to a row position.
// Shared with the Rete PathBuild node.
type PathItemRef struct {
	Kind gra.PathItemKind
	Idx  int
}

// ResolvePathItems maps plan path items to row positions.
func ResolvePathItems(items []gra.PathItem, s schema.Schema) ([]PathItemRef, error) {
	out := make([]PathItemRef, 0, len(items))
	for _, it := range items {
		idx := s.Index(it.Attr)
		if idx < 0 {
			return nil, fmt.Errorf("snapshot: path item attribute %q missing from schema %s", it.Attr, s)
		}
		out = append(out, PathItemRef{Kind: it.Kind, Idx: idx})
	}
	return out, nil
}

// BuildPath assembles a path value from a row according to the resolved
// construction items. It returns false if any referenced value has an
// unexpected kind. Sub-paths are spliced: their first vertex coincides
// with the previously appended vertex, and the vertex item following a
// sub-path is the sub-path's own endpoint and is skipped.
func BuildPath(row value.Row, items []PathItemRef) (*value.Path, bool) {
	p := &value.Path{}
	prevSub := false
	for _, it := range items {
		v := row[it.Idx]
		skipVertex := prevSub && it.Kind == gra.PathVertex
		prevSub = it.Kind == gra.PathSub
		if skipVertex {
			continue
		}
		switch it.Kind {
		case gra.PathVertex:
			if v.Kind() != value.KindVertex {
				return nil, false
			}
			p.Vertices = append(p.Vertices, v.ID())
		case gra.PathEdge:
			if v.Kind() != value.KindEdge {
				return nil, false
			}
			p.Edges = append(p.Edges, v.ID())
		case gra.PathSub:
			if v.Kind() != value.KindPath {
				return nil, false
			}
			sp := v.Path()
			p.Edges = append(p.Edges, sp.Edges...)
			p.Vertices = append(p.Vertices, sp.Vertices[1:]...)
		}
	}
	return p, true
}

func (ev *evaluator) evalPathBuild(o *nra.PathBuild, a access) ([]value.Row, error) {
	in, err := ev.evalInput(o.Input, a)
	if err != nil {
		return nil, err
	}
	items, err := ResolvePathItems(o.Items, o.Input.Schema())
	if err != nil {
		return nil, err
	}
	var rows []value.Row
	for _, row := range in {
		p, ok := BuildPath(row, items)
		if !ok {
			continue
		}
		out := make(value.Row, 0, len(row)+1)
		out = append(out, row...)
		out = append(out, value.NewPath(p))
		rows = append(rows, out)
	}
	return rows, nil
}

func (ev *evaluator) evalUnwind(o *nra.Unwind, a access) ([]value.Row, error) {
	in, err := ev.evalInput(o.Input, a)
	if err != nil {
		return nil, err
	}
	fn, err := ev.compile(o.Expr, o.Input.Schema())
	if err != nil {
		return nil, err
	}
	env := &expr.Env{G: ev.g}
	var rows []value.Row
	for _, row := range in {
		env.Row = row
		v := fn(env)
		switch v.Kind() {
		case value.KindNull:
			// UNWIND null produces no rows.
		case value.KindList:
			for _, el := range v.List() {
				out := make(value.Row, 0, len(row)+1)
				out = append(out, row...)
				out = append(out, el)
				rows = append(rows, out)
			}
		default:
			out := make(value.Row, 0, len(row)+1)
			out = append(out, row...)
			out = append(out, v)
			rows = append(rows, out)
		}
	}
	return rows, nil
}

// TopCompare is the canonical ordering contract of the Top operator,
// shared with the Rete TopKNode (which must produce the identical
// window): rows order by the evaluated sort keys (with per-item
// descending flags), ties break by the canonical row comparison, and
// remaining ties — distinct rows that still compare equal, e.g. the
// openCypher-equal 2 and 2.0 — by the rows' canonical binary keys.
// The order is total over distinct rows, which is what makes windows
// deterministic across per-op, batched and parallel propagation.
func TopCompare(aKeys, bKeys value.Row, desc []bool, aRow, bRow value.Row) int {
	for k := range desc {
		c := value.Compare(aKeys[k], bKeys[k])
		if desc[k] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	if c := value.CompareRows(aRow, bRow); c != 0 {
		return c
	}
	return strings.Compare(value.RowKey(aRow), value.RowKey(bRow))
}

// EvalConstN evaluates a SKIP/LIMIT expression (constant: literals and
// parameters only) to a non-negative int. Shared with the Rete builder.
func EvalConstN(e cypher.Expr, params map[string]value.Value, what string) (int, error) {
	fn, err := expr.Compile(e, schema.Schema{}, params)
	if err != nil {
		return 0, err
	}
	nv := fn(&expr.Env{Row: value.Row{}})
	if nv.Kind() != value.KindInt || nv.Int() < 0 {
		return 0, fmt.Errorf("%s requires a non-negative integer, got %s", what, nv)
	}
	return int(nv.Int()), nil
}

// evalTop orders the input by the sort items (deterministic tie-break,
// see TopCompare) and keeps the [skip, skip+limit) window. Without sort
// items the canonical row order applies, so SKIP/LIMIT alone are
// deterministic too.
func (ev *evaluator) evalTop(o *nra.Top) ([]value.Row, error) {
	in, err := ev.eval(o.Input, access{})
	if err != nil {
		return nil, err
	}
	fns := make([]expr.Fn, len(o.Items))
	desc := make([]bool, len(o.Items))
	for i, it := range o.Items {
		fn, err := ev.compile(it.Expr, o.Input.Schema())
		if err != nil {
			return nil, err
		}
		fns[i] = fn
		desc[i] = it.Desc
	}
	type keyed struct {
		row  value.Row
		keys value.Row
	}
	ks := make([]keyed, len(in))
	env := &expr.Env{G: ev.g}
	for i, row := range in {
		env.Row = row
		keys := make(value.Row, len(fns))
		for j, fn := range fns {
			keys[j] = fn(env)
		}
		ks[i] = keyed{row: row, keys: keys}
	}
	sort.Slice(ks, func(i, j int) bool {
		return TopCompare(ks[i].keys, ks[j].keys, desc, ks[i].row, ks[j].row) < 0
	})
	rows := make([]value.Row, len(ks))
	for i, k := range ks {
		rows[i] = k.row
	}
	skip := 0
	if o.Skip != nil {
		if skip, err = EvalConstN(o.Skip, ev.params, "snapshot: SKIP"); err != nil {
			return nil, err
		}
	}
	if skip >= len(rows) {
		return nil, nil
	}
	rows = rows[skip:]
	if o.Limit != nil {
		limit, err := EvalConstN(o.Limit, ev.params, "snapshot: LIMIT")
		if err != nil {
			return nil, err
		}
		if limit < len(rows) {
			rows = rows[:limit]
		}
	}
	return rows, nil
}
