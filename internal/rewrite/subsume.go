package rewrite

import (
	"pgiv/internal/cypher"
	"pgiv/internal/fra"
	"pgiv/internal/gra"
	"pgiv/internal/nra"
	"pgiv/internal/snapshot"
	"pgiv/internal/value"
)

// Subsumes decides whether the memoized plan covers the query and, if
// so, compiles the residual. Two strategies, cheapest wins:
//
//  1. Subtree hit: some subtree of the query plan has the memo's exact
//     fingerprint — that subtree's rows are the memo's rows (published
//     rows are a bag; every NRA operator except Top is order-insensitive,
//     and Top re-sorts, so bag equality suffices for interior nodes).
//     The residual is the query plan itself with that subtree answered
//     from the memo. A whole-plan hit on a non-Top root is an exact hit.
//
//  2. Spine near-match: both plans decompose as
//     Top?[Dedup?[Project?[Select*[core]]]] with fingerprint-equal cores;
//     the memo covers the query when every memo conjunct is implied by a
//     query conjunct (render equality or constant-range widening), the
//     query's columns are expressible over the memo's projection, dedup
//     is compatible, and — for window memos — the query asks a contained
//     [skip, skip+limit) slice under identical sort keys. The residual
//     re-applies the query-only filters, projection, dedup and top over
//     the memo rows.
func Subsumes(memoPlan nra.Op, memoParams map[string]value.Value, q *fra.Plan, qParams map[string]value.Value) (*Plan, bool) {
	return subsumes(newMemoSide(memoPlan, memoParams), newQuerySide(q, qParams))
}

func subsumes(m *memoSide, q *querySide) (*Plan, bool) {
	// Both strategies equate a memo subtree holding every memo leaf with a
	// query subtree, so a memo leaf the query lacks rules the memo out.
	for _, l := range m.leaves {
		if !q.leaves[l] {
			return nil, false
		}
	}
	var best *Plan
	consider := func(p *Plan) {
		if p != nil && (best == nil || p.Ops < best.Ops) {
			best = p
		}
	}
	consider(subtreeHit(m, q))
	consider(spineHit(m, q))
	return best, best != nil
}

// memoSide is what the planner derives from a memoized plan and its
// registration parameters alone. Neither changes while the production
// lives, so a Candidate computes it once.
type memoSide struct {
	params map[string]value.Value
	fp     string   // fingerprint of the whole plan
	leaves []string // fingerprints of its base operators
	sp     spine
	coreFP string   // fingerprint of sp.core, or of sp.top.Input for a window memo
	conj   []string // canonical rendering of each sp.conj
}

func newMemoSide(plan nra.Op, params map[string]value.Value) *memoSide {
	f := fra.NewFingerprinter(params)
	m := &memoSide{params: params, fp: f.Fingerprint(plan), sp: decompose(plan)}
	leafFingerprints(f, plan, func(fp string) { m.leaves = append(m.leaves, fp) })
	if m.sp.top != nil {
		m.coreFP = f.Fingerprint(m.sp.top.Input)
	} else {
		m.coreFP = f.Fingerprint(m.sp.core)
	}
	m.conj = make([]string, len(m.sp.conj))
	for i, c := range m.sp.conj {
		m.conj[i] = fra.CanonExpr(c, params)
	}
	return m
}

// querySide is the same derivation for the query, made once per Match
// and shared by every candidate; the fingerprinter memoizes per operator,
// so each query subtree is rendered at most once however many memos are
// tried against it.
type querySide struct {
	plan   *fra.Plan
	params map[string]value.Value
	f      *fra.Fingerprinter
	leaves map[string]bool
	sp     spine
	conj   []string // canonical rendering of each sp.conj; see rendered
}

func newQuerySide(q *fra.Plan, params map[string]value.Value) *querySide {
	qs := &querySide{plan: q, params: params, f: fra.NewFingerprinter(params),
		leaves: make(map[string]bool), sp: decompose(q.Root)}
	leafFingerprints(qs.f, q.Root, func(fp string) { qs.leaves[fp] = true })
	return qs
}

// rendered returns the canonical rendering of the query's spine
// conjuncts, made when the first memo with a matching core asks for it —
// a query no memo comes close to never pays for it.
func (q *querySide) rendered() []string {
	if q.conj == nil {
		q.conj = make([]string, len(q.sp.conj))
		for i, c := range q.sp.conj {
			q.conj[i] = fra.CanonExpr(c, q.params)
		}
	}
	return q.conj
}

// leafFingerprints reports the fingerprint of every base operator
// (childless node) under op.
func leafFingerprints(f *fra.Fingerprinter, op nra.Op, add func(string)) {
	kids := op.Children()
	if len(kids) == 0 {
		add(f.Fingerprint(op))
		return
	}
	for _, c := range kids {
		leafFingerprints(f, c, add)
	}
}

// subtreeHit scans the query plan for a subtree with the memo's exact
// fingerprint.
func subtreeHit(m *memoSide, qs *querySide) *Plan {
	q := qs.plan
	var found nra.Op
	var walk func(op nra.Op)
	walk = func(op nra.Op) {
		if found != nil {
			return
		}
		// Prefer the shallowest (largest-cover) match: check op before
		// descending.
		if qs.f.Fingerprint(op) == m.fp {
			if op == q.Root {
				if _, isTop := op.(*nra.Top); isTop {
					// Published rows are in canonical bag order, not rank
					// order; a whole-plan Top hit must re-sort, which the
					// spine window rule compiles (delta 0).
					return
				}
			}
			found = op
			return
		}
		for _, c := range op.Children() {
			walk(c)
		}
	}
	walk(q.Root)
	if found == nil {
		return nil
	}
	if found == q.Root {
		return &Plan{Leaf: found, Residual: found, Out: q.OutSchema, Ops: 0, Exact: true}
	}
	return &Plan{
		Leaf: found, Residual: q.Root, Out: q.OutSchema,
		Ops: countOps(q.Root, found), Exact: false,
	}
}

// spine is the decomposed root of a plan: the optional trailing
// Top / Dedup / Project / Select* chain over an arbitrary core.
type spine struct {
	top   *nra.Top
	dedup bool
	proj  *nra.Project
	conj  []cypher.Expr // AND-flattened Select conjuncts, outermost first
	core  nra.Op
}

func decompose(root nra.Op) spine {
	var s spine
	op := root
	if t, ok := op.(*nra.Top); ok {
		s.top = t
		op = t.Input
	}
	if d, ok := op.(*nra.Dedup); ok {
		s.dedup = true
		op = d.Input
	}
	if p, ok := op.(*nra.Project); ok {
		s.proj = p
		op = p.Input
	}
	for {
		sel, ok := op.(*nra.Select)
		if !ok {
			break
		}
		s.conj = append(s.conj, cypher.Conjuncts(sel.Cond)...)
		op = sel.Input
	}
	s.core = op
	return s
}

func spineHit(m *memoSide, q *querySide) *Plan {
	ms, qs := m.sp, q.sp
	memoParams, qParams := m.params, q.params

	if ms.top != nil {
		return windowHit(m, q)
	}
	// Cores must compute the same relation.
	if m.coreFP != q.f.Fingerprint(qs.core) {
		return nil
	}
	// Dedup compatibility: a deduplicated memo lost multiplicities the
	// query needs unless the query deduplicates too.
	if ms.dedup && !qs.dedup {
		return nil
	}

	// Conjunct implication: every memo filter must be implied by some
	// query filter, else the memo is missing rows the query wants.
	qRender := q.rendered()
	for j, mc := range ms.conj {
		implied := false
		for i, qc := range qs.conj {
			if qRender[i] == m.conj[j] || impliesRange(qc, qParams, mc, memoParams) {
				implied = true
				break
			}
		}
		if !implied {
			return nil
		}
	}
	// Residual filters: query conjuncts not already enforced verbatim by
	// the memo (a strictly stronger query conjunct re-applies).
	var resid []cypher.Expr
	for i, qc := range qs.conj {
		verbatim := false
		for _, mr := range m.conj {
			if mr == qRender[i] {
				verbatim = true
				break
			}
		}
		if !verbatim {
			resid = append(resid, qc)
		}
	}

	var leaf *memoLeaf
	var projItems []gra.Item
	if ms.proj == nil {
		// Mode A: the memo rows carry the full core schema; residual
		// expressions compile unchanged.
		leaf = &memoLeaf{s: ms.core.Schema()}
		if qs.proj != nil {
			projItems = qs.proj.Items
		}
	} else {
		// Mode B: the memo rows carry only the projected columns. Rewrite
		// every residual expression over a fresh placeholder schema — one
		// placeholder per memo projection item, matched by canonical
		// rendering — so a memo alias shadowing a pattern variable (e.g.
		// `a.score AS a`) can never capture a residual reference.
		rw := newRewriter(ms.proj.Items, memoParams, qParams)
		leaf = &memoLeaf{s: rw.schema()}
		for i, qc := range resid {
			re, ok := rw.rewrite(qc)
			if !ok {
				return nil
			}
			resid[i] = re
		}
		var items []gra.Item
		if qs.proj != nil {
			items = qs.proj.Items
		} else {
			// Query without a projection root: synthesize the identity
			// projection over its core schema so the output columns (and
			// any Top keys above) compile against real aliases.
			for _, a := range qs.core.Schema() {
				items = append(items, gra.Item{Expr: &cypher.Variable{Name: a}, Alias: a})
			}
		}
		projItems = make([]gra.Item, len(items))
		for i, it := range items {
			re, ok := rw.rewrite(it.Expr)
			if !ok {
				return nil
			}
			projItems[i] = gra.Item{Expr: re, Alias: it.Alias}
		}
	}

	// Assemble the residual stack: leaf → Select → Project → Dedup → Top.
	var tree nra.Op = leaf
	ops := 0
	if len(resid) > 0 {
		cond := resid[0]
		for _, c := range resid[1:] {
			cond = &cypher.Binary{Op: cypher.OpAnd, L: cond, R: c}
		}
		tree = &nra.Select{Input: tree, Cond: cond}
		ops++
	}
	if projItems != nil {
		tree = &nra.Project{Input: tree, Items: projItems}
		ops++
	}
	if qs.dedup {
		tree = &nra.Dedup{Input: tree}
		ops++
	}
	if qs.top != nil {
		tree = &nra.Top{Input: tree, Items: qs.top.Items, Skip: qs.top.Skip, Limit: qs.top.Limit}
		ops++
	}
	if ops == 0 && ms.proj == nil {
		// Nothing to do: memo and query are the same Select*(core) modulo
		// conjunct order.
		return &Plan{Leaf: leaf, Residual: leaf, Out: q.plan.OutSchema, Ops: 0, Exact: true}
	}
	return &Plan{Leaf: leaf, Residual: tree, Out: q.plan.OutSchema, Ops: ops, Exact: false}
}

// windowHit covers a query window from a memoized ORDER BY/SKIP/LIMIT
// window: everything below the two Tops must be fingerprint-identical,
// the sort keys must match, and the query's [skip, skip+limit) must lie
// inside the memo's. The memo rows are the ranks
// [mskip, mskip+mlimit) of the shared sorted sequence (published as a
// bag); re-sorting them with the shared total order and slicing at the
// rank delta reproduces the query window exactly.
func windowHit(m *memoSide, q *querySide) *Plan {
	ms, qs := m.sp, q.sp
	memoParams, qParams := m.params, q.params
	if qs.top == nil {
		return nil // a truncated window cannot serve an un-windowed query
	}
	if m.coreFP != q.f.Fingerprint(qs.top.Input) {
		return nil
	}
	if len(ms.top.Items) != len(qs.top.Items) {
		return nil
	}
	for i, mit := range ms.top.Items {
		qit := qs.top.Items[i]
		if mit.Desc != qit.Desc || fra.CanonExpr(mit.Expr, memoParams) != fra.CanonExpr(qit.Expr, qParams) {
			return nil
		}
	}
	mSkip, mLimit, ok := window(ms.top, memoParams)
	if !ok {
		return nil
	}
	qSkip, qLimit, ok := window(qs.top, qParams)
	if !ok {
		return nil
	}
	if qSkip < mSkip {
		return nil
	}
	if mLimit >= 0 && (qLimit < 0 || qSkip+qLimit > mSkip+mLimit) {
		return nil
	}
	leaf := &memoLeaf{s: qs.top.Input.Schema()}
	var limit cypher.Expr
	if qLimit >= 0 {
		limit = &cypher.Literal{Val: value.NewInt(int64(qLimit))}
	}
	residual := &nra.Top{
		Input: leaf,
		Items: qs.top.Items,
		Skip:  &cypher.Literal{Val: value.NewInt(int64(qSkip - mSkip))},
		Limit: limit,
	}
	return &Plan{Leaf: leaf, Residual: residual, Out: q.plan.OutSchema, Ops: 1, Exact: false}
}

// window evaluates a Top's constant skip/limit; limit -1 means
// unbounded.
func window(t *nra.Top, params map[string]value.Value) (skip, limit int, ok bool) {
	skip, limit = 0, -1
	if t.Skip != nil {
		n, err := snapshot.EvalConstN(t.Skip, params, "SKIP")
		if err != nil {
			return 0, 0, false
		}
		skip = n
	}
	if t.Limit != nil {
		n, err := snapshot.EvalConstN(t.Limit, params, "LIMIT")
		if err != nil {
			return 0, 0, false
		}
		limit = n
	}
	return skip, limit, true
}
