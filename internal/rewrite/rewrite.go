// Package rewrite answers ad-hoc queries from materialized view state:
// given a query's FRA plan and the live memoized productions of the
// SubplanRegistry, it finds the cheapest *covering* memo and compiles a
// residual plan (filter / projection / dedup / top slice) that the
// snapshot evaluator runs over the memo's published rows instead of the
// base graph. This turns the registry from a memory optimisation into a
// serving layer: a covered read costs O(residual over memo rows), not a
// full snapshot evaluation.
//
// Soundness contract: a returned Plan evaluates, over the memo's
// published rows at epoch E and a graph snapshot pinned at E, to exactly
// the row bag of evaluating the query from scratch at E — including
// multiplicities, and including rank order for ORDER BY queries. False
// negatives (missed rewrites) are fine; false positives are wrong
// answers, which is what FuzzSubsumes hunts.
package rewrite

import (
	"fmt"
	"strings"
	"sync/atomic"

	"pgiv/internal/fra"
	"pgiv/internal/graph"
	"pgiv/internal/nra"
	"pgiv/internal/schema"
	"pgiv/internal/snapshot"
	"pgiv/internal/value"
)

// Candidate is one live memoized production offered to the planner.
// Rows returns the memo's published rows and their epoch (ok == false
// when the production has never published — e.g. a view registered in a
// serialized-reads server that never Watch()ed it).
//
// Plan and Params must not change once the candidate has been offered to
// Match: the planner's memo-side derivation (fingerprints, spine, leaf
// set) is computed on first use and kept in the candidate. A caller that
// keeps its candidate slice across queries therefore pays it once per
// memo, not once per query.
type Candidate struct {
	Name   string
	Plan   nra.Op
	Params map[string]value.Value
	Rows   func() (rows []value.Row, epoch uint64, ok bool)

	memo atomic.Pointer[memoSide]
}

// memoSide returns the candidate's memo-side derivation, computing it on
// first use. Concurrent first uses may each compute it; they agree.
func (c *Candidate) memoSide() *memoSide {
	if m := c.memo.Load(); m != nil {
		return m
	}
	m := newMemoSide(c.Plan, c.Params)
	c.memo.Store(m)
	return m
}

// Plan is a compiled rewrite: evaluate Residual with Leaf answered from
// the memo's rows. For exact hits Residual == Leaf and evaluation is a
// pass-through of the memo rows.
type Plan struct {
	Cand     *Candidate
	Leaf     nra.Op // node answered from memo rows (pointer identity)
	Residual nra.Op // residual tree containing Leaf
	Out      schema.Schema
	Ops      int // residual operator count above the leaf
	Exact    bool
}

// Match finds the cheapest covering memo for the query among the
// candidates, or nil when no candidate covers it. Cost is memoized-row
// count scaled by residual operator count; ties keep the earliest
// candidate (registration order).
func Match(q *fra.Plan, qParams map[string]value.Value, cands []Candidate) *Plan {
	if len(cands) == 0 {
		return nil
	}
	var best *Plan
	bestCost := 0
	qs := newQuerySide(q, qParams)
	for i := range cands {
		c := &cands[i]
		rows, _, ok := c.Rows()
		if !ok {
			continue
		}
		p, ok := subsumes(c.memoSide(), qs)
		if !ok {
			continue
		}
		p.Cand = c
		cost := len(rows)*(1+p.Ops) + p.Ops
		if best == nil || cost < bestCost {
			best, bestCost = p, cost
		}
	}
	return best
}

// Eval runs the plan over the memo's rows. g must be a graph reader
// pinned at the rows' publish epoch: residual expressions may read
// properties the memo did not project, and those lookups must observe
// the same state the memo was computed from.
func (p *Plan) Eval(g graph.Reader, rows []value.Row, params map[string]value.Value) (*snapshot.Result, error) {
	if p.Exact {
		return &snapshot.Result{Schema: p.Out, Rows: rows}, nil
	}
	return snapshot.EvalWithRows(g, p.Residual, p.Out, p.Leaf, rows, params)
}

// memoLeaf is the placeholder operator the spine matcher substitutes for
// the covered part of the query plan; the snapshot evaluator answers it
// from the memo's rows by pointer identity.
type memoLeaf struct {
	s    schema.Schema
	name string
}

func (m *memoLeaf) Schema() schema.Schema { return m.s }
func (m *memoLeaf) Children() []nra.Op    { return nil }
func (m *memoLeaf) Head() string          { return "MemoRows " + m.name }

// Format renders the residual plan with the memo leaf called out — the
// human-readable form behind ExplainRewrite and the golden plan tests.
func (p *Plan) Format() string {
	var sb strings.Builder
	if p.Cand != nil {
		fmt.Fprintf(&sb, "memo: %s\n", p.Cand.Name)
	}
	if p.Exact {
		sb.WriteString("residual: none (exact hit)\n")
		return sb.String()
	}
	sb.WriteString("residual:\n")
	var rec func(op nra.Op, depth int)
	rec = func(op nra.Op, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		if op == p.Leaf {
			name := "memo"
			if p.Cand != nil {
				name = p.Cand.Name
			}
			fmt.Fprintf(&sb, "MemoRows[%s]\n", name)
			return
		}
		sb.WriteString(op.Head())
		sb.WriteByte('\n')
		for _, c := range op.Children() {
			rec(c, depth+1)
		}
	}
	rec(p.Residual, 1)
	return sb.String()
}

// countOps counts the operators of a tree, excluding the subtree rooted
// at stop (the covered leaf).
func countOps(op nra.Op, stop nra.Op) int {
	if op == stop {
		return 0
	}
	n := 1
	for _, c := range op.Children() {
		n += countOps(c, stop)
	}
	return n
}
