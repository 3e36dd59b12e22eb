package ivm

import (
	"runtime"
	"sync/atomic"

	"pgiv/internal/fra"
	"pgiv/internal/rete"
	"pgiv/internal/rewrite"
	"pgiv/internal/snapshot"
	"pgiv/internal/stmt"
	"pgiv/internal/value"
)

// Stats are the engine's cumulative ad-hoc query counters: how reads
// through Query/QueryParams were answered.
type Stats struct {
	// RewriteExact counts queries answered entirely from one memo's
	// published rows (no residual operators).
	RewriteExact uint64
	// RewriteResidual counts queries answered by a residual plan over a
	// memo's rows.
	RewriteResidual uint64
	// RewriteResidualOps is the total residual operator count across all
	// residual-hit queries.
	RewriteResidualOps uint64
	// RewriteMiss counts queries no live memo covered — evaluated from
	// scratch against a snapshot.
	RewriteMiss uint64
	// RewriteFallback counts covered queries that still fell back to a
	// from-scratch evaluation because the memo's publish epoch never
	// aligned with a pinnable snapshot (a commit permanently in flight —
	// effectively unreachable outside shutdown races).
	RewriteFallback uint64
}

// queryState carries the rewrite-serving machinery; embedded in Engine.
type queryState struct {
	rewriteOn atomic.Bool

	stExact    atomic.Uint64
	stResidual atomic.Uint64
	stResidOps atomic.Uint64
	stMiss     atomic.Uint64
	stFallback atomic.Uint64

	// cands is the candidate list handed to the rewrite planner, built on
	// the first read after a registration or drop and shared by every
	// read until the next one: the planner keeps its per-memo derivation
	// inside the candidates (see rewrite.Candidate), so the list must
	// outlive a single query for that to pay. Built under e.mu.RLock and
	// reset under e.mu.Lock, so a stale list is never installed.
	cands atomic.Pointer[[]rewrite.Candidate]

	// rewriteHook, when non-nil, runs between memo selection and residual
	// evaluation on every rewrite-served read (test seam for the
	// drop-during-read race).
	rewriteHook func()
}

// Stats returns a copy of the cumulative query counters.
func (e *Engine) Stats() Stats {
	return Stats{
		RewriteExact:       e.qs.stExact.Load(),
		RewriteResidual:    e.qs.stResidual.Load(),
		RewriteResidualOps: e.qs.stResidOps.Load(),
		RewriteMiss:        e.qs.stMiss.Load(),
		RewriteFallback:    e.qs.stFallback.Load(),
	}
}

// EnableRewrite turns on answering ad-hoc queries from materialized view
// state: every live production starts publishing per-epoch rows (and
// every future registration publishes from birth), making them
// enumerable as rewrite candidates. Idempotent; Query/QueryParams enable
// it lazily on first use. Must not run concurrently with a graph
// mutation (like every Engine method); holding the engine lock excludes
// in-flight propagation.
func (e *Engine) EnableRewrite() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.qs.rewriteOn.Load() {
		return
	}
	epoch := e.g.Epoch()
	for _, v := range e.viewList {
		v.network.Prod.Watch(epoch)
	}
	e.qs.rewriteOn.Store(true)
}

// rewriteCandidates returns the live memoized productions as rewrite
// candidates, rebuilt only after the set of views changed. Row access
// goes through Production.Published(), the wait-free epoch-stamped path,
// so candidate evaluation never touches engine or graph locks.
func (e *Engine) rewriteCandidates() []rewrite.Candidate {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if cached := e.qs.cands.Load(); cached != nil {
		return *cached
	}
	names := make(map[*rete.Production]string, len(e.viewList))
	for _, v := range e.viewList {
		if _, ok := names[v.network.Prod]; !ok {
			names[v.network.Prod] = v.name
		}
	}
	cands := e.reg.Candidates()
	out := make([]rewrite.Candidate, 0, len(cands))
	for _, c := range cands {
		name := names[c.Prod]
		if name == "" {
			name = "memo"
		}
		prod := c.Prod
		out = append(out, rewrite.Candidate{
			Name: name, Plan: c.Plan, Params: c.Params,
			Rows: func() ([]value.Row, uint64, bool) {
				pub := prod.Published()
				if pub == nil {
					return nil, 0, false
				}
				return pub.Rows, pub.Epoch, true
			},
		})
	}
	e.qs.cands.Store(&out)
	return out
}

// Query answers an ad-hoc read, preferring materialized state: when a
// registered view's memo covers the query (exactly, or up to a residual
// filter/projection/dedup/top slice), the answer is computed from the
// memo's published rows at a pinned matching epoch instead of a full
// snapshot evaluation. Returns the result and the epoch it reflects.
func (e *Engine) Query(query string) (*snapshot.Result, uint64, error) {
	return e.QueryParams(query, nil)
}

// QueryParams is Query with parameters.
func (e *Engine) QueryParams(query string, params map[string]value.Value) (*snapshot.Result, uint64, error) {
	plan, err := stmt.Read(query)
	if err != nil {
		return nil, 0, err
	}
	if !e.qs.rewriteOn.Load() {
		e.EnableRewrite()
	}
	snap := e.g.Snapshot()
	defer func() { snap.Release() }()

	p := rewrite.Match(plan, params, e.rewriteCandidates())
	if p == nil {
		e.qs.stMiss.Add(1)
		res, err := snapshot.Eval(snap, plan, params)
		return res, snap.Epoch(), err
	}
	// The memo publishes at each commit's epoch after propagation; a
	// pinned snapshot may transiently lead (propagation in flight) or
	// trail (a commit landed between pin and publish read) the memo.
	// Align the two: re-pin when the memo is ahead, yield when behind.
	for attempt := 0; attempt < 256; attempt++ {
		if hook := e.qs.rewriteHook; hook != nil {
			hook()
		}
		rows, pubEpoch, ok := p.Cand.Rows()
		if !ok {
			break
		}
		snapEpoch := snap.Epoch()
		if pubEpoch == snapEpoch {
			res, err := p.Eval(snap, rows, params)
			if err != nil {
				// A residual that matched structurally but fails to
				// compile is a planner bug; stay correct via fallback.
				break
			}
			if p.Exact {
				e.qs.stExact.Add(1)
			} else {
				e.qs.stResidual.Add(1)
				e.qs.stResidOps.Add(uint64(p.Ops))
			}
			return res, snapEpoch, nil
		}
		if pubEpoch > snapEpoch {
			snap.Release()
			snap = e.g.Snapshot()
		} else {
			runtime.Gosched()
		}
	}
	e.qs.stFallback.Add(1)
	res, err := snapshot.Eval(snap, plan, params)
	return res, snap.Epoch(), err
}

// ExplainRewrite reports how an ad-hoc query would be answered right
// now: the chosen memo and the residual plan over it, or a miss.
func (e *Engine) ExplainRewrite(query string, params map[string]value.Value) (string, error) {
	plan, err := fra.CompileString(query)
	if err != nil {
		return "", err
	}
	if !e.qs.rewriteOn.Load() {
		e.EnableRewrite()
	}
	p := rewrite.Match(plan, params, e.rewriteCandidates())
	if p == nil {
		return "miss: no covering memo (full snapshot evaluation)\n", nil
	}
	return p.Format(), nil
}
