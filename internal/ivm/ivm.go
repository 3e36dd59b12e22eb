// Package ivm is the incremental view maintenance engine — the system the
// paper proposes. It compiles openCypher queries through the paper's
// pipeline (GRA → NRA → FRA, packages gra/nra/fra), checks that the query
// lies in the incrementally maintainable fragment, builds a Rete network
// (package rete) and keeps the materialised view consistent with the
// property graph under transactional updates.
//
// Usage:
//
//	g := graph.New()
//	engine := ivm.NewEngine(g)
//	view, err := engine.RegisterView("replies",
//	    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t")
//	...mutate g (per-op or via g.Batch); view.Rows() is always up to date...
//
// The engine subscribes to the graph's transactional change stream: each
// committed transaction delivers one coalesced graph.ChangeSet, which the
// engine translates once per input node and propagates through the
// groups of the Rete network that have work, then fires each view's
// OnChange subscribers once with the commit's net delta batch. Loading
// 10k mutations through one g.Batch therefore costs one propagation pass
// instead of 10k.
//
// Views share structure: every FRA subtree is fingerprinted and resolved
// through a ref-counted subplan registry, so overlapping views attach to
// one shared chain of stateful Rete nodes (joins, filters, dedups,
// aggregates, transitive joins — and the production itself when two plans
// are identical). Propagation work and Rete memory scale with the number
// of distinct subplans, not the number of registered views.
package ivm

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"pgiv/internal/checkpoint"
	"pgiv/internal/cypher"
	"pgiv/internal/fra"
	"pgiv/internal/gra"
	"pgiv/internal/graph"
	"pgiv/internal/nra"
	"pgiv/internal/rete"
	"pgiv/internal/schema"
	"pgiv/internal/value"
)

// Options configure an Engine.
type Options struct {
	// NoSharing disables Rete node sharing across views entirely — input
	// (alpha) nodes and the shared beta network alike; every view gets a
	// fully private node chain (ablation experiments EXP-F and EXP-L).
	NoSharing bool

	// NumWorkers bounds how many goroutines propagate one commit: the
	// committing goroutine plus at most NumWorkers−1 pool helpers. The
	// mutable network is partitioned into groups — connected components
	// of shared subtrees, so no stateful node is touched by two
	// goroutines — and a commit runs only the groups that have work.
	// Helpers are woken only when at least two groups have work and the
	// commit can pay for the hand-off: its ChangeSet has at least 16
	// elements, or at least two of its active groups run a path node. Every other commit, and every commit with NumWorkers 1,
	// propagates inline. 0 (the default) means runtime.GOMAXPROCS(0).
	// View contents are identical either way — only intra-commit
	// scheduling differs. OnChange callbacks are unaffected: they fire
	// exactly once per commit per view, sequentially, on the committing
	// goroutine, after every group has finished.
	NumWorkers int
}

// Engine maintains a set of materialised views over one property graph.
// It subscribes to the graph's committed change sets and propagates
// deltas synchronously within each commit. All Engine methods must be
// called while no graph mutation is in flight (the store serialises
// transactions; view registration is not itself serialised against
// them).
type Engine struct {
	g        *graph.Graph
	opts     Options
	workers  int // resolved NumWorkers (≥1)
	fanOutAt int // fanOutElems; the crossover benchmark lowers it to force hand-offs

	mu       sync.RWMutex
	reg      *rete.SubplanRegistry
	views    map[string]*View
	viewList []*View        // sorted by name: deterministic OnChange order
	plan     *rete.PropPlan // propagation schedule; nil until a view registers
	closed   bool

	// nextRegSeq numbers views by registration order (viewList is sorted
	// by name); checkpoint manifests record views in this order so that
	// no-sharing private-copy serials line up again on restore.
	nextRegSeq int

	// dur is non-nil on engines opened through OpenDurable; it carries
	// the WAL, the checkpoint store and the checkpoint cadence. Set once
	// during recovery, before any concurrent commit.
	dur *durableState

	// propagation helper pool: workers−1 goroutines, started by the
	// first commit that fans out (never while workers == 1), stopped by
	// Close.
	jobs chan func()

	// qs is the ad-hoc query serving state (rewrite flag, counters,
	// test hook); see query.go.
	qs queryState

	// per-commit scratch, reused across commits (dispatch is serialised
	// by the store's writer lock)
	viewScratch []*View
	batches     [][]rete.Delta    // translated input batches, indexed like plan.Inputs
	active      []*rete.PropGroup // groups with work this commit
	coalesceH   value.Hasher      // flush-coalescing key scratch (flushes are sequential)
}

// NewEngine creates an engine bound to g and subscribes it to the graph.
func NewEngine(g *graph.Graph, opts ...Options) *Engine {
	e := &Engine{g: g, views: make(map[string]*View), fanOutAt: fanOutElems}
	if len(opts) > 0 {
		e.opts = opts[0]
	}
	e.workers = e.opts.NumWorkers
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	e.reg = rete.NewSubplanRegistry(g, !e.opts.NoSharing, nil, nil)
	g.Subscribe(e)
	return e
}

// pool returns the propagation helper pool, starting it on first use.
// Only Apply calls pool, and commits are serialised by the store's
// writer lock, so creation needs no extra synchronisation; Close reads
// e.jobs only after Unsubscribe's lock barrier. The buffer holds one job
// per helper, the most a commit sends, so fanOut never blocks on a send.
func (e *Engine) pool() chan func() {
	if e.jobs == nil {
		e.jobs = make(chan func(), e.workers-1)
		for i := 0; i < e.workers-1; i++ {
			go func() {
				for job := range e.jobs {
					job()
				}
			}()
		}
	}
	return e.jobs
}

// Close unsubscribes the engine from the graph and stops the worker
// pool. Views stop updating. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	// Unsubscribe serialises against in-flight commits (it takes the
	// store's writer lock), so once it returns no Apply can be running
	// or arrive — closing the pool after it is safe.
	e.g.Unsubscribe(e)
	if e.jobs != nil {
		close(e.jobs)
	}
}

// Graph returns the underlying graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// View is a registered materialised view: a named handle onto a (possibly
// shared) production node of the Rete network.
type View struct {
	name   string
	query  string
	engine *Engine
	params map[string]value.Value
	regSeq int // registration order (see Engine.nextRegSeq)

	ast     *cypher.Query
	graText string
	nraText string
	plan    *fra.Plan

	network *rete.Network
	subID   int // this view's subscription token on the production

	// ordered is non-nil for views whose plan is rooted at a Top
	// operator: Rows() returns rank order and OnChange batches are
	// sorted by rank (the window contents are maintained by the Rete
	// TopKNode; the order is applied at this delivery boundary).
	ordered *topOrder

	// Rank-order cache for ordered views: the production's cached
	// canonical slice is the sort source; as long as it hands back the
	// identical slice (no commit rebuilt it), the rank-sorted copy is
	// reused instead of re-evaluating keys and re-sorting per read.
	orderedMu   sync.Mutex
	orderedSrc  []value.Row
	orderedRows []value.Row

	pending []rete.Delta // deltas accumulated since the last commit flush
	subs    []func([]rete.Delta)
}

// RegisterView compiles, checks and materialises a view. The query must
// lie in the incrementally maintainable fragment; otherwise the error
// wraps ErrNotMaintainable (and the query can still be evaluated by the
// snapshot engine).
func (e *Engine) RegisterView(name, query string) (*View, error) {
	return e.RegisterViewParams(name, query, nil)
}

// RegisterViewParams is RegisterView with query parameters, substituted
// at compilation time.
//
// Registration cost scales with what is new: subtrees another live view
// already compiled are attached to in place, and each attachment is
// seeded by replaying the shared node's memoized rows — registering the
// 50th view of a popular template does not re-scan the graph per
// operator.
func (e *Engine) RegisterViewParams(name, query string, params map[string]value.Value) (*View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, err := e.registerLocked(name, query, params, true)
	if err != nil {
		return nil, err
	}
	if e.dur != nil {
		if _, err := e.dur.log.AppendRegister(name, query, checkpoint.EncodeParams(params)); err != nil {
			// The registration must not outlive a log it was never
			// written to; undo it and surface the failure.
			_ = e.dropLocked(name)
			return nil, fmt.Errorf("ivm: log registration of %q: %w", name, err)
		}
	}
	return v, nil
}

// registerLocked is the registration body. With seed=false the built
// network is NOT seeded from the graph — the recovery path registers
// every checkpointed view structurally and then restores each node's
// memo directly, skipping the initial scan.
func (e *Engine) registerLocked(name, query string, params map[string]value.Value, seed bool) (*View, error) {
	if _, exists := e.views[name]; exists {
		return nil, fmt.Errorf("ivm: view %q already registered", name)
	}
	e.qs.cands.Store(nil) // the set of memos is about to change
	ast, err := cypher.Parse(query)
	if err != nil {
		return nil, err
	}
	graPlan, err := gra.Compile(ast)
	if err != nil {
		return nil, err
	}
	nraPlan, err := nra.Transform(graPlan)
	if err != nil {
		return nil, err
	}
	// Render the GRA and NRA stages before flattening: Flatten rewrites
	// the operator tree in place (merging unnests into base operators),
	// and Explain should show the µ operators of the NRA stage.
	graText := gra.Format(graPlan)
	nraText := nra.Format(nraPlan)
	plan, err := fra.Flatten(nraPlan)
	if err != nil {
		return nil, err
	}
	if err := CheckFragment(plan.Root); err != nil {
		return nil, fmt.Errorf("ivm: %q: %w", name, err)
	}
	network, err := rete.Build(plan, e.g, e.reg, params)
	if err != nil {
		return nil, err
	}
	v := &View{
		name: name, query: query, engine: e, params: params,
		ast: ast, graText: graText, nraText: nraText, plan: plan,
		network: network,
	}
	v.regSeq = e.nextRegSeq
	e.nextRegSeq++
	if top, ok := plan.Root.(*nra.Top); ok {
		ordered, err := newTopOrder(top, e.g, params)
		if err != nil {
			// Unreachable after CheckFragment (the same expressions
			// compiled inside rete.Build), but fail closed.
			network.Release(e.reg)
			return nil, err
		}
		v.ordered = ordered
	}
	if seed {
		network.Seed()
	}
	if e.qs.rewriteOn.Load() {
		// Rewrite serving is on: make the new view's memo publishable (and
		// thereby a rewrite candidate) from birth.
		v.network.Prod.Watch(e.g.Epoch())
	}
	e.views[name] = v
	i := sort.Search(len(e.viewList), func(i int) bool { return e.viewList[i].name >= name })
	e.viewList = append(e.viewList, nil)
	copy(e.viewList[i+1:], e.viewList[i:])
	e.viewList[i] = v
	e.plan = e.reg.BuildPropPlan()
	return v, nil
}

// DropView detaches and forgets a view. Reference counting confines the
// detachment to the suffix of the view's node chain that no surviving
// view shares: a shared join or transitive node keeps its memory and its
// other attachments untouched.
func (e *Engine) DropView(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Log the drop before applying it, so a failed append leaves live and
	// durable state agreeing that the view still exists (the register path
	// has the mirror-image undo). After the existence check, dropLocked
	// cannot fail, so a logged drop is always applied.
	if _, ok := e.views[name]; !ok {
		return fmt.Errorf("ivm: view %q is not registered", name)
	}
	if e.dur != nil {
		if _, err := e.dur.log.AppendDrop(name); err != nil {
			return fmt.Errorf("ivm: log drop of %q: %w", name, err)
		}
	}
	return e.dropLocked(name)
}

func (e *Engine) dropLocked(name string) error {
	v, ok := e.views[name]
	if !ok {
		return fmt.Errorf("ivm: view %q is not registered", name)
	}
	e.qs.cands.Store(nil) // the set of memos is about to change
	if v.subID != 0 {
		v.network.Prod.Unsubscribe(v.subID)
	}
	v.network.Release(e.reg)
	delete(e.views, name)
	for i, lv := range e.viewList {
		if lv == v {
			e.viewList = append(e.viewList[:i], e.viewList[i+1:]...)
			break
		}
	}
	e.plan = e.reg.BuildPropPlan()
	return nil
}

// View returns a registered view by name.
func (e *Engine) View(name string) (*View, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	v, ok := e.views[name]
	return v, ok
}

// ViewNames returns the sorted names of all registered views.
func (e *Engine) ViewNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.viewList))
	for _, v := range e.viewList {
		out = append(out, v.name)
	}
	return out
}

// MemoryEntries reports the total number of memoized rows across all
// distinct live Rete nodes — each shared node counted once, however many
// views attach to it. This is the engine-level figure of the sharing
// experiment (EXP-L); View.MemoryEntries reports the per-view dependency
// closure instead.
func (e *Engine) MemoryEntries() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.reg.MemoryEntries()
}

// NodeCount reports the number of distinct live Rete nodes (including
// productions) across all views.
func (e *Engine) NodeCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.reg.NodeCount()
}

// Name returns the view's name.
func (v *View) Name() string { return v.name }

// Query returns the view's query text.
func (v *View) Query() string { return v.query }

// Schema returns the view's output attribute names.
func (v *View) Schema() schema.Schema { return v.plan.OutSchema }

// Rows returns the current view contents, one entry per bag
// multiplicity: in rank order for ordered views (the view's ORDER BY
// with the canonical tie-break — the window reads as a leaderboard),
// in canonical order otherwise.
func (v *View) Rows() []value.Row {
	rows := v.network.Prod.Rows()
	if v.ordered == nil {
		return rows
	}
	return v.rankOrdered(rows)
}

// rankOrdered maps a canonical-order slice to rank order through the
// view's identity cache. The production writes a fresh slice only when
// a commit changed the view, so slice identity doubles as a dirty flag
// for the rank-order cache: repeated reads between commits re-sort
// nothing. Rows and publication hand out the same slice, so wait-free
// PublishedRows readers and locked Rows readers share one sorted copy.
func (v *View) rankOrdered(rows []value.Row) []value.Row {
	v.orderedMu.Lock()
	defer v.orderedMu.Unlock()
	if len(rows) == len(v.orderedSrc) &&
		(len(rows) == 0 || &rows[0] == &v.orderedSrc[0]) {
		return v.orderedRows
	}
	out := make([]value.Row, len(rows))
	copy(out, rows)
	v.ordered.SortRows(out)
	v.orderedSrc, v.orderedRows = rows, out
	return out
}

// Watch turns on per-epoch row publication for this view (see
// PublishedRows) and publishes the current contents at the graph's
// current epoch. Must not run concurrently with a commit — the server
// calls it while holding its write lock.
func (v *View) Watch() {
	v.network.Prod.Watch(v.engine.g.Epoch())
}

// PublishedRows returns the view contents as of the latest committed
// epoch, wait-free: no lock is taken that the commit path needs, so a
// reader never blocks (or is blocked by) a writer. Rank order for
// ordered views, canonical order otherwise; the slice is immutable. ok
// is false until Watch has been called.
func (v *View) PublishedRows() (rows []value.Row, epoch uint64, ok bool) {
	pub := v.network.Prod.Published()
	if pub == nil {
		return nil, 0, false
	}
	rows = pub.Rows
	if v.ordered != nil {
		rows = v.rankOrdered(rows)
	}
	return rows, pub.Epoch, true
}

// Ordered reports whether the view's results carry a query-defined
// order (its plan is rooted at ORDER BY/SKIP/LIMIT); Rows() then
// returns rank order rather than the canonical order.
func (v *View) Ordered() bool { return v.ordered != nil }

// DistinctCount returns the number of distinct rows in the view.
func (v *View) DistinctCount() int { return v.network.Prod.DistinctCount() }

// OnChange subscribes fn to the view's delta stream. fn runs
// synchronously inside Commit and must not mutate the graph. It fires at
// most once per committed transaction, with the commit's coalesced net
// delta batch: transient retract/assert churn inside one commit (an edge
// added and removed in the same batch, an aggregate recomputed several
// times) nets out before subscribers see it, and an effect-free commit
// fires nothing. With several views registered, per-commit callbacks run
// in sorted view-name order, whatever the registration or scheduling
// order. Deltas are buffered only while at least one subscriber exists:
// the first OnChange call attaches the view to its production's delta
// stream, so subscriber-less views (the common case at scale) add no
// per-commit buffering or coalescing cost, shared production or not.
// Like every Engine method, OnChange must not be called while a graph
// mutation is in flight.
func (v *View) OnChange(fn func([]rete.Delta)) {
	// The production may be shared with other views; serialise the
	// subscriber-list mutation against DropView/OnChange of its peers.
	v.engine.mu.Lock()
	defer v.engine.mu.Unlock()
	if len(v.subs) == 0 {
		v.subID = v.network.Prod.Subscribe(func(ds []rete.Delta) { v.pending = append(v.pending, ds...) })
	}
	v.subs = append(v.subs, fn)
}

// flush delivers the deltas accumulated during one commit to the view's
// subscribers as a single coalesced batch.
func (v *View) flush() {
	if len(v.pending) == 0 {
		return
	}
	batch := coalesceDeltas(&v.engine.coalesceH, v.pending)
	v.pending = v.pending[:0]
	if len(batch) == 0 {
		return
	}
	if v.ordered != nil {
		// Ordered views deliver the coalesced batch in rank order, so
		// subscribers replaying it see window rows in leaderboard
		// position (coalescing leaves one delta per row, so the sort is
		// total over the batch).
		v.ordered.SortDeltas(batch)
	}
	for _, fn := range v.subs {
		fn(batch)
	}
}

// coalesceDeltas nets multiplicities per row, dropping rows that cancel
// out. Rows keep first-appearance order. Small batches — the per-commit
// common case — coalesce by pairwise comparison without building a key
// map; EqualRows agrees with key equality by construction. The map path
// encodes keys through the caller's scratch Hasher and probes with the
// zero-copy m[string(buf)] idiom, materialising a key string only when a
// new distinct row appears.
func coalesceDeltas(h *value.Hasher, ds []rete.Delta) []rete.Delta {
	if len(ds) <= 16 {
		out := make([]rete.Delta, 0, len(ds))
		for _, d := range ds {
			merged := false
			for i := range out {
				if value.EqualRows(out[i].Row, d.Row) {
					out[i].Mult += d.Mult
					merged = true
					break
				}
			}
			if !merged {
				out = append(out, d)
			}
		}
		kept := out[:0]
		for _, d := range out {
			if d.Mult != 0 {
				kept = append(kept, d)
			}
		}
		return kept
	}
	type acc struct {
		row  value.Row
		mult int
	}
	m := make(map[string]*acc, len(ds))
	order := make([]*acc, 0, len(ds))
	for _, d := range ds {
		k := h.RowKey(d.Row)
		a := m[string(k)] // zero-copy probe
		if a == nil {
			a = &acc{row: d.Row}
			m[string(k)] = a
			order = append(order, a)
		}
		a.mult += d.Mult
	}
	out := make([]rete.Delta, 0, len(order))
	for _, a := range order {
		if a.mult != 0 {
			out = append(out, rete.Delta{Row: a.row, Mult: a.mult})
		}
	}
	return out
}

// MemoryEntries reports the total number of memoized rows across the
// stateful Rete nodes this view depends on, shared nodes included (each
// counted once within this view). Engine.MemoryEntries deduplicates
// across views.
func (v *View) MemoryEntries() int { return v.network.MemoryEntries() }

// Explain renders the three compilation stages of the paper for this
// view: the GRA plan, the NRA plan (with get-edges, transitive joins and
// unnests) and the flattened FRA plan with inferred minimal schemas.
func (v *View) Explain() string {
	return "== GRA ==\n" + v.graText +
		"== NRA ==\n" + v.nraText +
		"== FRA ==\n" + nra.Format(v.plan.Root) +
		"== schema ==\n" + v.plan.OutSchema.String() + "\n"
}

// fanOutElems is the ChangeSet size from which a commit with two or
// more active groups wakes pool helpers. BenchmarkApplyCommitSize (the
// 15 non-path social views at scale 1, one worker against one forced
// hand-off, 2-core host) puts the crossover here: a hand-off costs
// +48% at 1.4 elements per commit and +10% at 2.7, breaks even from 5
// to 11, and wins from 21 elements on (−13% at 21, −35% at 85). Path
// groups are counted apart (see Apply): their cost does not show in
// the ChangeSet size.
const fanOutElems = 16

// Apply implements graph.Listener: one committed ChangeSet is translated
// once per input node, the propagation groups that have work — an input
// edge with a non-empty batch, or a path node — run, then every watched
// production publishes and each view's OnChange fires once with the
// commit's coalesced deltas, in sorted view-name order.
//
// Groups run on the committing goroutine. With NumWorkers > 1, at least
// two active groups and a commit that can pay for a hand-off — at least
// fanOutElems ChangeSet elements, or at least two active groups running
// a TransitiveNode or ShortestPathNode — up to NumWorkers−1 pool helpers
// claim groups from the same counter as the caller. A group is a
// connected component of shared subtrees, so no stateful node is ever
// touched by two goroutines; Apply returns only after every view is
// consistent and every callback has run.
func (e *Engine) Apply(cs *graph.ChangeSet) {
	e.mu.RLock()
	views := append(e.viewScratch[:0], e.viewList...)
	plan := e.plan
	dur := e.dur
	e.mu.RUnlock()
	e.viewScratch = views

	if plan != nil {
		e.propagate(plan, cs)
	}

	// Publish each watched production's post-commit row set at this
	// commit's epoch (every memo is final), making the new state visible
	// to wait-free PublishedRows readers before OnChange subscribers run.
	// Unwatched views pay one atomic load.
	for _, v := range views {
		v.network.Prod.Publish(cs.Epoch())
	}
	// Flush OnChange subscribers sequentially on the committing goroutine
	// in sorted view-name order, preserving the published callback
	// contract (synchronous, never concurrent, deterministic order)
	// regardless of NumWorkers.
	for _, v := range views {
		v.flush()
	}
	e.maybeCheckpoint(dur)
}

// propagate translates each input once, selects the groups with work and
// runs them, inline or fanned out (see Apply).
func (e *Engine) propagate(plan *rete.PropPlan, cs *graph.ChangeSet) {
	batches := e.batches[:0]
	for _, t := range plan.Inputs {
		batches = append(batches, t.TranslateChangeSet(cs))
	}
	active := e.active[:0]
	paths := 0
	for i := range plan.Groups {
		if g := &plan.Groups[i]; g.Active(batches) {
			active = append(active, g)
			if g.RunsPaths() {
				paths++
			}
		}
	}
	e.batches, e.active = batches, active

	helpers := 0
	if len(active) >= 2 && (cs.Len() >= e.fanOutAt || paths >= 2) {
		helpers = min(e.workers, len(active)) - 1
	}
	if helpers == 0 {
		for _, g := range active {
			g.Run(cs, batches)
		}
		return
	}
	e.fanOut(helpers, active, cs, batches)
}

// fanOut runs the active groups on the caller plus helpers pool
// goroutines, each claiming the next unclaimed group from one shared
// counter; wg.Wait is the commit barrier. The batches are read-only for
// the rest of the commit.
func (e *Engine) fanOut(helpers int, active []*rete.PropGroup, cs *graph.ChangeSet, batches [][]rete.Delta) {
	var next atomic.Int32
	var wg sync.WaitGroup
	run := func() {
		for i := int(next.Add(1)) - 1; i < len(active); i = int(next.Add(1)) - 1 {
			active[i].Run(cs, batches)
		}
	}
	job := func() {
		defer wg.Done()
		run()
	}
	jobs := e.pool()
	wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		jobs <- job
	}
	run()
	wg.Wait()
}
