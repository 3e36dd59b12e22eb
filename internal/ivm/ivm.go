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
// engine fans out to every Rete changeset sink under a single lock
// acquisition, then fires each view's OnChange subscribers once with the
// commit's net delta batch. Loading 10k mutations through one g.Batch
// therefore costs one propagation pass instead of 10k.
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

	// NumWorkers bounds the propagation worker pool. With more than one
	// worker, each committed ChangeSet is translated once per shared
	// input node and the mutable network — partitioned into connected
	// components of shared subtrees, so no stateful node is touched by
	// two workers — then propagates concurrently, one component per
	// worker. 1 preserves the fully-sequential behaviour; 0 (the
	// default) means runtime.GOMAXPROCS(0). View contents are identical
	// either way — only intra-commit scheduling differs. OnChange
	// callbacks are unaffected: whatever the worker count, they fire
	// exactly once per commit per view, sequentially, on the committing
	// goroutine, after every view's propagation has finished.
	NumWorkers int
}

// Engine maintains a set of materialised views over one property graph.
// It subscribes to the graph's committed change sets and propagates
// deltas synchronously within each commit. All Engine methods must be
// called while no graph mutation is in flight (the store serialises
// transactions; view registration is not itself serialised against
// them).
type Engine struct {
	g       *graph.Graph
	opts    Options
	workers int // resolved NumWorkers (≥1)

	mu       sync.RWMutex
	reg      *rete.SubplanRegistry
	sinks    []rete.ChangeSink       // all live changeset sinks, creation order
	sinkPos  map[rete.ChangeSink]int // sink → index in sinks (ordered compaction)
	views    map[string]*View
	viewList []*View // sorted by name: deterministic OnChange order
	plan     *rete.PropPlan
	released []rete.ChangeSink // sinks released by the registry, pending removal
	closed   bool

	// nextRegSeq numbers views by registration order (viewList is sorted
	// by name); checkpoint manifests record views in this order so that
	// no-sharing private-copy serials line up again on restore.
	nextRegSeq int

	// dur is non-nil on engines opened through OpenDurable; it carries
	// the WAL, the checkpoint store and the checkpoint cadence. Set once
	// during recovery, before any concurrent commit.
	dur *durableState

	// propagation worker pool (nil while workers == 1); started by
	// NewEngine, stopped by Close.
	jobs chan func()

	// qs is the ad-hoc query serving state (rewrite flag, counters,
	// test hook); see query.go.
	qs queryState

	// per-commit scratch, reused across commits (dispatch is serialised
	// by the store's writer lock)
	sinkScratch  []rete.ChangeSink
	viewScratch  []*View
	transScratch map[rete.Translator][]rete.Delta
	coalesceH    value.Hasher // flush-coalescing key scratch (flushes are sequential)
}

// NewEngine creates an engine bound to g and subscribes it to the graph.
func NewEngine(g *graph.Graph, opts ...Options) *Engine {
	e := &Engine{
		g:       g,
		views:   make(map[string]*View),
		sinkPos: make(map[rete.ChangeSink]int),
	}
	if len(opts) > 0 {
		e.opts = opts[0]
	}
	e.workers = e.opts.NumWorkers
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	e.reg = rete.NewSubplanRegistry(g, !e.opts.NoSharing, e.addSinkLocked, e.noteReleasedLocked)
	g.Subscribe(e)
	return e
}

// pool returns the propagation worker pool, starting it on first use.
// Only Apply calls pool, and commits are serialised by the store's
// writer lock, so creation needs no extra synchronisation; Close reads
// e.jobs only after Unsubscribe's lock barrier.
func (e *Engine) pool() chan func() {
	if e.jobs == nil {
		e.jobs = make(chan func(), e.workers)
		for i := 0; i < e.workers; i++ {
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
		e.drainReleasedLocked()
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
			e.drainReleasedLocked()
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
	e.drainReleasedLocked()
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

// addSinkLocked registers a changeset sink and records its position for
// ordered removal. Invoked by the registry for every new input or
// transitive node; caller holds e.mu (RegisterView) or runs before the
// engine is shared (NewEngine).
func (e *Engine) addSinkLocked(s rete.ChangeSink) {
	e.sinkPos[s] = len(e.sinks)
	e.sinks = append(e.sinks, s)
}

// noteReleasedLocked collects sinks whose registry entries were released;
// RegisterView (error path) and DropView drain the batch in one
// compaction pass.
func (e *Engine) noteReleasedLocked(s rete.ChangeSink) {
	e.released = append(e.released, s)
}

// drainReleasedLocked removes the collected released sinks from the
// routing list in one O(|sinks|) compaction pass via the position index.
// Relative order of the surviving sinks is preserved: the rete freshness
// optimisation relies on a subtree's input nodes preceding its transitive
// nodes in fan-out order, so a swap-delete would be incorrect here.
func (e *Engine) drainReleasedLocked() {
	drop := 0
	for _, s := range e.released {
		if _, ok := e.sinkPos[s]; ok {
			delete(e.sinkPos, s)
			drop++
		}
	}
	e.released = e.released[:0]
	if drop == 0 {
		return
	}
	kept := e.sinks[:0]
	for _, s := range e.sinks {
		if _, ok := e.sinkPos[s]; ok {
			e.sinkPos[s] = len(kept)
			kept = append(kept, s)
		}
	}
	for i := len(kept); i < len(e.sinks); i++ {
		e.sinks[i] = nil
	}
	e.sinks = kept
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
// view's identity cache. The production rebuilds its cached slice only
// when a commit touched the view, so slice identity doubles as a dirty
// flag for the rank-order cache: repeated reads between commits re-sort
// nothing. Publication hands out the same slices the legacy cache holds,
// so wait-free PublishedRows readers and locked Rows readers share one
// sorted copy.
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

// Apply implements graph.Listener: one committed ChangeSet is fanned
// out to every live sink — input nodes and transitive-join nodes — then
// each view's OnChange fires once with the commit's coalesced deltas,
// in sorted view-name order. The routing order does not affect the final
// state: every node computes deltas against the current memories of its
// peers.
//
// With NumWorkers > 1 and at least two propagation groups, the fan-out
// is scheduled in three phases: every shared input node translates the
// ChangeSet into its delta batch exactly once (emit-free); the mutable
// network — partitioned into connected components of shared subtrees, so
// two views sharing a join or transitive node land in one component —
// propagates concurrently on the worker pool, each component applying
// the precomputed input batches into its own edges and running its own
// transitive sinks; then, after the barrier, every view's OnChange
// subscribers flush sequentially on this goroutine. No stateful node is
// ever touched by two workers; Apply returns only after every view is
// consistent and every callback has run.
func (e *Engine) Apply(cs *graph.ChangeSet) {
	e.mu.RLock()
	sinks := append(e.sinkScratch[:0], e.sinks...)
	views := append(e.viewScratch[:0], e.viewList...)
	plan := e.plan
	dur := e.dur
	e.mu.RUnlock()
	e.sinkScratch = sinks
	e.viewScratch = views

	if e.workers <= 1 || plan == nil || len(plan.Groups) < 2 {
		for _, s := range sinks {
			s.ApplyChangeSet(cs)
		}
		for _, v := range views {
			v.network.Prod.Publish(cs.Epoch())
		}
		for _, v := range views {
			v.flush()
		}
		e.maybeCheckpoint(dur)
		return
	}

	// Phase 1: translate each shared input once. The batches are
	// read-only for the rest of the commit; input emitters are bypassed.
	if e.transScratch == nil {
		e.transScratch = make(map[rete.Translator][]rete.Delta)
	}
	clear(e.transScratch)
	batches := e.transScratch
	for _, s := range sinks {
		if t, ok := s.(rete.Translator); ok {
			batches[t] = t.TranslateChangeSet(cs)
		}
	}
	lookup := func(t rete.Translator) []rete.Delta { return batches[t] }

	// Phase 2: fan the propagation groups across the worker pool. Each
	// connected component of mutable nodes runs on exactly one worker;
	// wg.Wait restores the commit barrier.
	jobs := e.pool()
	var wg sync.WaitGroup
	wg.Add(len(plan.Groups))
	for i := range plan.Groups {
		grp := &plan.Groups[i]
		jobs <- func() {
			defer wg.Done()
			grp.Run(cs, lookup)
		}
	}
	wg.Wait()

	// Publish each watched production's post-commit row set at this
	// commit's epoch (after the barrier: every memo is final), making the
	// new state visible to wait-free PublishedRows readers before
	// OnChange subscribers run. Unwatched views pay one atomic load.
	for _, v := range views {
		v.network.Prod.Publish(cs.Epoch())
	}

	// Phase 3: flush OnChange subscribers sequentially on the
	// committing goroutine in sorted view-name order, preserving the
	// published callback contract (synchronous, never concurrent,
	// deterministic order) regardless of NumWorkers. The barrier above
	// makes every view's pending buffer complete and visible here.
	for _, v := range views {
		v.flush()
	}
	e.maybeCheckpoint(dur)
}
