package rete

import (
	"fmt"
	"sort"

	"pgiv/internal/graph"
	"pgiv/internal/nra"
	"pgiv/internal/value"
)

// SubplanEntry is one shared, ref-counted node of the Rete network. The
// registry keys entries by the structural fingerprint of the FRA subtree
// they compute (fra.Fingerprint), so every view whose plan contains that
// subtree — the whole chain of inputs, joins, selections, dedups,
// aggregates, transitive joins, and even the terminal production — attaches
// to the same stateful node instead of building a private copy.
//
// refs counts attachments: one per parent link using this entry as a
// child, plus one per view materialised directly by a production entry.
// When the count reaches zero the entry detaches from its children (each
// of which it holds one ref on per link) and is forgotten; memory and
// per-commit propagation cost therefore scale with the number of
// *distinct* subplans, not the number of views.
type SubplanEntry struct {
	key  string // registry map key (fingerprint; serialised when sharing is off)
	p    producer
	seed seeder

	sink    ChangeSink    // non-nil for path (transitive, shortest-path) nodes
	trans   Translator    // non-nil for input nodes
	counter memoryCounter // non-nil for stateful nodes

	production *Production // non-nil only for production entries

	// Production entries also keep the FRA plan they materialise, so the
	// rewrite planner can enumerate live memos and reason about them
	// structurally (subsumption, residual compilation). The plan is the
	// flattened NRA tree as compiled — never mutated after Build.
	prodPlan   nra.Op
	prodParams map[string]value.Value
	prodFP     string // bare plan fingerprint (without the "prod[...]" wrapper)

	refs     int
	order    int // creation sequence; fixes deterministic scheduling order
	children []childLink
}

// childLink is one use of a child entry: the successor edge from the
// child's node into this entry's node. A binary node over two copies of
// the same subtree holds two links to one child entry.
type childLink struct {
	child *SubplanEntry
	edge  succ
}

// seedEdge is a boundary edge that must be seeded when a new view
// attaches: the (pre-populated or input) child replays its current rows
// into exactly this successor edge.
type seedEdge struct {
	seed seeder
	edge succ
}

// SubplanRegistry owns every live Rete node, keyed by subplan
// fingerprint. With sharing disabled (the EXP-F/EXP-L ablation) every
// lookup misses and every registration gets a serialised private key, so
// each view builds the fully private network of the unshared engine.
type SubplanRegistry struct {
	g       *graph.Graph
	sharing bool
	serial  int
	seq     int
	entries map[string]*SubplanEntry

	onNew     func(ChangeSink) // invoked for every new path sink
	onRelease func(ChangeSink) // invoked when such a node's entry is released
}

// NewSubplanRegistry builds a registry. onNew is called for every newly
// created path sink and onRelease when the last view using one drops;
// either may be nil. The engine passes nil for both: it routes change
// sets through BuildPropPlan instead.
func NewSubplanRegistry(g *graph.Graph, sharing bool, onNew, onRelease func(ChangeSink)) *SubplanRegistry {
	return &SubplanRegistry{
		g: g, sharing: sharing,
		entries:   make(map[string]*SubplanEntry),
		onNew:     onNew,
		onRelease: onRelease,
	}
}

// lookup returns the live entry for a fingerprint, or nil. With sharing
// disabled it always misses.
func (r *SubplanRegistry) lookup(fp string) *SubplanEntry {
	if !r.sharing {
		return nil
	}
	return r.entries[fp]
}

// register stores a freshly built entry under the fingerprint (serialised
// when sharing is off), assigns its creation order and initial reference,
// and announces its changeset sink.
func (r *SubplanRegistry) register(fp string, e *SubplanEntry) *SubplanEntry {
	if !r.sharing {
		r.serial++
		fp = fmt.Sprintf("%s\x00#%d", fp, r.serial)
	}
	e.key = fp
	e.refs = 1
	e.order = r.seq
	r.seq++
	r.entries[fp] = e
	if e.sink != nil && r.onNew != nil {
		r.onNew(e.sink)
	}
	return e
}

// release drops one reference; at zero the entry detaches from its
// children (releasing one ref per link) and is forgotten.
func (r *SubplanRegistry) release(e *SubplanEntry) {
	e.refs--
	if e.refs > 0 {
		return
	}
	delete(r.entries, e.key)
	if e.sink != nil && r.onRelease != nil {
		r.onRelease(e.sink)
	}
	for _, cl := range e.children {
		cl.child.p.removeSucc(cl.edge.node, cl.edge.port)
		r.release(cl.child)
	}
	e.children = nil
}

// MemoryEntries sums the memoized rows of every distinct live node —
// the engine-level memory figure of the sharing experiment (each shared
// node counted once however many views attach to it).
func (r *SubplanRegistry) MemoryEntries() int {
	total := 0
	for _, e := range r.entries {
		if e.counter != nil {
			total += e.counter.memoryEntries()
		}
	}
	return total
}

// NodeCount returns the number of distinct live nodes (including
// productions).
func (r *SubplanRegistry) NodeCount() int { return len(r.entries) }

// Candidate is one live memoized production exposed to the query-rewrite
// planner: the FRA plan it materialises (read-only), the parameters it
// was compiled with, its bare plan fingerprint, and the Production whose
// Published() rows hold the epoch-stamped memo.
type Candidate struct {
	Fingerprint string
	Plan        nra.Op
	Params      map[string]value.Value
	Prod        *Production
	Order       int
}

// Candidates enumerates every live production entry in deterministic
// creation order. It is a read-only view: the returned plans and
// productions are shared, not copied, and callers must access rows only
// through Production.Published(). Works identically with sharing off —
// serialised keys still hold production entries with plans.
func (r *SubplanRegistry) Candidates() []Candidate {
	out := make([]Candidate, 0, len(r.entries))
	for _, e := range r.entries {
		if e.production == nil || e.prodPlan == nil {
			continue
		}
		out = append(out, Candidate{
			Fingerprint: e.prodFP,
			Plan:        e.prodPlan,
			Params:      e.prodParams,
			Prod:        e.production,
			Order:       e.order,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// --- propagation plan ---

// PropPlan is the engine's propagation schedule. Inputs lists the live
// input (alpha) nodes in creation order; each commit translates every
// one of them exactly once, into a batch slice indexed like Inputs.
// Every other node is partitioned into Groups by connected components of
// the successor graph — two views sharing any stateful subtree land in
// one group, so a group can run on any goroutine without touching
// another group's nodes.
type PropPlan struct {
	Inputs []Translator
	Groups []PropGroup
}

// PropGroup is one connected component of mutable nodes: the input edges
// feeding it (in deterministic creation order, each naming its input by
// index into PropPlan.Inputs) and its path sinks (in creation order).
type PropGroup struct {
	inputs []inputEdge
	sinks  []ChangeSink
}

type inputEdge struct {
	in   int // index into PropPlan.Inputs and the per-commit batches
	edge succ
}

// Active reports whether the group has work in a commit whose translated
// input batches are batches: an input edge with a non-empty batch, or a
// path sink, which reads the change set itself.
func (g *PropGroup) Active(batches [][]Delta) bool {
	if len(g.sinks) > 0 {
		return true
	}
	for _, ie := range g.inputs {
		if len(batches[ie.in]) > 0 {
			return true
		}
	}
	return false
}

// RunsPaths reports whether the group holds a path sink (a TransitiveNode
// or ShortestPathNode), whose cost the input batches do not show.
func (g *PropGroup) RunsPaths() bool { return len(g.sinks) > 0 }

// Run propagates one committed change set through the group: the
// translated input batches (read-only, shared across groups) are applied
// into the group's edges, then the group's path sinks consume the change
// set directly. Inputs run before sinks: a path node that activates a
// source from a left delta marks it fresh, and its ApplyChangeSet relies
// on that mark to skip re-enumerating the source.
func (g *PropGroup) Run(cs *graph.ChangeSet, batches [][]Delta) {
	for _, ie := range g.inputs {
		if ds := batches[ie.in]; len(ds) > 0 {
			ie.edge.node.Apply(ie.edge.port, ds)
		}
	}
	for _, s := range g.sinks {
		s.ApplyChangeSet(cs)
	}
}

// BuildPropPlan computes the current propagation schedule. The engine
// rebuilds it whenever a view registers or drops; commits only read it.
func (r *SubplanRegistry) BuildPropPlan() *PropPlan {
	entries := make([]*SubplanEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].order < entries[j].order })

	// Union-find over mutable (non-input) entries, connected by links.
	parent := make(map[*SubplanEntry]*SubplanEntry, len(entries))
	var find func(e *SubplanEntry) *SubplanEntry
	find = func(e *SubplanEntry) *SubplanEntry {
		p, ok := parent[e]
		if !ok || p == e {
			parent[e] = e
			return e
		}
		root := find(p)
		parent[e] = root
		return root
	}
	plan := &PropPlan{}
	inputIdx := make(map[*SubplanEntry]int)
	for _, e := range entries {
		if e.trans != nil {
			inputIdx[e] = len(plan.Inputs)
			plan.Inputs = append(plan.Inputs, e.trans)
			continue
		}
		for _, cl := range e.children {
			if cl.child.trans == nil {
				if ra, rb := find(e), find(cl.child); ra != rb {
					parent[rb] = ra
				}
			}
		}
	}
	groupOf := make(map[*SubplanEntry]int)
	for _, e := range entries {
		if e.trans != nil {
			continue
		}
		root := find(e)
		gi, ok := groupOf[root]
		if !ok {
			gi = len(plan.Groups)
			groupOf[root] = gi
			plan.Groups = append(plan.Groups, PropGroup{})
		}
		g := &plan.Groups[gi]
		for _, cl := range e.children {
			if cl.child.trans != nil {
				g.inputs = append(g.inputs, inputEdge{in: inputIdx[cl.child], edge: cl.edge})
			}
		}
		if e.sink != nil {
			g.sinks = append(g.sinks, e.sink)
		}
	}
	return plan
}
