package rete

import (
	"sort"

	"pgiv/internal/cypher"
	"pgiv/internal/graph"
	"pgiv/internal/snapshot"
	"pgiv/internal/value"
)

// ShortestPathNode incrementally maintains the shortest-path join: each
// left row is extended with, per reachable destination, the single
// cheapest edge-distinct trail of Min..Max usable edges from its source
// vertex (snapshot.ShortestPathEnum defines usability, cost and the
// deterministic tie-break).
//
// The node memoizes per active source vertex a distance-fragment set —
// one fragment (destination, witness path, cost, destination properties)
// per reachable destination — plus a containment index counting, per
// edge, how many witness paths cross it. Repair is a bounded
// delta-Dijkstra in the style of TransitiveNode: an edge removal can only
// change champions of sources whose witness set contains the edge (a
// non-witness edge's removal shrinks the candidate set without touching
// the incumbent), found exactly via the containment index; an edge
// insertion can only improve sources within Max reverse hops of the
// edge's entry endpoint, found by a depth-bounded reverse BFS; a weight
// or predicate property change can do either, so it takes the union.
// Each affected source is re-enumerated at most once per commit and the
// fragment-set difference is emitted.
type ShortestPathNode struct {
	emitter
	memoVersion
	g        *graph.Graph
	srcIdx   int // position of the source vertex in left rows
	spec     *snapshot.ShortestPathSpec
	dstProps []string

	left     *indexedMemory // left rows grouped by source vertex
	sources  map[graph.ID]*srcState
	freshIDs []graph.ID   // sources first activated during the current commit
	skh      value.Hasher // source-key scratch

	// depth-bounded reverse-reachability scratch, reused across commits
	bfsDepth map[graph.ID]int
	bfsQueue []graph.ID
	bfsOut   []graph.ID
}

// NewShortestPathNode builds a shortest-path node. srcIdx is the source
// vertex position in left rows; dstProps are the pushed-down property
// keys of the destination vertex.
func NewShortestPathNode(g *graph.Graph, srcIdx int, spec *snapshot.ShortestPathSpec, dstProps []string) *ShortestPathNode {
	return &ShortestPathNode{
		g: g, srcIdx: srcIdx, spec: spec, dstProps: dstProps,
		left:    newIndexedMemory([]int{srcIdx}),
		sources: make(map[graph.ID]*srcState),
	}
}

// computeFrags enumerates the current fragment set of a source vertex:
// one (dst, path, cost, dstProps...) row per reachable destination. The
// layout keeps the witness path at index 1, so srcState's containment
// bookkeeping (dropEdges/addEdges) applies unchanged.
func (n *ShortestPathNode) computeFrags(src graph.ID) map[string]value.Row {
	frags := make(map[string]value.Row)
	snapshot.ShortestPathEnum(n.g, src, n.spec, func(p *value.Path, dst *graph.Vertex, cost value.Value) {
		frag := make(value.Row, 0, 3+len(n.dstProps))
		frag = append(frag, value.NewVertex(dst.ID), value.NewPath(p), cost)
		for _, k := range n.dstProps {
			frag = append(frag, dst.Prop(k))
		}
		frags[value.RowKey(frag)] = frag
	})
	return frags
}

// srcKey encodes a source-vertex key into scratch; valid until the next
// srcKey call.
func (n *ShortestPathNode) srcKey(id graph.ID) []byte {
	return n.skh.ValueKey(value.NewVertex(id))
}

// Apply implements Receiver for the left input (port 0).
func (n *ShortestPathNode) Apply(port int, deltas []Delta) {
	if len(deltas) > 0 {
		n.bumpMemo()
	}
	out := n.outBuf()
	for _, d := range deltas {
		srcVal := d.Row[n.srcIdx]
		if srcVal.Kind() != value.KindVertex {
			n.left.apply(d.Row, d.Mult)
			continue
		}
		id := srcVal.ID()
		st := n.sources[id]
		if st == nil && d.Mult > 0 {
			// A source activated mid-commit enumerates against the already
			// fully-applied graph; mark it so this commit's batch pass does
			// not re-enumerate it (left deltas always precede the node's
			// own ApplyChangeSet — PropGroup.Run runs inputs before sinks).
			st = &srcState{frags: n.computeFrags(id), fresh: true, sortedDirty: true}
			st.edges = buildEdgeIndex(st.frags)
			n.sources[id] = st
			n.freshIDs = append(n.freshIDs, id)
		}
		n.left.apply(d.Row, d.Mult)
		if st != nil {
			for _, frag := range st.sortedFrags() {
				out = append(out, Delta{Row: value.ConcatRows(d.Row, frag), Mult: d.Mult})
			}
		}
		// Release the fragment memory once no left row references the source.
		if len(n.left.items[string(n.srcKey(id))]) == 0 {
			delete(n.sources, id)
		}
	}
	n.emitOwned(out)
}

// recomputeAndDiff refreshes the fragment sets of the given sources and
// emits deltas for every left row of each changed source.
func (n *ShortestPathNode) recomputeAndDiff(ids []graph.ID) {
	n.bumpMemo()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := n.outBuf()
	for _, id := range ids {
		st := n.sources[id]
		if st == nil || st.fresh {
			continue
		}
		newFrags := n.computeFrags(id)
		var removed, added []value.Row
		for k, frag := range st.frags {
			if _, ok := newFrags[k]; !ok {
				removed = append(removed, frag)
			}
		}
		for k, frag := range newFrags {
			if _, ok := st.frags[k]; !ok {
				added = append(added, frag)
			}
		}
		if len(removed) == 0 && len(added) == 0 {
			st.frags = newFrags
			continue
		}
		sortRows(removed)
		sortRows(added)
		n.left.probe(n.srcKey(id), func(lrow value.Row, count int) {
			for _, frag := range removed {
				out = append(out, Delta{Row: value.ConcatRows(lrow, frag), Mult: -count})
			}
			for _, frag := range added {
				out = append(out, Delta{Row: value.ConcatRows(lrow, frag), Mult: count})
			}
		})
		for _, frag := range removed {
			st.dropEdges(frag)
		}
		for _, frag := range added {
			st.addEdges(frag)
		}
		st.frags = newFrags
		st.sortedDirty = true
	}
	n.emitOwned(out)
}

// activeSourcesWithin returns the active sources within limit backward
// hops (limit == -1 means unbounded) of any of the given targets,
// traversing edges of the node's types against its direction — a
// conservative superset of the sources whose hop window can see the
// targets. vertexTargets seed the reverse BFS at depth 0; edgeEntries —
// entry endpoints of changed edges — seed at depth 1, because crossing
// the changed edge itself already spends one of the trail's Max hops, so
// only sources within Max-1 hops of the entry can use it. Skipping that
// final BFS layer shrinks the explored ball by roughly a branching
// factor. The result and the bookkeeping are node-owned scratch, valid
// until the next call.
func (n *ShortestPathNode) activeSourcesWithin(limit int, vertexTargets, edgeEntries []graph.ID) []graph.ID {
	if n.bfsDepth == nil {
		n.bfsDepth = make(map[graph.ID]int)
	}
	clear(n.bfsDepth)
	depth := n.bfsDepth
	queue := n.bfsQueue[:0]
	for _, t := range vertexTargets {
		if _, ok := depth[t]; !ok {
			depth[t] = 0
			queue = append(queue, t)
		}
	}
	for _, t := range edgeEntries {
		if _, ok := depth[t]; !ok {
			depth[t] = 1
			queue = append(queue, t)
		}
	}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		d := depth[x]
		if limit != -1 && d >= limit {
			continue
		}
		n.forEachBackwardNeighbor(x, func(p graph.ID) {
			if _, ok := depth[p]; !ok {
				depth[p] = d + 1
				queue = append(queue, p)
			}
		})
	}
	n.bfsQueue = queue
	out := n.bfsOut[:0]
	for id := range depth {
		if _, ok := n.sources[id]; ok {
			out = append(out, id)
		}
	}
	n.bfsOut = out
	return out
}

// forEachBackwardNeighbor invokes fn for every vertex that can step to x
// in one hop of the node's traversal direction, walking the typed
// adjacency index without allocating.
func (n *ShortestPathNode) forEachBackwardNeighbor(x graph.ID, fn func(graph.ID)) {
	ts := n.spec.Types
	if len(ts) == 0 {
		ts = allTypes
	}
	for _, t := range ts {
		if n.spec.Dir == cypher.DirOut || n.spec.Dir == cypher.DirBoth {
			n.g.ForEachInEdge(x, t, func(e *graph.Edge) bool {
				fn(e.Src)
				return true
			})
		}
		if n.spec.Dir == cypher.DirIn || n.spec.Dir == cypher.DirBoth {
			n.g.ForEachOutEdge(x, t, func(e *graph.Edge) bool {
				fn(e.Trg)
				return true
			})
		}
	}
}

// appendEntries appends the entry endpoint(s) of an edge — the vertices a
// path is at immediately before crossing it — per the node's direction.
func (n *ShortestPathNode) appendEntries(targets []graph.ID, e *graph.Edge) []graph.ID {
	switch n.spec.Dir {
	case cypher.DirOut:
		return append(targets, e.Src)
	case cypher.DirIn:
		return append(targets, e.Trg)
	default:
		return append(targets, e.Src, e.Trg)
	}
}

// edgePropRelevant reports whether any of the changed edge property keys
// can affect path cost or edge usability.
func (n *ShortestPathNode) edgePropRelevant(keys []string) bool {
	for _, k := range keys {
		if n.spec.WeightProp != "" && k == n.spec.WeightProp {
			return true
		}
		for _, p := range n.spec.EdgePreds {
			if p.Key == k {
				return true
			}
		}
	}
	return false
}

// ApplyChangeSet implements ChangeSink. Unlike TransitiveNode there is no
// property-blind fast path: an edge property change can re-weight or
// (un)block paths, so weight/predicate keys are part of the relevance
// check. Affected sources are the union of exact witness containment (for
// removals and property changes) and the depth-bounded reverse BFS from
// changed entry points (for insertions, property changes and destination
// vertex changes); each is re-enumerated at most once per commit.
//
// Source-vertex existence is deliberately ignored here: it flows in
// through the left input (a removed source's rows are retracted against
// the still-memoized fragments, or the fragments are already gone — both
// orders yield the same net deltas).
func (n *ShortestPathNode) ApplyChangeSet(cs *graph.ChangeSet) {
	defer n.clearFresh()
	if len(n.sources) == 0 {
		return
	}
	affected := make(map[graph.ID]bool)
	markWitnesses := func(eid graph.ID) {
		for id, st := range n.sources {
			if st.edges[eid] > 0 {
				affected[id] = true
			}
		}
	}
	var entries, targets []graph.ID
	for _, d := range cs.Edges() {
		if !typeMatches(n.spec.Types, d.E.Type) {
			continue
		}
		switch {
		case d.Created():
			entries = n.appendEntries(entries, d.E)
		case d.Removed():
			// Removing a non-witness edge cannot change a champion: the
			// incumbent survives and the candidate set only shrinks.
			markWitnesses(d.E.ID)
		default:
			if n.edgePropRelevant(d.ChangedProps()) {
				// A re-weight or predicate flip can evict the edge from
				// current witnesses or open a cheaper trail for any source
				// that can reach it: take the union of both searches.
				markWitnesses(d.E.ID)
				entries = n.appendEntries(entries, d.E)
			}
		}
	}
	for _, d := range cs.Vertices() {
		if d.Created() || d.Removed() {
			continue
		}
		relevant := false
		if d.LabelsChanged() {
			for _, l := range n.spec.DstLabels {
				if d.HadLabel(l) != d.V.HasLabel(l) {
					relevant = true
					break
				}
			}
		}
		if !relevant {
			for _, k := range d.ChangedProps() {
				if containsLabel(n.dstProps, k) {
					relevant = true
					break
				}
			}
		}
		if relevant {
			targets = append(targets, d.V.ID)
		}
	}
	if len(targets) > 0 || len(entries) > 0 {
		for _, id := range n.activeSourcesWithin(n.spec.Max, targets, entries) {
			affected[id] = true
		}
	}
	if len(affected) == 0 {
		return
	}
	ids := make([]graph.ID, 0, len(affected))
	for id := range affected {
		ids = append(ids, id)
	}
	n.recomputeAndDiff(ids)
}

// clearFresh ends the current commit's freshness window.
func (n *ShortestPathNode) clearFresh() {
	for _, id := range n.freshIDs {
		if st := n.sources[id]; st != nil {
			st.fresh = false
		}
	}
	n.freshIDs = n.freshIDs[:0]
}

func (n *ShortestPathNode) memoryEntries() int {
	e := n.left.size()
	for _, st := range n.sources {
		e += len(st.frags)
	}
	return e
}
