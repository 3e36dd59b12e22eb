package rete

import (
	"sort"

	"pgiv/internal/cypher"
	"pgiv/internal/graph"
	"pgiv/internal/snapshot"
	"pgiv/internal/value"
)

// TransitiveNode incrementally maintains the transitive join r ./∗ ⇑ of
// the paper: each left row is extended with every edge-distinct path of
// Min..Max hops from its source vertex, ending at a vertex carrying the
// destination labels.
//
// Paths are atomic values (the paper's ORD compromise): an update never
// rewrites a path in place — affected paths are deleted and re-derived as
// units. The node memoizes, per active source vertex, the current set of
// "fragments" (destination vertex, path, destination properties); on a
// relevant graph change it recomputes the fragments of the affected
// sources only (found by exact containment indexing for deletions and by
// reverse reachability for insertions) and emits the difference.
type TransitiveNode struct {
	emitter
	nopSink
	memoVersion
	g         *graph.Graph
	srcIdx    int // position of the source vertex in left rows
	types     []string
	dir       cypher.Direction
	min, max  int
	dstLabels []string
	dstProps  []string

	left     *indexedMemory // left rows grouped by source vertex
	sources  map[graph.ID]*srcState
	freshIDs []graph.ID   // sources first activated during the current commit
	skh      value.Hasher // source-key scratch
	fkh      value.Hasher // fragment-key scratch (EdgeAdded dup probes)

	// reverse-reachability scratch, reused across commits
	bfsVisited map[graph.ID]bool
	bfsQueue   []graph.ID
	bfsOut     []graph.ID
}

// srcState is the memoized path set of one active source vertex.
type srcState struct {
	frags map[string]value.Row // fragment key → (dst, path, dstProps...)
	edges map[graph.ID]int     // edge → number of fragments containing it
	fresh bool                 // enumerated against the post-commit graph already

	// Deterministic fragment order, cached behind a dirty flag (mirroring
	// Production.Rows): Apply replays it once per left delta, so a stable
	// source no longer pays a key sort per delta.
	sorted      []value.Row
	sortedDirty bool
}

// sortedFrags returns the fragments in deterministic key order,
// rebuilding the cache only after a fragment-set change.
func (st *srcState) sortedFrags() []value.Row {
	if st.sortedDirty {
		keys := make([]string, 0, len(st.frags))
		for k := range st.frags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make([]value.Row, len(keys))
		for i, k := range keys {
			out[i] = st.frags[k]
		}
		st.sorted = out
		st.sortedDirty = false
	}
	return st.sorted
}

// dropEdges decrements the edge-containment counts of one removed
// fragment's path (the index is maintained incrementally; removal used to
// rebuild it from every surviving fragment).
func (st *srcState) dropEdges(frag value.Row) {
	for _, e := range frag[1].Path().Edges {
		if st.edges[e]--; st.edges[e] == 0 {
			delete(st.edges, e)
		}
	}
}

// addEdges increments the edge-containment counts of one added fragment.
func (st *srcState) addEdges(frag value.Row) {
	for _, e := range frag[1].Path().Edges {
		st.edges[e]++
	}
}

// NewTransitiveNode builds a transitive-join node. srcIdx is the source
// vertex position in left rows; dstProps are the pushed-down property keys
// of the destination vertex.
func NewTransitiveNode(g *graph.Graph, srcIdx int, types []string, dir cypher.Direction, min, max int, dstLabels, dstProps []string) *TransitiveNode {
	return &TransitiveNode{
		g: g, srcIdx: srcIdx, types: types, dir: dir, min: min, max: max,
		dstLabels: dstLabels, dstProps: dstProps,
		left:    newIndexedMemory([]int{srcIdx}),
		sources: make(map[graph.ID]*srcState),
	}
}

// computeFrags enumerates the current fragment set of a source vertex.
func (n *TransitiveNode) computeFrags(src graph.ID) map[string]value.Row {
	frags := make(map[string]value.Row)
	snapshot.PathEnum(n.g, src, n.types, n.dir, n.min, n.max, n.dstLabels, func(p *value.Path, dst *graph.Vertex) {
		frag := make(value.Row, 0, 2+len(n.dstProps))
		frag = append(frag, value.NewVertex(dst.ID), value.NewPath(p))
		for _, k := range n.dstProps {
			frag = append(frag, dst.Prop(k))
		}
		frags[value.RowKey(frag)] = frag
	})
	return frags
}

func buildEdgeIndex(frags map[string]value.Row) map[graph.ID]int {
	idx := make(map[graph.ID]int)
	for _, frag := range frags {
		for _, e := range frag[1].Path().Edges {
			idx[e]++
		}
	}
	return idx
}

// srcKey encodes a source-vertex key into scratch; valid until the next
// srcKey call.
func (n *TransitiveNode) srcKey(id graph.ID) []byte {
	return n.skh.ValueKey(value.NewVertex(id))
}

// Apply implements Receiver for the left input (port 0).
func (n *TransitiveNode) Apply(port int, deltas []Delta) {
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
		// Release the path memory once no left row references the source.
		if len(n.left.items[string(n.srcKey(id))]) == 0 {
			delete(n.sources, id)
		}
	}
	n.emitOwned(out)
}

// recomputeAndDiff refreshes the fragment sets of the given sources and
// emits deltas for every left row of each changed source.
func (n *TransitiveNode) recomputeAndDiff(ids []graph.ID) {
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

func sortRows(rows []value.Row) {
	sort.Slice(rows, func(i, j int) bool { return value.CompareRows(rows[i], rows[j]) < 0 })
}

// activeSourcesReaching returns the active sources that can reach any of
// the given vertices by traversing edges of the node's types in its
// direction (a conservative superset of the affected sources). The search
// runs backwards from the targets. The result and the search bookkeeping
// are node-owned scratch, valid until the next call.
func (n *TransitiveNode) activeSourcesReaching(targets ...graph.ID) []graph.ID {
	if n.bfsVisited == nil {
		n.bfsVisited = make(map[graph.ID]bool)
	}
	clear(n.bfsVisited)
	visited := n.bfsVisited
	queue := n.bfsQueue[:0]
	for _, t := range targets {
		if !visited[t] {
			visited[t] = true
			queue = append(queue, t)
		}
	}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		n.forEachBackwardNeighbor(x, func(p graph.ID) {
			if !visited[p] {
				visited[p] = true
				queue = append(queue, p)
			}
		})
	}
	n.bfsQueue = queue
	out := n.bfsOut[:0]
	for id := range visited {
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
func (n *TransitiveNode) forEachBackwardNeighbor(x graph.ID, fn func(graph.ID)) {
	ts := n.types
	if len(ts) == 0 {
		ts = allTypes
	}
	for _, t := range ts {
		if n.dir == cypher.DirOut || n.dir == cypher.DirBoth {
			n.g.ForEachInEdge(x, t, func(e *graph.Edge) bool {
				fn(e.Src)
				return true
			})
		}
		if n.dir == cypher.DirIn || n.dir == cypher.DirBoth {
			n.g.ForEachOutEdge(x, t, func(e *graph.Edge) bool {
				fn(e.Trg)
				return true
			})
		}
	}
}

// allTypes is the shared "no type filter" singleton, so hot loops avoid
// re-making the one-element slice.
var allTypes = []string{""}

// ApplyChangeSet implements ChangeSink. Single edge additions and
// removals — the hot fine-grained operations — route through the
// dedicated handlers below, which maintain the memoized path sets
// without re-enumeration. Arbitrary batches take one recompute-and-diff
// pass over the union of affected sources: exact edge-containment
// indexing finds the sources whose memoized paths lost an edge, and
// reverse reachability (on the post-transaction graph) finds the sources
// that can see added edges or changed destination vertices. However many
// mutations the transaction carried, each affected source is
// re-enumerated at most once per commit.
//
// Source-vertex existence is deliberately ignored here: it flows in
// through the left input (a removed source's rows are retracted against
// the still-memoized fragments, or the fragments are already gone —
// both orders yield the same net deltas).
func (n *TransitiveNode) ApplyChangeSet(cs *graph.ChangeSet) {
	defer n.clearFresh()
	if len(n.sources) == 0 {
		return
	}
	if es := cs.Edges(); len(es) == 1 && len(cs.Vertices()) == 0 {
		d := es[0]
		switch {
		case d.Created():
			n.EdgeAdded(d.E)
		case d.Removed():
			n.EdgeRemoved(d.E)
		}
		return // edge property changes never affect paths or destinations
	}

	affected := make(map[graph.ID]bool)
	var targets []graph.ID
	for _, d := range cs.Edges() {
		if !typeMatches(n.types, d.E.Type) {
			continue
		}
		if d.Removed() {
			for id, st := range n.sources {
				if st.edges[d.E.ID] > 0 {
					affected[id] = true
				}
			}
		}
		if d.Created() {
			switch n.dir {
			case cypher.DirOut:
				targets = append(targets, d.E.Src)
			case cypher.DirIn:
				targets = append(targets, d.E.Trg)
			default:
				targets = append(targets, d.E.Src, d.E.Trg)
			}
		}
	}
	for _, d := range cs.Vertices() {
		if d.Created() || d.Removed() {
			continue
		}
		relevant := false
		if d.LabelsChanged() {
			for _, l := range n.dstLabels {
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
	if len(targets) > 0 {
		for _, id := range n.activeSourcesReaching(targets...) {
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
func (n *TransitiveNode) clearFresh() {
	for _, id := range n.freshIDs {
		if st := n.sources[id]; st != nil {
			st.fresh = false
		}
	}
	n.freshIDs = n.freshIDs[:0]
}

// EdgeAdded implements GraphSink. Insertion is handled without
// re-enumerating whole path sets: every new path contains the new edge
// exactly once (path sets are edge-distinct), so it decomposes uniquely
// into a prefix reaching the edge's entry endpoint, the edge itself, and
// a suffix from its exit. The node enumerates exactly those paths —
// pruning prefix branches by reverse reachability — and inserts them as
// atomic units (cf. Bergmann et al., incremental transitive closure).
func (n *TransitiveNode) EdgeAdded(e *graph.Edge) {
	if !typeMatches(n.types, e.Type) || len(n.sources) == 0 {
		return
	}
	n.bumpMemo()
	type orient struct{ entry, exit graph.ID }
	var orients []orient
	switch n.dir {
	case cypher.DirOut:
		orients = []orient{{e.Src, e.Trg}}
	case cypher.DirIn:
		orients = []orient{{e.Trg, e.Src}}
	default:
		orients = []orient{{e.Src, e.Trg}}
		if e.Src != e.Trg {
			orients = append(orients, orient{e.Trg, e.Src})
		}
	}
	var entries []graph.ID
	for _, o := range orients {
		entries = append(entries, o.entry)
	}
	affected := n.activeSourcesReaching(entries...)
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })

	out := n.outBuf()
	for _, src := range affected {
		st := n.sources[src]
		var added []value.Row
		for _, o := range orients {
			n.pathsThroughEdge(src, e.ID, o.entry, o.exit, func(frag value.Row) {
				k := n.fkh.RowKey(frag)
				if _, dup := st.frags[string(k)]; dup { // zero-copy probe
					return
				}
				st.frags[string(k)] = frag // materialises the key on insert
				added = append(added, frag)
			})
		}
		if len(added) == 0 {
			continue
		}
		sortRows(added)
		n.left.probe(n.srcKey(src), func(lrow value.Row, count int) {
			for _, frag := range added {
				out = append(out, Delta{Row: value.ConcatRows(lrow, frag), Mult: count})
			}
		})
		for _, frag := range added {
			st.addEdges(frag)
		}
		st.sortedDirty = true
	}
	n.emitOwned(out)
}

// pathsThroughEdge enumerates the edge-distinct paths from src that
// traverse the edge (entry -eid-> exit), emitting one fragment per
// qualifying path (length within bounds, final vertex labelled).
func (n *TransitiveNode) pathsThroughEdge(src graph.ID, eid, entry, exit graph.ID, emit func(value.Row)) {
	// Vertices that can still reach the entry endpoint: prefix pruning.
	reach := n.verticesReaching(entry)
	if !reach[src] {
		return
	}
	used := map[graph.ID]bool{eid: true}

	emitIfQualifies := func(p *value.Path, dst graph.ID) {
		if p.Len() < n.min {
			return
		}
		v, ok := n.g.VertexByID(dst)
		if !ok || !vertexMatches(v, n.dstLabels) {
			return
		}
		frag := make(value.Row, 0, 2+len(n.dstProps))
		frag = append(frag, value.NewVertex(dst), value.NewPath(p))
		for _, k := range n.dstProps {
			frag = append(frag, v.Prop(k))
		}
		emit(frag)
	}

	var dfsSuffix func(cur graph.ID, p *value.Path)
	dfsSuffix = func(cur graph.ID, p *value.Path) {
		if n.max != -1 && p.Len() >= n.max {
			return
		}
		n.forEachForwardStep(cur, func(edge, next graph.ID) {
			if used[edge] {
				return
			}
			np := p.Extend(edge, next)
			emitIfQualifies(np, next)
			used[edge] = true
			dfsSuffix(next, np)
			used[edge] = false
		})
	}

	var dfsPrefix func(cur graph.ID, p *value.Path)
	dfsPrefix = func(cur graph.ID, p *value.Path) {
		if cur == entry && (n.max == -1 || p.Len() < n.max) {
			withE := p.Extend(eid, exit)
			emitIfQualifies(withE, exit)
			used[eid] = true // already set, but keep the invariant explicit
			dfsSuffix(exit, withE)
		}
		if n.max != -1 && p.Len() >= n.max-1 {
			return
		}
		n.forEachForwardStep(cur, func(edge, next graph.ID) {
			if used[edge] || !reach[next] {
				return
			}
			used[edge] = true
			dfsPrefix(next, p.Extend(edge, next))
			used[edge] = false
		})
	}
	dfsPrefix(src, &value.Path{Vertices: []int64{src}})
}

// forEachForwardStep invokes fn for every one-hop expansion from cur in
// the node's traversal direction, walking the typed adjacency index
// without allocating. Iteration over the adjacency snapshot is
// re-entrant, so fn may recurse into further forEachForwardStep calls.
func (n *TransitiveNode) forEachForwardStep(cur graph.ID, fn func(edge, next graph.ID)) {
	ts := n.types
	if len(ts) == 0 {
		ts = allTypes
	}
	for _, t := range ts {
		if n.dir == cypher.DirOut || n.dir == cypher.DirBoth {
			n.g.ForEachOutEdge(cur, t, func(e *graph.Edge) bool {
				fn(e.ID, e.Trg)
				return true
			})
		}
		if n.dir == cypher.DirIn || n.dir == cypher.DirBoth {
			n.g.ForEachInEdge(cur, t, func(e *graph.Edge) bool {
				if n.dir == cypher.DirBoth && e.Src == e.Trg {
					return true
				}
				fn(e.ID, e.Src)
				return true
			})
		}
	}
}

// verticesReaching returns all vertices that can reach x via the node's
// traversal direction (including x itself).
func (n *TransitiveNode) verticesReaching(x graph.ID) map[graph.ID]bool {
	visited := map[graph.ID]bool{x: true}
	queue := []graph.ID{x}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		n.forEachBackwardNeighbor(cur, func(p graph.ID) {
			if !visited[p] {
				visited[p] = true
				queue = append(queue, p)
			}
		})
	}
	return visited
}

// EdgeRemoved implements GraphSink. Deletion is exact and needs no
// re-enumeration: the edge-distinct path set of a source is monotone
// under edge removal, so precisely the memoized fragments whose path
// contains the edge disappear (paths are atomic units — they are deleted
// whole, per the paper's ORD treatment).
func (n *TransitiveNode) EdgeRemoved(e *graph.Edge) {
	if !typeMatches(n.types, e.Type) || len(n.sources) == 0 {
		return
	}
	n.bumpMemo()
	var affected []graph.ID
	for id, st := range n.sources {
		if st.edges[e.ID] > 0 {
			affected = append(affected, id)
		}
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })
	out := n.outBuf()
	for _, id := range affected {
		st := n.sources[id]
		var removed []value.Row
		for k, frag := range st.frags {
			if frag[1].Path().ContainsEdge(e.ID) {
				removed = append(removed, frag)
				delete(st.frags, k)
			}
		}
		if len(removed) == 0 {
			continue
		}
		sortRows(removed)
		n.left.probe(n.srcKey(id), func(lrow value.Row, count int) {
			for _, frag := range removed {
				out = append(out, Delta{Row: value.ConcatRows(lrow, frag), Mult: -count})
			}
		})
		// Decrement the removed fragments' edge counts in place — the
		// index used to be rebuilt from every surviving fragment here.
		for _, frag := range removed {
			st.dropEdges(frag)
		}
		st.sortedDirty = true
	}
	n.emitOwned(out)
}

// VertexLabelAdded implements GraphSink: destination-label changes affect
// sources that reach the vertex.
func (n *TransitiveNode) VertexLabelAdded(v *graph.Vertex, label string) {
	n.dstVertexChanged(v, label)
}

// VertexLabelRemoved implements GraphSink.
func (n *TransitiveNode) VertexLabelRemoved(v *graph.Vertex, label string) {
	n.dstVertexChanged(v, label)
}

func (n *TransitiveNode) dstVertexChanged(v *graph.Vertex, label string) {
	if !containsLabel(n.dstLabels, label) || len(n.sources) == 0 {
		return
	}
	n.recomputeAndDiff(n.activeSourcesReaching(v.ID))
}

// VertexPropertyChanged implements GraphSink: pushed-down destination
// properties of reachable vertices flow into fragments.
func (n *TransitiveNode) VertexPropertyChanged(v *graph.Vertex, key string, old value.Value) {
	if !containsLabel(n.dstProps, key) || len(n.sources) == 0 {
		return
	}
	n.recomputeAndDiff(n.activeSourcesReaching(v.ID))
}

func (n *TransitiveNode) memoryEntries() int {
	e := n.left.size()
	for _, st := range n.sources {
		e += len(st.frags)
	}
	return e
}
