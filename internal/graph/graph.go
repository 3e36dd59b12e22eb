// Package graph implements an in-memory property graph store with
// transactional, coalesced change notification.
//
// The store realises the paper's data model (Section 2):
//
//	G = (V, E, st, L, T, labels, types, Pv, Pe)
//
// Vertices carry a set of labels and a property map; edges carry a type and
// a property map. The store maintains label, type and adjacency indices.
//
// Mutation and notification are transactional: every change happens inside
// a transaction (Tx), and listeners receive exactly one ChangeSet — the
// ordered, self-coalescing net effect of the transaction — per commit.
// The classic single-shot mutators (AddVertex, AddEdge, ...) remain and
// auto-commit a one-operation transaction each, so a ChangeSet carrying a
// single element delta is the batched generalisation of the paper's
// fine-granularity (FGN) update operations: a property write still reaches
// consumers as a single property-level transition, never a wholesale row
// replacement. Multi-operation updates should use Batch (or Begin/Commit),
// which amortises lock acquisition and delta propagation across the whole
// change set — see ChangeSet for the coalescing rules.
//
// Concurrency: transactions are serialised by an internal writer mutex
// held from Begin to Commit/Rollback; data is additionally guarded by an
// RWMutex so readers may run concurrently with each other. Listeners are
// invoked synchronously inside Commit (the data lock is released first,
// so listeners may read the graph). Listeners must not mutate the graph.
package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pgiv/internal/value"
)

// ID identifies a vertex or an edge. Vertex and edge ID spaces are
// disjoint sequences assigned by the store.
type ID = int64

// Vertex is a labelled vertex with a property map. The exported fields and
// the accessor results must be treated as read-only by callers.
type Vertex struct {
	ID     ID
	labels []string // sorted
	props  map[string]value.Value
}

// HasLabel reports whether the vertex carries the given label.
func (v *Vertex) HasLabel(label string) bool {
	i := sort.SearchStrings(v.labels, label)
	return i < len(v.labels) && v.labels[i] == label
}

// Labels returns the sorted labels of the vertex. Callers must not mutate
// the returned slice.
func (v *Vertex) Labels() []string { return v.labels }

// Prop returns the value of the property key, or null if absent.
func (v *Vertex) Prop(key string) value.Value {
	if p, ok := v.props[key]; ok {
		return p
	}
	return value.Null
}

// PropKeys returns the sorted property keys of the vertex.
func (v *Vertex) PropKeys() []string { return sortedPropKeys(v.props) }

// Edge is a typed edge with a property map. Src and Trg are vertex IDs.
type Edge struct {
	ID    ID
	Src   ID
	Trg   ID
	Type  string
	props map[string]value.Value
}

// Prop returns the value of the property key, or null if absent.
func (e *Edge) Prop(key string) value.Value {
	if p, ok := e.props[key]; ok {
		return p
	}
	return value.Null
}

// PropKeys returns the sorted property keys of the edge.
func (e *Edge) PropKeys() []string { return sortedPropKeys(e.props) }

func sortedPropKeys(m map[string]value.Value) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Listener receives the coalesced net effect of each committed
// transaction as one ChangeSet. Apply runs synchronously inside Commit,
// after every change of the transaction has been applied to the store;
// removed elements remain readable through their deltas. Listeners must
// not mutate the graph. Per-event consumers can wrap themselves with
// AdaptEvents.
type Listener interface {
	Apply(cs *ChangeSet)
}

// adjacency is one vertex's incident-edge index for one direction: the
// full edge list plus per-type buckets, every slice kept sorted by edge
// ID on insert. Reads are plain index lookups; no per-call copy, filter
// or sort.
type adjacency struct {
	all    []*Edge
	byType map[string][]*Edge
}

// insert links e into both the all-types view and its type bucket.
// Edge IDs are assigned monotonically, so the common case is an append;
// rollback re-links old (smaller) IDs and takes the binary-search path.
func (a *adjacency) insert(e *Edge) {
	a.all = insertEdgeSorted(a.all, e)
	if a.byType == nil {
		a.byType = make(map[string][]*Edge, 1)
	}
	a.byType[e.Type] = insertEdgeSorted(a.byType[e.Type], e)
}

// remove unlinks e, preserving the sorted order of the survivors.
func (a *adjacency) remove(e *Edge) {
	a.all = removeEdgeSorted(a.all, e.ID)
	if b := removeEdgeSorted(a.byType[e.Type], e.ID); len(b) > 0 {
		a.byType[e.Type] = b
	} else {
		delete(a.byType, e.Type)
	}
}

// edges returns the sorted bucket for typ ("" selects all).
func (a *adjacency) edges(typ string) []*Edge {
	if a == nil {
		return nil
	}
	if typ == "" {
		return a.all
	}
	return a.byType[typ]
}

// insertEdgeSorted and removeEdgeSorted never mutate elements a
// previously returned slice can see: the common insert is a plain
// append (readers' shorter views never index the new slot), and
// mid-slice inserts (rollback) and removals build a fresh array. A
// slice fetched from the index under the read lock is therefore an
// immutable snapshot — concurrent commits publish new slices instead
// of shifting the one readers may still be walking.
func insertEdgeSorted(s []*Edge, e *Edge) []*Edge {
	if n := len(s); n == 0 || s[n-1].ID < e.ID {
		return append(s, e)
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].ID >= e.ID })
	ns := make([]*Edge, len(s)+1)
	copy(ns, s[:i])
	ns[i] = e
	copy(ns[i+1:], s[i:])
	return ns
}

func removeEdgeSorted(s []*Edge, id ID) []*Edge {
	i := sort.Search(len(s), func(i int) bool { return s[i].ID >= id })
	if i >= len(s) || s[i].ID != id {
		return s
	}
	ns := make([]*Edge, 0, len(s)-1)
	ns = append(ns, s[:i]...)
	return append(ns, s[i+1:]...)
}

// Graph is an in-memory property graph. The zero value is not usable; use
// New.
type Graph struct {
	wmu sync.Mutex   // serialises transactions and notifications
	mu  sync.RWMutex // guards the maps below

	vertices map[ID]*Vertex
	edges    map[ID]*Edge
	byLabel  map[string]map[ID]*Vertex
	byType   map[string]map[ID]*Edge
	out      map[ID]*adjacency // adjacency by source vertex
	in       map[ID]*adjacency // adjacency by target vertex

	nextVertexID ID
	nextEdgeID   ID

	listeners []Listener

	// commitLog, when non-nil, persists every committed change set
	// before it becomes visible (see CommitLog). Guarded by wmu.
	commitLog CommitLog

	// epoch counts committed non-empty transactions; every dispatched
	// ChangeSet carries the epoch assigned to its commit. mvcc, once
	// EnableMVCC runs, holds the copy-on-write versioned mirror that
	// backs pinned-epoch Snapshots (see mvcc.go); while nil the only
	// per-commit MVCC cost is one atomic load.
	epoch atomic.Uint64
	mvcc  atomic.Pointer[mvccState]
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		vertices: make(map[ID]*Vertex),
		edges:    make(map[ID]*Edge),
		byLabel:  make(map[string]map[ID]*Vertex),
		byType:   make(map[string]map[ID]*Edge),
		out:      make(map[ID]*adjacency),
		in:       make(map[ID]*adjacency),
	}
}

// Subscribe registers a listener for committed change sets.
func (g *Graph) Subscribe(l Listener) {
	g.wmu.Lock()
	defer g.wmu.Unlock()
	g.listeners = append(g.listeners, l)
}

// Unsubscribe removes a previously registered listener.
func (g *Graph) Unsubscribe(l Listener) {
	g.wmu.Lock()
	defer g.wmu.Unlock()
	for i, x := range g.listeners {
		if x == l {
			g.listeners = append(g.listeners[:i], g.listeners[i+1:]...)
			return
		}
	}
}

// dispatch delivers a committed changeset to all listeners. The caller
// holds wmu (but not mu, so listeners may read the graph).
func (g *Graph) dispatch(cs *ChangeSet) {
	for _, l := range g.listeners {
		l.Apply(cs)
	}
}

// Exclusive runs fn while holding the writer lock: no transaction can
// commit and no listener can run until fn returns. fn must not mutate
// the graph (reads are fine) — it exists for consistent multi-structure
// reads such as a shutdown-time checkpoint of the graph plus downstream
// state. Calling Exclusive from inside a listener deadlocks (the lock is
// already held there; listeners already run exclusively).
func (g *Graph) Exclusive(fn func()) {
	g.wmu.Lock()
	defer g.wmu.Unlock()
	fn()
}

// --- locked store mutation helpers (caller holds g.mu) ---

func (g *Graph) addVertexLocked(labels []string, props map[string]value.Value) *Vertex {
	g.nextVertexID++
	v := &Vertex{ID: g.nextVertexID, props: make(map[string]value.Value, len(props))}
	seen := make(map[string]bool, len(labels))
	for _, l := range labels {
		if !seen[l] {
			seen[l] = true
			v.labels = append(v.labels, l)
		}
	}
	sort.Strings(v.labels)
	for k, p := range props {
		if !p.IsNull() {
			v.props[k] = p
		}
	}
	g.vertices[v.ID] = v
	for _, l := range v.labels {
		g.indexLabel(v, l)
	}
	return v
}

func (g *Graph) addEdgeLocked(src, trg ID, typ string, props map[string]value.Value) (*Edge, error) {
	if _, ok := g.vertices[src]; !ok {
		return nil, fmt.Errorf("graph: add edge: source vertex %d does not exist", src)
	}
	if _, ok := g.vertices[trg]; !ok {
		return nil, fmt.Errorf("graph: add edge: target vertex %d does not exist", trg)
	}
	g.nextEdgeID++
	e := &Edge{ID: g.nextEdgeID, Src: src, Trg: trg, Type: typ, props: make(map[string]value.Value, len(props))}
	for k, p := range props {
		if !p.IsNull() {
			e.props[k] = p
		}
	}
	g.edges[e.ID] = e
	m := g.byType[typ]
	if m == nil {
		m = make(map[ID]*Edge)
		g.byType[typ] = m
	}
	m[e.ID] = e
	g.linkEdgeLocked(e)
	return e, nil
}

// linkEdgeLocked inserts e into both adjacency indexes. Caller holds
// g.mu. Also used by rollback to restore removed edges (whose IDs are
// smaller than the current tail, hence the sorted insert).
func (g *Graph) linkEdgeLocked(e *Edge) {
	ao := g.out[e.Src]
	if ao == nil {
		ao = &adjacency{}
		g.out[e.Src] = ao
	}
	ao.insert(e)
	ai := g.in[e.Trg]
	if ai == nil {
		ai = &adjacency{}
		g.in[e.Trg] = ai
	}
	ai.insert(e)
}

func (g *Graph) indexLabel(v *Vertex, label string) {
	m := g.byLabel[label]
	if m == nil {
		m = make(map[ID]*Vertex)
		g.byLabel[label] = m
	}
	m[v.ID] = v
}

func (g *Graph) unindexLabel(id ID, label string) {
	if m := g.byLabel[label]; m != nil {
		delete(m, id)
		if len(m) == 0 {
			delete(g.byLabel, label)
		}
	}
}

// removeEdgeLocked unlinks e from all indices. Caller holds g.mu.
func (g *Graph) removeEdgeLocked(e *Edge) {
	delete(g.edges, e.ID)
	if m := g.byType[e.Type]; m != nil {
		delete(m, e.ID)
		if len(m) == 0 {
			delete(g.byType, e.Type)
		}
	}
	if a := g.out[e.Src]; a != nil {
		a.remove(e)
	}
	if a := g.in[e.Trg]; a != nil {
		a.remove(e)
	}
}

// --- auto-committed single-operation mutators ---

// AddVertex adds a vertex in an auto-committed one-op transaction and
// returns its ID. Null-valued properties are ignored. The label slice and
// property map are copied.
func (g *Graph) AddVertex(labels []string, props map[string]value.Value) ID {
	tx := g.Begin()
	id := tx.AddVertex(labels, props)
	_ = tx.Commit()
	return id
}

// AddEdge adds a typed edge between existing vertices in an
// auto-committed one-op transaction and returns its ID.
func (g *Graph) AddEdge(src, trg ID, typ string, props map[string]value.Value) (ID, error) {
	tx := g.Begin()
	id, err := tx.AddEdge(src, trg, typ, props)
	_ = tx.Commit()
	return id, err
}

// RemoveEdge removes the edge with the given ID (auto-committed).
func (g *Graph) RemoveEdge(id ID) error {
	tx := g.Begin()
	err := tx.RemoveEdge(id)
	_ = tx.Commit()
	return err
}

// RemoveVertex removes the vertex and all its incident edges
// (auto-committed). The resulting ChangeSet carries the incident edge
// removals alongside the vertex removal; removed objects stay readable
// through their deltas.
func (g *Graph) RemoveVertex(id ID) error {
	tx := g.Begin()
	err := tx.RemoveVertex(id)
	_ = tx.Commit()
	return err
}

// SetVertexProperty sets (or, with a null value, removes) a vertex
// property (auto-committed). No change is recorded if the value is
// unchanged.
func (g *Graph) SetVertexProperty(id ID, key string, val value.Value) error {
	tx := g.Begin()
	err := tx.SetVertexProperty(id, key, val)
	_ = tx.Commit()
	return err
}

// SetEdgeProperty sets (or, with a null value, removes) an edge property
// (auto-committed).
func (g *Graph) SetEdgeProperty(id ID, key string, val value.Value) error {
	tx := g.Begin()
	err := tx.SetEdgeProperty(id, key, val)
	_ = tx.Commit()
	return err
}

// AddVertexLabel adds a label to an existing vertex (auto-committed).
// Adding an existing label is a no-op.
func (g *Graph) AddVertexLabel(id ID, label string) error {
	tx := g.Begin()
	err := tx.AddVertexLabel(id, label)
	_ = tx.Commit()
	return err
}

// RemoveVertexLabel removes a label from an existing vertex
// (auto-committed). Removing an absent label is a no-op.
func (g *Graph) RemoveVertexLabel(id ID, label string) error {
	tx := g.Begin()
	err := tx.RemoveVertexLabel(id, label)
	_ = tx.Commit()
	return err
}

// --- readers ---

// VertexByID returns the vertex with the given ID.
func (g *Graph) VertexByID(id ID) (*Vertex, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	v, ok := g.vertices[id]
	return v, ok
}

// EdgeByID returns the edge with the given ID.
func (g *Graph) EdgeByID(id ID) (*Edge, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.edges[id]
	return e, ok
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.vertices)
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.edges)
}

// VerticesByLabel returns the vertices carrying the given label, sorted by
// ID. An empty label selects all vertices.
func (g *Graph) VerticesByLabel(label string) []*Vertex {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []*Vertex
	if label == "" {
		out = make([]*Vertex, 0, len(g.vertices))
		for _, v := range g.vertices {
			out = append(out, v)
		}
	} else {
		m := g.byLabel[label]
		out = make([]*Vertex, 0, len(m))
		for _, v := range m {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// EdgesByType returns the edges of the given type, sorted by ID. An empty
// type selects all edges.
func (g *Graph) EdgesByType(typ string) []*Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []*Edge
	if typ == "" {
		out = make([]*Edge, 0, len(g.edges))
		for _, e := range g.edges {
			out = append(out, e)
		}
	} else {
		m := g.byType[typ]
		out = make([]*Edge, 0, len(m))
		for _, e := range m {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// streamExtent calls fn for every element of the map pick selects, until
// fn returns false. The element pointers are copied out under the read
// lock and fn runs outside it, so it may read the graph freely (the
// ForEachOutEdge discipline); the copy lives in a pooled buffer, which
// keeps a scan allocation-free in steady state.
func streamExtent[T any](g *Graph, pool *sync.Pool, pick func() map[ID]*T, fn func(*T) bool) {
	buf := pool.Get().(*[]*T)
	xs := (*buf)[:0]
	g.mu.RLock()
	for _, x := range pick() {
		xs = append(xs, x)
	}
	g.mu.RUnlock()
	for _, x := range xs {
		if !fn(x) {
			break
		}
	}
	clear(xs) // the pool must not pin removed elements
	*buf = xs
	pool.Put(buf)
}

var (
	vertexBufs = sync.Pool{New: func() any { return new([]*Vertex) }}
	edgeBufs   = sync.Pool{New: func() any { return new([]*Edge) }}
)

// ForEachVertexByLabel invokes fn for every vertex carrying the label
// ("" selects all) until fn returns false, in unspecified order and
// without building or sorting the extent slice VerticesByLabel returns.
// fn runs outside the graph's internal lock over the extent as it stood
// at call time; it must not mutate the graph.
func (g *Graph) ForEachVertexByLabel(label string, fn func(*Vertex) bool) {
	streamExtent(g, &vertexBufs, func() map[ID]*Vertex {
		if label == "" {
			return g.vertices
		}
		return g.byLabel[label]
	}, fn)
}

// ForEachEdgeByType is ForEachVertexByLabel for the edges of a type (""
// selects all).
func (g *Graph) ForEachEdgeByType(typ string, fn func(*Edge) bool) {
	streamExtent(g, &edgeBufs, func() map[ID]*Edge {
		if typ == "" {
			return g.edges
		}
		return g.byType[typ]
	}, fn)
}

// OutEdges returns the outgoing edges of the vertex, optionally filtered
// by type ("" selects all), sorted by edge ID. The result is an
// immutable snapshot of the adjacency index at call time: callers must
// not modify it, and it does not reflect later mutations (mutation
// publishes fresh slices rather than shifting shared ones).
func (g *Graph) OutEdges(id ID, typ string) []*Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.out[id].edges(typ)
}

// InEdges returns the incoming edges of the vertex, optionally filtered
// by type ("" selects all), sorted by edge ID. The same aliasing rules
// as OutEdges apply.
func (g *Graph) InEdges(id ID, typ string) []*Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.in[id].edges(typ)
}

// ForEachOutEdge invokes fn for every outgoing edge of the vertex with
// the given type ("" selects all), in edge-ID order, until fn returns
// false. It allocates nothing and iterates the same immutable snapshot
// OutEdges returns. fn must not mutate the graph; concurrent reads are
// fine (fn runs outside the graph's internal lock).
func (g *Graph) ForEachOutEdge(id ID, typ string, fn func(*Edge) bool) {
	g.mu.RLock()
	es := g.out[id].edges(typ)
	g.mu.RUnlock()
	for _, e := range es {
		if !fn(e) {
			return
		}
	}
}

// ForEachInEdge is ForEachOutEdge for incoming edges.
func (g *Graph) ForEachInEdge(id ID, typ string, fn func(*Edge) bool) {
	g.mu.RLock()
	es := g.in[id].edges(typ)
	g.mu.RUnlock()
	for _, e := range es {
		if !fn(e) {
			return
		}
	}
}

// Labels returns the sorted set of labels in use.
func (g *Graph) Labels() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.byLabel))
	for l := range g.byLabel {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// EdgeTypes returns the sorted set of edge types in use.
func (g *Graph) EdgeTypes() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.byType))
	for t := range g.byType {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
