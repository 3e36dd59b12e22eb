// MVCC read snapshots: every committed transaction stamps its ChangeSet
// with a monotonic epoch, and — once snapshots are enabled — maintains a
// copy-on-write versioned mirror of the store (persistent tries keyed by
// element ID). A reader pins an epoch with Graph.Snapshot and traverses a
// fully stable state without holding any lock the writer needs; commits
// publish fresh trie roots instead of mutating shared ones. Epochs are
// reclaimed by the garbage collector when the last pinned reader
// releases: the pin table only keeps an old version's root alive while
// someone still reads it, so the memory retained beyond the latest
// version is exactly the path-copied nodes its pinned readers still see.
package graph

import (
	"sort"
	"sync"
	"sync/atomic"

	"pgiv/internal/value"
)

// Reader is the read-only graph access interface shared by the live
// *Graph and the immutable *Snapshot. Query evaluation (package snapshot)
// and expression evaluation (package expr) run against a Reader, so the
// same evaluator serves both the locked live store and pinned MVCC
// epochs.
type Reader interface {
	VertexByID(id ID) (*Vertex, bool)
	EdgeByID(id ID) (*Edge, bool)
	NumVertices() int
	NumEdges() int
	VerticesByLabel(label string) []*Vertex
	EdgesByType(typ string) []*Edge
	// ForEachVertexByLabel and ForEachEdgeByType stream an extent (""
	// selects all) to fn until it returns false, without materialising
	// the slice their ...ByLabel/...ByType counterparts return. The order
	// is unspecified: consumers that need ascending IDs sort what they
	// keep.
	ForEachVertexByLabel(label string, fn func(*Vertex) bool)
	ForEachEdgeByType(typ string, fn func(*Edge) bool)
	OutEdges(id ID, typ string) []*Edge
	InEdges(id ID, typ string) []*Edge
	ForEachOutEdge(id ID, typ string, fn func(*Edge) bool)
	ForEachInEdge(id ID, typ string, fn func(*Edge) bool)
	Labels() []string
	EdgeTypes() []string
}

var (
	_ Reader = (*Graph)(nil)
	_ Reader = (*Snapshot)(nil)
)

// sadj is one vertex's adjacency in a versioned store: sorted incident
// edge IDs, total and per type. It stores IDs rather than *Edge so an
// edge property change only replaces the edge copy, not every adjacency
// list that mentions it. Slices follow the live index's publication
// discipline: appends extend only the newest version's tail (older
// versions hold shorter prefixes and never index the new slot), and
// mid-slice inserts and removals build fresh arrays.
type sadj struct {
	all    []ID
	byType map[string][]ID
}

func insertIDSorted(s []ID, id ID) []ID {
	if n := len(s); n == 0 || s[n-1] < id {
		return append(s, id)
	}
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	ns := make([]ID, len(s)+1)
	copy(ns, s[:i])
	ns[i] = id
	copy(ns[i+1:], s[i:])
	return ns
}

func removeIDSorted(s []ID, id ID) []ID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	if i >= len(s) || s[i] != id {
		return s
	}
	ns := make([]ID, 0, len(s)-1)
	ns = append(ns, s[:i]...)
	return append(ns, s[i+1:]...)
}

// store is one epoch's complete immutable graph state. Element objects
// are store-owned copies (the live store mutates its objects in place;
// these never change after publication), indexes are persistent tries,
// and the label/type maps are copied per commit that touches them.
type store struct {
	epoch    uint64
	vertices pvec[*Vertex]
	edges    pvec[*Edge]
	byLabel  map[string]pvec[struct{}] // vertex IDs carrying each label
	byType   map[string]pvec[struct{}] // edge IDs of each type
	out      pvec[*sadj]
	in       pvec[*sadj]
}

func copyVertexFor(v *Vertex) *Vertex {
	c := &Vertex{ID: v.ID, props: make(map[string]value.Value, len(v.props))}
	c.labels = append([]string(nil), v.labels...)
	for k, p := range v.props {
		c.props[k] = p
	}
	return c
}

func copyEdgeFor(e *Edge) *Edge {
	c := &Edge{ID: e.ID, Src: e.Src, Trg: e.Trg, Type: e.Type, props: make(map[string]value.Value, len(e.props))}
	for k, p := range e.props {
		c.props[k] = p
	}
	return c
}

// buildStore materialises the versioned mirror of the whole live graph —
// the one-time activation cost of EnableMVCC. The caller holds wmu, so no
// commit is in flight.
func buildStore(g *Graph, epoch uint64) *store {
	st := &store{
		epoch:   epoch,
		byLabel: make(map[string]pvec[struct{}]),
		byType:  make(map[string]pvec[struct{}]),
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	for id, v := range g.vertices {
		st.vertices = st.vertices.set(id, copyVertexFor(v))
	}
	for label, m := range g.byLabel {
		set := pvec[struct{}]{}
		for id := range m {
			set = set.set(id, struct{}{})
		}
		st.byLabel[label] = set
	}
	for typ, m := range g.byType {
		set := pvec[struct{}]{}
		for id := range m {
			set = set.set(id, struct{}{})
		}
		st.byType[typ] = set
	}
	for id, e := range g.edges {
		st.edges = st.edges.set(id, copyEdgeFor(e))
	}
	adj := func(src map[ID]*adjacency) pvec[*sadj] {
		out := pvec[*sadj]{}
		for id, a := range src {
			if len(a.all) == 0 {
				continue
			}
			na := &sadj{all: make([]ID, len(a.all)), byType: make(map[string][]ID, len(a.byType))}
			for i, e := range a.all {
				na.all[i] = e.ID
			}
			for t, es := range a.byType {
				ids := make([]ID, len(es))
				for i, e := range es {
					ids[i] = e.ID
				}
				na.byType[t] = ids
			}
			out = out.set(id, na)
		}
		return out
	}
	st.out = adj(g.out)
	st.in = adj(g.in)
	return st
}

// labelSet / typeSet edit helpers: copy the outer map once per commit
// that touches it, then update the per-key persistent sets.
type indexEdit struct {
	m      map[string]pvec[struct{}]
	copied bool
}

func (ie *indexEdit) edit(key string, id ID, add bool) map[string]pvec[struct{}] {
	if !ie.copied {
		nm := make(map[string]pvec[struct{}], len(ie.m)+1)
		for k, v := range ie.m {
			nm[k] = v
		}
		ie.m = nm
		ie.copied = true
	}
	set := ie.m[key]
	if add {
		ie.m[key] = set.set(id, struct{}{})
	} else {
		set = set.del(id)
		if set.len() == 0 {
			delete(ie.m, key)
		} else {
			ie.m[key] = set
		}
	}
	return ie.m
}

func adjInsert(m pvec[*sadj], vid, eid ID, typ string) pvec[*sadj] {
	old, _ := m.get(vid)
	na := &sadj{}
	if old != nil {
		na.all = insertIDSorted(old.all, eid)
		na.byType = make(map[string][]ID, len(old.byType)+1)
		for t, s := range old.byType {
			na.byType[t] = s
		}
		na.byType[typ] = insertIDSorted(na.byType[typ], eid)
	} else {
		na.all = []ID{eid}
		na.byType = map[string][]ID{typ: {eid}}
	}
	return m.set(vid, na)
}

func adjRemove(m pvec[*sadj], vid, eid ID, typ string) pvec[*sadj] {
	old, ok := m.get(vid)
	if !ok {
		return m
	}
	all := removeIDSorted(old.all, eid)
	if len(all) == 0 {
		return m.del(vid)
	}
	na := &sadj{all: all, byType: make(map[string][]ID, len(old.byType))}
	for t, s := range old.byType {
		na.byType[t] = s
	}
	if b := removeIDSorted(na.byType[typ], eid); len(b) > 0 {
		na.byType[typ] = b
	} else {
		delete(na.byType, typ)
	}
	return m.set(vid, na)
}

// apply derives the post-commit store from one coalesced ChangeSet. The
// caller holds wmu (commits are serialised), so the live objects the
// deltas reference are stable while their final states are copied.
func (st *store) apply(cs *ChangeSet, epoch uint64) *store {
	ns := &store{
		epoch: epoch, vertices: st.vertices, edges: st.edges,
		byLabel: st.byLabel, byType: st.byType, out: st.out, in: st.in,
	}
	labels := &indexEdit{m: ns.byLabel}
	types := &indexEdit{m: ns.byType}

	// Pass 1: removed edges unlink while both endpoint adjacencies still
	// exist; a vertex removal in the same commit deletes the (possibly
	// already emptied) entry afterwards.
	for _, d := range cs.Edges() {
		if !d.Removed() {
			continue
		}
		e := d.E
		ns.edges = ns.edges.del(e.ID)
		ns.byType = types.edit(e.Type, e.ID, false)
		ns.out = adjRemove(ns.out, e.Src, e.ID, e.Type)
		ns.in = adjRemove(ns.in, e.Trg, e.ID, e.Type)
	}
	// Pass 2: vertices. Label index edits diff the pre-transaction label
	// set (what the previous store indexed) against the final one.
	for _, d := range cs.Vertices() {
		v := d.V
		switch {
		case d.Removed():
			ns.vertices = ns.vertices.del(v.ID)
			for _, l := range d.BeforeLabels() {
				ns.byLabel = labels.edit(l, v.ID, false)
			}
			ns.out = ns.out.del(v.ID)
			ns.in = ns.in.del(v.ID)
		case d.Created():
			ns.vertices = ns.vertices.set(v.ID, copyVertexFor(v))
			for _, l := range v.Labels() {
				ns.byLabel = labels.edit(l, v.ID, true)
			}
		default:
			ns.vertices = ns.vertices.set(v.ID, copyVertexFor(v))
			if d.LabelsChanged() {
				for _, l := range d.BeforeLabels() {
					if !v.HasLabel(l) {
						ns.byLabel = labels.edit(l, v.ID, false)
					}
				}
				for _, l := range v.Labels() {
					if !d.HadLabel(l) {
						ns.byLabel = labels.edit(l, v.ID, true)
					}
				}
			}
		}
	}
	// Pass 3: created and modified edges (endpoints exist by now).
	for _, d := range cs.Edges() {
		e := d.E
		switch {
		case d.Removed():
		case d.Created():
			ns.edges = ns.edges.set(e.ID, copyEdgeFor(e))
			ns.byType = types.edit(e.Type, e.ID, true)
			ns.out = adjInsert(ns.out, e.Src, e.ID, e.Type)
			ns.in = adjInsert(ns.in, e.Trg, e.ID, e.Type)
		default:
			ns.edges = ns.edges.set(e.ID, copyEdgeFor(e))
		}
	}
	return ns
}

// countNodes adds the store's trie nodes not already in seen.
func (st *store) countNodes(seen map[any]bool) int {
	n := st.vertices.countNodes(seen) + st.edges.countNodes(seen) +
		st.out.countNodes(seen) + st.in.countNodes(seen)
	for _, set := range st.byLabel {
		n += set.countNodes(seen)
	}
	for _, set := range st.byType {
		n += set.countNodes(seen)
	}
	return n
}

// --- epoch manager ---

// mvccState is the versioned-store manager hung off a Graph once
// snapshots are enabled. latest is replaced (never mutated) by each
// non-empty commit; pins ref-counts the epochs readers still hold, which
// is all that keeps a superseded version's roots reachable.
type mvccState struct {
	mu     sync.Mutex
	latest *store
	pins   map[uint64]*epochPin
}

type epochPin struct {
	st   *store
	refs int
}

// EnableMVCC activates snapshot maintenance: the versioned mirror is
// built once from the current state and kept up to date copy-on-write by
// every subsequent commit. Before activation the only MVCC cost a commit
// pays is stamping its epoch; afterwards it is O(changed elements ·
// log n) trie path copies. Idempotent; implied by the first Snapshot
// call. Must not be called from inside a commit (a graph listener).
func (g *Graph) EnableMVCC() {
	if g.mvcc.Load() != nil {
		return
	}
	g.wmu.Lock()
	defer g.wmu.Unlock()
	if g.mvcc.Load() != nil {
		return
	}
	st := buildStore(g, g.epoch.Load())
	g.mvcc.Store(&mvccState{latest: st, pins: make(map[uint64]*epochPin)})
}

// MVCCEnabled reports whether versioned snapshots are being maintained.
func (g *Graph) MVCCEnabled() bool { return g.mvcc.Load() != nil }

// Epoch returns the epoch of the last committed non-empty transaction
// (0 before the first). Every committed ChangeSet carries its epoch; the
// value here is the one the next Snapshot will observe once no commit is
// in flight.
func (g *Graph) Epoch() uint64 { return g.epoch.Load() }

// Snapshot pins the latest committed epoch and returns a stable,
// immutable view of the graph at that epoch. The snapshot never blocks
// writers and never observes later commits — reads are plain pointer
// walks over shared immutable tries, safe from any number of goroutines.
// Callers must Release the snapshot when done; the pin is what keeps the
// epoch's superseded state alive, so a leaked pin is a memory leak. The
// first call enables MVCC (see EnableMVCC).
func (g *Graph) Snapshot() *Snapshot {
	ms := g.mvcc.Load()
	if ms == nil {
		g.EnableMVCC()
		ms = g.mvcc.Load()
	}
	ms.mu.Lock()
	st := ms.latest
	p := ms.pins[st.epoch]
	if p == nil {
		p = &epochPin{st: st}
		ms.pins[st.epoch] = p
	}
	p.refs++
	ms.mu.Unlock()
	return &Snapshot{g: g, st: st}
}

func (g *Graph) releasePin(epoch uint64) {
	ms := g.mvcc.Load()
	if ms == nil {
		return
	}
	ms.mu.Lock()
	if p := ms.pins[epoch]; p != nil {
		p.refs--
		if p.refs <= 0 {
			delete(ms.pins, epoch)
		}
	}
	ms.mu.Unlock()
}

// publishStore installs the post-commit store version. Called from
// Commit with wmu held.
func (g *Graph) publishStore(ns *store) {
	ms := g.mvcc.Load()
	ms.mu.Lock()
	ms.latest = ns
	ms.mu.Unlock()
}

// MVCCStats reports the versioned-store accounting used by the epoch
// reclamation tests and ops introspection.
type MVCCStats struct {
	Active         bool
	Epoch          uint64 // latest committed epoch
	PinnedEpochs   int    // distinct epochs with outstanding pins
	PinnedReaders  int    // outstanding Snapshot pins
	RetainedStores int    // store versions kept alive (latest + pinned)
	LatestNodes    int    // trie nodes reachable from the latest version
	RetainedNodes  int    // distinct trie nodes across all retained versions
}

// MVCCStats returns the current snapshot-retention accounting. With no
// pinned readers, RetainedNodes == LatestNodes: everything a released
// epoch held exclusively is unreachable and collectable.
func (g *Graph) MVCCStats() MVCCStats {
	st := MVCCStats{Epoch: g.epoch.Load()}
	ms := g.mvcc.Load()
	if ms == nil {
		return st
	}
	st.Active = true
	ms.mu.Lock()
	defer ms.mu.Unlock()
	seen := make(map[any]bool)
	st.LatestNodes = ms.latest.countNodes(seen)
	st.RetainedNodes = st.LatestNodes
	st.RetainedStores = 1
	for epoch, p := range ms.pins {
		st.PinnedEpochs++
		st.PinnedReaders += p.refs
		if epoch != ms.latest.epoch {
			st.RetainedStores++
			st.RetainedNodes += p.st.countNodes(seen)
		}
	}
	return st
}

// --- Snapshot: the pinned-epoch Reader ---

// Snapshot is an immutable view of the graph at one committed epoch. All
// Reader methods are lock-free walks over shared persistent state: they
// never block a writer, never observe a later commit, and are safe for
// concurrent use. Release must be called exactly once when the reader is
// done (further reads after Release still work while the process holds
// the pointer, but the epoch's memory is no longer protected from
// supersession accounting). The *Vertex/*Edge objects returned are
// store-owned immutable copies — unlike the live graph's objects they
// never change after the snapshot is taken.
type Snapshot struct {
	g        *Graph
	st       *store
	released atomic.Bool
}

// Epoch returns the committed epoch this snapshot pins.
func (s *Snapshot) Epoch() uint64 { return s.st.epoch }

// Release unpins the epoch. Idempotent.
func (s *Snapshot) Release() {
	if s.released.CompareAndSwap(false, true) {
		s.g.releasePin(s.st.epoch)
	}
}

// VertexByID returns the vertex with the given ID.
func (s *Snapshot) VertexByID(id ID) (*Vertex, bool) { return s.st.vertices.get(id) }

// EdgeByID returns the edge with the given ID.
func (s *Snapshot) EdgeByID(id ID) (*Edge, bool) { return s.st.edges.get(id) }

// NumVertices returns the number of vertices.
func (s *Snapshot) NumVertices() int { return s.st.vertices.len() }

// NumEdges returns the number of edges.
func (s *Snapshot) NumEdges() int { return s.st.edges.len() }

// VerticesByLabel returns the vertices carrying the given label, sorted
// by ID ("" selects all).
func (s *Snapshot) VerticesByLabel(label string) []*Vertex {
	if label == "" {
		out := make([]*Vertex, 0, s.st.vertices.len())
		s.st.vertices.ascend(func(_ ID, v *Vertex) bool {
			out = append(out, v)
			return true
		})
		return out
	}
	set := s.st.byLabel[label]
	out := make([]*Vertex, 0, set.len())
	set.ascend(func(id ID, _ struct{}) bool {
		if v, ok := s.st.vertices.get(id); ok {
			out = append(out, v)
		}
		return true
	})
	return out
}

// EdgesByType returns the edges of the given type, sorted by ID (""
// selects all).
func (s *Snapshot) EdgesByType(typ string) []*Edge {
	if typ == "" {
		out := make([]*Edge, 0, s.st.edges.len())
		s.st.edges.ascend(func(_ ID, e *Edge) bool {
			out = append(out, e)
			return true
		})
		return out
	}
	set := s.st.byType[typ]
	out := make([]*Edge, 0, set.len())
	set.ascend(func(id ID, _ struct{}) bool {
		if e, ok := s.st.edges.get(id); ok {
			out = append(out, e)
		}
		return true
	})
	return out
}

// ForEachVertexByLabel invokes fn for every vertex carrying the label
// ("" selects all) until fn returns false. It walks the epoch's trie in
// place — ascending ID order, no extent slice.
func (s *Snapshot) ForEachVertexByLabel(label string, fn func(*Vertex) bool) {
	if label == "" {
		s.st.vertices.ascend(func(_ ID, v *Vertex) bool { return fn(v) })
		return
	}
	s.st.byLabel[label].ascend(func(id ID, _ struct{}) bool {
		v, ok := s.st.vertices.get(id)
		return !ok || fn(v)
	})
}

// ForEachEdgeByType is ForEachVertexByLabel for the edges of a type (""
// selects all).
func (s *Snapshot) ForEachEdgeByType(typ string, fn func(*Edge) bool) {
	if typ == "" {
		s.st.edges.ascend(func(_ ID, e *Edge) bool { return fn(e) })
		return
	}
	s.st.byType[typ].ascend(func(id ID, _ struct{}) bool {
		e, ok := s.st.edges.get(id)
		return !ok || fn(e)
	})
}

func (s *Snapshot) adjIDs(m pvec[*sadj], id ID, typ string) []ID {
	a, ok := m.get(id)
	if !ok {
		return nil
	}
	if typ == "" {
		return a.all
	}
	return a.byType[typ]
}

func (s *Snapshot) resolveEdges(ids []ID) []*Edge {
	if len(ids) == 0 {
		return nil
	}
	out := make([]*Edge, 0, len(ids))
	for _, eid := range ids {
		if e, ok := s.st.edges.get(eid); ok {
			out = append(out, e)
		}
	}
	return out
}

// OutEdges returns the outgoing edges of the vertex, optionally filtered
// by type, sorted by edge ID.
func (s *Snapshot) OutEdges(id ID, typ string) []*Edge {
	return s.resolveEdges(s.adjIDs(s.st.out, id, typ))
}

// InEdges returns the incoming edges of the vertex, optionally filtered
// by type, sorted by edge ID.
func (s *Snapshot) InEdges(id ID, typ string) []*Edge {
	return s.resolveEdges(s.adjIDs(s.st.in, id, typ))
}

// ForEachOutEdge invokes fn for every outgoing edge of the vertex with
// the given type ("" selects all) in edge-ID order, until fn returns
// false. Unlike OutEdges it allocates no result slice.
func (s *Snapshot) ForEachOutEdge(id ID, typ string, fn func(*Edge) bool) {
	for _, eid := range s.adjIDs(s.st.out, id, typ) {
		if e, ok := s.st.edges.get(eid); ok && !fn(e) {
			return
		}
	}
}

// ForEachInEdge is ForEachOutEdge for incoming edges.
func (s *Snapshot) ForEachInEdge(id ID, typ string, fn func(*Edge) bool) {
	for _, eid := range s.adjIDs(s.st.in, id, typ) {
		if e, ok := s.st.edges.get(eid); ok && !fn(e) {
			return
		}
	}
}

// Labels returns the sorted set of labels in use at this epoch.
func (s *Snapshot) Labels() []string {
	out := make([]string, 0, len(s.st.byLabel))
	for l := range s.st.byLabel {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// EdgeTypes returns the sorted set of edge types in use at this epoch.
func (s *Snapshot) EdgeTypes() []string {
	out := make([]string, 0, len(s.st.byType))
	for t := range s.st.byType {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
