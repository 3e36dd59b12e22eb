package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"pgiv/internal/value"
)

// readerDigest serialises everything a Reader exposes into one canonical
// string, so two Readers describe the same graph state iff their digests
// are equal.
func readerDigest(r Reader) string {
	var b strings.Builder
	fmt.Fprintf(&b, "nv=%d ne=%d\n", r.NumVertices(), r.NumEdges())
	for _, v := range r.VerticesByLabel("") {
		fmt.Fprintf(&b, "v%d labels=%v", v.ID, v.Labels())
		for _, k := range v.PropKeys() {
			fmt.Fprintf(&b, " %s=%s", k, v.Prop(k))
		}
		b.WriteByte('\n')
	}
	for _, e := range r.EdgesByType("") {
		fmt.Fprintf(&b, "e%d %d-[%s]->%d", e.ID, e.Src, e.Type, e.Trg)
		for _, k := range e.PropKeys() {
			fmt.Fprintf(&b, " %s=%s", k, e.Prop(k))
		}
		b.WriteByte('\n')
	}
	for _, l := range r.Labels() {
		fmt.Fprintf(&b, "label %s:", l)
		for _, v := range r.VerticesByLabel(l) {
			fmt.Fprintf(&b, " %d", v.ID)
		}
		b.WriteByte('\n')
	}
	for _, t := range r.EdgeTypes() {
		fmt.Fprintf(&b, "type %s:", t)
		for _, e := range r.EdgesByType(t) {
			fmt.Fprintf(&b, " %d", e.ID)
		}
		b.WriteByte('\n')
	}
	for _, v := range r.VerticesByLabel("") {
		fmt.Fprintf(&b, "out%d:", v.ID)
		for _, e := range r.OutEdges(v.ID, "") {
			fmt.Fprintf(&b, " %d", e.ID)
		}
		b.WriteString(" in:")
		for _, e := range r.InEdges(v.ID, "") {
			fmt.Fprintf(&b, " %d", e.ID)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestSnapshotIsolation(t *testing.T) {
	g := New()
	a := g.AddVertex([]string{"Person"}, map[string]value.Value{"name": value.NewString("ada")})
	bID := g.AddVertex([]string{"Person"}, nil)
	eid, _ := g.AddEdge(a, bID, "KNOWS", nil)

	snap := g.Snapshot()
	defer snap.Release()
	before := readerDigest(snap)
	if snap.Epoch() != g.Epoch() {
		t.Fatalf("snapshot epoch %d != graph epoch %d", snap.Epoch(), g.Epoch())
	}

	// Mutate heavily after pinning.
	_ = g.SetVertexProperty(a, "name", value.NewString("grace"))
	_ = g.AddVertexLabel(bID, "Admin")
	_ = g.RemoveEdge(eid)
	_ = g.RemoveVertex(bID)
	c := g.AddVertex([]string{"City"}, nil)
	_, _ = g.AddEdge(a, c, "LIVES_IN", nil)

	if got := readerDigest(snap); got != before {
		t.Fatalf("pinned snapshot changed:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	if v, ok := snap.VertexByID(a); !ok || v.Prop("name").Str() != "ada" {
		t.Fatalf("snapshot vertex prop mutated: %v", v.Prop("name"))
	}
	if _, ok := snap.EdgeByID(eid); !ok {
		t.Fatal("snapshot lost removed edge")
	}

	// A fresh snapshot sees the new state and matches the live graph.
	snap2 := g.Snapshot()
	defer snap2.Release()
	if got, want := readerDigest(snap2), readerDigest(g); got != want {
		t.Fatalf("fresh snapshot diverges from live graph:\n%s\nvs\n%s", got, want)
	}
	if snap2.Epoch() <= snap.Epoch() {
		t.Fatalf("epoch not monotonic: %d then %d", snap.Epoch(), snap2.Epoch())
	}
}

// randomMutation applies one random operation through tx; returns false
// if it chose an op that turned out to be impossible (empty graph etc).
func randomMutation(rng *rand.Rand, g *Graph, tx *Tx) {
	labels := []string{"Person", "Admin", "City", "Tag"}
	types := []string{"KNOWS", "LIKES", "IN"}
	pick := func(ids []ID) (ID, bool) {
		if len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}
	vids := func() []ID {
		var ids []ID
		for _, v := range g.VerticesByLabel("") {
			ids = append(ids, v.ID)
		}
		return ids
	}
	eids := func() []ID {
		var ids []ID
		for _, e := range g.EdgesByType("") {
			ids = append(ids, e.ID)
		}
		return ids
	}
	switch rng.Intn(10) {
	case 0, 1:
		tx.AddVertex([]string{labels[rng.Intn(len(labels))]}, map[string]value.Value{"n": value.NewInt(int64(rng.Intn(100)))})
	case 2, 3:
		if s, ok := pick(vids()); ok {
			if d, ok := pick(vids()); ok {
				_, _ = tx.AddEdge(s, d, types[rng.Intn(len(types))], map[string]value.Value{"w": value.NewInt(int64(rng.Intn(10)))})
			}
		}
	case 4:
		if id, ok := pick(vids()); ok {
			_ = tx.RemoveVertex(id)
		}
	case 5:
		if id, ok := pick(eids()); ok {
			_ = tx.RemoveEdge(id)
		}
	case 6:
		if id, ok := pick(vids()); ok {
			_ = tx.SetVertexProperty(id, "n", value.NewInt(int64(rng.Intn(100))))
		}
	case 7:
		if id, ok := pick(eids()); ok {
			_ = tx.SetEdgeProperty(id, "w", value.NewInt(int64(rng.Intn(10))))
		}
	case 8:
		if id, ok := pick(vids()); ok {
			_ = tx.AddVertexLabel(id, labels[rng.Intn(len(labels))])
		}
	default:
		if id, ok := pick(vids()); ok {
			_ = tx.RemoveVertexLabel(id, labels[rng.Intn(len(labels))])
		}
	}
}

// TestSnapshotTracksLiveGraph fuzzes random multi-op transactions and
// checks after every commit that a fresh snapshot is byte-identical to
// the live graph — i.e. store.apply handles every delta shape the
// ChangeSet can produce.
func TestSnapshotTracksLiveGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := New()
	g.EnableMVCC()
	for round := 0; round < 300; round++ {
		tx := g.Begin()
		for n := rng.Intn(5) + 1; n > 0; n-- {
			randomMutation(rng, g, tx)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		snap := g.Snapshot()
		if got, want := readerDigest(snap), readerDigest(g); got != want {
			t.Fatalf("round %d (epoch %d): snapshot diverged\nsnapshot:\n%s\nlive:\n%s",
				round, snap.Epoch(), got, want)
		}
		snap.Release()
	}
}

// TestSnapshotLabelChangeThenRemove covers the delta corner where a
// vertex's labels change and the vertex is then removed in the same
// transaction: the store must unindex the pre-transaction labels.
func TestSnapshotLabelChangeThenRemove(t *testing.T) {
	g := New()
	id := g.AddVertex([]string{"A"}, nil)
	g.EnableMVCC()
	err := g.Batch(func(tx *Tx) error {
		if err := tx.AddVertexLabel(id, "B"); err != nil {
			return err
		}
		if err := tx.RemoveVertexLabel(id, "A"); err != nil {
			return err
		}
		return tx.RemoveVertex(id)
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	defer snap.Release()
	if got, want := readerDigest(snap), readerDigest(g); got != want {
		t.Fatalf("diverged:\n%s\nvs\n%s", got, want)
	}
	if len(snap.Labels()) != 0 {
		t.Fatalf("stale label index entries: %v", snap.Labels())
	}
}

// TestSnapshotRollbackInvisible checks a rolled-back transaction leaves
// no trace in the versioned store and advances no epoch.
func TestSnapshotRollbackInvisible(t *testing.T) {
	g := New()
	g.AddVertex([]string{"A"}, nil)
	g.EnableMVCC()
	e0 := g.Epoch()
	tx := g.Begin()
	tx.AddVertex([]string{"B"}, nil)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if g.Epoch() != e0 {
		t.Fatalf("rollback advanced epoch %d -> %d", e0, g.Epoch())
	}
	snap := g.Snapshot()
	defer snap.Release()
	if got, want := readerDigest(snap), readerDigest(g); got != want {
		t.Fatalf("diverged after rollback:\n%s\nvs\n%s", got, want)
	}
}

// TestEpochReclamation pins an old epoch, commits enough churn to make
// the versions diverge, and asserts that the extra retained trie nodes
// drop back to exactly the latest version's after release.
func TestEpochReclamation(t *testing.T) {
	g := New()
	for i := 0; i < 200; i++ {
		g.AddVertex([]string{"N"}, map[string]value.Value{"i": value.NewInt(int64(i))})
	}
	g.EnableMVCC()

	snap := g.Snapshot()
	for i := 0; i < 200; i++ {
		v := g.VerticesByLabel("N")[i]
		_ = g.SetVertexProperty(v.ID, "i", value.NewInt(int64(-i)))
	}

	pinned := g.MVCCStats()
	if pinned.PinnedReaders != 1 || pinned.PinnedEpochs != 1 {
		t.Fatalf("pin accounting wrong: %+v", pinned)
	}
	if pinned.RetainedStores != 2 {
		t.Fatalf("expected 2 retained stores, got %+v", pinned)
	}
	if pinned.RetainedNodes <= pinned.LatestNodes {
		t.Fatalf("pinned epoch retains nothing extra: %+v", pinned)
	}

	snap.Release()
	after := g.MVCCStats()
	if after.PinnedReaders != 0 || after.PinnedEpochs != 0 || after.RetainedStores != 1 {
		t.Fatalf("release did not drop pin: %+v", after)
	}
	if after.RetainedNodes != after.LatestNodes {
		t.Fatalf("retained memory above baseline after release: %+v", after)
	}
	// Double release is a safe no-op.
	snap.Release()
	if s := g.MVCCStats(); s.PinnedReaders != 0 {
		t.Fatalf("double release corrupted pins: %+v", s)
	}
}

// TestSnapshotSharedPin checks two snapshots of the same epoch share one
// pin entry and the epoch survives until the last one releases.
func TestSnapshotSharedPin(t *testing.T) {
	g := New()
	g.AddVertex([]string{"A"}, nil)
	s1 := g.Snapshot()
	s2 := g.Snapshot()
	if s1.Epoch() != s2.Epoch() {
		t.Fatalf("same-state snapshots pin different epochs: %d vs %d", s1.Epoch(), s2.Epoch())
	}
	if st := g.MVCCStats(); st.PinnedEpochs != 1 || st.PinnedReaders != 2 {
		t.Fatalf("want 1 epoch / 2 readers, got %+v", st)
	}
	s1.Release()
	if st := g.MVCCStats(); st.PinnedEpochs != 1 || st.PinnedReaders != 1 {
		t.Fatalf("first release dropped the epoch: %+v", st)
	}
	s2.Release()
	if st := g.MVCCStats(); st.PinnedEpochs != 0 {
		t.Fatalf("pins leak: %+v", st)
	}
}

// TestSnapshotConcurrentReaders runs pinned-epoch readers against a
// committing writer; under -race this is the lock-freedom proof, and the
// digest re-check catches torn traversals in any mode.
func TestSnapshotConcurrentReaders(t *testing.T) {
	g := New()
	seedIDs := make([]ID, 0, 50)
	for i := 0; i < 50; i++ {
		seedIDs = append(seedIDs, g.AddVertex([]string{"N"}, map[string]value.Value{"i": value.NewInt(int64(i))}))
	}
	for i := 0; i < 49; i++ {
		_, _ = g.AddEdge(seedIDs[i], seedIDs[i+1], "NEXT", nil)
	}
	g.EnableMVCC()

	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := g.Snapshot()
				if snap.Epoch() < last {
					errs <- fmt.Errorf("epoch went backwards: %d after %d", snap.Epoch(), last)
					snap.Release()
					return
				}
				last = snap.Epoch()
				d1 := readerDigest(snap)
				d2 := readerDigest(snap)
				snap.Release()
				if d1 != d2 {
					errs <- fmt.Errorf("torn read at epoch %d", snap.Epoch())
					return
				}
			}
		}(int64(r))
	}

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		err := g.Batch(func(tx *Tx) error {
			for n := rng.Intn(4) + 1; n > 0; n-- {
				randomMutation(rng, g, tx)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := g.MVCCStats(); st.PinnedReaders != 0 {
		t.Fatalf("readers leaked pins: %+v", st)
	}
}

// TestLazyMVCCActivation: before the first Snapshot/EnableMVCC the graph
// maintains no versioned store; the first Snapshot builds it on demand
// and reflects all prior commits.
func TestLazyMVCCActivation(t *testing.T) {
	g := New()
	a := g.AddVertex([]string{"A"}, nil)
	b := g.AddVertex([]string{"B"}, nil)
	_, _ = g.AddEdge(a, b, "T", nil)
	if g.MVCCEnabled() {
		t.Fatal("MVCC active before first snapshot")
	}
	if g.Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3", g.Epoch())
	}
	snap := g.Snapshot()
	defer snap.Release()
	if !g.MVCCEnabled() {
		t.Fatal("first snapshot did not enable MVCC")
	}
	if got, want := readerDigest(snap), readerDigest(g); got != want {
		t.Fatalf("on-demand store diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestStreamedExtentsMatchSlices: after random transactions the streaming
// iterators visit exactly the elements VerticesByLabel / EdgesByType
// return — the snapshot in the same ascending order, the live graph in
// any order — they stop when told to, and the callback may read the graph
// (and start another scan) while one is in progress.
func TestStreamedExtentsMatchSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := New()
	for round := 0; round < 200; round++ {
		tx := g.Begin()
		for n := rng.Intn(5) + 1; n > 0; n-- {
			randomMutation(rng, g, tx)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	snap := g.Snapshot()
	defer snap.Release()
	for name, r := range map[string]Reader{"live": g, "snapshot": snap} {
		ordered := name == "snapshot"
		for _, label := range append(r.Labels(), "", "Nope") {
			var got []ID
			r.ForEachVertexByLabel(label, func(v *Vertex) bool {
				if _, ok := r.VertexByID(v.ID); !ok {
					t.Errorf("%s: streamed vertex %d is not readable", name, v.ID)
				}
				got = append(got, v.ID)
				return true
			})
			var want []ID
			for _, v := range r.VerticesByLabel(label) {
				want = append(want, v.ID)
			}
			checkSameIDs(t, fmt.Sprintf("%s vertices %q", name, label), got, want, ordered)
		}
		for _, typ := range append(r.EdgeTypes(), "", "Nope") {
			var got []ID
			r.ForEachEdgeByType(typ, func(e *Edge) bool {
				nested := 0
				r.ForEachEdgeByType(typ, func(*Edge) bool { nested++; return nested < 2 })
				got = append(got, e.ID)
				return true
			})
			var want []ID
			for _, e := range r.EdgesByType(typ) {
				want = append(want, e.ID)
			}
			checkSameIDs(t, fmt.Sprintf("%s edges %q", name, typ), got, want, ordered)
		}
		seen := 0
		r.ForEachVertexByLabel("", func(*Vertex) bool { seen++; return seen < 3 })
		if seen != 3 {
			t.Errorf("%s: scan visited %d vertices after being told to stop at 3", name, seen)
		}
	}
}

func checkSameIDs(t *testing.T, what string, got, want []ID, ordered bool) {
	t.Helper()
	if !ordered {
		got = slices.Sorted(slices.Values(got))
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: streamed %v, slice %v", what, got, want)
	}
}
