package ivm_test

import (
	"testing"

	"pgiv/internal/graph"
	"pgiv/internal/ivm"
	"pgiv/internal/snapshot"
	"pgiv/internal/value"
)

// TestDropViewDuringRewriteRead reproduces the drop-under-read race: a
// rewrite-served query selects a view's memo, then the view is dropped
// (releasing its registry entry) before the residual evaluates. The read
// must still answer correctly from the rows it holds — the published
// slice is immutable and the pinned epoch snapshot keeps property state
// for the residual's lookups — and it exercises the restamp path first:
// the commit preceding the read leaves the view's contents unchanged, so
// its published rows are the restamped previous slice.
func TestDropViewDuringRewriteRead(t *testing.T) {
	g := graph.New()
	engine := ivm.NewEngine(g, ivm.Options{NumWorkers: 1})
	defer engine.Close()

	if _, err := engine.RegisterView("posts",
		"MATCH (p:Post) WHERE p.score > 3 RETURN p, p.lang"); err != nil {
		t.Fatal(err)
	}
	err := g.Batch(func(tx *graph.Tx) error {
		for i := 0; i < 10; i++ {
			tx.AddVertex([]string{"Post"}, map[string]value.Value{
				"score": value.NewInt(int64(i)),
				"lang":  value.NewString([]string{"en", "de"}[i%2]),
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.EnableRewrite()

	// A commit that cannot affect the view: publication restamps the
	// previous rows slice at the new epoch.
	if err := g.Batch(func(tx *graph.Tx) error {
		tx.AddVertex([]string{"Person"}, nil)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// The query needs a residual over the memo (range-widened filter plus
	// a property lookup the memo did not project as a column), so the
	// evaluation after the drop touches both the published rows and the
	// pinned graph snapshot.
	const q = "MATCH (p:Post) WHERE p.score > 5 RETURN p, p.lang"
	want, err := snapshot.Query(g, q, nil)
	if err != nil {
		t.Fatal(err)
	}

	dropped := false
	engine.SetRewriteHook(func() {
		if !dropped {
			dropped = true
			if err := engine.DropView("posts"); err != nil {
				t.Errorf("drop during read: %v", err)
			}
		}
	})
	got, _, err := engine.Query(q)
	if err != nil {
		t.Fatalf("rewrite-served read after drop: %v", err)
	}
	if !dropped {
		t.Fatal("hook never fired: the query was not rewrite-served")
	}
	st := engine.Stats()
	if st.RewriteResidual != 1 {
		t.Fatalf("expected one residual hit, stats %+v", st)
	}
	gotRows := (&snapshot.Result{Rows: got.Rows}).Sorted()
	wantRows := want.Sorted()
	if len(gotRows) != len(wantRows) {
		t.Fatalf("got %d rows, want %d", len(gotRows), len(wantRows))
	}
	for i := range gotRows {
		if value.CompareRows(gotRows[i], wantRows[i]) != 0 {
			t.Fatalf("row %d: got %s want %s", i, value.RowString(gotRows[i]), value.RowString(wantRows[i]))
		}
	}

	// With the view gone, the same query must now miss and still answer
	// correctly from scratch.
	engine.SetRewriteHook(nil)
	again, _, err := engine.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if engine.Stats().RewriteMiss == 0 {
		t.Fatal("expected a miss after the drop")
	}
	againRows := (&snapshot.Result{Rows: again.Rows}).Sorted()
	for i := range againRows {
		if value.CompareRows(againRows[i], wantRows[i]) != 0 {
			t.Fatalf("post-drop row %d mismatch", i)
		}
	}
}

// TestRewriteCandidatesFollowRegistrations: the engine keeps its candidate
// list between queries (the planner's per-memo derivation lives in it), so
// the list must be rebuilt whenever a view is registered or dropped — a
// dropped memo must stop answering and a new one must start.
func TestRewriteCandidatesFollowRegistrations(t *testing.T) {
	g := graph.New()
	engine := ivm.NewEngine(g, ivm.Options{NumWorkers: 1})
	defer engine.Close()
	if err := g.Batch(func(tx *graph.Tx) error {
		for i := 0; i < 6; i++ {
			tx.AddVertex([]string{"Post"}, map[string]value.Value{"score": value.NewInt(int64(i))})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	const q = "MATCH (p:Post) WHERE p.score > 3 RETURN p"
	query := func(wantHits, wantMisses uint64) {
		t.Helper()
		res, _, err := engine.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 {
			t.Fatalf("%d rows, want 2", len(res.Rows))
		}
		if st := engine.Stats(); st.RewriteExact != wantHits || st.RewriteMiss != wantMisses {
			t.Fatalf("stats %+v, want %d exact hits and %d misses", st, wantHits, wantMisses)
		}
	}
	query(0, 1) // no views yet: the (empty) candidate list is now cached
	if _, err := engine.RegisterView("posts", q); err != nil {
		t.Fatal(err)
	}
	query(1, 1)
	query(2, 1)
	if err := engine.DropView("posts"); err != nil {
		t.Fatal(err)
	}
	query(2, 2)
	if _, err := engine.RegisterView("posts-again", q); err != nil {
		t.Fatal(err)
	}
	query(3, 2)
}
