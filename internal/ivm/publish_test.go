package ivm_test

import (
	"fmt"
	"testing"

	"pgiv/internal/graph"
	"pgiv/internal/ivm"
	"pgiv/internal/snapshot"
	"pgiv/internal/value"
	"pgiv/internal/workload"
)

// TestWatchedCommitsNeverResort pins the publish half of "per-commit work
// does not grow with the graph": single-element commits against the
// three watched views a pgivd writer subscribes to (bench's write views)
// merge their deltas into the published rows and never re-sort a view,
// at social scale 1 and 4 alike. The count is exact, so it holds on any
// host. Bytes per commit still grow with the view, since each merge
// copies the published slice; that half waits for a persistent ordered
// row set (ROADMAP item 21's Then).
func TestWatchedCommitsNeverResort(t *testing.T) {
	queries := []string{
		"MATCH (p:Post) RETURN p.lang, count(*)",
		"MATCH (c:Comm) WHERE c.score > 50 RETURN c",
		"MATCH (p:Post)-[:TAGGED]->(t:Tag) RETURN t.name, count(*)",
	}
	for _, scale := range []int{1, 4} {
		t.Run(fmt.Sprintf("scale-%d", scale), func(t *testing.T) {
			soc := workload.GenerateSocial(workload.DefaultSocialConfig(scale))
			engine := ivm.NewEngine(soc.G)
			defer engine.Close()
			views := make([]*ivm.View, len(queries))
			rebuilds := make([]int, len(queries))
			for i, q := range queries {
				v, err := engine.RegisterView(fmt.Sprintf("w%d", i), q)
				if err != nil {
					t.Fatal(err)
				}
				v.Watch()
				views[i], rebuilds[i] = v, v.PublishRebuilds()
			}
			for i := 0; i < 1000; i++ {
				switch i % 4 {
				case 0:
					soc.FlipScore()
				case 1:
					soc.FlipLanguage()
				case 2:
					soc.AddComment()
				case 3:
					soc.RemoveComment()
				}
			}
			for i, v := range views {
				if got := v.PublishRebuilds() - rebuilds[i]; got != 0 {
					t.Errorf("%q: %d rebuilds after Watch, want 0", queries[i], got)
				}
				rows, epoch, _ := v.PublishedRows()
				if epoch != soc.G.Epoch() {
					t.Errorf("%q: published epoch %d, graph at %d", queries[i], epoch, soc.G.Epoch())
				}
				for j := 1; j < len(rows); j++ {
					if value.CompareRows(rows[j-1], rows[j]) > 0 {
						t.Fatalf("%q: published rows %d and %d out of canonical order", queries[i], j-1, j)
					}
				}
				want, err := snapshot.Query(soc.G, queries[i], nil)
				if err != nil {
					t.Fatal(err)
				}
				if digestRows(rows, false) != digestRows(want.Rows, false) {
					t.Errorf("%q: published rows differ from a from-scratch evaluation", queries[i])
				}
			}
		})
	}
}

// TestPublishedKindChange: a view row whose value changes kind but not
// value (Int 1 to Float 1.0) keeps its bag key, yet the row changes.
// Here y changes in the same commit, so the input row changes and the
// projection hands the production a retraction of 1 and an assertion
// of 1.0 under one key. The watched view must publish the Float, as a
// from-scratch query does, not keep the Int it published before.
func TestPublishedKindChange(t *testing.T) {
	const q = "MATCH (n:N) WHERE n.y > 0 RETURN n.x"
	g := graph.New()
	a := g.AddVertex([]string{"N"}, map[string]value.Value{"x": value.NewInt(1), "y": value.NewInt(1)})
	g.AddVertex([]string{"N"}, map[string]value.Value{"x": value.NewInt(2), "y": value.NewInt(1)})
	engine := ivm.NewEngine(g)
	defer engine.Close()
	v, err := engine.RegisterView("x", q)
	if err != nil {
		t.Fatal(err)
	}
	v.Watch()
	tx := g.Begin()
	if err := tx.SetVertexProperty(a, "x", value.NewFloat(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetVertexProperty(a, "y", value.NewInt(2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want, err := snapshot.Query(g, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, _ := v.PublishedRows()
	for _, got := range [][]value.Row{rows, v.Rows()} {
		if len(got) != 2 || got[0][0].Kind() != value.KindFloat || want.Rows[0][0].Kind() != value.KindFloat {
			t.Fatalf("view rows %v, from scratch %v: want the Float 1.0 in both", got, want.Rows)
		}
	}
}
