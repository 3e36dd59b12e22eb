// Tests for the delta hot path work: propagation-mode determinism (the
// same operation stream must yield byte-identical views whether commits
// propagate per-op, batched, or across the parallel worker pool) and
// allocation regression pins for the two hottest update paths.
package pgiv

import (
	"fmt"
	"testing"

	"pgiv/internal/expr"
	"pgiv/internal/rete"
	"pgiv/internal/value"
	"pgiv/internal/workload"
)

// TestPropagationModeDeterminism drives the identical social operation
// stream (load + churn) through three engines — per-op sequential,
// batched sequential, and per-op parallel with four workers — and
// asserts every view of the battery materialises byte-identical rows.
// The parallel scheduler may interleave per-view work arbitrarily, but
// each view's subtree is single-threaded per commit, so the final
// contents must not depend on the mode.
func TestPropagationModeDeterminism(t *testing.T) {
	cfg := workload.SocialConfig{
		Persons: 30, PostsPerPerson: 3, RepliesPerPost: 5,
		KnowsPerPerson: 4, LikesPerPerson: 3,
		Langs: []string{"en", "de"}, Seed: 7,
	}
	run := func(opts EngineOptions, batched bool) map[string][]Row {
		soc := workload.NewSocial(cfg)
		engine := NewEngineWithOptions(soc.G, opts)
		defer engine.Close()
		views := make(map[string]*View)
		for name, q := range workload.SocialQueries {
			views[name] = mustRegisterT(t, engine, name, q)
		}
		if batched {
			soc.Load()
			soc.ChurnBatch(200)
		} else {
			soc.LoadPerOp()
			soc.Churn(200)
		}
		out := make(map[string][]Row)
		for name, v := range views {
			out[name] = v.Rows()
		}
		return out
	}
	perOp := run(EngineOptions{NumWorkers: 1}, false)
	batched := run(EngineOptions{NumWorkers: 1}, true)
	parallel := run(EngineOptions{NumWorkers: 4}, false)

	assertSameRows := func(mode string, got map[string][]Row) {
		t.Helper()
		for name, want := range perOp {
			rows := got[name]
			if len(rows) != len(want) {
				t.Fatalf("%s: view %s has %d rows, per-op sequential has %d", mode, name, len(rows), len(want))
			}
			for i := range rows {
				if string(value.RowKey(rows[i])) != string(value.RowKey(want[i])) {
					t.Fatalf("%s: view %s row %d: %v, per-op sequential %v", mode, name, i, rows[i], want[i])
				}
			}
		}
	}
	assertSameRows("batched", batched)
	assertSameRows("parallel(4)", parallel)
}

// TestOnChangeOncePerCommitParallel asserts the parallel scheduler fires
// each view's OnChange exactly once per effective commit.
func TestOnChangeOncePerCommitParallel(t *testing.T) {
	g := NewGraph()
	engine := NewEngineWithOptions(g, EngineOptions{NumWorkers: 4})
	defer engine.Close()
	post := g.AddVertex([]string{"Post"}, Props{"lang": Str("en")})
	comm := g.AddVertex([]string{"Comm"}, Props{"lang": Str("en")})
	if _, err := g.AddEdge(post, comm, "REPLY", nil); err != nil {
		t.Fatal(err)
	}
	const q = "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c"
	fires := make([]int, 2)
	for i := 0; i < 2; i++ {
		i := i
		v := mustRegisterT(t, engine, fmt.Sprintf("v%d", i), q)
		v.OnChange(func([]Delta) { fires[i]++ })
	}
	for flip := 0; flip < 5; flip++ {
		lang := Str("de")
		if flip%2 == 1 {
			lang = Str("en")
		}
		if err := g.SetVertexProperty(comm, "lang", lang); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range fires {
		if n != 5 {
			t.Fatalf("view %d OnChange fired %d times, want 5", i, n)
		}
	}
}

// Allocation regression pins. The ceilings hold the two hottest delta
// paths at their post-optimisation allocation counts (scratch-buffer key
// encoding, typed adjacency, pooled emit buffers) with ~25%% headroom;
// an accidental reintroduction of per-call key strings or adjacency
// copies trips them. Both pin the sequential engine so the counts are
// scheduler-independent.

// TestJoinProbeAllocs pins the join-probe path: churning a KNOWS edge
// through a two-hop join view (two indexed memories probed per delta).
func TestJoinProbeAllocs(t *testing.T) {
	soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
	engine := NewEngineWithOptions(soc.G, EngineOptions{NumWorkers: 1})
	defer engine.Close()
	mustRegisterT(t, engine, "two-hop",
		"MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) RETURN a, c")
	a, b := soc.Persons[0], soc.Persons[1]
	avg := testing.AllocsPerRun(200, func() {
		id, err := soc.G.AddEdge(a, b, "KNOWS", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := soc.G.RemoveEdge(id); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 65 // measured ~51 at PR time
	if avg > ceiling {
		t.Errorf("join-probe edge churn: %.1f allocs/op, ceiling %d", avg, ceiling)
	}
}

// TestSingleEdgeUpdateAllocs pins the single-edge-update path of the
// transitive node: deleting and re-inserting the tail edge of a reply
// chain under the paper's path view.
func TestSingleEdgeUpdateAllocs(t *testing.T) {
	g := NewGraph()
	ids := []ID{g.AddVertex([]string{"Post"}, Props{"lang": Str("en")})}
	var eids []ID
	for i := 0; i < 16; i++ {
		c := g.AddVertex([]string{"Comm"}, Props{"lang": Str("en")})
		e, err := g.AddEdge(ids[len(ids)-1], c, "REPLY", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c)
		eids = append(eids, e)
	}
	engine := NewEngineWithOptions(g, EngineOptions{NumWorkers: 1})
	defer engine.Close()
	mustRegisterT(t, engine,
		"threads", "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t")
	last := eids[len(eids)-1]
	src, dst := ids[len(ids)-2], ids[len(ids)-1]
	avg := testing.AllocsPerRun(200, func() {
		if err := g.RemoveEdge(last); err != nil {
			t.Fatal(err)
		}
		var err error
		last, err = g.AddEdge(src, dst, "REPLY", nil)
		if err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 170 // measured ~136 at PR time
	if avg > ceiling {
		t.Errorf("transitive tail-edge churn: %.1f allocs/op, ceiling %d", avg, ceiling)
	}
}

// TestTopKRankShiftAllocs pins the TopKNode hot path: multiplicity
// shifts on rows already inside the window — the order-statistic
// search, the width updates and the window merge-diff — must not
// allocate per probe. Every row keeps a positive count throughout, so
// no entry is created or dropped and the steady state must be
// allocation-free.
func TestTopKRankShiftAllocs(t *testing.T) {
	keyFn := []expr.Fn{func(env *expr.Env) value.Value { return env.Row[1] }}
	n := rete.NewTopKNode(nil, keyFn, []bool{true}, 2, 8)
	mkRow := func(i int) value.Row {
		return value.Row{value.NewString(fmt.Sprintf("p%02d", i)), value.NewInt(int64(i % 5))}
	}
	// 20 distinct rows, multiplicity 2 each: the window boundary sits
	// inside tied runs, and counts oscillating 1..3 never hit zero.
	var seedBatch []rete.Delta
	for i := 0; i < 20; i++ {
		seedBatch = append(seedBatch, rete.Delta{Row: mkRow(i), Mult: 2})
	}
	n.Apply(0, seedBatch)

	i := 0
	up := []rete.Delta{{}, {}}
	down := []rete.Delta{{}, {}}
	avg := testing.AllocsPerRun(500, func() {
		a, b := mkRow(i%20), mkRow((i+7)%20)
		up[0] = rete.Delta{Row: a, Mult: 1}
		up[1] = rete.Delta{Row: b, Mult: -1}
		n.Apply(0, up)
		down[0] = rete.Delta{Row: a, Mult: -1}
		down[1] = rete.Delta{Row: b, Mult: 1}
		n.Apply(0, down)
		i++
	})
	// mkRow allocates the probe rows (4 allocs: two rows, two strings);
	// the node itself must add nothing.
	const ceiling = 6
	if avg > ceiling {
		t.Errorf("TopK in-window rank shift: %.1f allocs/op, ceiling %d", avg, ceiling)
	}
}

// TestPointSetStatementAllocs pins the statement path ROADMAP item 2
// targets: a parameterised point SET on the scale-1 social graph —
// statement cache hit, id() seek, one-property commit — must stay under
// 300 allocations (it was ~3,850 while bind scanned the vertex extent).
func TestPointSetStatementAllocs(t *testing.T) {
	soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
	const stmt = "MATCH (n) WHERE id(n) = $id SET n.score = $s"
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		i++
		st, err := ExecParams(soc.G, stmt, Props{"id": Int(soc.Persons[i%len(soc.Persons)]), "s": Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if st.MatchedRows != 1 || st.PropertiesSet != 1 {
			t.Fatalf("stats %+v", st)
		}
	})
	const ceiling = 300 // ROADMAP item 2's target; measured 36 at PR time
	if avg > ceiling {
		t.Errorf("point SET statement: %.1f allocs/op, ceiling %d", avg, ceiling)
	}
}
