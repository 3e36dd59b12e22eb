package snapshot

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pgiv/internal/cypher"
	"pgiv/internal/fra"
	"pgiv/internal/gra"
	"pgiv/internal/graph"
	"pgiv/internal/nra"
	"pgiv/internal/stmt"
	"pgiv/internal/value"
)

// randomGraph builds a seeded graph with unlabelled, :A, :B and :A:B
// vertices, parallel edges and self-loops of types R and S. Vertex IDs are
// 1..n and edge IDs 1..m, so a test can name existing and missing IDs.
func randomGraph(seed int64, n, m int) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	g := graph.New()
	labels := [][]string{nil, {"A"}, {"B"}, {"A", "B"}}
	for i := 0; i < n; i++ {
		g.AddVertex(labels[r.Intn(len(labels))], map[string]value.Value{
			"x": value.NewInt(int64(r.Intn(4)))})
	}
	for i := 0; i < m; i++ {
		src, trg := graph.ID(1+r.Intn(n)), graph.ID(1+r.Intn(n))
		if r.Intn(8) == 0 {
			trg = src
		}
		typ := "R"
		if r.Intn(3) == 0 {
			typ = "S"
		}
		if _, err := g.AddEdge(src, trg, typ, map[string]value.Value{
			"w": value.NewInt(int64(r.Intn(3)))}); err != nil {
			panic(err)
		}
	}
	return g
}

// seekTemplates hold {v} / {v:q} where an id test on v (against $p, or
// $q) goes. The seek form writes it as id(v) = $p, which access-path
// selection recognises; the scan form disguises it as id(v) + 0 = $p,
// which it must not — an independent reference that needs no switch in
// the evaluator.
var seekTemplates = []string{
	"MATCH (n) WHERE {n} RETURN n",
	"MATCH (n:A) WHERE {n} RETURN n, n.x",
	"MATCH (n:A:B) WHERE {n} RETURN n",
	"MATCH (n:A) WHERE n.x > 1 AND {n} AND n.x < 9 RETURN n.x",
	"MATCH (n) WHERE {n} AND {n:q} RETURN n",
	"MATCH (n) WHERE {n} RETURN count(*)",
	// under joins: expansion from either endpoint, the edge itself, both
	"MATCH (a)-[e:R]->(b) WHERE {a} RETURN a, e, b, e.w",
	"MATCH (a)-[e:R]->(b) WHERE {b} RETURN a, e, b",
	"MATCH (a:A)-[e:R|S]->(b:B) WHERE {b} AND a.x >= 1 RETURN a, e, b",
	"MATCH (a)-[e]->(b) WHERE {e} RETURN a, e, b",
	"MATCH (a)-[e:S]->(b) WHERE {e} AND {a:q} RETURN a, e, b",
	"MATCH (a)-[k:R]->(b) WHERE {a} AND {b:q} RETURN k",
	"MATCH (a)-[e:R]->(b)-[f]->(c) WHERE {b} RETURN a, e, b, f, c",
	"MATCH (a)-[e:R]->(b)-[f]->(c) WHERE {c} AND e.w = f.w RETURN a, c",
	// undirected patterns: both orientations, self-loops once
	"MATCH (a)-[e]-(b) WHERE {a} RETURN a, e, b",
	"MATCH (a)-[e:R]-(b:A) WHERE {b} RETURN a, e, b",
	"MATCH (a)-[e:R|S]-(b) WHERE {a} AND {b:q} RETURN e",
	"MATCH (a)-[e]-(b) WHERE {e} RETURN a, b",
	// the cross product of two point lookups
	"MATCH (a), (b) WHERE {a} AND {b:q} RETURN a, b",
	"MATCH (a:A), (b:B) WHERE {a} AND {b:q} RETURN a, b",
	// optional match, semi-join and anti-join
	"MATCH (a) WHERE {a} OPTIONAL MATCH (a)-[e:R]->(b) RETURN a, e, b",
	"MATCH (a:A) OPTIONAL MATCH (a)-[e:R]->(b) WHERE {b} RETURN a, e, b",
	"MATCH (a:A) OPTIONAL MATCH (a)-[e:R]->(b) WHERE {a} RETURN a, e, b",
	"MATCH (a:A) MATCH (a)-[e]->(b) WHERE {a} RETURN e, b",
	"MATCH (a) WHERE {a} AND (a)-[:R]->() RETURN a",
	"MATCH (a) WHERE (a)-[:R]->(:B) AND {a} RETURN a",
	"MATCH (a:A) WHERE {a} AND NOT (a)-[:R]->(:B) RETURN a",
	"MATCH (a:A) WHERE NOT (a)-[:R]->(:B) AND {a} RETURN a",
	// row extenders above the leaf
	"MATCH (a)-[:R*1..2]->(b) WHERE {a} RETURN a, b",
	"MATCH p = (a)-[:R]->(b) WHERE {a} RETURN p",
	"UNWIND [1, 2] AS k MATCH (n) WHERE {n} RETURN k, n",
	"MATCH (a)-[e]-(b) WHERE {a} RETURN b, e ORDER BY b.x, e LIMIT 3",
	// not seekable: the id test is under OR / NOT, or depends on the row
	"MATCH (n) WHERE {n} OR n.x = 1 RETURN n",
	"MATCH (n:A) WHERE NOT ({n}) RETURN n",
	"MATCH (a)-[e]->(b) WHERE id(a) = id(b) AND {e} RETURN e",
	"MATCH (a)-[e:R]->(b) WHERE id(b) = id(a) + 1 AND {a} RETURN e",
}

// expand fills a template's id tests in the given form.
func expand(tmpl string, seek bool) string {
	for _, v := range []string{"n", "a", "b", "c", "e"} {
		for _, p := range []string{"p", "q"} {
			hole := "{" + v + "}"
			if p == "q" {
				hole = "{" + v + ":q}"
			}
			test := fmt.Sprintf("id(%s) + 0 = $%s", v, p)
			if seek && p == "p" {
				test = fmt.Sprintf("id(%s) = $%s", v, p)
			} else if seek {
				test = fmt.Sprintf("$%s = id(%s)", p, v) // the mirrored spelling
			}
			tmpl = strings.ReplaceAll(tmpl, hole, test)
		}
	}
	return tmpl
}

func renderRows(rows []value.Row) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = value.RowString(r)
	}
	return strings.Join(parts, " ")
}

// TestSeekVsScanDifferential: every template returns the same rows in the
// same order whether its id tests are written so that access-path
// selection sees them or disguised so that it cannot — over Int ids that
// exist, ids that do not, ids whose vertex lacks the label, and Float,
// String, NULL and missing parameters, on the live graph and on a pinned
// snapshot.
func TestSeekVsScanDifferential(t *testing.T) {
	pvals := []value.Value{
		value.NewInt(1), value.NewInt(2), value.NewInt(3), value.NewInt(5), value.NewInt(8),
		value.NewInt(13), value.NewInt(0), value.NewInt(-4), value.NewInt(9999),
		value.NewFloat(3.0), value.NewFloat(2.5), value.NewString("3"), value.Null,
	}
	for seed := int64(1); seed <= 4; seed++ {
		g := randomGraph(seed, 14, 40)
		snap := g.Snapshot()
		readers := map[string]graph.Reader{"live": g, "snapshot": snap}
		r := rand.New(rand.NewSource(seed * 77))
		for _, tmpl := range seekTemplates {
			seekQ, scanQ := expand(tmpl, true), expand(tmpl, false)
			for _, p := range pvals {
				// q ranges over a few values per p, always including p itself
				// (the only way both tests of one variable can hold).
				for _, q := range []value.Value{p, pvals[r.Intn(len(pvals))], value.NewInt(int64(1 + r.Intn(14)))} {
					params := map[string]value.Value{"p": p, "q": q}
					for name, rd := range readers {
						want, err := Query(rd, scanQ, params)
						if err != nil {
							t.Fatalf("seed %d %s: scan form %q: %v", seed, name, scanQ, err)
						}
						got, err := Query(rd, seekQ, params)
						if err != nil {
							t.Fatalf("seed %d %s: seek form %q: %v", seed, name, seekQ, err)
						}
						if g, w := renderRows(got.Rows), renderRows(want.Rows); g != w {
							t.Fatalf("seed %d %s: %q with p=%s q=%s\n seek %s\n scan %s",
								seed, name, seekQ, p, q, g, w)
						}
					}
				}
			}
			// A missing parameter is the selection's compile error either way.
			for name, rd := range readers {
				_, errSeek := Query(rd, seekQ, map[string]value.Value{"q": value.NewInt(1)})
				_, errScan := Query(rd, scanQ, map[string]value.Value{"q": value.NewInt(1)})
				if errSeek == nil || errScan == nil || errSeek.Error() != errScan.Error() {
					t.Fatalf("seed %d %s: %q without $p: seek err %v, scan err %v", seed, name, seekQ, errSeek, errScan)
				}
			}
		}
		snap.Release()
	}
}

// TestSeekConstantArithmetic: the constant side may be arithmetic over
// literals and parameters; it is evaluated once, not per row.
func TestSeekConstantArithmetic(t *testing.T) {
	g := randomGraph(5, 14, 40)
	for _, c := range []struct{ seek, scan string }{
		{"id(n) = $p + 1", "id(n) + 0 = $p + 1"},
		{"id(n) = 2 * $p - 1", "id(n) + 0 = 2 * $p - 1"},
		{"id(n) = 7", "id(n) + 0 = 7"},
		{"id(n) = $p / 2", "id(n) + 0 = $p / 2"},
	} {
		for _, p := range []value.Value{value.NewInt(4), value.NewFloat(4), value.NewString("x"), value.Null} {
			params := map[string]value.Value{"p": p}
			got, err := Query(g, "MATCH (n) WHERE "+c.seek+" RETURN n", params)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Query(g, "MATCH (n) WHERE "+c.scan+" RETURN n", params)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := renderRows(got.Rows), renderRows(want.Rows); g != w {
				t.Errorf("%s with p=%s: seek %s, scan %s", c.seek, p, g, w)
			}
		}
	}
}

// TestDemandThroughOuterJoin: Cypher never puts a selection directly
// above an OPTIONAL MATCH's join, so the plans are assembled by hand. The
// reference puts an identity projection between the selection and the
// join, which no demand crosses. An id restriction on the null-padded side
// may narrow that side; any other conjunct on it must not, or a left row
// whose matches it removes would come back null-padded and pass.
func TestDemandThroughOuterJoin(t *testing.T) {
	plan := func(cond string, barrier bool) *fra.Plan {
		c, err := cypher.ParseExpression(cond)
		if err != nil {
			t.Fatal(err)
		}
		var in nra.Op = &nra.LeftOuterJoin{
			L: &nra.GetVertices{Var: "a", Labels: []string{"A"}},
			R: &nra.Join{
				L: &nra.GetVertices{Var: "a"},
				R: &nra.GetEdges{AVar: "a", EVar: "e", BVar: "b", Types: []string{"R"},
					BProps: []nra.PropSpec{{Key: "x", Attr: "b.x"}}},
			},
		}
		if barrier {
			var items []gra.Item
			for _, attr := range in.Schema() {
				items = append(items, gra.Item{Expr: &cypher.Variable{Name: attr}, Alias: attr})
			}
			in = &nra.Project{Input: in, Items: items}
		}
		root := &nra.Select{Cond: c, Input: in}
		return &fra.Plan{Root: root, OutSchema: root.Schema()}
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := randomGraph(seed, 14, 40)
		for _, cond := range []string{
			"id(b) = $p",
			"id(b) = $p AND id(a) = $q",
			"id(e) = $p",
			"id(a) = $q AND b.x > 1",
			// true of a null-padded row
			"b IS NULL",
			"b.x IS NULL AND id(a) = $q",
			"coalesce(b.x, 2) = 2",
			"NOT (b.x = 1) OR b IS NULL",
		} {
			for p := int64(0); p <= 15; p++ {
				for _, q := range []int64{p, 1 + (p*7)%14} {
					params := map[string]value.Value{"p": value.NewInt(p), "q": value.NewInt(q)}
					got, err := Eval(g, plan(cond, false), params)
					if err != nil {
						t.Fatal(err)
					}
					want, err := Eval(g, plan(cond, true), params)
					if err != nil {
						t.Fatal(err)
					}
					if g, w := renderRows(got.Rows), renderRows(want.Rows); g != w {
						t.Fatalf("seed %d %q p=%d q=%d:\n direct  %s\n barrier %s", seed, cond, p, q, g, w)
					}
				}
			}
		}
	}
}

// TestPushedConjunctsVsBarrier: a conjunct over one leaf's variables is
// applied inside that leaf's scan. The reference routes the same rows
// through a WITH — a projection no demand crosses — and filters above it.
func TestPushedConjunctsVsBarrier(t *testing.T) {
	cases := []struct{ direct, barrier string }{
		{"MATCH (n:A) WHERE n.x > 1 RETURN n",
			"MATCH (n:A) WITH n WHERE n.x > 1 RETURN n"},
		{"MATCH (n) WHERE n.x IN [0, 3] AND size(labels(n)) > 0 RETURN n",
			"MATCH (n) WITH n WHERE n.x IN [0, 3] AND size(labels(n)) > 0 RETURN n"},
		{"MATCH (a)-[e:R]->(b) WHERE e.w = 1 AND b.x >= a.x RETURN a, e, b",
			"MATCH (a)-[e:R]->(b) WITH a, e, b WHERE e.w = 1 AND b.x >= a.x RETURN a, e, b"},
		{"MATCH (a:A)-[e]-(b) WHERE b.x = 2 AND type(e) = 'S' RETURN a, e, b",
			"MATCH (a:A)-[e]-(b) WITH a, e, b WHERE b.x = 2 AND type(e) = 'S' RETURN a, e, b"},
		{"MATCH (a)-[e:R]->(b)-[f]->(c) WHERE c.x = 0 AND a.x > 0 AND e.w <> f.w RETURN a, e, b, f, c",
			"MATCH (a)-[e:R]->(b)-[f]->(c) WITH a, e, b, f, c WHERE c.x = 0 AND a.x > 0 AND e.w <> f.w RETURN a, e, b, f, c"},
		{"MATCH (a:A) WHERE a.x > 0 OPTIONAL MATCH (a)-[e:R]->(b) RETURN a, e, b",
			"MATCH (a:A) OPTIONAL MATCH (a)-[e:R]->(b) WITH a, e, b WHERE a.x > 0 RETURN a, e, b"},
		{"MATCH (a), (b:B) WHERE a.x = 3 AND b.x < 2 RETURN a, b",
			"MATCH (a), (b:B) WITH a, b WHERE a.x = 3 AND b.x < 2 RETURN a, b"},
		{"MATCH (a:B) WHERE NOT (a)-[:S]->() AND a.x <> 1 RETURN a",
			"MATCH (a:B) WHERE NOT (a)-[:S]->() WITH a WHERE a.x <> 1 RETURN a"},
		{"MATCH (a)-[:R*1..2]->(b) WHERE a.x = 1 AND b.x = 2 RETURN a, b",
			"MATCH (a)-[:R*1..2]->(b) WITH a, b WHERE a.x = 1 AND b.x = 2 RETURN a, b"},
	}
	for seed := int64(1); seed <= 4; seed++ {
		g := randomGraph(seed, 30, 90)
		snap := g.Snapshot()
		for _, c := range cases {
			for name, rd := range map[string]graph.Reader{"live": g, "snapshot": snap} {
				got, err := Query(rd, c.direct, nil)
				if err != nil {
					t.Fatalf("%s: %v", c.direct, err)
				}
				want, err := Query(rd, c.barrier, nil)
				if err != nil {
					t.Fatalf("%s: %v", c.barrier, err)
				}
				if g, w := renderRows(got.Rows), renderRows(want.Rows); g != w {
					t.Fatalf("seed %d %s: %s\n direct  %s\n barrier %s", seed, name, c.direct, g, w)
				}
			}
		}
		snap.Release()
	}
}

// extentCounter counts calls to the Reader methods that touch a whole
// label or type extent.
type extentCounter struct {
	graph.Reader
	calls int
}

func (c *extentCounter) VerticesByLabel(l string) []*graph.Vertex {
	c.calls++
	return c.Reader.VerticesByLabel(l)
}
func (c *extentCounter) EdgesByType(t string) []*graph.Edge {
	c.calls++
	return c.Reader.EdgesByType(t)
}
func (c *extentCounter) ForEachVertexByLabel(l string, fn func(*graph.Vertex) bool) {
	c.calls++
	c.Reader.ForEachVertexByLabel(l, fn)
}
func (c *extentCounter) ForEachEdgeByType(t string, fn func(*graph.Edge) bool) {
	c.calls++
	c.Reader.ForEachEdgeByType(t, fn)
}

// TestPointQueriesTouchNoExtent: a query in which every leaf binds a
// restricted variable is answered by seeks and adjacency expansions
// alone, and a query with no restriction still scans. (A restriction is
// not passed sideways across a join: a leaf that binds no restricted
// variable streams its extent even when its join partner was seeked.)
func TestPointQueriesTouchNoExtent(t *testing.T) {
	g := randomGraph(9, 14, 40)
	params := map[string]value.Value{"a": value.NewInt(3), "b": value.NewInt(5), "e": value.NewInt(7)}
	for _, q := range []string{
		"MATCH (n) WHERE id(n) = $a RETURN n",
		"MATCH (n:A) WHERE id(n) = $a AND n.x > 0 RETURN n.x",
		"MATCH (a), (b) WHERE id(a) = $a AND id(b) = $b RETURN a, b",
		"MATCH (a:A), (b:B) WHERE id(a) = $a AND id(b) = $b RETURN a, b",
		"MATCH (a)-[k:R]->(b) WHERE id(a) = $a AND id(b) = $b RETURN k",
		"MATCH (a)-[k:R]->(b) WHERE id(a) = $a RETURN k, b",
		"MATCH (a)-[k]-(b) WHERE id(a) = $a RETURN k, b",
		"MATCH (a)-[k]->(b) WHERE id(k) = $e AND id(a) = $a RETURN a, b",
		"MATCH (a)-[:R]->(b)-[:S]->(c) WHERE id(a) = $a AND id(b) = $b RETURN c",
		"MATCH p = (a)-[:R*1..3]->(b) WHERE id(a) = $a RETURN p",
		// the selection sits on one side of the join; the other side
		// inherits what it guarantees
		"MATCH (a) WHERE id(a) = $a OPTIONAL MATCH (a)-[k:R]->(b) RETURN a, k, b",
		"MATCH (a:A) WHERE id(a) = $a AND NOT (a)-[:R]->(:B) RETURN a",
		"MATCH (a) WHERE id(a) = $a AND (a)-[:S]-() RETURN a",
		"MATCH (a) WHERE id(a) = $a MATCH (a)-[k:R]->(b) RETURN k, b",
	} {
		c := &extentCounter{Reader: g}
		if _, err := Query(c, q, params); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if c.calls != 0 {
			t.Errorf("%s: %d extent calls, want none", q, c.calls)
		}
	}
	c := &extentCounter{Reader: g}
	if _, err := Query(c, "MATCH (n:A) WHERE n.x = 1 RETURN n", nil); err != nil {
		t.Fatal(err)
	}
	if c.calls != 1 {
		t.Errorf("label scan: %d extent calls, want 1", c.calls)
	}
}

// TestPointStatementsBindBySeek is the regression test for the
// two-endpoint edge-creation statement, whose reading prefix used to
// build the |V|×|V| cross product before filtering it: the prefix of
// every point statement must bind without touching a label or type
// extent, and in a number of allocations that does not depend on the
// size of the graph. No wall-clock time is involved.
func TestPointStatementsBindBySeek(t *testing.T) {
	g := randomGraph(21, 3000, 9000)
	var k *graph.Edge
	g.ForEachEdgeByType("R", func(e *graph.Edge) bool { k = e; return false })
	params := map[string]value.Value{"a": value.NewInt(k.Src), "b": value.NewInt(k.Trg)}
	for _, src := range []string{
		"MATCH (a), (b) WHERE id(a) = $a AND id(b) = $b CREATE (a)-[:KNOWS]->(b)",
		"MATCH (a:A), (b:B) WHERE id(a) = $a AND id(b) = $b CREATE (a)-[:KNOWS]->(b)",
		"MATCH (a)-[k:R]->(b) WHERE id(a) = $a AND id(b) = $b DELETE k",
		"MATCH (n) WHERE id(n) = $a SET n.score = 1",
		"MATCH (c:A) WHERE id(c) = $b DETACH DELETE c",
	} {
		w, err := stmt.Write(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		c := &extentCounter{Reader: g}
		if _, err := Eval(c, w.Prefix.Plan, params); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if c.calls != 0 {
			t.Errorf("%s: %d extent calls while binding, want none", src, c.calls)
		}
		avg := testing.AllocsPerRun(50, func() {
			if _, err := Eval(g, w.Prefix.Plan, params); err != nil {
				t.Fatal(err)
			}
		})
		const ceiling = 120 // measured 22–83 at PR time; the cross product was 9M rows
		if avg > ceiling {
			t.Errorf("%s: binding costs %.0f allocs, ceiling %d", src, avg, ceiling)
		}
	}
	res, err := Query(g, "MATCH (a)-[k:R]->(b) WHERE id(a) = $a AND id(b) = $b RETURN k", params)
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("the probe edge was not found: %v, %v", res, err)
	}
}

// TestInjectedLeafIsFilteredNotBypassed: under EvalWithRows the designated
// leaf is answered from the given rows even when a restriction would let
// the evaluator seek the graph instead — the rows here name a vertex the
// graph does not have.
func TestInjectedLeafIsFilteredNotBypassed(t *testing.T) {
	g := randomGraph(3, 14, 40)
	plan, err := fra.CompileString("MATCH (n) WHERE id(n) = $p RETURN n")
	if err != nil {
		t.Fatal(err)
	}
	var leaf nra.Op
	var find func(nra.Op)
	find = func(op nra.Op) {
		if _, ok := op.(*nra.GetVertices); ok {
			leaf = op
		}
		for _, c := range op.Children() {
			find(c)
		}
	}
	find(plan.Root)
	memo := []value.Row{{value.NewVertex(2)}, {value.NewVertex(77)}, {value.NewVertex(77)}, {value.Null}}
	for p, want := range map[int64]string{77: "((#77)) ((#77))", 2: "((#2))", 3: ""} {
		res, err := EvalWithRows(g, plan.Root, plan.OutSchema, leaf, memo, map[string]value.Value{"p": value.NewInt(p)})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderRows(res.Rows); got != want {
			t.Errorf("p=%d: got %q, want %q", p, got, want)
		}
	}
	if len(memo) != 4 || memo[0][0].ID() != 2 {
		t.Error("the injected rows were modified")
	}
}

// TestScanOrderUnchanged: the map-backed live graph streams its extents
// in no particular order, the snapshot in ID order; both must return the
// rows the extent-sorting evaluator did — ascending element ID per leaf,
// whatever conjunct was pushed into the scan — and so agree row for row.
func TestScanOrderUnchanged(t *testing.T) {
	g := randomGraph(11, 200, 600)
	snap := g.Snapshot()
	defer snap.Release()
	for _, c := range []struct {
		q          string
		singleLeaf bool
	}{
		{"MATCH (n:A) RETURN n", true},
		{"MATCH (n) WHERE n.x = 2 RETURN n", true},
		{"MATCH (a)-[e:R]->(b) WHERE e.w = 1 RETURN a, e", false},
		{"MATCH (a:A)-[e]-(b:B) WHERE b.x > 0 RETURN e, a, b", false},
		{"MATCH (a)-[e:S|R]-(b) WHERE a.x = b.x RETURN e", false},
	} {
		live, err := Query(g, c.q, nil)
		if err != nil {
			t.Fatal(err)
		}
		pinned, err := Query(snap, c.q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(live.Rows) < 20 {
			t.Fatalf("%s: only %d rows", c.q, len(live.Rows))
		}
		if l, p := renderRows(live.Rows), renderRows(pinned.Rows); l != p {
			t.Errorf("%s: live and snapshot disagree\n live %s\n snap %s", c.q, l, p)
		}
		for i := 1; c.singleLeaf && i < len(live.Rows); i++ {
			if live.Rows[i-1][0].ID() >= live.Rows[i][0].ID() {
				t.Fatalf("%s: row %d (%s) precedes row %d (%s)", c.q, i-1, live.Rows[i-1][0], i, live.Rows[i][0])
			}
		}
	}
}
