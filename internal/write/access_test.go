package write

import (
	"fmt"
	"testing"

	"pgiv/internal/cypher"
	"pgiv/internal/graph"
	"pgiv/internal/snapshot"
	"pgiv/internal/stmt"
	"pgiv/internal/value"
	"pgiv/internal/workload"
)

// TestTwoEndpointStatementsEndToEnd: the statements whose reading prefix
// used to build the |V|×|V| cross product (14 s on this graph) create and
// delete exactly the one relationship. That their prefixes bind by seeks
// alone is pinned where the evaluator lives (snapshot's
// TestPointStatementsBindBySeek).
func TestTwoEndpointStatementsEndToEnd(t *testing.T) {
	soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
	g := soc.G
	a, b := soc.Persons[3], soc.Persons[40]
	params := map[string]value.Value{"a": value.NewInt(a), "b": value.NewInt(b)}
	before := g.NumEdges()
	for _, src := range []string{
		"MATCH (a), (b) WHERE id(a) = $a AND id(b) = $b CREATE (a)-[:KNOWS2]->(b)",
		"MATCH (a:Person), (b:Person) WHERE id(a) = $a AND id(b) = $b CREATE (a)-[:KNOWS2]->(b)",
	} {
		st, err := Exec(g, src, params)
		if err != nil {
			t.Fatal(err)
		}
		if st.MatchedRows != 1 || st.EdgesCreated != 1 {
			t.Errorf("%s: %+v", src, st)
		}
	}
	st, err := Exec(g, "MATCH (a)-[k:KNOWS2]->(b) WHERE id(a) = $a AND id(b) = $b DELETE k", params)
	if err != nil {
		t.Fatal(err)
	}
	if st.MatchedRows != 2 || st.EdgesDeleted != 2 || g.NumEdges() != before {
		t.Errorf("delete: %+v, edges %d → %d", st, before, g.NumEdges())
	}
}

// TestReadYourWritesInsideBatch: bind reads the live graph, so inside one
// Batch a statement's id() seek sees what earlier statements of the same
// transaction created, and no longer sees what they deleted.
func TestReadYourWritesInsideBatch(t *testing.T) {
	g := graph.New()
	keep := g.AddVertex([]string{"V"}, nil)
	exec := func(tx *graph.Tx, src string, params map[string]value.Value) Stats {
		t.Helper()
		w, err := stmt.Write(src)
		if err != nil {
			t.Fatal(err)
		}
		st, err := execTx(g, tx, w, params)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return st
	}
	err := g.Batch(func(tx *graph.Tx) error {
		created := tx.AddVertex([]string{"V"}, nil)
		p := map[string]value.Value{"id": value.NewInt(created), "keep": value.NewInt(keep)}
		if st := exec(tx, "MATCH (n) WHERE id(n) = $id SET n.seen = 1", p); st.MatchedRows != 1 || st.PropertiesSet != 1 {
			t.Errorf("match by id of a vertex created in this transaction: %+v", st)
		}
		if st := exec(tx, "MATCH (a:V), (b) WHERE id(a) = $keep AND id(b) = $id CREATE (a)-[:E]->(b)", p); st.EdgesCreated != 1 {
			t.Errorf("two-endpoint create over an uncommitted vertex: %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	err = g.Batch(func(tx *graph.Tx) error {
		created := tx.AddVertex([]string{"V"}, nil)
		p := map[string]value.Value{"id": value.NewInt(created), "keep": value.NewInt(keep)}
		exec(tx, "MATCH (a), (b) WHERE id(a) = $keep AND id(b) = $id CREATE (a)-[:E]->(b)", p)
		if st := exec(tx, "MATCH (a)-[e:E]->(b) WHERE id(a) = $keep AND id(b) = $id SET e.w = 1", p); st.MatchedRows != 1 {
			t.Errorf("expansion over an uncommitted edge: %+v", st)
		}
		if st := exec(tx, "MATCH (n) WHERE id(n) = $id DETACH DELETE n", p); st.NodesDeleted != 1 || st.EdgesDeleted != 1 {
			t.Errorf("delete of an uncommitted vertex: %+v", st)
		}
		if st := exec(tx, "MATCH (n) WHERE id(n) = $id SET n.seen = 2", p); st.MatchedRows != 0 {
			t.Errorf("match by id of a vertex deleted in this transaction: %+v", st)
		}
		if st := exec(tx, "MATCH (a)-[e:E]->(b) WHERE id(a) = $keep AND e.w = 1 SET e.w = 2", p); st.MatchedRows != 0 {
			t.Errorf("expansion over an edge deleted in this transaction: %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBindRowsAscending: update clauses run over the binding rows in
// order, so the order a scan binds them in is observable (MERGE and
// CREATE assign IDs by it). It is ascending element ID, whatever order
// the live graph's maps iterate in.
func TestBindRowsAscending(t *testing.T) {
	g := graph.New()
	for i := 0; i < 300; i++ {
		g.AddVertex([]string{"V"}, map[string]value.Value{"k": value.NewInt(int64(i % 7))})
	}
	if _, err := Exec(g, "MATCH (v:V) WHERE v.k = 3 CREATE (:W {of: id(v)})", nil); err != nil {
		t.Fatal(err)
	}
	res, err := snapshot.Query(g, "MATCH (w:W) RETURN id(w), w.of", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 43 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][1].Int() >= res.Rows[i][1].Int() {
			t.Fatalf("W %s was created for V %s before W %s for V %s",
				res.Rows[i-1][0], res.Rows[i-1][1], res.Rows[i][0], res.Rows[i][1])
		}
	}
}

// TestMergeAnchorsOnBoundNode: a MERGE pattern whose first node is unbound
// but which reaches a bound node is matched from that node, not from a
// scan of the first node's label, with the same matches in the same
// order as the scan finds.
func TestMergeAnchorsOnBoundNode(t *testing.T) {
	g := graph.New()
	post := g.AddVertex([]string{"Post"}, nil)
	other := g.AddVertex([]string{"Post"}, nil)
	params := map[string]value.Value{"id": value.NewInt(post)}
	const tagged = "MATCH (p) WHERE id(p) = $id MERGE (t:Tag {name: 'go'})-[:TAGS]->(p)"
	st, err := Exec(g, tagged, params)
	if err != nil {
		t.Fatal(err)
	}
	if st.NodesCreated != 1 || st.EdgesCreated != 1 {
		t.Fatalf("first MERGE: %+v", st)
	}
	st, err = Exec(g, tagged, params)
	if err != nil {
		t.Fatal(err)
	}
	if st.NodesCreated != 0 || st.EdgesCreated != 0 {
		t.Fatalf("second MERGE created again: %+v", st)
	}
	// A :Tag 'go' that tags another post does not match this one.
	st, err = Exec(g, tagged, map[string]value.Value{"id": value.NewInt(other)})
	if err != nil {
		t.Fatal(err)
	}
	if st.NodesCreated != 1 || st.EdgesCreated != 1 {
		t.Fatalf("MERGE for the other post: %+v", st)
	}

	// Several matches, a two-hop chain and an undirected hop: the anchored
	// enumeration returns what the label scan does, in its order.
	x := &exec{g: g}
	var tags []int64
	for i := 0; i < 5; i++ {
		tag := g.AddVertex([]string{"Tag"}, map[string]value.Value{"name": value.NewString("go")})
		tags = append(tags, tag)
	}
	for _, i := range []int{4, 1, 3} {
		if _, err := g.AddEdge(tags[i], post, "TAGS", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddEdge(post, tags[0], "TAGS", nil); err != nil { // wrong way for ->, right for --
		t.Fatal(err)
	}
	if _, err := g.AddEdge(tags[2], tags[1], "NEXT", nil); err != nil {
		t.Fatal(err)
	}
	tagCons := nodeCons{labels: []string{"Tag"}, props: map[string]value.Value{"name": value.NewString("go")}}
	for name, c := range map[string]struct {
		nodes []nodeCons
		rels  []relCons
	}{
		"one hop":    {[]nodeCons{tagCons, {bound: true, boundID: post}}, []relCons{{typ: "TAGS", dir: cypher.DirOut}}},
		"undirected": {[]nodeCons{tagCons, {bound: true, boundID: post}}, []relCons{{typ: "TAGS", dir: cypher.DirBoth}}},
		"two hops": {[]nodeCons{{labels: []string{"Tag"}}, tagCons, {bound: true, boundID: post}},
			[]relCons{{typ: "NEXT", dir: cypher.DirOut}, {typ: "TAGS", dir: cypher.DirOut}}},
	} {
		anchored := x.matchPattern(c.nodes, c.rels)
		// The reference: every vertex as a candidate first node.
		scan := append([]nodeCons(nil), c.nodes...)
		var want []patMatch
		for _, v := range g.VerticesByLabel("") {
			if !nodeSatisfies(v, scan[0]) {
				continue
			}
			nodes := append([]nodeCons{{bound: true, boundID: v.ID}}, scan[1:]...)
			want = append(want, x.matchPattern(nodes, c.rels)...)
		}
		if len(want) == 0 || fmt.Sprint(anchored) != fmt.Sprint(want) {
			t.Errorf("%s: anchored %v, scan %v", name, anchored, want)
		}
	}
}
