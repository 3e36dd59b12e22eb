package ivm_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pgiv/internal/cypher"
	"pgiv/internal/graph"
	"pgiv/internal/ivm"
	"pgiv/internal/rete"
	"pgiv/internal/snapshot"
	"pgiv/internal/value"
	"pgiv/internal/write"
)

// batteryQueries is the incremental-fragment query battery (EXP-H): every
// operator of the pipeline is exercised — fixed and variable-length
// patterns in all directions, property pushdown, selections, projections,
// DISTINCT, aggregation, named paths and path unwinding, relationship
// uniqueness, multi-clause joins and cartesian products.
var batteryQueries = []string{
	"MATCH (p:Post) RETURN p",
	"MATCH (p:Post) RETURN p.lang",
	"MATCH (p:Post) WHERE p.score > 5 RETURN p, p.score",
	"MATCH (a)-[e:KNOWS]->(b) RETURN a, b",
	"MATCH (a:Person)-[e]->(b) RETURN a, e, b",
	"MATCH (a:Person)-[:KNOWS]-(b:Person) RETURN a, b",
	"MATCH (a:Person)-[:KNOWS]->(b)-[:KNOWS]->(c) RETURN a, b, c",
	"MATCH (p:Post)<-[:LIKES]-(u:Person) RETURN p, u",
	"MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t",
	"MATCH (p:Post)-[:REPLY*1..2]->(c:Comm) RETURN p, c",
	"MATCH (p:Post)-[:REPLY*0..]->(m) RETURN p, m",
	"MATCH (a:Person) WHERE a.name STARTS WITH 'A' RETURN a.name",
	"MATCH (a:Person) RETURN DISTINCT a.city",
	"MATCH (p:Post) RETURN count(*)",
	"MATCH (p:Post) RETURN p.lang, count(*)",
	"MATCH (a:Person) RETURN min(a.score), max(a.score), sum(a.score)",
	"MATCH (a:Person) RETURN avg(a.score), count(a.score)",
	"MATCH (a:Person) RETURN collect(a.score)",
	"MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a, count(b)",
	"MATCH t = (a:Person)-[:KNOWS*1..3]->(b:Person) RETURN a, b, length(t)",
	"UNWIND [1, 2, 2, 3] AS x RETURN x, x * 2",
	"MATCH t = (p:Post)-[:REPLY*]->(c:Comm) UNWIND nodes(t) AS n RETURN p, n",
	"MATCH (a:Person {city: 'berlin'}) RETURN a",
	"MATCH (a:Person)-[e:KNOWS {weight: 3}]->(b) RETURN a, b",
	"MATCH (a:Person), (p:Post) WHERE a.score = p.score RETURN a, p",
	"MATCH (a:Person)-[:KNOWS]->(b:Person) MATCH (b)-[:LIKES]->(p:Post) RETURN a, p",
	"MATCH (a)-[:REPLY]->(a2) WHERE a.lang = a2.lang RETURN a, a2",
	"MATCH (a:Person) WHERE a.score IN [1, 2, 3] RETURN a",
	"MATCH (a:Person) WHERE a.nick IS NULL RETURN a",
	"MATCH (x:Comm)-[:REPLY]->(x2:Comm)-[:REPLY]->(x3:Comm)-[:REPLY]->(x) RETURN x, x2, x3",
	"MATCH (h:Person:Hot) RETURN h, h.score",
	"MATCH (a:Person) RETURN count(DISTINCT a.city)",
	"MATCH (a:Person) WHERE NOT (a)-[:KNOWS]->(:Person) RETURN a",
	"MATCH (a:Person) WHERE (a)-[:LIKES]->(:Post) RETURN a",
	"MATCH (a:Person)-[:KNOWS]->(b) WHERE NOT (b)-[:KNOWS]->(a) RETURN a, b",
	"MATCH (p:Post) WHERE NOT (p)-[:REPLY*]->(:Comm {lang: 'de'}) RETURN p",
	// OPTIONAL MATCH: incremental left outer joins (PR 4).
	"MATCH (a:Person) OPTIONAL MATCH (a)-[:KNOWS]->(b:Person) RETURN a, b",
	"MATCH (a:Person) OPTIONAL MATCH (a)-[e:LIKES]->(p:Post) WHERE p.score > 3 RETURN a, p, p.score",
	"MATCH (p:Post) OPTIONAL MATCH (p)-[:REPLY]->(c:Comm) OPTIONAL MATCH (c)-[:REPLY]->(d:Comm) RETURN p, c, d",
	"OPTIONAL MATCH (h:Person:Hot) RETURN h",
	"MATCH (a:Person) OPTIONAL MATCH (a)-[:KNOWS]->(b) RETURN a, count(b)",
	"MATCH (p:Post) OPTIONAL MATCH (p)-[:REPLY*]->(c:Comm) RETURN p, c",
	"MATCH (p:Post) OPTIONAL MATCH (p)<-[:LIKES]-(u:Person) WHERE u.score >= 5 RETURN p, u",
	// WITH: projection/aggregation pipelining (PR 4).
	"MATCH (a:Person) WITH a WHERE a.score > 2 RETURN a, a.score",
	"MATCH (a:Person)-[:KNOWS]->(b) WITH a, count(b) AS friends WHERE friends >= 2 RETURN a, friends",
	"MATCH (p:Post) WITH p.lang AS l, count(*) AS n RETURN l, n",
	"MATCH (a:Person) WITH DISTINCT a.city AS city RETURN city",
	"MATCH (a:Person) WITH a AS x WHERE x.score < 8 RETURN x.score, x",
	"MATCH (a:Person) OPTIONAL MATCH (a)-[:KNOWS]->(b:Person) WITH a, count(b) AS k RETURN a, k",
	"UNWIND [1, 2, 3] AS x WITH x WHERE x % 2 = 1 RETURN x",
	"MATCH (a:Person) WITH a WHERE (a)-[:LIKES]->(:Post) RETURN a.name",
	// ORDER BY/SKIP/LIMIT: incrementally maintained windows (PR 5).
	// Scores come from a tiny domain, so window boundaries are packed
	// with ties and the canonical tie-break is exercised constantly.
	"MATCH (a:Person) RETURN a, a.score ORDER BY a.score DESC LIMIT 5",
	"MATCH (a:Person) RETURN a.name, a.score ORDER BY a.score DESC, a.name ASC SKIP 1 LIMIT 4",
	"MATCH (a:Person) RETURN a.score ORDER BY a.score SKIP 3",
	"MATCH (a) RETURN a LIMIT 6",
	"MATCH (p:Post) RETURN p.lang, count(*) AS n ORDER BY n DESC, p.lang LIMIT 2",
	"MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a, b, b.score ORDER BY b.score DESC LIMIT 4",
	"MATCH (a:Person) WITH a ORDER BY a.score DESC LIMIT 6 RETURN a.city, count(*)",
	// Bounded-hop windows (PR 10): lower bounds above 1, exact-hop, and
	// explicit zero-hop ranges.
	"MATCH (p:Post)-[:REPLY*2..4]->(c:Comm) RETURN p, c",
	"MATCH (x:Comm)-[:REPLY*3..3]->(y) RETURN x, y",
	"MATCH (a:Person)-[:KNOWS*0..2]->(b) RETURN a, b",
	// Weighted and unweighted shortest-path views (PR 10).
	"MATCH t = shortestPath((a:Person)-[:KNOWS*1..3 {weight}]->(b:Person)) RETURN a, b, cost(t)",
	"MATCH shortestPath((a:Person)-[:KNOWS*1..2]->(b:Person)) RETURN a, b",
	"MATCH t = shortestPath((p:Post)-[:REPLY*0..3]->(c:Comm)) RETURN p, c, cost(t), length(t)",
}

// mutator drives a random but reproducible update stream against a
// graph. Reads go through g; writes go through mut, so the same stream
// can run per-op (mut == g, one auto-committed transaction per
// mutation) or batched (mut is an open Tx). With capV/capE set, growth
// operations flip to removals once the graph exceeds the cap, keeping
// long fuzz streams bounded (and transitive-path enumeration cheap).
type mutator struct {
	g          *graph.Graph
	mut        graph.Mutator
	r          *rand.Rand
	capV, capE int // 0 = unbounded

	// cypherFrac routes that fraction of mutations through the Cypher
	// write-statement ingress (write.ExecTx against the same Mutator)
	// instead of direct Mutator calls. Both ingress paths must produce
	// identical graphs, changesets and view transcripts.
	cypherFrac float64
}

var (
	labels = [][]string{{"Person"}, {"Post"}, {"Comm"}}
	langs  = []string{"en", "de", "fr"}
	cities = []string{"berlin", "budapest", "aachen"}
	names  = []string{"Alice", "Antal", "Bob", "Borbala", "Cecil"}
	types  = []string{"KNOWS", "REPLY", "LIKES"}
)

func (m *mutator) randomVertexProps() map[string]value.Value {
	props := map[string]value.Value{
		"score": value.NewInt(int64(m.r.Intn(10))),
	}
	switch m.r.Intn(3) {
	case 0:
		props["lang"] = value.NewString(langs[m.r.Intn(len(langs))])
	case 1:
		props["city"] = value.NewString(cities[m.r.Intn(len(cities))])
		props["name"] = value.NewString(names[m.r.Intn(len(names))])
	}
	return props
}

func (m *mutator) liveVertices() []graph.ID {
	var ids []graph.ID
	for _, v := range m.g.VerticesByLabel("") {
		ids = append(ids, v.ID)
	}
	return ids
}

func (m *mutator) liveEdges() []graph.ID {
	var ids []graph.ID
	for _, e := range m.g.EdgesByType("") {
		ids = append(ids, e.ID)
	}
	return ids
}

func (m *mutator) pickVertex() (graph.ID, bool) {
	ids := m.liveVertices()
	if len(ids) == 0 {
		return 0, false
	}
	return ids[m.r.Intn(len(ids))], true
}

// execCypher parses and executes one write statement against the
// mutator's current write target (auto-commit in per-op mode, the open
// transaction in batched mode) — the same executor the server uses.
func (m *mutator) execCypher(t *testing.T, stmt string) {
	t.Helper()
	st, err := cypher.ParseStatement(stmt)
	if err != nil || !st.IsWrite() {
		t.Fatalf("bad write statement %q: %v", stmt, err)
	}
	if _, err := write.ExecTx(m.g, m.mut, st.Write, nil); err != nil {
		t.Fatalf("exec %q: %v", stmt, err)
	}
}

// renderValue renders a property value as a Cypher literal.
func renderValue(v value.Value) string {
	switch v.Kind() {
	case value.KindInt:
		return fmt.Sprintf("%d", v.Int())
	case value.KindString:
		return "'" + v.Str() + "'" // fixed vocabulary, no escaping needed
	}
	return "NULL"
}

// renderProps renders a property map as a Cypher map literal, keys
// sorted (empty map renders as "").
func renderProps(props map[string]value.Value) string {
	if len(props) == 0 {
		return ""
	}
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(" {")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(k)
		b.WriteString(": ")
		b.WriteString(renderValue(props[k]))
	}
	b.WriteString("}")
	return b.String()
}

// step applies one random update and returns its description.
func (m *mutator) step(t *testing.T) string {
	t.Helper()
	// Drawn unconditionally so the op stream is identical across
	// cypherFrac settings: only the ingress path varies.
	useCy := m.r.Float64() < m.cypherFrac
	op := m.r.Intn(100)
	// Bounded streams: flip growth to shrinkage above the caps.
	if op < 15 && m.capV > 0 && len(m.liveVertices()) > m.capV {
		op = 58 // add vertex → remove vertex
	}
	if op >= 15 && op < 40 && m.capE > 0 && len(m.liveEdges()) > m.capE {
		op = 45 // add edge → remove edge
	}
	switch {
	case op < 15: // add vertex
		ls := labels[m.r.Intn(len(labels))]
		props := m.randomVertexProps()
		if useCy {
			m.execCypher(t, fmt.Sprintf("CREATE (:%s%s)", strings.Join(ls, ":"), renderProps(props)))
			return fmt.Sprintf("cypher create vertex %v", ls)
		}
		id := m.mut.AddVertex(ls, props)
		return fmt.Sprintf("add vertex %d %v", id, ls)
	case op < 40: // add edge
		src, ok1 := m.pickVertex()
		trg, ok2 := m.pickVertex()
		if !ok1 || !ok2 {
			return "noop"
		}
		typ := types[m.r.Intn(len(types))]
		props := map[string]value.Value{}
		if typ == "KNOWS" {
			props["weight"] = value.NewInt(int64(m.r.Intn(5)))
		}
		if useCy {
			m.execCypher(t, fmt.Sprintf(
				"MATCH (a), (b) WHERE id(a) = %d AND id(b) = %d CREATE (a)-[:%s%s]->(b)",
				src, trg, typ, renderProps(props)))
			return fmt.Sprintf("cypher create edge %d-[%s]->%d", src, typ, trg)
		}
		id, err := m.mut.AddEdge(src, trg, typ, props)
		if err != nil {
			t.Fatalf("add edge: %v", err)
		}
		return fmt.Sprintf("add edge %d: %d-[%s]->%d", id, src, typ, trg)
	case op < 55: // remove edge
		ids := m.liveEdges()
		if len(ids) == 0 {
			return "noop"
		}
		id := ids[m.r.Intn(len(ids))]
		if useCy {
			m.execCypher(t, fmt.Sprintf("MATCH (x)-[e]->(y) WHERE id(e) = %d DELETE e", id))
			return fmt.Sprintf("cypher delete edge %d", id)
		}
		if err := m.mut.RemoveEdge(id); err != nil {
			t.Fatalf("remove edge: %v", err)
		}
		return fmt.Sprintf("remove edge %d", id)
	case op < 62: // remove vertex (with incident edges)
		id, ok := m.pickVertex()
		if !ok {
			return "noop"
		}
		if useCy {
			m.execCypher(t, fmt.Sprintf("MATCH (n) WHERE id(n) = %d DETACH DELETE n", id))
			return fmt.Sprintf("cypher detach delete vertex %d", id)
		}
		if err := m.mut.RemoveVertex(id); err != nil {
			t.Fatalf("remove vertex: %v", err)
		}
		return fmt.Sprintf("remove vertex %d", id)
	case op < 80: // set vertex property (sometimes to null = delete)
		id, ok := m.pickVertex()
		if !ok {
			return "noop"
		}
		keys := []string{"score", "lang", "city", "name", "nick"}
		key := keys[m.r.Intn(len(keys))]
		var v value.Value
		switch {
		case m.r.Intn(5) == 0:
			v = value.Null
		case key == "score":
			v = value.NewInt(int64(m.r.Intn(10)))
		case key == "lang":
			v = value.NewString(langs[m.r.Intn(len(langs))])
		case key == "city":
			v = value.NewString(cities[m.r.Intn(len(cities))])
		default:
			v = value.NewString(names[m.r.Intn(len(names))])
		}
		if useCy {
			m.execCypher(t, fmt.Sprintf("MATCH (n) WHERE id(n) = %d SET n.%s = %s", id, key, renderValue(v)))
			return fmt.Sprintf("cypher set vertex %d .%s = %s", id, key, v)
		}
		if err := m.mut.SetVertexProperty(id, key, v); err != nil {
			t.Fatalf("set vertex prop: %v", err)
		}
		return fmt.Sprintf("set vertex %d .%s = %s", id, key, v)
	case op < 85: // set edge property
		ids := m.liveEdges()
		if len(ids) == 0 {
			return "noop"
		}
		id := ids[m.r.Intn(len(ids))]
		w := int64(m.r.Intn(5))
		if useCy {
			m.execCypher(t, fmt.Sprintf("MATCH (x)-[e]->(y) WHERE id(e) = %d SET e.weight = %d", id, w))
			return fmt.Sprintf("cypher set edge %d .weight", id)
		}
		if err := m.mut.SetEdgeProperty(id, "weight", value.NewInt(w)); err != nil {
			t.Fatalf("set edge prop: %v", err)
		}
		return fmt.Sprintf("set edge %d .weight", id)
	case op < 92: // add label
		id, ok := m.pickVertex()
		if !ok {
			return "noop"
		}
		if useCy {
			m.execCypher(t, fmt.Sprintf("MATCH (n) WHERE id(n) = %d SET n:Hot", id))
			return fmt.Sprintf("cypher add label Hot to %d", id)
		}
		if err := m.mut.AddVertexLabel(id, "Hot"); err != nil {
			t.Fatalf("add label: %v", err)
		}
		return fmt.Sprintf("add label Hot to %d", id)
	default: // remove label
		id, ok := m.pickVertex()
		if !ok {
			return "noop"
		}
		if useCy {
			m.execCypher(t, fmt.Sprintf("MATCH (n) WHERE id(n) = %d REMOVE n:Hot", id))
			return fmt.Sprintf("cypher remove label Hot from %d", id)
		}
		if err := m.mut.RemoveVertexLabel(id, "Hot"); err != nil {
			t.Fatalf("remove label: %v", err)
		}
		return fmt.Sprintf("remove label Hot from %d", id)
	}
}

// checkViews compares every registered view against a fresh snapshot
// evaluation of the same query. Ordered views (plan rooted at
// ORDER BY/SKIP/LIMIT) are compared order-sensitively: the maintained
// window must match the snapshot result row for row, in rank order —
// not just as a bag.
func checkViews(t *testing.T, g *graph.Graph, views []*ivm.View, context string) {
	t.Helper()
	for _, v := range views {
		res, err := snapshot.Query(g, v.Query(), nil)
		if err != nil {
			t.Fatalf("%s: snapshot %q: %v", context, v.Query(), err)
		}
		want := res.Sorted()
		if v.Ordered() {
			want = res.Rows // the oracle's exact window order
		}
		got := v.Rows()
		if len(got) != len(want) {
			t.Fatalf("%s: view %q:\n got  (%d rows) %s\n want (%d rows) %s",
				context, v.Query(), len(got), renderRows(got), len(want), renderRows(want))
		}
		for i := range got {
			if value.CompareRows(got[i], want[i]) != 0 {
				t.Fatalf("%s: view %q row %d:\n got  %s\n want %s\nfull got:  %s\nfull want: %s",
					context, v.Query(), i, value.RowString(got[i]), value.RowString(want[i]),
					renderRows(got), renderRows(want))
			}
		}
	}
}

// fuzzPanel is the template panel of the randomized multi-mode
// differential harness: one representative per operator family, plus
// the PR 4 OPTIONAL MATCH / WITH battery, where subtle delta bugs
// (padding flips, projection horizons, HAVING) live.
var fuzzPanel = []string{
	"MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a, b",
	"MATCH (p:Post)-[:REPLY*]->(c:Comm) RETURN p, c",
	"MATCH (p:Post) RETURN p.lang, count(*)",
	"MATCH (a:Person) RETURN DISTINCT a.city",
	"MATCH (a:Person) WHERE NOT (a)-[:KNOWS]->(:Person) RETURN a",
	"MATCH (a:Person) OPTIONAL MATCH (a)-[:KNOWS]->(b:Person) RETURN a, b",
	"MATCH (a:Person) OPTIONAL MATCH (a)-[e:LIKES]->(p:Post) WHERE p.score > 3 RETURN a, p, p.score",
	"MATCH (p:Post) OPTIONAL MATCH (p)-[:REPLY]->(c:Comm) OPTIONAL MATCH (c)-[:REPLY]->(d:Comm) RETURN p, c, d",
	"MATCH (a:Person) OPTIONAL MATCH (a)-[:KNOWS]->(b) RETURN a, count(b)",
	"MATCH (p:Post) OPTIONAL MATCH (p)-[:REPLY*]->(c:Comm) RETURN p, c",
	"OPTIONAL MATCH (h:Person:Hot) RETURN h",
	"MATCH (a:Person) WITH a WHERE a.score > 2 RETURN a, a.score",
	"MATCH (a:Person)-[:KNOWS]->(b) WITH a, count(b) AS friends WHERE friends >= 2 RETURN a, friends",
	"MATCH (p:Post) WITH p.lang AS l, count(*) AS n RETURN l, n",
	"MATCH (a:Person) WITH DISTINCT a.city AS city RETURN city",
	"MATCH (a:Person) OPTIONAL MATCH (a)-[:KNOWS]->(b:Person) WITH a, count(b) AS k RETURN a, k",
	// ORDER BY/SKIP/LIMIT (PR 5): maintained windows, checked
	// order-sensitively against the oracle. The mutator's tiny score
	// domain keeps window boundaries packed with ties, so the canonical
	// tie-break is exercised on nearly every commit.
	"MATCH (a:Person) RETURN a, a.score ORDER BY a.score DESC LIMIT 5",
	"MATCH (a:Person) RETURN a.name, a.score ORDER BY a.score DESC, a.name ASC SKIP 1 LIMIT 4",
	"MATCH (a:Person) RETURN a.score ORDER BY a.score SKIP 3",
	"MATCH (a) RETURN a LIMIT 6",
	"MATCH (p:Post) RETURN p.lang, count(*) AS n ORDER BY n DESC, p.lang LIMIT 2",
	"MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a, b, b.score ORDER BY b.score DESC LIMIT 4",
	"MATCH (a:Person) WITH a ORDER BY a.score DESC LIMIT 6 RETURN a.city, count(*)",
	// Shortest-path views (PR 10) interleaved with bounded-hop
	// transitive templates. The SP templates sit at even indices so the
	// durability panel (stride 2 from 0) replays them through
	// checkpoint/recovery; the odd bounded-hop templates pin down the
	// min>1 and zero-hop repair paths of the plain transitive node.
	"MATCH t = shortestPath((a:Person)-[:KNOWS*1..3]->(b:Person)) RETURN a, b, cost(t)",
	"MATCH (p:Post)-[:REPLY*2..4]->(c:Comm) RETURN p, c",
	"MATCH t = shortestPath((a:Person)-[:KNOWS*1..4 {weight}]->(b:Person)) RETURN a, b, cost(t), length(t)",
	"MATCH (p:Post)-[:REPLY*0..2]->(m) RETURN p, m",
	"MATCH t = shortestPath((a:Person)-[:KNOWS*1..2]-(b:Person)) RETURN a, b, cost(t)",
	"MATCH (x:Comm)-[:REPLY*3..3]->(y:Comm) RETURN x, y",
	"MATCH t = shortestPath((a:Person)-[:KNOWS*1..3 {weight: 2}]->(b:Person)) RETURN a, b, cost(t)",
	"MATCH (a:Person)-[:KNOWS*2..3]->(b) RETURN a, b",
	"MATCH t = shortestPath((a:Person)-[:KNOWS*0..2]->(b:Person)) RETURN a, b, cost(t)",
}

// TestDifferentialFuzzModes is the randomized multi-mode harness: one
// seeded stream of ≥1000 random mutations runs against the fuzzPanel
// views in eight engine configurations — per-op, batched, per-op on four
// workers and batched on four workers, each with subplan sharing on and
// off — asserting after every commit that every view's rows are
// byte-identical to a fresh snapshot re-evaluation. Half the views
// register before any data, half against the populated graph (replay
// seeding); the graph size is capped so the thousand-step stream keeps
// exercising add/remove churn rather than growing without bound.
func TestDifferentialFuzzModes(t *testing.T) {
	const seed = 20260729
	steps := 1000
	if testing.Short() {
		steps = 250
	}
	const batchSize = 20
	// In every mode a fraction of the mutation stream arrives as Cypher
	// write statements through write.ExecTx instead of Mutator calls; the
	// op stream itself is identical across modes (the ingress coin is
	// drawn from the same seeded source either way).
	const cypherFrac = 0.4
	modes := []struct {
		name    string
		opts    ivm.Options
		batched bool
	}{
		{"per-op/shared", ivm.Options{NumWorkers: 1}, false},
		{"batched/shared", ivm.Options{NumWorkers: 1}, true},
		{"parallel/shared", ivm.Options{NumWorkers: 4}, false},
		{"per-op/private", ivm.Options{NoSharing: true, NumWorkers: 1}, false},
		{"batched/private", ivm.Options{NoSharing: true, NumWorkers: 1}, true},
		{"parallel/private", ivm.Options{NoSharing: true, NumWorkers: 4}, false},
		// Batches of 20 mutations reach the fan-out threshold, so these
		// two modes keep the pool helpers under the oracle even for
		// commits that touch no path view.
		{"batched-parallel/shared", ivm.Options{NumWorkers: 4}, true},
		{"batched-parallel/private", ivm.Options{NoSharing: true, NumWorkers: 4}, true},
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			g := graph.New()
			engine := ivm.NewEngine(g, mode.opts)
			defer engine.Close()
			m := &mutator{g: g, mut: g, r: rand.New(rand.NewSource(seed)), capV: 40, capE: 80, cypherFrac: cypherFrac}

			var views []*ivm.View
			register := func(from, stride int) {
				for i := from; i < len(fuzzPanel); i += stride {
					v, err := engine.RegisterView(fmt.Sprintf("f%02d", i), fuzzPanel[i])
					if err != nil {
						t.Fatalf("register %q: %v", fuzzPanel[i], err)
					}
					views = append(views, v)
				}
			}
			register(0, 2) // even templates on the empty graph

			applied := 0
			commit := 0
			runCommit := func() {
				if mode.batched {
					err := g.Batch(func(tx *graph.Tx) error {
						m.mut = tx
						for i := 0; i < batchSize && applied < steps; i++ {
							m.step(t)
							applied++
						}
						m.mut = g
						return nil
					})
					if err != nil {
						t.Fatalf("batch: %v", err)
					}
				} else {
					m.step(t)
					applied++
				}
				commit++
			}

			// Initial churn, then late registration against live state.
			for applied < steps/5 {
				runCommit()
			}
			checkViews(t, g, views, fmt.Sprintf("%s after initial load", mode.name))
			register(1, 2) // odd templates seed by replay against live shared nodes
			checkViews(t, g, views, fmt.Sprintf("%s after late registration", mode.name))

			for applied < steps {
				runCommit()
				checkViews(t, g, views, fmt.Sprintf("%s commit %d (%d mutations)", mode.name, commit, applied))
			}
			if applied < 1000 && !testing.Short() {
				t.Fatalf("stream applied only %d mutations", applied)
			}
		})
	}
}

// TestCypherIngressTranscripts runs the same seeded mutation stream
// twice — once entirely through direct Mutator calls, once entirely
// through Cypher write statements — and asserts the two runs produce
// byte-identical view transcripts: the same per-commit OnChange batches
// for every view, in the same order, and the same final rows. This is
// the strong form of the ingress-equivalence claim: not just equal end
// states, but equal delta streams.
func TestCypherIngressTranscripts(t *testing.T) {
	const steps = 300
	const batchSize = 10
	run := func(frac float64) []string {
		var transcript []string
		g := graph.New()
		engine := ivm.NewEngine(g, ivm.Options{NumWorkers: 1})
		defer engine.Close()
		var views []*ivm.View
		for i, q := range fuzzPanel {
			v, err := engine.RegisterView(fmt.Sprintf("f%02d", i), q)
			if err != nil {
				t.Fatalf("register %q: %v", q, err)
			}
			views = append(views, v)
			v.OnChange(func(ds []rete.Delta) {
				var b strings.Builder
				fmt.Fprintf(&b, "%s:", v.Name())
				for _, d := range ds {
					fmt.Fprintf(&b, " %+d %s", d.Mult, value.RowString(d.Row))
				}
				transcript = append(transcript, b.String())
			})
		}
		m := &mutator{g: g, mut: g, r: rand.New(rand.NewSource(42)), capV: 30, capE: 60, cypherFrac: frac}
		applied := 0
		for applied < steps {
			err := g.Batch(func(tx *graph.Tx) error {
				m.mut = tx
				for i := 0; i < batchSize && applied < steps; i++ {
					m.step(t)
					applied++
				}
				m.mut = g
				return nil
			})
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
		}
		for _, v := range views {
			for _, r := range v.Rows() {
				transcript = append(transcript, "final "+v.Name()+" "+value.RowString(r))
			}
		}
		return transcript
	}

	direct := run(0)
	viaCypher := run(1)
	if len(direct) != len(viaCypher) {
		t.Fatalf("transcript lengths differ: direct %d vs cypher %d", len(direct), len(viaCypher))
	}
	for i := range direct {
		if direct[i] != viaCypher[i] {
			t.Fatalf("transcript line %d differs:\n direct: %s\n cypher: %s", i, direct[i], viaCypher[i])
		}
	}
}

// TestDifferentialRandomStream is the main correctness harness: for
// several seeds, build a random graph, register the full query battery as
// incremental views (some registered before and some after initial data,
// to exercise seeding), then interleave random fine-grained updates with
// full-view comparisons against the snapshot oracle.
func TestDifferentialRandomStream(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := graph.New()
			engine := ivm.NewEngine(g)
			m := &mutator{g: g, mut: g, r: rand.New(rand.NewSource(seed))}

			// Register the first half of the battery on the empty graph.
			var views []*ivm.View
			for i, q := range batteryQueries {
				if i%2 == 0 {
					v, err := engine.RegisterView(fmt.Sprintf("q%d", i), q)
					if err != nil {
						t.Fatalf("register %q: %v", q, err)
					}
					views = append(views, v)
				}
			}

			// Initial data.
			for i := 0; i < 30; i++ {
				m.step(t)
			}
			checkViews(t, g, views, "after initial load")

			// Register the second half against the populated graph
			// (exercises shared-input seeding).
			for i, q := range batteryQueries {
				if i%2 == 1 {
					v, err := engine.RegisterView(fmt.Sprintf("q%d", i), q)
					if err != nil {
						t.Fatalf("register %q: %v", q, err)
					}
					views = append(views, v)
				}
			}
			checkViews(t, g, views, "after late registration")

			// Random update stream with a check after every step.
			for i := 0; i < 60; i++ {
				desc := m.step(t)
				checkViews(t, g, views, fmt.Sprintf("seed %d step %d (%s)", seed, i, desc))
			}
		})
	}
}
