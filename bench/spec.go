package main

import (
	"sort"

	"pgiv/internal/workload"
)

// family is the kind of operation a workload times.
type family int

const (
	famStmt  family = iota // parameterised Cypher write, one wire round-trip
	famChurn               // one single-op Mutator commit (Social.Churn mix)
	famPath                // one cycle of four path flips, each its own commit
	famBatch               // one 32-op Mutator commit on a durable engine
	famRead                // one ad-hoc client.Query of a fixed class
)

type viewDef struct{ name, query string }

// spec fixes everything about a workload except the seed and the window
// length. The counts are frozen here so that parent and change run the
// same thing; BENCHMARK.json names the workloads and says why each exists.
type spec struct {
	name      string
	fam       family
	scale     int // social scale factor: 3.7k vertices per unit
	views     []viewDef
	readClass string // famRead only: hit, residual, scan or point
	warmup    int    // ops before the fixed point and the window
	chunk     int    // ops generated (off the clock) per timed segment
}

// wire reports whether the workload's ops travel over loopback TCP.
func (s *spec) wire() bool { return s.fam == famStmt || s.fam == famRead }

// The EXP-O view set: what a pgivd user subscribes to during writes.
var writeViews = []viewDef{
	{"langs", "MATCH (p:Post) RETURN p.lang, count(*)"},
	{"hot", "MATCH (c:Comm) WHERE c.score > 50 RETURN c"},
	{"tags", "MATCH (p:Post)-[:TAGGED]->(t:Tag) RETURN t.name, count(*)"},
}

// The EXP-R view set: memos the rewrite planner can answer reads from.
var readViews = []viewDef{
	{"vr_knows", "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a, b"},
	{"vr_posts", "MATCH (p:Post) WHERE p.score > 50 RETURN p, p.score, p.lang"},
	{"vr_agg", "MATCH (c:Comm) RETURN c.lang, count(*) AS n"},
}

// One template per read class. hit is vr_knows verbatim; residual is a
// tighter filter, a narrower projection and a top slice over vr_posts,
// whose LIMIT keeps the answer's size the same on every seed; scan and
// point are covered by no memo.
var readTemplates = map[string]string{
	"hit":      "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a, b",
	"residual": "MATCH (p:Post) WHERE p.score > 60 RETURN p.score, p.lang ORDER BY p.score DESC, p.lang LIMIT 100",
	"scan":     "MATCH (a:Person)-[:LIKES]->(p:Post) RETURN a, p",
	"point":    "MATCH (n:Person) WHERE id(n) = $id RETURN n.name",
}

var readClasses = []string{"hit", "residual", "scan", "point"}

// pickViews returns the named queries of the batteries that keep accepts,
// sorted by name: registration order is part of the workload.
func pickViews(keep func(name string) bool, batteries ...map[string]string) []viewDef {
	var out []viewDef
	for _, b := range batteries {
		for name, q := range b {
			if keep(name) {
				out = append(out, viewDef{name, q})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func isPathView(name string) bool {
	_, routing := workload.SocialRoutingQueries[name]
	return routing || name == "threads" || name == "deep-thread"
}

// churnViews are the 15 non-path views: joins, anti-joins, outer joins,
// aggregates and top-k windows.
func churnViews() []viewDef {
	return pickViews(func(n string) bool { return !isPathView(n) }, workload.SocialQueries,
		workload.SocialRankedQueries, workload.SocialOptionalQueries)
}

// pathViews are the five transitive and shortest-path views.
func pathViews() []viewDef {
	return pickViews(isPathView, workload.SocialQueries, workload.SocialRoutingQueries)
}

func specs() []*spec {
	out := []*spec{
		{name: "wire_writes", fam: famStmt, scale: 1, views: writeViews, warmup: 300, chunk: 256},
		{name: "view_churn", fam: famChurn, scale: 4, views: churnViews(), warmup: 5000, chunk: 2048},
		{name: "path_churn", fam: famPath, scale: 4, views: pathViews(), warmup: 50, chunk: 32},
	}
	for _, c := range readClasses {
		out = append(out, &spec{name: "read_" + c, fam: famRead, scale: 2, views: readViews,
			readClass: c, warmup: 150, chunk: 128})
	}
	return append(out, &spec{name: "durable_batches", fam: famBatch, scale: 2, views: churnViews(),
		warmup: 200, chunk: 128})
}

func specByName(name string) *spec {
	for _, s := range specs() {
		if s.name == name {
			return s
		}
	}
	return nil
}
