// Command pgivbench runs the experiment suite of EXPERIMENTS.md
// (EXP-A..EXP-S) and prints one table per experiment; EXPERIMENTS.md
// embeds its output. With -json <path> it additionally writes every
// recorded figure as machine-readable JSON — the perf trajectory files
// (BENCH_*.json) are produced this way, one per PR. With -only <letter>
// a single experiment runs (e.g. -only P for the CI concurrency smoke).
//
// Unlike `go test -bench`, which reports single ns/op figures, this tool
// prints the paper-style comparison tables: incremental maintenance vs
// full recomputation across workload scales, with speedups, allocation
// counts and memory figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"path/filepath"

	"pgiv"
	"pgiv/client"
	"pgiv/internal/cypher"
	"pgiv/internal/graph"
	"pgiv/internal/ivm"
	"pgiv/internal/server"
	"pgiv/internal/snapshot"
	"pgiv/internal/wal"
	"pgiv/internal/workload"
	"pgiv/internal/write"
)

var (
	quick    = flag.Bool("quick", false, "smaller iteration counts")
	jsonPath = flag.String("json", "", "write machine-readable results to this path")
	only     = flag.String("only", "", "run a single experiment by letter (A..S)")
)

// benchResult is one recorded figure set of one experiment.
type benchResult struct {
	Exp     string             `json:"exp"`
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// benchReport is the top-level -json document.
type benchReport struct {
	Tool       string        `json:"tool"`
	Quick      bool          `json:"quick"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Results    []benchResult `json:"results"`
}

var results []benchResult

// record stores one experiment figure set for the -json report.
func record(exp, name string, metrics map[string]float64) {
	results = append(results, benchResult{Exp: exp, Name: name, Metrics: metrics})
}

func main() {
	flag.Parse()
	exps := []struct {
		letter string
		fn     func()
	}{
		{"A", expA}, {"B", expB}, {"C", expC}, {"D", expD}, {"E", expE},
		{"F", expF}, {"G", expG}, {"H", expH}, {"I", expI}, {"J", expJ},
		{"K", expK}, {"L", expL}, {"M", expM}, {"N", expN}, {"O", expO},
		{"P", expP}, {"Q", expQ}, {"R", expR}, {"S", expS},
	}
	ran := false
	for _, e := range exps {
		if *only == "" || *only == e.letter {
			e.fn()
			ran = true
		}
	}
	if !ran {
		log.Fatalf("unknown experiment %q (want A..S)", *only)
	}
	if *jsonPath != "" {
		report := benchReport{
			Tool: "pgivbench", Quick: *quick,
			GoMaxProcs: runtime.GOMAXPROCS(0), Results: results,
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %d results to %s\n", len(results), *jsonPath)
	}
}

func iters(n int) int {
	if *quick {
		return n / 10
	}
	return n
}

// timeOp measures the mean wall time of fn over n runs.
func timeOp(n int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(n)
}

const paperQuery = "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t"

func header(id, title string) {
	fmt.Printf("\n== %s: %s ==\n", id, title)
}

func expA() {
	header("EXP-A", "running example (Section 2), language flip per update")
	g := pgiv.NewGraph()
	post := g.AddVertex([]string{"Post"}, pgiv.Props{"lang": pgiv.Str("en")})
	c2 := g.AddVertex([]string{"Comm"}, pgiv.Props{"lang": pgiv.Str("en")})
	c3 := g.AddVertex([]string{"Comm"}, pgiv.Props{"lang": pgiv.Str("en")})
	mustEdge(g, post, c2)
	mustEdge(g, c2, c3)
	engine := pgiv.NewEngine(g)
	view, err := engine.RegisterView("threads", paperQuery)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("view rows on the paper's graph: %d (expected 2)\n", view.DistinctCount())
	n := iters(20000)
	langs := []pgiv.Value{pgiv.Str("de"), pgiv.Str("en")}
	i := 0
	inc := timeOp(n, func() {
		_ = g.SetVertexProperty(c3, "lang", langs[i%2])
		i++
	})
	i = 0
	snap := timeOp(n/10, func() {
		_ = g.SetVertexProperty(c3, "lang", langs[i%2])
		_, _ = pgiv.Snapshot(g, paperQuery)
		i++
	})
	printCmp("per language flip", inc, snap)
	record("EXP-A", "language-flip", map[string]float64{
		"incremental_ns": float64(inc), "snapshot_ns": float64(snap),
		"speedup": float64(snap) / float64(inc),
	})
}

func printCmp(what string, inc, snap time.Duration) {
	fmt.Printf("%-28s incremental %10v   recompute %10v   speedup %6.1fx\n",
		what, inc.Round(time.Nanosecond), snap.Round(time.Nanosecond), float64(snap)/float64(inc))
}

func mustEdge(g *pgiv.Graph, a, b pgiv.ID) pgiv.ID {
	id, err := g.AddEdge(a, b, "REPLY", nil)
	if err != nil {
		log.Fatal(err)
	}
	return id
}

func expB() {
	header("EXP-B", "Train Benchmark continuous validation (6 constraints per transformation)")
	fmt.Printf("%-8s %10s %10s %14s %14s %9s\n", "scale", "vertices", "edges", "incremental", "recompute", "speedup")
	for _, scale := range []int{1, 2, 4, 8} {
		train := workload.GenerateTrain(workload.DefaultTrainConfig(scale))
		engine := pgiv.NewEngine(train.G)
		for name, q := range workload.TrainQueries {
			if _, err := engine.RegisterView(name, q); err != nil {
				log.Fatal(err)
			}
		}
		n := iters(2000) / scale
		if n < 10 {
			n = 10
		}
		inc := timeOp(n, func() { train.InjectRepairMix(1) })

		train2 := workload.GenerateTrain(workload.DefaultTrainConfig(scale))
		m := n / 20
		if m < 3 {
			m = 3
		}
		snap := timeOp(m, func() {
			train2.InjectRepairMix(1)
			for _, q := range workload.TrainQueries {
				_, _ = pgiv.Snapshot(train2.G, q)
			}
		})
		fmt.Printf("%-8d %10d %10d %14v %14v %8.1fx\n",
			scale, train.G.NumVertices(), train.G.NumEdges(),
			inc.Round(time.Nanosecond), snap.Round(time.Nanosecond),
			float64(snap)/float64(inc))
		record("EXP-B", fmt.Sprintf("scale-%d", scale), map[string]float64{
			"vertices": float64(train.G.NumVertices()), "edges": float64(train.G.NumEdges()),
			"incremental_ns": float64(inc), "snapshot_ns": float64(snap),
			"speedup": float64(snap) / float64(inc),
		})
	}
}

func expC() {
	header("EXP-C", "transitive path maintenance: edge churn at the end of a reply chain")
	fmt.Printf("%-8s %14s %14s %9s\n", "depth", "incremental", "recompute", "speedup")
	for _, depth := range []int{4, 8, 16, 32, 64} {
		inc := chainChurn(depth, true)
		snap := chainChurn(depth, false)
		fmt.Printf("%-8d %14v %14v %8.1fx\n", depth,
			inc.Round(time.Nanosecond), snap.Round(time.Nanosecond),
			float64(snap)/float64(inc))
		record("EXP-C", fmt.Sprintf("depth-%d", depth), map[string]float64{
			"incremental_ns": float64(inc), "snapshot_ns": float64(snap),
			"speedup": float64(snap) / float64(inc),
		})
	}
}

func chainChurn(depth int, incremental bool) time.Duration {
	g := pgiv.NewGraph()
	ids := []pgiv.ID{g.AddVertex([]string{"Post"}, pgiv.Props{"lang": pgiv.Str("en")})}
	var eids []pgiv.ID
	for i := 0; i < depth; i++ {
		c := g.AddVertex([]string{"Comm"}, pgiv.Props{"lang": pgiv.Str("en")})
		eids = append(eids, mustEdge(g, ids[len(ids)-1], c))
		ids = append(ids, c)
	}
	if incremental {
		engine := pgiv.NewEngine(g)
		if _, err := engine.RegisterView("threads", paperQuery); err != nil {
			log.Fatal(err)
		}
	}
	last := eids[len(eids)-1]
	src, dst := ids[len(ids)-2], ids[len(ids)-1]
	n := iters(2000)
	if !incremental {
		n /= 10
	}
	if n < 5 {
		n = 5
	}
	return timeOp(n, func() {
		_ = g.RemoveEdge(last)
		last = mustEdge(g, src, dst)
		if !incremental {
			_, _ = pgiv.Snapshot(g, paperQuery)
		}
	})
}

func expD() {
	header("EXP-D", "FGN: one property flip under the social view battery")
	soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
	engine := pgiv.NewEngine(soc.G)
	for name, q := range workload.SocialQueries {
		if _, err := engine.RegisterView(name, q); err != nil {
			log.Fatal(err)
		}
	}
	inc := timeOp(iters(3000), func() { soc.FlipLanguage() })
	soc2 := workload.GenerateSocial(workload.DefaultSocialConfig(1))
	snap := timeOp(iters(100), func() {
		soc2.FlipLanguage()
		for _, q := range workload.SocialQueries {
			_, _ = pgiv.Snapshot(soc2.G, q)
		}
	})
	printCmp("per property flip", inc, snap)
	record("EXP-D", "fgn-flip", map[string]float64{
		"incremental_ns": float64(inc), "snapshot_ns": float64(snap),
		"speedup": float64(snap) / float64(inc),
	})
}

func expE() {
	header("EXP-E", "schema inference: updates to properties outside the inferred schema")
	const width = 32
	build := func() (*pgiv.Graph, []pgiv.ID) {
		g := pgiv.NewGraph()
		var ids []pgiv.ID
		for i := 0; i < 500; i++ {
			props := pgiv.Props{}
			for w := 0; w < width; w++ {
				props[fmt.Sprintf("p%d", w)] = pgiv.Int(int64(w))
			}
			ids = append(ids, g.AddVertex([]string{"Wide"}, props))
		}
		return g, ids
	}
	q := "MATCH (w:Wide) WHERE w.p0 > 1 RETURN w, w.p0"
	g, ids := build()
	engine := pgiv.NewEngine(g)
	if _, err := engine.RegisterView("v", q); err != nil {
		log.Fatal(err)
	}
	n := iters(20000)
	i := 0
	unused := timeOp(n, func() {
		_ = g.SetVertexProperty(ids[i%len(ids)], "p31", pgiv.Int(int64(i)))
		i++
	})
	i = 0
	used := timeOp(n, func() {
		_ = g.SetVertexProperty(ids[i%len(ids)], "p0", pgiv.Int(int64(i)))
		i++
	})
	fmt.Printf("update outside inferred schema (p31): %10v per update (filtered at input)\n", unused)
	fmt.Printf("update inside inferred schema  (p0):  %10v per update (delta propagated)\n", used)
	fmt.Printf("vertices carry %d properties; the view's base operator materialises 1\n", width)
	record("EXP-E", "pushdown", map[string]float64{
		"unused_prop_ns": float64(unused), "used_prop_ns": float64(used),
	})
}

func expF() {
	header("EXP-F", "Rete input-node sharing across 16 overlapping views")
	run := func(opts pgiv.EngineOptions) (time.Duration, time.Duration) {
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
		engine := pgiv.NewEngineWithOptions(soc.G, opts)
		regStart := time.Now()
		for i := 0; i < 16; i++ {
			q := fmt.Sprintf("MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.score > %d RETURN a, b", i)
			if _, err := engine.RegisterView(fmt.Sprintf("v%d", i), q); err != nil {
				log.Fatal(err)
			}
		}
		reg := time.Since(regStart)
		upd := timeOp(iters(3000), func() { soc.FlipScore() })
		return reg, upd
	}
	regS, updS := run(pgiv.EngineOptions{})
	regP, updP := run(pgiv.EngineOptions{NoSharing: true})
	fmt.Printf("%-10s %16s %16s\n", "mode", "registration", "per update")
	fmt.Printf("%-10s %16v %16v\n", "shared", regS.Round(time.Microsecond), updS.Round(time.Nanosecond))
	fmt.Printf("%-10s %16v %16v\n", "private", regP.Round(time.Microsecond), updP.Round(time.Nanosecond))
	fmt.Printf("update speedup from sharing: %.2fx\n", float64(updP)/float64(updS))
	record("EXP-F", "sharing", map[string]float64{
		"shared_update_ns": float64(updS), "private_update_ns": float64(updP),
		"speedup": float64(updP) / float64(updS),
	})
}

func expG() {
	header("EXP-G", "atomic paths (ORD): replace a middle edge of a 12-hop chain")
	inc := midChurn(12, true)
	snap := midChurn(12, false)
	printCmp("per replace transaction", inc, snap)
	record("EXP-G", "atomic-paths", map[string]float64{
		"incremental_ns": float64(inc), "snapshot_ns": float64(snap),
		"speedup": float64(snap) / float64(inc),
	})
}

func midChurn(depth int, incremental bool) time.Duration {
	g := pgiv.NewGraph()
	ids := []pgiv.ID{g.AddVertex([]string{"Post"}, pgiv.Props{"lang": pgiv.Str("en")})}
	var eids []pgiv.ID
	for i := 0; i < depth; i++ {
		c := g.AddVertex([]string{"Comm"}, pgiv.Props{"lang": pgiv.Str("en")})
		eids = append(eids, mustEdge(g, ids[len(ids)-1], c))
		ids = append(ids, c)
	}
	if incremental {
		engine := pgiv.NewEngine(g)
		if _, err := engine.RegisterView("threads", paperQuery); err != nil {
			log.Fatal(err)
		}
	}
	mid := eids[depth/2]
	src, dst := ids[depth/2], ids[depth/2+1]
	n := iters(1000)
	if !incremental {
		n /= 10
	}
	if n < 5 {
		n = 5
	}
	return timeOp(n, func() {
		_ = g.RemoveEdge(mid)
		mid = mustEdge(g, src, dst)
		if !incremental {
			_, _ = pgiv.Snapshot(g, paperQuery)
		}
	})
}

func expH() {
	header("EXP-H", "mixed churn with the full social battery registered")
	soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
	engine := pgiv.NewEngine(soc.G)
	for name, q := range workload.SocialQueries {
		if _, err := engine.RegisterView(name, q); err != nil {
			log.Fatal(err)
		}
	}
	inc := timeOp(iters(2000), func() { soc.Churn(1) })
	soc2 := workload.GenerateSocial(workload.DefaultSocialConfig(1))
	snap := timeOp(iters(50), func() {
		soc2.Churn(1)
		for _, q := range workload.SocialQueries {
			_, _ = pgiv.Snapshot(soc2.G, q)
		}
	})
	printCmp("per mixed update", inc, snap)
	record("EXP-H", "mixed-churn", map[string]float64{
		"incremental_ns": float64(inc), "snapshot_ns": float64(snap),
		"speedup": float64(snap) / float64(inc),
	})
}

func expI() {
	header("EXP-I", "memory: memoized Rete rows vs graph size (social battery)")
	fmt.Printf("%-8s %12s %12s %16s %10s\n", "scale", "vertices", "edges", "memoized rows", "ratio")
	for _, scale := range []int{1, 2, 4} {
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(scale))
		engine := pgiv.NewEngine(soc.G)
		names := make([]string, 0, len(workload.SocialQueries))
		for name := range workload.SocialQueries {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if _, err := engine.RegisterView(name, workload.SocialQueries[name]); err != nil {
				log.Fatal(err)
			}
		}
		// Engine-level figure: every distinct node counted once, so views
		// sharing subtrees are not double-counted.
		total := engine.MemoryEntries()
		elems := soc.G.NumVertices() + soc.G.NumEdges()
		fmt.Printf("%-8d %12d %12d %16d %9.2fx\n",
			scale, soc.G.NumVertices(), soc.G.NumEdges(), total, float64(total)/float64(elems))
		record("EXP-I", fmt.Sprintf("scale-%d", scale), map[string]float64{
			"graph_elems": float64(elems), "memoized_rows": float64(total),
			"ratio": float64(total) / float64(elems),
		})
	}
}

// expJScale1Batched stashes the scale-1 batched-load measurement so
// EXP-K can reference the same figure instead of re-measuring the
// identical path (a second sample would differ only by run-to-run
// noise and read as a spurious regression).
var (
	expJScale1Batched time.Duration
	expJScale1Elems   int
)

func expJ() {
	header("EXP-J", "transactional batching: loading the social workload into a live view battery")
	measure := func(scale int, batched bool) (time.Duration, int) {
		cfg := workload.DefaultSocialConfig(scale)
		// Best of three: single-shot load times are noisy (GC timing),
		// and EXP-K's batched-load regression check compares against
		// this figure.
		best := time.Duration(0)
		elems := 0
		for rep := 0; rep < 3; rep++ {
			soc := workload.NewSocial(cfg)
			engine := pgiv.NewEngine(soc.G)
			for name, q := range workload.SocialQueries {
				if _, err := engine.RegisterView(name, q); err != nil {
					log.Fatal(err)
				}
			}
			start := time.Now()
			if batched {
				soc.Load()
			} else {
				soc.LoadPerOp()
			}
			elapsed := time.Since(start)
			engine.Close()
			if best == 0 || elapsed < best {
				best = elapsed
			}
			elems = soc.G.NumVertices() + soc.G.NumEdges()
		}
		return best, elems
	}
	fmt.Printf("%-8s %10s %14s %14s %9s\n", "scale", "elements", "per-op", "batched", "speedup")
	for _, scale := range []int{1, 2, 4} {
		perOp, elems := measure(scale, false)
		batched, _ := measure(scale, true)
		if scale == 1 {
			expJScale1Batched, expJScale1Elems = batched, elems
		}
		fmt.Printf("%-8d %10d %14v %14v %8.1fx\n",
			scale, elems, perOp.Round(time.Microsecond), batched.Round(time.Microsecond),
			float64(perOp)/float64(batched))
		record("EXP-J", fmt.Sprintf("scale-%d", scale), map[string]float64{
			"elements": float64(elems), "per_op_ns": float64(perOp),
			"batched_ns": float64(batched), "speedup": float64(perOp) / float64(batched),
		})
	}
	fmt.Println("identical element streams; per-op commits one transaction per mutation,")
	fmt.Println("batched commits one transaction total (final view rows are identical)")
}

// expK quantifies the delta hot path: allocations and wall time per
// single-update on the FGN and transitive paths, the 10k-mutation
// batched load, and per-view parallel propagation (sequential vs a
// 4-worker pool) at 1/2/4/8 views over shared inputs.
func expK() {
	header("EXP-K", "delta hot path: allocations, batched load, parallel per-view propagation")

	// Single-update FGN under the full social battery. NumWorkers is
	// pinned to 1 so the recorded allocation/latency trajectory is
	// scheduler-independent (the default resolves to GOMAXPROCS and
	// would fold per-commit scheduling overhead into the figures on
	// multi-core hosts); the parallel scheduler is measured separately
	// by the multi-view rows below.
	soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
	engine := pgiv.NewEngineWithOptions(soc.G, pgiv.EngineOptions{NumWorkers: 1})
	for name, q := range workload.SocialQueries {
		if _, err := engine.RegisterView(name, q); err != nil {
			log.Fatal(err)
		}
	}
	n := iters(3000)
	fgnNs := timeOp(n, func() { soc.FlipLanguage() })
	fgnAllocs := testing.AllocsPerRun(n, func() { soc.FlipLanguage() })
	engine.Close()
	fmt.Printf("%-34s %12v %10.0f allocs/op\n", "FGN single update (battery)", fgnNs.Round(time.Nanosecond), fgnAllocs)
	record("EXP-K", "fgn-single-update", map[string]float64{
		"ns_per_op": float64(fgnNs), "allocs_per_op": fgnAllocs,
	})

	// Transitive edge flip at the end of a 16-hop chain (single view:
	// sequential regardless of NumWorkers).
	g, ids, eids := buildChain(16)
	engine2 := pgiv.NewEngine(g)
	if _, err := engine2.RegisterView("threads", paperQuery); err != nil {
		log.Fatal(err)
	}
	last := eids[len(eids)-1]
	src, dst := ids[len(ids)-2], ids[len(ids)-1]
	churn := func() {
		_ = g.RemoveEdge(last)
		last = mustEdge(g, src, dst)
	}
	tNs := timeOp(iters(2000), churn)
	tAllocs := testing.AllocsPerRun(iters(2000), churn)
	engine2.Close()
	fmt.Printf("%-34s %12v %10.0f allocs/op\n", "transitive edge flip (depth 16)", tNs.Round(time.Nanosecond), tAllocs)
	record("EXP-K", "transitive-edge-flip", map[string]float64{
		"ns_per_op": float64(tNs), "allocs_per_op": tAllocs,
	})

	// Batched 10k-mutation load into the live battery: the EXP-J
	// scale-1 batched figure from this run (one measurement, shared by
	// both tables — re-measuring the identical path would only record
	// run-to-run noise as a spurious delta).
	fmt.Printf("%-34s %12v (%d elements, = EXP-J scale-1 batched)\n",
		"batched load (battery live)", expJScale1Batched.Round(time.Microsecond), expJScale1Elems)
	record("EXP-K", "batched-load", map[string]float64{
		"total_ns": float64(expJScale1Batched),
		"elements": float64(expJScale1Elems),
	})

	// Per-view parallel propagation: one edge flip into N transitive
	// views, sequential vs 4 workers.
	fmt.Printf("%-8s %14s %14s %9s\n", "views", "sequential", "parallel(4)", "speedup")
	for _, nv := range []int{1, 2, 4, 8} {
		seq := multiViewChurn(nv, 1)
		par := multiViewChurn(nv, 4)
		fmt.Printf("%-8d %14v %14v %8.2fx\n", nv,
			seq.Round(time.Nanosecond), par.Round(time.Nanosecond), float64(seq)/float64(par))
		record("EXP-K", fmt.Sprintf("multiview-%d", nv), map[string]float64{
			"sequential_ns": float64(seq), "parallel_ns": float64(par),
			"speedup": float64(seq) / float64(par),
		})
	}
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Println("note: GOMAXPROCS=1 on this host — parallel rows measure scheduler")
		fmt.Println("overhead/overlap only; per-view fan-out needs cores to show speedup")
	}
}

// expL quantifies beta-subtree sharing (the subplan registry): 64 views
// drawn from 8 query templates, with sharing on versus NoSharing,
// against the 8-distinct-views baseline. On the single-core evaluation
// host the comparable figures are allocs per update and memoized rows —
// with sharing, both scale with the number of *distinct* subplans, not
// the number of registered views.
func expL() {
	header("EXP-L", "subplan sharing: 64 views from 8 query templates")
	const nTemplates = 8
	templateQ := func(i int) string {
		return fmt.Sprintf(
			"MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) WHERE a.score > %d RETURN a, c",
			(i%nTemplates)*10)
	}
	measure := func(label string, opts pgiv.EngineOptions, nv int) (time.Duration, float64, int, int) {
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
		engine := pgiv.NewEngineWithOptions(soc.G, opts)
		defer engine.Close()
		regStart := time.Now()
		for i := 0; i < nv; i++ {
			if _, err := engine.RegisterView(fmt.Sprintf("v%02d", i), templateQ(i)); err != nil {
				log.Fatal(err)
			}
		}
		reg := time.Since(regStart)
		n := iters(2000)
		upd := timeOp(n, func() { soc.FlipScore() })
		allocs := testing.AllocsPerRun(n, func() { soc.FlipScore() })
		mem := engine.MemoryEntries()
		nodes := engine.NodeCount()
		fmt.Printf("%-22s %4d views %12v reg %12v/upd %8.0f allocs/op %10d rows %6d nodes\n",
			label, nv, reg.Round(time.Microsecond), upd.Round(time.Nanosecond), allocs, mem, nodes)
		record("EXP-L", label, map[string]float64{
			"views": float64(nv), "registration_ns": float64(reg),
			"update_ns": float64(upd), "allocs_per_op": allocs,
			"memory_entries": float64(mem), "nodes": float64(nodes),
		})
		return upd, allocs, mem, nodes
	}
	_, allocs8, mem8, _ := measure("baseline-8-shared", pgiv.EngineOptions{NumWorkers: 1}, nTemplates)
	_, allocsS, memS, _ := measure("sharing-64", pgiv.EngineOptions{NumWorkers: 1}, 64)
	_, allocsP, memP, _ := measure("nosharing-64", pgiv.EngineOptions{NoSharing: true, NumWorkers: 1}, 64)
	fmt.Printf("64 views vs 8 distinct: memory ×%.2f shared, ×%.2f private; allocs ×%.2f shared, ×%.2f private\n",
		float64(memS)/float64(mem8), float64(memP)/float64(mem8),
		allocsS/allocs8, allocsP/allocs8)
	record("EXP-L", "ratios", map[string]float64{
		"mem_ratio_shared":    float64(memS) / float64(mem8),
		"mem_ratio_private":   float64(memP) / float64(mem8),
		"alloc_ratio_shared":  allocsS / allocs8,
		"alloc_ratio_private": allocsP / allocs8,
	})
}

// expM measures the PR 4 operator family: the optional-match social
// battery (left outer joins and WITH horizons, two views per template)
// maintained incrementally under mixed churn — against full
// recomputation, and with subplan sharing on vs off. Padding flips are
// the hot path: KNOWS/LIKES edge churn keeps flipping left rows between
// combined and null-padded output.
func expM() {
	header("EXP-M", "optional match: left outer joins under social churn, sharing on/off")
	names := make([]string, 0, len(workload.SocialOptionalQueries))
	for name := range workload.SocialOptionalQueries {
		names = append(names, name)
	}
	sort.Strings(names)

	run := func(label string, opts pgiv.EngineOptions) time.Duration {
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
		engine := pgiv.NewEngineWithOptions(soc.G, opts)
		defer engine.Close()
		regStart := time.Now()
		for _, name := range names {
			q := workload.SocialOptionalQueries[name]
			// Two views per template: identical plans share even the
			// production when sharing is on.
			for copy := 0; copy < 2; copy++ {
				if _, err := engine.RegisterView(fmt.Sprintf("%s-%d", name, copy), q); err != nil {
					log.Fatal(err)
				}
			}
		}
		reg := time.Since(regStart)
		n := iters(2000)
		upd := timeOp(n, func() { soc.Churn(1) })
		allocs := testing.AllocsPerRun(n, func() { soc.Churn(1) })
		mem := engine.MemoryEntries()
		fmt.Printf("%-10s %12v reg %14v/upd %8.0f allocs/op %10d rows\n",
			label, reg.Round(time.Microsecond), upd.Round(time.Nanosecond), allocs, mem)
		record("EXP-M", label, map[string]float64{
			"registration_ns": float64(reg), "update_ns": float64(upd),
			"allocs_per_op": allocs, "memory_entries": float64(mem),
		})
		return upd
	}
	updS := run("shared", pgiv.EngineOptions{NumWorkers: 1})
	updP := run("private", pgiv.EngineOptions{NoSharing: true, NumWorkers: 1})
	fmt.Printf("update speedup from sharing: %.2fx\n", float64(updP)/float64(updS))

	// Incremental maintenance vs full recomputation of the battery.
	soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
	snap := timeOp(iters(50), func() {
		soc.Churn(1)
		for _, name := range names {
			_, _ = pgiv.Snapshot(soc.G, workload.SocialOptionalQueries[name])
		}
	})
	printCmp("per mixed update", updS, snap)
	record("EXP-M", "vs-recompute", map[string]float64{
		"incremental_ns": float64(updS), "snapshot_ns": float64(snap),
		"speedup": float64(snap) / float64(updS),
	})
}

// expN measures the PR 5 workload class: ordered top-K views
// (ORDER BY/SKIP/LIMIT, the leaderboard battery) maintained by the
// order-statistic TopKNode under a churning score property — against
// full recomputation, and with subplan sharing on vs off. Most flips
// land below the top-10/top-100 folds, so the common case is one rank
// query that proves the window unchanged; boundary crossings emit only
// the rows entering and leaving the window.
func expN() {
	header("EXP-N", "leaderboards: incremental ORDER BY/SKIP/LIMIT under score churn, sharing on/off")
	names := make([]string, 0, len(workload.SocialRankedQueries))
	for name := range workload.SocialRankedQueries {
		names = append(names, name)
	}
	sort.Strings(names)

	run := func(label string, opts pgiv.EngineOptions) time.Duration {
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
		engine := pgiv.NewEngineWithOptions(soc.G, opts)
		defer engine.Close()
		regStart := time.Now()
		for _, name := range names {
			q := workload.SocialRankedQueries[name]
			// Two views per template: identical plans share the TopKNode
			// and even the production when sharing is on.
			for copy := 0; copy < 2; copy++ {
				if _, err := engine.RegisterView(fmt.Sprintf("%s-%d", name, copy), q); err != nil {
					log.Fatal(err)
				}
			}
		}
		reg := time.Since(regStart)
		n := iters(3000)
		upd := timeOp(n, func() { soc.ChurnScores(1) })
		allocs := testing.AllocsPerRun(n, func() { soc.ChurnScores(1) })
		mem := engine.MemoryEntries()
		fmt.Printf("%-10s %12v reg %14v/upd %8.0f allocs/op %10d rows\n",
			label, reg.Round(time.Microsecond), upd.Round(time.Nanosecond), allocs, mem)
		record("EXP-N", label, map[string]float64{
			"registration_ns": float64(reg), "update_ns": float64(upd),
			"allocs_per_op": allocs, "memory_entries": float64(mem),
		})
		return upd
	}
	updS := run("shared", pgiv.EngineOptions{NumWorkers: 1})
	updP := run("private", pgiv.EngineOptions{NoSharing: true, NumWorkers: 1})
	fmt.Printf("update speedup from sharing: %.2fx\n", float64(updP)/float64(updS))

	// Incremental window maintenance vs recomputing (re-sorting) the
	// battery per score flip.
	soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
	snap := timeOp(iters(100), func() {
		soc.ChurnScores(1)
		for _, name := range names {
			if _, err := pgiv.Snapshot(soc.G, workload.SocialRankedQueries[name]); err != nil {
				log.Fatal(err)
			}
		}
	})
	printCmp("per score flip", updS, snap)
	record("EXP-N", "vs-recompute", map[string]float64{
		"incremental_ns": float64(updS), "snapshot_ns": float64(snap),
		"speedup": float64(snap) / float64(updS),
	})
}

// expOViews are the views maintained during the EXP-O write stream, in
// registration order.
var expOViews = []struct{ name, query string }{
	{"langs", "MATCH (p:Post) RETURN p.lang, count(*)"},
	{"hot", "MATCH (c:Comm) WHERE c.score > 50 RETURN c"},
	{"tags", "MATCH (p:Post)-[:TAGGED]->(t:Tag) RETURN t.name, count(*)"},
}

func expO() {
	header("EXP-O", "pgivd server: Cypher write throughput and subscription fan-out over TCP")

	// Wire path: an in-process pgivd, one writer connection replaying the
	// social write-statement mix, nSubs subscriber connections each
	// streaming every view's per-commit delta batches.
	run := func(label string, nSubs int, opts pgiv.EngineOptions) time.Duration {
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
		engine := pgiv.NewEngineWithOptions(soc.G, opts)
		defer engine.Close()
		srv := server.New(soc.G, engine)
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()

		writer, err := client.Dial(addr.String())
		if err != nil {
			log.Fatal(err)
		}
		defer writer.Close()
		for _, v := range expOViews {
			if _, err := writer.RegisterView(v.name, v.query); err != nil {
				log.Fatal(err)
			}
		}

		var delivered atomic.Int64
		var batches atomic.Int64
		subs := make([]*client.Client, nSubs)
		for i := range subs {
			c, err := client.Dial(addr.String())
			if err != nil {
				log.Fatal(err)
			}
			subs[i] = c
			defer c.Close()
			for _, v := range expOViews {
				if _, _, _, err := c.Subscribe(v.name, func(b client.DeltaBatch) {
					batches.Add(1)
					delivered.Add(int64(len(b.Deltas)))
				}); err != nil {
					log.Fatal(err)
				}
			}
		}

		mix := workload.NewSocialWriteMix(soc.G, 7)
		n := iters(2000)
		for i := 0; i < n/10+10; i++ { // warmup: connections, caches, allocator
			if _, _, err := writer.Exec(mix.Next(), nil); err != nil {
				log.Fatal(err)
			}
		}
		batches.Store(0)
		delivered.Store(0)
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, _, err := writer.Exec(mix.Next(), nil); err != nil {
				log.Fatal(err)
			}
		}
		per := time.Since(start) / time.Duration(n)
		// A ping's response is ordered after every delta frame already
		// fanned out to that connection: after these, the counters are
		// complete.
		for _, c := range subs {
			if err := c.Ping(); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("%-16s %10v/stmt %8.0f stmt/s %8d batches %8d deltas delivered\n",
			label, per.Round(time.Nanosecond), float64(time.Second)/float64(per),
			batches.Load(), delivered.Load())
		record("EXP-O", label, map[string]float64{
			"stmt_ns": float64(per), "stmts_per_sec": float64(time.Second) / float64(per),
			"subscribers": float64(nSubs), "delta_batches": float64(batches.Load()),
			"deltas_delivered": float64(delivered.Load()),
		})
		return per
	}

	wire := run("0-subs/shared", 0, pgiv.EngineOptions{NumWorkers: 1})
	run("1-sub/shared", 1, pgiv.EngineOptions{NumWorkers: 1})
	run("8-subs/shared", 8, pgiv.EngineOptions{NumWorkers: 1})
	run("8-subs/private", 8, pgiv.EngineOptions{NoSharing: true, NumWorkers: 1})

	// In-process baseline: the same statement mix through pgiv.Exec with
	// the same views maintained, no wire. The gap is protocol overhead.
	soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
	engine := pgiv.NewEngine(soc.G)
	defer engine.Close()
	for _, v := range expOViews {
		if _, err := engine.RegisterView(v.name, v.query); err != nil {
			log.Fatal(err)
		}
	}
	mix := workload.NewSocialWriteMix(soc.G, 7)
	n := iters(2000)
	for i := 0; i < n/10+10; i++ {
		if _, err := pgiv.Exec(soc.G, mix.Next()); err != nil {
			log.Fatal(err)
		}
	}
	direct := timeOp(n, func() {
		if _, err := pgiv.Exec(soc.G, mix.Next()); err != nil {
			log.Fatal(err)
		}
	})
	fmt.Printf("%-16s %10v/stmt %8.0f stmt/s (no server)\n",
		"in-process", direct.Round(time.Nanosecond), float64(time.Second)/float64(direct))
	fmt.Printf("wire overhead per statement: %v (%.2fx)\n",
		(wire - direct).Round(time.Nanosecond), float64(wire)/float64(direct))
	record("EXP-O", "in-process", map[string]float64{
		"stmt_ns": float64(direct), "wire_overhead_ns": float64(wire - direct),
	})
}

// expPViews are the views the EXP-P read mix consults (the
// workload.ReadViews queries), in registration order.
var expPViewNames = []string{"bylang", "top20"}

// expP measures the MVCC read path: read throughput and latency at N
// reader connections under a sustained write stream, MVCC snapshots vs
// the serialized baseline (-serialized pgivd; everything behind one
// lock), plus the slow-read/commit-latency interaction. The write mix
// includes occasional bulk statements whose commits are slow — under the
// serialized server every in-flight read queues behind them.
func expP() {
	header("EXP-P", "MVCC read path: concurrent reads under sustained writes vs serialized baseline")

	// This experiment is about lock contention, not CPU parallelism: the
	// serialized baseline makes readers wait out whole commits on the
	// server's lock, MVCC lets them proceed against pinned epochs. With
	// GOMAXPROCS=1 the Go runtime itself serialises every goroutine onto
	// one thread and a waiting reader cannot run mid-commit even when no
	// lock blocks it, so the two modes become indistinguishable. Run the
	// experiment with at least 4 scheduler threads (the normal server
	// deployment shape); on a single-core host the OS then time-slices
	// them, which is exactly what lets a lock-free read overlap a commit.
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}

	dur := 1200 * time.Millisecond
	if *quick {
		dur = 300 * time.Millisecond
	}

	type result struct {
		readsPerSec, writesPerSec float64
		readAvg, readP99          time.Duration
		commitAvg                 time.Duration
	}

	run := func(label string, serialized bool, nReaders int) result {
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
		engine := pgiv.NewEngineWithOptions(soc.G, pgiv.EngineOptions{NumWorkers: 1})
		defer engine.Close()
		var opts []server.Option
		if serialized {
			opts = append(opts, server.WithSerializedReads())
		}
		srv := server.New(soc.G, engine, opts...)
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()

		setup, err := client.Dial(addr.String())
		if err != nil {
			log.Fatal(err)
		}
		defer setup.Close()
		for i, q := range workload.ReadViews() {
			if _, err := setup.RegisterView(expPViewNames[i], q); err != nil {
				log.Fatal(err)
			}
		}

		var stop atomic.Bool
		var wg sync.WaitGroup

		// Writers: a few connections so the commit path stays busy
		// back-to-back (while one writer's response is on the wire
		// another holds the lock) — the sustained-write regime the
		// experiment is about.
		const nWriters = 3
		writeCounts := make([]int64, nWriters)
		commitTotals := make([]time.Duration, nWriters)
		for w := 0; w < nWriters; w++ {
			wc, err := client.Dial(addr.String())
			if err != nil {
				log.Fatal(err)
			}
			defer wc.Close()
			wg.Add(1)
			go func(w int, wc *client.Client) {
				defer wg.Done()
				wmix := workload.NewSocialReadWriteMix(workload.NewSocialWriteMix(soc.G, int64(7+w)), int64(11+w))
				for !stop.Load() {
					stmt := wmix.NextWrite()
					t0 := time.Now()
					if _, _, err := wc.Exec(stmt, nil); err != nil {
						log.Fatal(err)
					}
					commitTotals[w] += time.Since(t0)
					writeCounts[w]++
				}
			}(w, wc)
		}

		// Readers: nReaders connections, each mixing view reads and
		// ad-hoc snapshot queries.
		readCounts := make([]int64, nReaders)
		readLats := make([][]time.Duration, nReaders)
		for r := 0; r < nReaders; r++ {
			c, err := client.Dial(addr.String())
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			wg.Add(1)
			go func(r int, c *client.Client) {
				defer wg.Done()
				rmix := workload.NewSocialReadWriteMix(nil, int64(100+r))
				for !stop.Load() {
					req := rmix.NextRead(expPViewNames)
					t0 := time.Now()
					if req.View != "" {
						_, _, _, err = c.Rows(req.View)
					} else {
						_, _, err = c.Query(req.Query, nil)
					}
					if err != nil {
						log.Fatal(err)
					}
					readLats[r] = append(readLats[r], time.Since(t0))
					readCounts[r]++
				}
			}(r, c)
		}

		time.Sleep(dur)
		stop.Store(true)
		wg.Wait()

		var writes int64
		var commitTotal time.Duration
		for w := 0; w < nWriters; w++ {
			writes += writeCounts[w]
			commitTotal += commitTotals[w]
		}
		var reads int64
		var lats []time.Duration
		for r := 0; r < nReaders; r++ {
			reads += readCounts[r]
			lats = append(lats, readLats[r]...)
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		res := result{
			readsPerSec:  float64(reads) / dur.Seconds(),
			writesPerSec: float64(writes) / dur.Seconds(),
		}
		if reads > 0 {
			var total time.Duration
			for _, l := range lats {
				total += l
			}
			res.readAvg = total / time.Duration(reads)
			res.readP99 = lats[len(lats)*99/100]
		}
		if writes > 0 {
			res.commitAvg = commitTotal / time.Duration(writes)
		}
		fmt.Printf("%-16s %9.0f reads/s %9.0f writes/s  read avg %8v p99 %8v  commit avg %8v\n",
			label, res.readsPerSec, res.writesPerSec,
			res.readAvg.Round(time.Microsecond), res.readP99.Round(time.Microsecond),
			res.commitAvg.Round(time.Microsecond))
		record("EXP-P", label, map[string]float64{
			"readers": float64(nReaders), "reads_per_sec": res.readsPerSec,
			"writes_per_sec": res.writesPerSec, "read_avg_ns": float64(res.readAvg),
			"read_p99_ns": float64(res.readP99), "commit_avg_ns": float64(res.commitAvg),
		})
		return res
	}

	base1 := run("serialized/1r", true, 1)
	mvcc1 := run("mvcc/1r", false, 1)
	base4 := run("serialized/4r", true, 4)
	mvcc4 := run("mvcc/4r", false, 4)
	run("mvcc/8r", false, 8)
	fmt.Printf("read throughput mvcc vs serialized: %.2fx at 1 reader, %.2fx at 4 readers\n",
		mvcc1.readsPerSec/base1.readsPerSec, mvcc4.readsPerSec/base4.readsPerSec)
	record("EXP-P", "speedup", map[string]float64{
		"read_speedup_1r": mvcc1.readsPerSec / base1.readsPerSec,
		"read_speedup_4r": mvcc4.readsPerSec / base4.readsPerSec,
	})

	// Slow-read interaction: average commit latency while one connection
	// repeatedly runs an expensive variable-length-path query (tens of
	// milliseconds at this scale — an order of magnitude longer than a
	// commit). Serialized, every commit queues behind the whole scan;
	// MVCC, the scan runs against its pinned epoch and commits only share
	// the CPU with it.
	slow := func(label string, serialized bool) (quiet, contended time.Duration) {
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(4))
		engine := pgiv.NewEngineWithOptions(soc.G, pgiv.EngineOptions{NumWorkers: 1})
		defer engine.Close()
		var opts []server.Option
		if serialized {
			opts = append(opts, server.WithSerializedReads())
		}
		srv := server.New(soc.G, engine, opts...)
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		writer, err := client.Dial(addr.String())
		if err != nil {
			log.Fatal(err)
		}
		defer writer.Close()
		wmix := workload.NewSocialWriteMix(soc.G, 7)
		n := iters(300)
		measure := func() time.Duration {
			start := time.Now()
			for i := 0; i < n; i++ {
				if _, _, err := writer.Exec(wmix.Next(), nil); err != nil {
					log.Fatal(err)
				}
			}
			return time.Since(start) / time.Duration(n)
		}
		quiet = measure()

		// Control: a lock-free CPU burner (allocating, like query
		// evaluation does, so it exerts comparable GC pressure) costs
		// commits pure processor sharing — the floor any concurrent
		// reader implies on this machine, locks aside. A slow read that
		// pushes commit latency no further than this floor is not
		// blocking the commit path.
		var stop atomic.Bool
		done := make(chan struct{})
		go func() {
			defer close(done)
			var sink []*int
			for !stop.Load() {
				for i := 0; i < 1024; i++ {
					v := i
					sink = append(sink, &v)
				}
				sink = sink[:0]
			}
			_ = sink
		}()
		floor := measure()
		stop.Store(true)
		<-done

		reader, err := client.Dial(addr.String())
		if err != nil {
			log.Fatal(err)
		}
		defer reader.Close()
		stop.Store(false)
		done = make(chan struct{})
		go func() {
			defer close(done)
			for !stop.Load() {
				if _, _, err := reader.Query("MATCH (p:Post)-[:REPLY*]->(c:Comm) RETURN count(*)", nil); err != nil {
					log.Fatal(err)
				}
			}
		}()
		contended = measure()
		stop.Store(true)
		<-done
		fmt.Printf("%-16s commit avg quiet %8v  cpu-share floor %8v  under slow reads %8v  (%.2fx quiet, %.2fx floor)\n",
			label, quiet.Round(time.Microsecond), floor.Round(time.Microsecond),
			contended.Round(time.Microsecond),
			float64(contended)/float64(quiet), float64(contended)/float64(floor))
		record("EXP-P", label+"/slow-read", map[string]float64{
			"commit_quiet_ns": float64(quiet), "commit_floor_ns": float64(floor),
			"commit_contended_ns": float64(contended),
			"commit_slowdown":     float64(contended) / float64(quiet),
			"commit_vs_floor":     float64(contended) / float64(floor),
		})
		return
	}
	slow("serialized", true)
	slow("mvcc", false)
}

func buildChain(depth int) (*pgiv.Graph, []pgiv.ID, []pgiv.ID) {
	g := pgiv.NewGraph()
	ids := []pgiv.ID{g.AddVertex([]string{"Post"}, pgiv.Props{"lang": pgiv.Str("en")})}
	var eids []pgiv.ID
	for i := 0; i < depth; i++ {
		c := g.AddVertex([]string{"Comm"}, pgiv.Props{"lang": pgiv.Str("en")})
		eids = append(eids, mustEdge(g, ids[len(ids)-1], c))
		ids = append(ids, c)
	}
	return g, ids, eids
}

// multiViewChurn times one tail-edge flip with nv identical transitive
// views registered, propagated with the given worker count.
func multiViewChurn(nv, workers int) time.Duration {
	g, ids, eids := buildChain(16)
	engine := pgiv.NewEngineWithOptions(g, pgiv.EngineOptions{NumWorkers: workers})
	defer engine.Close()
	for i := 0; i < nv; i++ {
		if _, err := engine.RegisterView(fmt.Sprintf("threads-%d", i), paperQuery); err != nil {
			log.Fatal(err)
		}
	}
	last := eids[len(eids)-1]
	src, dst := ids[len(ids)-2], ids[len(ids)-1]
	n := iters(1500)
	if n < 10 {
		n = 10
	}
	return timeOp(n, func() {
		_ = g.RemoveEdge(last)
		last = mustEdge(g, src, dst)
	})
}

// expQ measures what durability costs and what recovery buys: commit
// throughput of the social write mix under each WAL fsync policy
// against the volatile baseline, then cold-start recovery time as a
// function of how many commits sit in the WAL tail past the checkpoint.
func expQ() {
	header("EXP-Q", "Durability: WAL fsync overhead on commits, recovery time vs WAL-tail length")

	execStmt := func(g *graph.Graph, stmt string) {
		st, err := cypher.ParseStatement(stmt)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := write.ExecStatement(g, st.Write, nil); err != nil {
			log.Fatal(err)
		}
	}
	seed := func(engine *ivm.Engine, g *graph.Graph) {
		for i, q := range workload.ReadViews() {
			if _, err := engine.RegisterView(expPViewNames[i], q); err != nil {
				log.Fatal(err)
			}
		}
		soc := workload.NewSocial(workload.DefaultSocialConfig(1))
		soc.G = g
		soc.Load()
	}

	// Part 1: commit throughput per fsync policy. Same preloaded graph,
	// same maintained views, same deterministic write mix — the only
	// variable is what the commit path does for durability.
	n := iters(600)
	if n < 40 {
		n = 40
	}
	fmt.Printf("commit throughput, social write mix, %d statements:\n", n)
	var volatilePerSec float64
	for _, mode := range []string{"volatile", wal.FsyncOff, wal.FsyncInterval, wal.FsyncAlways} {
		dir, err := os.MkdirTemp("", "pgiv-expq-")
		if err != nil {
			log.Fatal(err)
		}
		g := graph.New()
		var engine *ivm.Engine
		if mode == "volatile" {
			engine = ivm.NewEngine(g)
		} else {
			engine, err = ivm.OpenDurable(g, ivm.DurabilityOptions{
				WALPath:       filepath.Join(dir, "wal.log"),
				CheckpointDir: filepath.Join(dir, "checkpoint"),
				Fsync:         mode,
			})
			if err != nil {
				log.Fatal(err)
			}
		}
		seed(engine, g)
		mix := workload.NewSocialWriteMix(g, 7)
		start := time.Now()
		for i := 0; i < n; i++ {
			execStmt(g, mix.Next())
		}
		el := time.Since(start)
		if err := engine.CloseDurable(); err != nil {
			log.Fatal(err)
		}
		os.RemoveAll(dir)
		perSec := float64(n) / el.Seconds()
		label := mode
		if mode != "volatile" {
			label = "wal fsync=" + mode
		}
		overhead := 1.0
		if volatilePerSec == 0 {
			volatilePerSec = perSec
		} else {
			overhead = volatilePerSec / perSec
		}
		fmt.Printf("  %-20s %9.0f commits/s  mean %8v  %5.2fx vs volatile\n",
			label, perSec, (el / time.Duration(n)).Round(time.Microsecond), overhead)
		record("EXP-Q", "commit/"+label, map[string]float64{
			"commits_per_sec": perSec, "mean_commit_ns": float64(el / time.Duration(n)),
			"overhead_vs_volatile": overhead,
		})
	}

	// Part 2: recovery cost. Checkpoint once, run `tail` more commits,
	// abandon the engine without a final checkpoint (a crash, minus the
	// page-cache loss — fsync=off keeps the tail readable in-process),
	// and time a cold OpenDurable: checkpoint load + tail replay through
	// the normal propagation path. Tail 0 isolates the checkpoint load.
	tails := []int{0, 200, 1000, 4000}
	if *quick {
		tails = []int{0, 100, 400}
	}
	fmt.Printf("recovery time, checkpoint + WAL tail replay (fsync=off):\n")
	for _, tail := range tails {
		dir, err := os.MkdirTemp("", "pgiv-expq-")
		if err != nil {
			log.Fatal(err)
		}
		dopts := ivm.DurabilityOptions{
			WALPath:       filepath.Join(dir, "wal.log"),
			CheckpointDir: filepath.Join(dir, "checkpoint"),
			Fsync:         wal.FsyncOff,
		}
		g := graph.New()
		engine, err := ivm.OpenDurable(g, dopts)
		if err != nil {
			log.Fatal(err)
		}
		seed(engine, g)
		if err := engine.CheckpointNow(); err != nil {
			log.Fatal(err)
		}
		mix := workload.NewSocialWriteMix(g, 11)
		for i := 0; i < tail; i++ {
			execStmt(g, mix.Next())
		}
		wantEpoch := g.Epoch()
		// Abandoned, not closed: no final checkpoint, the tail stays in
		// the log — the crash shape recovery exists for.
		g2 := graph.New()
		start := time.Now()
		engine2, err := ivm.OpenDurable(g2, dopts)
		recov := time.Since(start)
		if err != nil {
			log.Fatal(err)
		}
		if g2.Epoch() != wantEpoch {
			log.Fatalf("EXP-Q: recovered epoch %d, want %d", g2.Epoch(), wantEpoch)
		}
		if err := engine2.CloseDurable(); err != nil {
			log.Fatal(err)
		}
		os.RemoveAll(dir)
		perSec := 0.0
		if tail > 0 {
			perSec = float64(tail) / recov.Seconds()
		}
		fmt.Printf("  tail %6d commits   recovery %10v   replay %9.0f commits/s\n",
			tail, recov.Round(time.Microsecond), perSec)
		record("EXP-Q", fmt.Sprintf("recovery/tail-%d", tail), map[string]float64{
			"tail_commits": float64(tail), "recovery_ns": float64(recov),
			"replay_commits_per_sec": perSec,
		})
	}
}

func expR() {
	header("EXP-R", "Rewrite serving: ad-hoc reads from materialized views vs from-scratch snapshot evaluation")

	// ---- Part 1: per-template read latency on a quiet graph ----------
	// Each battery query is answered through the rewrite planner (exact
	// hit, residual hit, or miss) and from scratch against a pinned MVCC
	// snapshot — the same evaluation a -no-rewrite server performs, so
	// the speedup isolates what the planner saves. The miss row is the
	// planner's overhead bound: it must stay ~1x.
	soc := workload.GenerateSocial(workload.DefaultSocialConfig(2))
	engine := pgiv.NewEngineWithOptions(soc.G, pgiv.EngineOptions{NumWorkers: 1})
	defer engine.Close()
	for _, v := range []struct{ name, q string }{
		{"vr_knows", "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a, b"},
		{"vr_posts", "MATCH (p:Post) WHERE p.score > 50 RETURN p, p.score, p.lang"},
		{"vr_agg", "MATCH (c:Comm) RETURN c.lang, count(*) AS n"},
	} {
		if _, err := engine.RegisterView(v.name, v.q); err != nil {
			log.Fatal(err)
		}
	}
	battery := []struct{ kind, q string }{
		{"exact", "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a, b"},
		{"residual", "MATCH (p:Post) WHERE p.score > 80 RETURN p.score, p.lang"},
		{"residual", "MATCH (c:Comm) RETURN c.lang, count(*) AS n ORDER BY n DESC LIMIT 3"},
		{"miss", "MATCH (a:Person)-[:LIKES]->(p:Post) RETURN a, p"},
	}
	// Warm both paths once per template before timing: the first engine
	// read pays the one-time MVCC store construction (graph-sized, not
	// query-sized) and the lazy EnableRewrite publish.
	for _, b := range battery {
		if _, err := pgiv.Query(engine, b.q); err != nil {
			log.Fatal(err)
		}
		if _, err := snapshot.Query(soc.G, b.q, nil); err != nil {
			log.Fatal(err)
		}
	}
	n := iters(200)
	if n < 60 {
		n = 60 // the quick run gates CI on these ratios; keep them stable
	}
	minHit, geoHit, hits := 0.0, 1.0, 0
	for _, b := range battery {
		b := b
		rew := timeOp(n, func() {
			if _, err := pgiv.Query(engine, b.q); err != nil {
				log.Fatal(err)
			}
		})
		scr := timeOp(n, func() {
			snap := soc.G.Snapshot()
			if _, err := snapshot.Query(snap, b.q, nil); err != nil {
				log.Fatal(err)
			}
			snap.Release()
		})
		spd := float64(scr) / float64(rew)
		fmt.Printf("%-8s %-72s rewrite %10v  scratch %10v  %6.1fx\n",
			b.kind, b.q, rew.Round(time.Microsecond), scr.Round(time.Microsecond), spd)
		record("EXP-R", "latency/"+b.kind, map[string]float64{
			"rewrite_ns": float64(rew), "scratch_ns": float64(scr), "speedup": spd,
		})
		if b.kind != "miss" {
			if minHit == 0 || spd < minHit {
				minHit = spd
			}
			geoHit *= spd
			hits++
		}
	}
	geoHit = math.Pow(geoHit, 1/float64(hits))
	st := engine.Stats()
	fmt.Printf("planner outcomes: %d exact, %d residual (%d residual ops), %d miss; hit speedup %.1fx geomean, %.1fx worst\n",
		st.RewriteExact, st.RewriteResidual, st.RewriteResidualOps, st.RewriteMiss, geoHit, minHit)
	record("EXP-R", "hit_speedup", map[string]float64{
		"geomean_hit_speedup": geoHit,
		"min_hit_speedup":     minHit,
		"exact":               float64(st.RewriteExact),
		"residual":            float64(st.RewriteResidual),
		"miss":                float64(st.RewriteMiss),
	})
	// CI sanity floor (quick runs only): a rewrite-served hit must never
	// be materially slower than evaluating from scratch. This is a
	// correctness-of-purpose check, not a performance gate.
	if *quick && minHit < 1.0/1.5 {
		log.Fatalf("EXP-R: rewrite-hit reads are %.2fx from-scratch speed (floor 1/1.5): the rewrite path is slower than what it replaces", minHit)
	}

	// ---- Part 2: server read throughput under sustained writes -------
	// The EXP-P serving shape (writers keep the commit path busy), but
	// every read is an ad-hoc query; the hit-rate sweep varies how many
	// of them the planner can cover. -no-rewrite is the baseline.
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	dur := 1200 * time.Millisecond
	if *quick {
		dur = 300 * time.Millisecond
	}
	hitQs := []string{
		"MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a, b",
		"MATCH (p:Post) WHERE p.score > 80 RETURN p.score, p.lang",
	}
	missQs := []string{
		"MATCH (a:Person)-[:LIKES]->(p:Post) RETURN a, p",
		"MATCH (c:Comm) WHERE c.score < 10 RETURN c",
	}
	run := func(label string, rewrite bool, hitPct int) float64 {
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
		eng := pgiv.NewEngineWithOptions(soc.G, pgiv.EngineOptions{NumWorkers: 1})
		defer eng.Close()
		opts := []server.Option{}
		if !rewrite {
			opts = append(opts, server.WithoutRewrite())
		}
		srv := server.New(soc.G, eng, opts...)
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		setup, err := client.Dial(addr.String())
		if err != nil {
			log.Fatal(err)
		}
		defer setup.Close()
		for _, v := range []struct{ name, q string }{
			{"vr_knows", "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a, b"},
			{"vr_posts", "MATCH (p:Post) WHERE p.score > 50 RETURN p, p.score, p.lang"},
		} {
			if _, err := setup.RegisterView(v.name, v.q); err != nil {
				log.Fatal(err)
			}
		}

		var stop atomic.Bool
		var wg sync.WaitGroup
		const nWriters = 2
		var writes atomic.Int64
		for w := 0; w < nWriters; w++ {
			wc, err := client.Dial(addr.String())
			if err != nil {
				log.Fatal(err)
			}
			defer wc.Close()
			wg.Add(1)
			go func(w int, wc *client.Client) {
				defer wg.Done()
				wmix := workload.NewSocialWriteMix(soc.G, int64(7+w))
				for !stop.Load() {
					if _, _, err := wc.Exec(wmix.Next(), nil); err != nil {
						log.Fatal(err)
					}
					writes.Add(1)
				}
			}(w, wc)
		}
		const nReaders = 2
		var reads atomic.Int64
		for r := 0; r < nReaders; r++ {
			c, err := client.Dial(addr.String())
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			wg.Add(1)
			go func(r int, c *client.Client) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + r)))
				for !stop.Load() {
					var q string
					if rng.Intn(100) < hitPct {
						q = hitQs[rng.Intn(len(hitQs))]
					} else {
						q = missQs[rng.Intn(len(missQs))]
					}
					if _, _, err := c.Query(q, nil); err != nil {
						log.Fatal(err)
					}
					reads.Add(1)
				}
			}(r, c)
		}
		time.Sleep(dur)
		stop.Store(true)
		wg.Wait()
		rps := float64(reads.Load()) / dur.Seconds()
		wps := float64(writes.Load()) / dur.Seconds()
		fmt.Printf("%-18s %9.0f ad-hoc reads/s %9.0f writes/s\n", label, rps, wps)
		record("EXP-R", label, map[string]float64{
			"hit_pct": float64(hitPct), "reads_per_sec": rps, "writes_per_sec": wps,
		})
		return rps
	}
	base := run("norewrite/h100", false, 100)
	for _, h := range []int{0, 50, 100} {
		rps := run(fmt.Sprintf("rewrite/h%d", h), true, h)
		if h == 100 {
			fmt.Printf("served throughput at 100%% coverable: %.2fx the no-rewrite baseline\n", rps/base)
			record("EXP-R", "throughput_speedup", map[string]float64{"h100_vs_norewrite": rps / base})
		}
	}
}

func expS() {
	header("EXP-S", "shortest-path views: bounded delta-Dijkstra repair vs full recompute under KNOWS churn")
	names := make([]string, 0, len(workload.SocialRoutingQueries))
	for name := range workload.SocialRoutingQueries {
		names = append(names, name)
	}
	sort.Strings(names)

	// KNOWS churn: alternate insert/delete so the edge count stays
	// stable while witnesses keep moving.
	churn := func(soc *workload.Social, i int) {
		if i%2 == 0 {
			soc.AddKnows()
		} else {
			soc.RemoveKnows()
		}
	}

	run := func(label string, opts pgiv.EngineOptions) time.Duration {
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(4))
		engine := pgiv.NewEngineWithOptions(soc.G, opts)
		defer engine.Close()
		regStart := time.Now()
		for _, name := range names {
			q := workload.SocialRoutingQueries[name]
			// Two views per template on a scale-4 graph (400 persons,
			// ~2400 KNOWS edges): identical plans share the stateful
			// ShortestPathNode (and the production) when sharing is on.
			// The larger graph keeps the repair ball — the reverse BFS
			// around a flipped edge, bounded by the battery's hop windows
			// — a small fraction of the source set; at scale 1 the ball
			// covers nearly everything and repair degenerates into
			// recompute.
			for copy := 0; copy < 2; copy++ {
				if _, err := engine.RegisterView(fmt.Sprintf("%s-%d", name, copy), q); err != nil {
					log.Fatal(err)
				}
			}
		}
		reg := time.Since(regStart)
		n := iters(2000)
		i := 0
		upd := timeOp(n, func() { churn(soc, i); i++ })
		allocs := testing.AllocsPerRun(n/2, func() { churn(soc, i); i++ })
		mem := engine.MemoryEntries()
		fmt.Printf("%-10s %12v reg %14v/upd %8.0f allocs/op %10d rows\n",
			label, reg.Round(time.Microsecond), upd.Round(time.Nanosecond), allocs, mem)
		record("EXP-S", label, map[string]float64{
			"registration_ns": float64(reg), "update_ns": float64(upd),
			"allocs_per_op": allocs, "memory_entries": float64(mem),
		})
		return upd
	}
	updS := run("shared", pgiv.EngineOptions{NumWorkers: 1})
	updP := run("private", pgiv.EngineOptions{NoSharing: true, NumWorkers: 1})
	fmt.Printf("update speedup from sharing: %.2fx\n", float64(updP)/float64(updS))

	// Incremental repair vs recomputing every route battery per commit.
	soc := workload.GenerateSocial(workload.DefaultSocialConfig(4))
	i := 0
	m := iters(100)
	if m < 10 {
		m = 10
	}
	snap := timeOp(m, func() {
		churn(soc, i)
		i++
		for _, name := range names {
			if _, err := pgiv.Snapshot(soc.G, workload.SocialRoutingQueries[name]); err != nil {
				log.Fatal(err)
			}
		}
	})
	printCmp("per KNOWS flip", updS, snap)
	spd := float64(snap) / float64(updS)
	record("EXP-S", "vs-recompute", map[string]float64{
		"incremental_ns": float64(updS), "snapshot_ns": float64(snap),
		"speedup": spd,
	})
	// CI sanity floor (quick runs only): per-commit repair must beat a
	// full recompute of the battery by a wide margin — the whole point of
	// memoizing distance fragments. The floor sits far below the typical
	// figure so it gates purpose, not machine speed.
	if *quick && spd < 10 {
		log.Fatalf("EXP-S: incremental repair is only %.1fx a full recompute (floor 10x)", spd)
	}
}
