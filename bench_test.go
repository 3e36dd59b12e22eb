// Benchmark harness: one benchmark family per experiment in
// EXPERIMENTS.md (EXP-A .. EXP-I). The paper (a SIGMOD SRC abstract) has
// no numbered tables or figures; these benchmarks quantify its claims —
// incremental maintenance vs full recomputation, fine-grained property
// updates (FGN), transitive/path maintenance (ORD), schema pushdown, and
// Rete node sharing. cmd/pgivbench renders the same experiments as
// tables for EXPERIMENTS.md.
package pgiv

import (
	"fmt"
	"testing"

	"pgiv/internal/workload"
)

// mustRegister registers a view or fails the benchmark.
func mustRegister(b *testing.B, e *Engine, name, q string) *View {
	b.Helper()
	v, err := e.RegisterView(name, q)
	if err != nil {
		b.Fatalf("register %s: %v", name, err)
	}
	return v
}

// paperGraph builds the running example graph of Section 2.
func paperGraph(b *testing.B) (*Graph, ID, ID) {
	g := NewGraph()
	post := g.AddVertex([]string{"Post"}, Props{"lang": Str("en")})
	c2 := g.AddVertex([]string{"Comm"}, Props{"lang": Str("en")})
	c3 := g.AddVertex([]string{"Comm"}, Props{"lang": Str("en")})
	if _, err := g.AddEdge(post, c2, "REPLY", nil); err != nil {
		b.Fatal(err)
	}
	if _, err := g.AddEdge(c2, c3, "REPLY", nil); err != nil {
		b.Fatal(err)
	}
	return g, post, c3
}

const paperQuery = "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t"

// BenchmarkEXPA_RunningExample maintains the paper's example view under a
// language flip (one FGN property update per iteration).
func BenchmarkEXPA_RunningExample(b *testing.B) {
	b.Run("Incremental", func(b *testing.B) {
		g, _, c3 := paperGraph(b)
		engine := NewEngine(g)
		mustRegister(b, engine, "threads", paperQuery)
		langs := []Value{Str("de"), Str("en")}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.SetVertexProperty(c3, "lang", langs[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Snapshot", func(b *testing.B) {
		g, _, c3 := paperGraph(b)
		langs := []Value{Str("de"), Str("en")}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.SetVertexProperty(c3, "lang", langs[i%2]); err != nil {
				b.Fatal(err)
			}
			if _, err := Snapshot(g, paperQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEXPB_TrainBenchmark compares continuous validation of all six
// Train Benchmark constraints per transformation: incremental maintenance
// vs re-running the queries, across model scales.
func BenchmarkEXPB_TrainBenchmark(b *testing.B) {
	for _, scale := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("scale=%d/Incremental", scale), func(b *testing.B) {
			train := workload.GenerateTrain(workload.DefaultTrainConfig(scale))
			engine := NewEngine(train.G)
			for name, q := range workload.TrainQueries {
				mustRegister(b, engine, name, q)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				train.InjectRepairMix(1)
			}
		})
		b.Run(fmt.Sprintf("scale=%d/Snapshot", scale), func(b *testing.B) {
			train := workload.GenerateTrain(workload.DefaultTrainConfig(scale))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				train.InjectRepairMix(1)
				for _, q := range workload.TrainQueries {
					if _, err := Snapshot(train.G, q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// replyChain builds a Post followed by a linear chain of n Comm replies
// and returns the ids in order.
func replyChain(b *testing.B, n int) (*Graph, []ID, []ID) {
	g := NewGraph()
	ids := []ID{g.AddVertex([]string{"Post"}, Props{"lang": Str("en")})}
	var eids []ID
	for i := 0; i < n; i++ {
		c := g.AddVertex([]string{"Comm"}, Props{"lang": Str("en")})
		e, err := g.AddEdge(ids[len(ids)-1], c, "REPLY", nil)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, c)
		eids = append(eids, e)
	}
	return g, ids, eids
}

// BenchmarkEXPC_Transitive measures maintenance of the transitive-path
// view when an edge at the end of a reply chain of the given depth churns
// (delete + re-insert), for growing depths.
func BenchmarkEXPC_Transitive(b *testing.B) {
	for _, depth := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("depth=%d/Incremental", depth), func(b *testing.B) {
			g, ids, eids := replyChain(b, depth)
			engine := NewEngine(g)
			mustRegister(b, engine, "threads", paperQuery)
			last := eids[len(eids)-1]
			src, dst := ids[len(ids)-2], ids[len(ids)-1]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.RemoveEdge(last); err != nil {
					b.Fatal(err)
				}
				var err error
				last, err = g.AddEdge(src, dst, "REPLY", nil)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("depth=%d/Snapshot", depth), func(b *testing.B) {
			g, ids, eids := replyChain(b, depth)
			last := eids[len(eids)-1]
			src, dst := ids[len(ids)-2], ids[len(ids)-1]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.RemoveEdge(last); err != nil {
					b.Fatal(err)
				}
				var err error
				last, err = g.AddEdge(src, dst, "REPLY", nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Snapshot(g, paperQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEXPD_FGN measures a single fine-grained property update on the
// social workload with the full view battery registered, against
// re-evaluating the battery.
func BenchmarkEXPD_FGN(b *testing.B) {
	b.Run("Incremental", func(b *testing.B) {
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
		engine := NewEngine(soc.G)
		for name, q := range workload.SocialQueries {
			mustRegister(b, engine, name, q)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			soc.FlipLanguage()
		}
	})
	b.Run("Snapshot", func(b *testing.B) {
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			soc.FlipLanguage()
			for _, q := range workload.SocialQueries {
				if _, err := Snapshot(soc.G, q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// wideGraph builds vertices with `width` properties of which the
// registered view uses exactly one — the schema-inference experiment.
func wideGraph(width, n int) (*Graph, []ID) {
	g := NewGraph()
	var ids []ID
	for i := 0; i < n; i++ {
		props := Props{}
		for w := 0; w < width; w++ {
			props[fmt.Sprintf("p%d", w)] = Int(int64(w))
		}
		ids = append(ids, g.AddVertex([]string{"Wide"}, props))
	}
	return g, ids
}

// BenchmarkEXPE_Pushdown shows the effect of minimal-schema inference:
// updating a property outside the view's inferred schema is filtered at
// the input node, regardless of how many other properties the vertex
// carries.
func BenchmarkEXPE_Pushdown(b *testing.B) {
	const width = 32
	b.Run("UpdateUnusedProp", func(b *testing.B) {
		g, ids := wideGraph(width, 500)
		engine := NewEngine(g)
		mustRegister(b, engine, "v", "MATCH (w:Wide) WHERE w.p0 > 1 RETURN w, w.p0")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// p31 is not part of the view's inferred schema.
			if err := g.SetVertexProperty(ids[i%len(ids)], "p31", Int(int64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("UpdateUsedProp", func(b *testing.B) {
		g, ids := wideGraph(width, 500)
		engine := NewEngine(g)
		mustRegister(b, engine, "v", "MATCH (w:Wide) WHERE w.p0 > 1 RETURN w, w.p0")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.SetVertexProperty(ids[i%len(ids)], "p0", Int(int64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SnapshotReeval", func(b *testing.B) {
		g, ids := wideGraph(width, 500)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.SetVertexProperty(ids[i%len(ids)], "p0", Int(int64(i))); err != nil {
				b.Fatal(err)
			}
			if _, err := Snapshot(g, "MATCH (w:Wide) WHERE w.p0 > 1 RETURN w, w.p0"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// overlappingViews registers n views that all scan the same inputs.
func overlappingViews(b *testing.B, e *Engine, n int) {
	for i := 0; i < n; i++ {
		mustRegister(b, e, fmt.Sprintf("v%d", i),
			fmt.Sprintf("MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.score > %d RETURN a, b", i))
	}
}

// BenchmarkEXPF_Sharing measures update cost with 16 overlapping views,
// with Rete input-node sharing on and off.
func BenchmarkEXPF_Sharing(b *testing.B) {
	run := func(b *testing.B, opts EngineOptions) {
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
		engine := NewEngineWithOptions(soc.G, opts)
		overlappingViews(b, engine, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			soc.FlipScore()
		}
	}
	b.Run("Shared", func(b *testing.B) { run(b, EngineOptions{}) })
	b.Run("Private", func(b *testing.B) { run(b, EngineOptions{NoSharing: true}) })
}

// BenchmarkEXPG_AtomicPaths measures the paper's ORD design point: a
// transaction that removes one edge of a long reply chain and adds a
// replacement; every path through it is deleted and re-derived as an
// atomic unit.
func BenchmarkEXPG_AtomicPaths(b *testing.B) {
	const depth = 12
	b.Run("Incremental", func(b *testing.B) {
		g, ids, eids := replyChain(b, depth)
		engine := NewEngine(g)
		mustRegister(b, engine, "threads", paperQuery)
		mid := eids[depth/2]
		src, dst := ids[depth/2], ids[depth/2+1]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.RemoveEdge(mid); err != nil {
				b.Fatal(err)
			}
			var err error
			mid, err = g.AddEdge(src, dst, "REPLY", nil)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Snapshot", func(b *testing.B) {
		g, ids, eids := replyChain(b, depth)
		mid := eids[depth/2]
		src, dst := ids[depth/2], ids[depth/2+1]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.RemoveEdge(mid); err != nil {
				b.Fatal(err)
			}
			var err error
			mid, err = g.AddEdge(src, dst, "REPLY", nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Snapshot(g, paperQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEXPH_Battery runs the mixed social churn with the whole view
// battery registered (fragment breadth under load).
func BenchmarkEXPH_Battery(b *testing.B) {
	b.Run("Incremental", func(b *testing.B) {
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
		engine := NewEngine(soc.G)
		for name, q := range workload.SocialQueries {
			mustRegister(b, engine, name, q)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			soc.Churn(1)
		}
	})
	b.Run("Snapshot", func(b *testing.B) {
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			soc.Churn(1)
			for _, q := range workload.SocialQueries {
				if _, err := Snapshot(soc.G, q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// loadConfig sizes the social workload at ~10k mutations (vertices,
// edges and property writes) for the loading benchmarks.
func loadConfig() workload.SocialConfig {
	cfg := workload.DefaultSocialConfig(1)
	cfg.Persons = 120
	return cfg
}

// benchLoad measures loading the ~10k-mutation social workload into a
// graph with the full view battery registered up front, so every
// mutation is propagated into the views.
func benchLoad(b *testing.B, load func(*workload.Social)) {
	cfg := loadConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer() // engine construction and view compilation are setup
		soc := workload.NewSocial(cfg)
		engine := NewEngine(soc.G)
		for name, q := range workload.SocialQueries {
			mustRegister(b, engine, name, q)
		}
		b.StartTimer()
		load(soc)
		b.StopTimer()
		engine.Close()
		b.StartTimer()
	}
}

// BenchmarkPerOpLoad drives the load through auto-committed one-op
// transactions: one lock acquisition, sink fan-out and view flush per
// mutation.
func BenchmarkPerOpLoad(b *testing.B) {
	benchLoad(b, (*workload.Social).LoadPerOp)
}

// BenchmarkBatchedLoad drives the identical operation stream through one
// transaction: a single coalesced ChangeSet propagates per commit. The
// final view contents are byte-identical to the per-op path (asserted in
// TestBatchedVsPerOpRows).
func BenchmarkBatchedLoad(b *testing.B) {
	benchLoad(b, (*workload.Social).Load)
}

// --- EXP-K: the delta hot path (allocations and parallel propagation) ---
//
// The EXP-K family quantifies the zero-allocation work on the delta hot
// path (scratch-buffer key encoding, typed adjacency indexes, pooled
// emit buffers) and the per-view parallel propagation scheduler. Run
// with -benchmem; cmd/pgivbench -json records the same figures in
// BENCH_PR2.json.

// BenchmarkEXPK_SingleUpdateFGN is the allocation-focused view of the
// single fine-grained property update (EXP-D's incremental side): one
// language flip per iteration with the full social battery registered.
// NumWorkers is pinned to 1 so the allocation trajectory is
// scheduler-independent — the default engine resolves NumWorkers to
// GOMAXPROCS, and the parallel path's per-commit closures would make
// allocs/op vary by host core count.
func BenchmarkEXPK_SingleUpdateFGN(b *testing.B) {
	soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
	engine := NewEngineWithOptions(soc.G, EngineOptions{NumWorkers: 1})
	defer engine.Close()
	for name, q := range workload.SocialQueries {
		mustRegister(b, engine, name, q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		soc.FlipLanguage()
	}
}

// BenchmarkEXPK_TransitiveEdgeFlip is the allocation-focused view of the
// transitive edge flip: delete and re-insert the last edge of a 16-hop
// reply chain under the paper's path view. Single view, so propagation
// is sequential regardless of NumWorkers.
func BenchmarkEXPK_TransitiveEdgeFlip(b *testing.B) {
	g, ids, eids := replyChain(b, 16)
	engine := NewEngine(g)
	defer engine.Close()
	mustRegister(b, engine, "threads", paperQuery)
	last := eids[len(eids)-1]
	src, dst := ids[len(ids)-2], ids[len(ids)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.RemoveEdge(last); err != nil {
			b.Fatal(err)
		}
		var err error
		last, err = g.AddEdge(src, dst, "REPLY", nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// The batched-load leg of EXP-K is BenchmarkBatchedLoad above (it
// already reports allocations); cmd/pgivbench records it in the EXP-K
// table.

// BenchmarkEXPK_MultiView measures one edge flip propagating into 1, 2,
// 4 and 8 transitive path views, sequentially (NumWorkers 1) and on the
// worker pool (NumWorkers 4). Every view is registered over the same
// inputs, so the shared input nodes translate each commit once in both
// modes; the per-view beta networks and transitive sinks are what the
// scheduler fans out. On a multi-core host the parallel rows divide the
// per-view work across cores; on a single-core host they expose the
// scheduler's overhead floor.
func BenchmarkEXPK_MultiView(b *testing.B) {
	for _, nv := range []int{1, 2, 4, 8} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("views=%d/workers=%d", nv, workers), func(b *testing.B) {
				g, ids, eids := replyChain(b, 16)
				engine := NewEngineWithOptions(g, EngineOptions{NumWorkers: workers})
				for i := 0; i < nv; i++ {
					mustRegister(b, engine, fmt.Sprintf("threads-%d", i), paperQuery)
				}
				last := eids[len(eids)-1]
				src, dst := ids[len(ids)-2], ids[len(ids)-1]
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := g.RemoveEdge(last); err != nil {
						b.Fatal(err)
					}
					var err error
					last, err = g.AddEdge(src, dst, "REPLY", nil)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				engine.Close()
			})
		}
	}
}

// BenchmarkEXPI_Memory reports the Rete memory footprint (memoized rows)
// of the social battery per scale — the space cost of maintenance.
func BenchmarkEXPI_Memory(b *testing.B) {
	for _, scale := range []int{1, 2} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				soc := workload.GenerateSocial(workload.DefaultSocialConfig(scale))
				engine := NewEngine(soc.G)
				for name, q := range workload.SocialQueries {
					mustRegister(b, engine, name, q)
				}
				// Deduplicated engine figure: shared nodes counted once.
				b.ReportMetric(float64(engine.MemoryEntries()), "entries")
				b.ReportMetric(float64(soc.G.NumVertices()+soc.G.NumEdges()), "graph-elems")
			}
		})
	}
}

// BenchmarkEXPL_SubplanSharing measures one FGN score flip propagating
// into 64 views drawn from 8 query templates, with the subplan-sharing
// registry on and off. With sharing, the 8 distinct select/join chains
// run once per commit however many views attach to them, so the per-op
// cost and the allocation count match the 8-view configuration; with
// NoSharing every view pays its private copy. The memoized-row totals
// are reported per configuration (shared nodes counted once).
func BenchmarkEXPL_SubplanSharing(b *testing.B) {
	templateQ := func(i int) string {
		return fmt.Sprintf(
			"MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) WHERE a.score > %d RETURN a, c",
			(i%8)*10)
	}
	for _, cfg := range []struct {
		name  string
		views int
		opts  EngineOptions
	}{
		{"views=8/sharing", 8, EngineOptions{NumWorkers: 1}},
		{"views=64/sharing", 64, EngineOptions{NumWorkers: 1}},
		{"views=64/nosharing", 64, EngineOptions{NoSharing: true, NumWorkers: 1}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
			engine := NewEngineWithOptions(soc.G, cfg.opts)
			for i := 0; i < cfg.views; i++ {
				mustRegister(b, engine, fmt.Sprintf("v%02d", i), templateQ(i))
			}
			b.ReportMetric(float64(engine.MemoryEntries()), "entries")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				soc.FlipScore()
			}
			b.StopTimer()
			engine.Close()
		})
	}
}

// BenchmarkEXPN_Leaderboard measures incremental top-K maintenance (the
// ranked social battery: ORDER BY/SKIP/LIMIT windows over churning
// scores) against re-sorting the battery from scratch per update.
func BenchmarkEXPN_Leaderboard(b *testing.B) {
	b.Run("Incremental", func(b *testing.B) {
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
		engine := NewEngineWithOptions(soc.G, EngineOptions{NumWorkers: 1})
		for name, q := range workload.SocialRankedQueries {
			mustRegister(b, engine, name, q)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			soc.ChurnScores(1)
		}
		b.StopTimer()
		engine.Close()
	})
	b.Run("Snapshot", func(b *testing.B) {
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			soc.ChurnScores(1)
			for _, q := range workload.SocialRankedQueries {
				if _, err := Snapshot(soc.G, q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
