package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"pgiv/client"
	"pgiv/internal/checkpoint"
	"pgiv/internal/cypher"
	"pgiv/internal/fra"
	"pgiv/internal/graph"
	"pgiv/internal/ivm"
	"pgiv/internal/rete"
	"pgiv/internal/wal"
	"pgiv/internal/workload"
)

// Every traced run reports every per-layer metric. A metric whose layer
// the workload's own ops pass through comes from those ops (the staged,
// traced stretch of the run); the others come from the probe battery: a
// fixed set of ops of every other kind, staged through the same pipeline
// on the same world once the workload's own stretch is over. Either way
// the number is measured on this workload's graph and views.

// runTraced measures the per-layer metrics of one workload.
func runTraced(sp *spec, cfg *config, calibMs float64) (*result, error) {
	res := &result{Workload: sp.name, Traced: true, Metrics: map[string]metric{}}
	once := *cfg
	once.setupReps = 1
	w, _, err := setUp(sp, &once, true)
	if err != nil {
		return nil, err
	}
	defer w.close()
	scratch, err := scratchDir(cfg, sp.name+"-traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	st, err := newStage(w)
	if err != nil {
		return nil, err
	}
	defer st.close()
	if sp.fam == famBatch {
		if err := st.logCommits(scratch); err != nil {
			return nil, err
		}
	}
	src, native := w.opSource(cfg.seed), w.native()
	if err := w.warmUp(src, native, res); err != nil {
		return nil, err
	}
	nodes := w.eng.NodeCount()

	// Three lanes over one op stream: the user's path, the staged pipeline
	// with the tracer off, the staged pipeline with it on. They take turns
	// chunk by chunk, whichever is furthest behind its share of the time
	// going next, so that a graph that grows during the run, or a host
	// that slows, weighs on all three alike.
	type lane struct {
		win    *window
		share  float64
		exec   execFn
		traced bool
	}
	nat, off, on := &window{}, &window{}, &window{}
	lanes := []*lane{{nat, 0.25, native, false}, {off, 0.25, st.exec, false}, {on, 0.5, st.exec, true}}
	before := w.eng.Stats()
	cut := st.cut()
	for {
		var next *lane
		least := 1.0
		for _, l := range lanes {
			if done := float64(l.win.elapsed) / (l.share * cfg.seconds * 1e9); done < least {
				next, least = l, done
			}
		}
		if next == nil {
			break
		}
		st.sync()
		st.tr.on.Store(next.traced)
		st.tr.reserve(32 * w.sp.chunk)
		w.segment(src, next.exec, w.sp.chunk, next.win, res)
		if err := w.pools.inSync(w.g); err != nil {
			return nil, err
		}
	}
	st.tr.on.Store(false)
	st.sync()
	hitShare := hitShareSince(w.eng, before)
	own := st.since(cut)
	w.check(res)

	bat, err := runBattery(st, cfg, scratch, res)
	if err != nil {
		return nil, err
	}
	if err := writeTrace(cfg, w, st, own, bat); err != nil {
		return nil, err
	}

	// own first, then the battery's stretch that has ops of that kind
	us := func(metric, span string, from *stretch) {
		xs := own.self[span]
		if len(xs) == 0 {
			xs = from.self[span]
		}
		res.set(metric, median(xs), "us")
	}
	pick := func(o, b float64, ownHas bool) float64 {
		if ownHas {
			return o
		}
		return b
	}
	wrote, read := own.n["commits"] > 0, sp.fam == famRead
	natP50, offP50 := quantileNs(nat.lat, 0.5)/1e3, quantileNs(off.lat, 0.5)/1e3

	res.set("client.exec_p99_us", pick(quantileNs(nat.lat, 0.99)/1e3, quantile(bat.execUs, 0.99), sp.fam == famStmt), "us")
	res.set("client.rtt_us", median(bat.pingUs), "us")
	us("protocol.req_us", "protocol.req", bat.stmts)
	perRow := func(s *stretch) float64 { return sum(s.self["protocol.resp.hit"]) / float64(s.n["rows.hit"]) }
	res.set("protocol.resp_us_per_row", pick(perRow(own), perRow(bat.reads), own.n["rows.hit"] > 0), "us")
	res.set("protocol.delta_frame_bytes", pick(own.per("frameBytes", "frames"), bat.churn.per("frameBytes", "frames"), own.n["frames"] > 0), "bytes")
	us("server.fanout_us", "server.fanout", bat.stmts)
	res.set("server.wire_overhead_us", pick(natP50-offP50, median(bat.execUs)-median(bat.stagedUs), sp.wire()), "us")
	us("cypher.parse_us", "cypher.parse", bat.compile)
	us("gra.compile_us", "gra.compile", bat.compile)
	us("nra.transform_us", "nra.transform", bat.compile)
	us("fra.flatten_us", "fra.flatten", bat.compile)
	us("write.bind_apply_us", "write.bind_apply", bat.stmts)
	res.set("write.matched_rows_per_stmt", pick(own.per("matched", "stmts"), bat.stmts.per("matched", "stmts"), own.n["stmts"] > 0), "count")
	us("snapshot.eval_us.scan", "snapshot.eval.scan", bat.reads)
	us("snapshot.eval_us.point", "snapshot.eval.point", bat.reads)
	res.set("snapshot.rows_per_result", pick(own.per("rows.scan", "reads.scan"), bat.reads.per("rows.scan", "reads.scan"), own.n["reads.scan"] > 0), "count")
	us("rewrite.subsume_us", "rewrite.subsume", bat.reads)
	us("rewrite.residual_eval_us", "rewrite.residual_eval", bat.reads)
	res.set("ivm.rewrite_hit_share", pick(hitShare, bat.hitShare, read), "ratio")
	res.set("ivm.query_us.hit", median(bat.queryUs["hit"]), "us")
	res.set("ivm.query_us.residual", median(bat.queryUs["residual"]), "us")
	res.set("ivm.query_us.miss", median(bat.queryUs["scan"]), "us")
	us("graph.mutate_us", "graph.mutate", bat.churn)
	us("graph.commit_self_us", "graph.commit", bat.churn)
	us("graph.snapshot_pin_us", "graph.snapshot_pin", bat.reads)
	res.set("graph.mvcc_retained_nodes", float64(w.g.MVCCStats().RetainedNodes), "count")
	us("graph.ops_from_cs_us", "graph.ops_from_cs", bat.batches)
	us("wal.append_us", "wal.append", bat.batches)
	res.set("wal.bytes_per_commit", bat.twin.walBytesPerCommit, "bytes")
	res.set("wal.scan_ms", bat.twin.walScanMs, "ms")
	res.set("graph.replay_us_per_commit", median(bat.twin.replayUs), "us")
	res.set("checkpoint.write_ms", mean(bat.twin.checkpointMs), "ms")
	res.set("checkpoint.bytes", bat.twin.checkpointBytes, "bytes")
	res.set("checkpoint.restore_ms", bat.twin.restoreMs, "ms")
	res.set("ivm.recovery_ms", bat.twin.recoveryMs, "ms")
	us("ivm.apply_us", "ivm.apply", bat.churn)
	perElem := func(s *stretch) float64 { return sum(s.self["ivm.apply"]) / float64(s.n["elems"]) }
	res.set("ivm.apply_us_per_elem", pick(perElem(own), perElem(bat.batches), wrote), "us")
	res.set("ivm.deltas_per_commit", pick(own.per("deltas", "commits"), bat.churn.per("deltas", "commits"), wrote), "count")
	res.set("rete.allocs_per_apply", median(bat.applyAllocs), "count")
	res.set("ivm.register_ms", median(w.registerMs), "ms")
	res.set("rete.build_us", median(bat.buildUs), "us")
	res.set("rete.seed_ms", median(bat.seedMs), "ms")
	res.set("rete.nodes", float64(nodes), "count")
	res.set("runtime.gc_cycles", float64(nat.gcCycles), "count")
	res.set("runtime.gc_pause_ms", float64(nat.gcPauseNs)/1e6, "ms")
	res.set("host.calib_ms", calibMs, "ms")
	genNs, genOps := nat.genNs+off.genNs+on.genNs, nat.genOps+off.genOps+on.genOps
	res.set("harness.gen_us_per_op", float64(genNs)/1e3/float64(genOps), "us")
	// The traced op is its root span: what follows it (framing the
	// commit's delta batches to count their bytes) is a probe, not the op.
	res.set("trace.overhead_share", median(own.roots)/offP50-1, "ratio")
	res.set("trace.attributed_share", own.anatomy().Attributed, "ratio")
	res.set("trace.staged_op_p50_us", offP50, "us")
	res.set("trace.native_op_p50_us", natP50, "us")
	res.Samples = len(on.lat)
	res.Correct = res.Failed == 0
	return res, nil
}

// hitShare is useful planner outcomes over attempts since a reading of
// the engine's counters.
func hitShareSince(e *ivm.Engine, since ivm.Stats) float64 {
	s := e.Stats()
	hits := (s.RewriteExact - since.RewriteExact) + (s.RewriteResidual - since.RewriteResidual)
	all := hits + (s.RewriteMiss - since.RewriteMiss) + (s.RewriteFallback - since.RewriteFallback)
	return float64(hits) / float64(max(all, 1))
}

// sync takes the server's write lock once, so that everything its
// handlers did happens before the staged commits that follow, and the
// other way round: the staged pipeline commits from this goroutine
// without the server's lock, while no request is in flight.
func (st *stage) sync() {
	if st.w.srv != nil {
		st.w.srv.Seq()
	}
}

// battery is what the probe battery measured.
type battery struct {
	compile *stretch // parse and compile stages, per template
	stmts   *stretch // staged write statements
	churn   *stretch // staged single-op commits
	batches *stretch // staged 32-op commits
	reads   *stretch // staged reads, every class

	buildUs, seedMs []float64 // rete.Build and Network.Seed per view, private registry
	pingUs, execUs  []float64 // native round-trips over loopback
	stagedUs        []float64 // the same write mix, staged, turn and turn about
	queryUs         map[string][]float64
	hitShare        float64
	applyAllocs     []float64
	twin            twinStats
}

// prober runs the battery's probes on one staged world.
type prober struct {
	st  *stage
	cfg *config
	res *result
	bat *battery
}

var batchSpec, churnSpec = &spec{fam: famBatch}, &spec{fam: famChurn}

// count scales a probe count down for the smoke test.
func (p *prober) count(n int) int { return max(n/p.cfg.shrink, 2) }

// within bounds a probe loop by a count and a time budget, whichever
// comes first: a path flip costs a hundred times a language flip, and the
// battery must fit a run either way.
func (p *prober) within(n int, seconds float64) func() bool {
	i, n, deadline := 0, p.count(n), now()+int64(seconds*1e9)
	return func() bool {
		i++
		return i <= n && (i <= 5 || now() < deadline)
	}
}

// runBattery runs the probes. It changes the world — it registers the
// read views, puts a server in front of an in-process engine, installs a
// commit log — so it runs last.
func runBattery(st *stage, cfg *config, scratch string, res *result) (*battery, error) {
	p := &prober{st, cfg, res, &battery{queryUs: map[string][]float64{}}}
	w := st.w
	p.allocProbes() // on the world as the workload has it, before equip adds to it
	if err := p.compileProbes(); err != nil {
		return nil, err
	}
	if err := p.equip(scratch); err != nil {
		return nil, err
	}
	st.sync()
	var err error
	if p.bat.stmts, err = p.staged(100, 0.5, w.pools.stmt); err != nil {
		return nil, err
	}
	if p.bat.churn, err = p.staged(300, 0.5, func() op { return w.pools.next(churnSpec) }); err != nil {
		return nil, err
	}
	if p.bat.batches, err = p.staged(60, 0.5, func() op { return w.pools.next(batchSpec) }); err != nil {
		return nil, err
	}
	st.sync()
	if err := p.wireProbes(); err != nil {
		return nil, err
	}
	st.sync()
	if err := p.readProbes(); err != nil {
		return nil, err
	}
	twinDir := filepath.Join(scratch, "twin")
	if err := os.MkdirAll(twinDir, 0o755); err != nil {
		return nil, err
	}
	p.bat.twin, err = durableTwin(w.sp, cfg, twinDir, func(n int) func() bool { return p.within(n, 0.4) }, res)
	return p.bat, err
}

// compileProbes runs every distinct query text through the four compile
// stages and every statement text through the parser, then builds and
// seeds each of the workload's views on a private registry.
func (p *prober) compileProbes() error {
	st, tr, w := p.st, p.st.tr, p.st.w
	texts := map[string]bool{}
	for _, vd := range append(append([]viewDef{}, w.sp.views...), readViews...) {
		texts[vd.query] = true
	}
	for _, q := range readTemplates {
		texts[q] = true
	}
	tr.on.Store(true)
	cut := st.cut()
	for rep := 0; rep < p.count(6); rep++ {
		for _, q := range sortedKeys(texts) {
			tr.op++
			if _, err := st.compile(q); err != nil {
				return err
			}
		}
		for _, q := range stmtTemplates {
			tr.op++
			sp := tr.begin("cypher.parse")
			_, err := cypher.ParseStatement(q)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
	}
	p.bat.compile = st.since(cut)
	tr.on.Store(false)

	for _, vd := range w.sp.views {
		plan, err := fra.CompileString(vd.query)
		if err != nil {
			return err
		}
		reg := rete.NewSubplanRegistry(w.g, true, nil, nil)
		t := now()
		nw, err := rete.Build(plan, w.g, reg, nil)
		if err != nil {
			return err
		}
		p.bat.buildUs = append(p.bat.buildUs, float64(now()-t)/1e3)
		t = now()
		nw.Seed()
		p.bat.seedMs = append(p.bat.seedMs, float64(now()-t)/1e6)
	}
	return nil
}

// equip gives the world what the probes need and it lacks: the read
// views, a server with clients, a commit log.
func (p *prober) equip(scratch string) error {
	st, w := p.st, p.st.w
	for _, vd := range readViews {
		if _, ok := w.eng.View(vd.name); ok {
			continue
		}
		v, err := w.eng.RegisterView(vd.name, vd.query)
		if err != nil {
			return err
		}
		st.hook(v)
		if err := st.addCandidate(v); err != nil {
			return err
		}
	}
	if w.srv == nil {
		if err := w.serve(); err != nil {
			return err
		}
		st.wrapServer()
	}
	if w.reader == nil {
		c, err := client.Dial(w.addr)
		if err != nil {
			return err
		}
		w.reader = c
	}
	w.eng.EnableRewrite() // views registered before there was a server publish from now on
	if st.log == nil {
		return st.logCommits(scratch)
	}
	return nil
}

// staged drives generated ops through the staged pipeline, tracer on,
// for at most n ops or the given time.
func (p *prober) staged(n int, seconds float64, next func() op) (*stretch, error) {
	st, tr := p.st, p.st.tr
	tr.reserve(40 * n)
	tr.on.Store(true)
	cut := st.cut()
	for more := p.within(n, seconds); more(); {
		o := next() // generated off the spans' clock
		p.res.Attempted++
		if _, err := st.exec(&o); err != nil {
			p.res.fail("probe: %v", err)
		}
	}
	tr.on.Store(false)
	return st.since(cut), st.w.pools.inSync(st.w.g)
}

// allocProbes counts the heap objects allocated inside Engine.Apply, for
// ops of the workload's own kind where it writes, single-op commits
// otherwise.
func (p *prober) allocProbes() {
	st, w := p.st, p.st.w
	own := w.sp
	if own.fam == famRead {
		own = churnSpec
	}
	st.countAllocs = true
	for more := p.within(100, 0.3); more(); {
		o := w.pools.next(own)
		p.res.Attempted++
		if _, err := st.exec(&o); err != nil {
			p.res.fail("alloc probe: %v", err)
		}
	}
	st.countAllocs = false
	p.bat.applyAllocs = st.applyAllocs
}

// wireProbes times native round-trips: pings, then the write mix, each
// native statement followed by a staged one with the tracer off, so that
// their difference is the wire and not the graph growing in between.
func (p *prober) wireProbes() error {
	st, w := p.st, p.st.w
	for i := 0; i < p.count(200); i++ {
		t := now()
		if err := w.writer.Ping(); err != nil {
			return err
		}
		p.bat.pingUs = append(p.bat.pingUs, float64(now()-t)/1e3)
	}
	timed := func(exec execFn) float64 {
		o := w.pools.stmt()
		p.res.Attempted++
		st.sync()
		t := now()
		if _, err := exec(&o); err != nil {
			p.res.fail("wire probe: %v", err)
		}
		return float64(now()-t) / 1e3
	}
	for more := p.within(100, 0.8); more(); {
		p.bat.execUs = append(p.bat.execUs, timed(w.execStmt))
		p.bat.stagedUs = append(p.bat.stagedUs, timed(st.exec))
	}
	return nil
}

// readProbes answers reads of every class: staged, then in-process
// through Engine.QueryParams.
func (p *prober) readProbes() error {
	w := p.st.w
	src := &pools{rng: w.pools.rng, persons: w.pools.persons}
	turn := 0
	var err error
	p.bat.reads, err = p.staged(30*len(readClasses), 0.8, func() op {
		turn++
		return src.read(readClasses[turn%len(readClasses)])
	})
	if err != nil {
		return err
	}
	before := w.eng.Stats()
	for _, class := range readClasses {
		for i := 0; i < p.count(30); i++ {
			o := src.read(class)
			t := now()
			if _, _, err := w.eng.QueryParams(o.text, o.params); err != nil {
				return err
			}
			p.bat.queryUs[class] = append(p.bat.queryUs[class], float64(now()-t)/1e3)
		}
	}
	p.bat.hitShare = hitShareSince(w.eng, before)
	return nil
}

// twinStats are the durability layers, measured on a durable twin of the
// workload's world: same graph, same views, a real OpenDurable engine.
type twinStats struct {
	walBytesPerCommit float64
	checkpointMs      []float64
	checkpointBytes   float64
	walScanMs         float64
	restoreMs         float64
	replayUs          []float64
	recoveryMs        float64
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			total += fi.Size()
		}
		return err
	})
	return total, err
}

// durableTwin commits 32-op batches with two timed checkpoints — the
// first writes every memo, the second only the changed ones — and a
// tail, then recovers a copy of the files twice: staged — scan the log,
// read the checkpoint back, replay the tail record by record — and for
// real, through OpenDurable. Both recoveries must reproduce the live
// graph; the real one must reproduce the views.
func durableTwin(sp *spec, cfg *config, dir string, within func(count int) func() bool, res *result) (twinStats, error) {
	var ts twinStats
	soc := workload.NewSocial(socialConfig(sp.scale, cfg.seed))
	opts := durableOptions(dir, 0)
	eng, err := ivm.OpenDurable(soc.G, opts)
	if err != nil {
		return ts, err
	}
	defer eng.CloseDurable() //nolint:errcheck // scratch state, deleted by the caller
	soc.Load()
	var views []*ivm.View
	for _, vd := range sp.views {
		v, err := eng.RegisterView(vd.name, vd.query)
		if err != nil {
			return ts, err
		}
		views = append(views, v)
	}
	p := newPools(soc, cfg.seed*31+5)
	batch := &spec{fam: famBatch}
	commits := 0
	commit := func(count int) error {
		for more := within(count); more(); {
			o := p.next(batch)
			if err := soc.G.Batch(func(tx *graph.Tx) error { return apply(tx, o.steps) }); err != nil {
				return err
			}
			commits++
		}
		return nil
	}
	walSize := func() int64 {
		fi, err := os.Stat(opts.WALPath)
		if err != nil {
			return 0
		}
		return fi.Size()
	}
	loaded := walSize()
	for round := 0; round < 2; round++ {
		if err := commit(50); err != nil {
			return ts, err
		}
		t := now()
		if err := eng.CheckpointNow(); err != nil {
			return ts, err
		}
		ts.checkpointMs = append(ts.checkpointMs, float64(now()-t)/1e6)
	}
	if err := commit(100); err != nil { // the tail recovery replays
		return ts, err
	}
	ts.walBytesPerCommit = float64(walSize()-loaded) / float64(commits)
	size, err := dirSize(opts.CheckpointDir)
	if err != nil {
		return ts, err
	}
	ts.checkpointBytes = float64(size)

	staged := dir + "-staged"
	if err := copyTree(dir, staged); err != nil {
		return ts, err
	}
	defer os.RemoveAll(staged)
	copied := durableOptions(staged, 0)
	t := now()
	log, recs, err := wal.Open(copied.WALPath, wal.Options{Fsync: fsyncPolicy})
	if err != nil {
		return ts, err
	}
	ts.walScanMs = float64(now()-t) / 1e6
	log.Close()
	t = now()
	store, man, err := checkpoint.Open(copied.CheckpointDir)
	if err != nil {
		return ts, err
	}
	state, err := store.ReadGraph(man)
	if err != nil {
		return ts, err
	}
	for _, nr := range man.Nodes {
		if _, err := store.ReadNode(nr); err != nil {
			return ts, err
		}
	}
	ts.restoreMs = float64(now()-t) / 1e6
	g2 := graph.New()
	if err := g2.RestoreState(bytes.NewReader(state)); err != nil {
		return ts, err
	}
	for _, rec := range recs {
		if rec.LSN <= man.LSN || rec.Type != wal.TypeCommit {
			continue
		}
		t := now()
		if err := g2.ApplyReplay(rec.Ops, graph.ID(rec.NextV), graph.ID(rec.NextE)); err != nil {
			return ts, err
		}
		ts.replayUs = append(ts.replayUs, float64(now()-t)/1e3)
	}
	res.Attempted++
	live, err1 := soc.G.Digest()
	replayed, err2 := g2.Digest()
	if err1 != nil || err2 != nil || live != replayed {
		res.fail("staged recovery: digest %.12s (%v), live %.12s (%v)", replayed, err2, live, err1)
	}

	r, err := recoverCopy(dir)
	if err != nil {
		return ts, err
	}
	defer r.close()
	ts.recoveryMs = float64(r.openNs) / 1e6
	checkRecovery(soc.G, views, r, res)
	return ts, nil
}

// traceFile is what a traced run leaves in the output directory.
type traceFile struct {
	Workload string              `json:"workload"`
	Anatomy  *anatomy            `json:"anatomy"` // the workload's own op
	Probes   map[string]*anatomy `json:"probes"`  // the battery's staged ops, by kind
	Spans    []span              `json:"spans"`   // the first ops of the traced stretch
}

const traceFileOps = 2000

func writeTrace(cfg *config, w *world, st *stage, own *stretch, bat *battery) error {
	tf := traceFile{Workload: w.sp.name, Anatomy: own.anatomy(), Probes: map[string]*anatomy{
		"write_statement": bat.stmts.anatomy(), "single_op_commit": bat.churn.anatomy(),
		"batch_commit": bat.batches.anatomy(), "read": bat.reads.anatomy(),
	}}
	roots := 0
	for _, sp := range st.tr.spans[own.from:own.to] {
		if sp.Parent < 0 {
			if roots++; roots > traceFileOps {
				break
			}
		} else {
			sp.Parent -= own.from // indexes into this file's list
		}
		tf.Spans = append(tf.Spans, sp)
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "anatomy of a %s op:\n%s", w.sp.name, tf.Anatomy)
	return os.WriteFile(filepath.Join(cfg.outdir, "trace-"+w.sp.name+".json"), data, 0o644)
}
