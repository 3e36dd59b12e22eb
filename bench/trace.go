package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"

	"pgiv/internal/cypher"
	"pgiv/internal/fra"
	"pgiv/internal/gra"
	"pgiv/internal/graph"
	"pgiv/internal/ivm"
	"pgiv/internal/nra"
	"pgiv/internal/protocol"
	"pgiv/internal/rete"
	"pgiv/internal/rewrite"
	"pgiv/internal/snapshot"
	"pgiv/internal/value"
	"pgiv/internal/wal"
	"pgiv/internal/write"
)

// The traced run measures every layer from outside. It drives each op
// through the same exported calls, in the same order, as the client and
// server do (client.Exec -> server.handleExec, client.Query ->
// server.handleQuery -> Engine.QueryParams, walCommitLog.AppendCommit),
// with a span around each call, and it interposes on the two seams the
// commit path already offers: graph listeners (Unsubscribe + Subscribe of
// a wrapper) and graph.SetCommitLog. Probes inside the engine are a later
// change.

// span is one timed interval at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // spans of one op share this id
	Parent int    `json:"parent"` // index of the enclosing span; -1 for an op's root
	Start  int64  `json:"start"`  // ns on the benchmark's clock
	End    int64  `json:"end"`
}

// tracer keeps spans in memory. Everything it times runs on one
// goroutine — listeners run inside Commit on the committing goroutine —
// so a stack gives the parent.
type tracer struct {
	on    atomic.Bool // read by OnChange hooks, which a server goroutine may run
	spans []span
	stack []int
	op    int
}

func (t *tracer) begin(name string) int {
	if !t.on.Load() {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: now()})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].End = now()
	t.stack = t.stack[:len(t.stack)-1]
}

// reserve grows the span store off the clock, so no op pays for it.
func (t *tracer) reserve(n int) {
	if need := len(t.spans) + n; need > cap(t.spans) {
		t.spans = append(make([]span, 0, 2*need), t.spans...)
	}
}

// samples maps a span name to one value per op: the self time, in
// microseconds, that op spent in spans of that name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// selfTimes folds spans[base:] into per-op self times — a span's duration
// minus the part of it its children cover — and per-op root durations.
func selfTimes(spans []span, base int) (samples, []float64) {
	spans = spans[base:]
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] += sp.End - sp.Start
		if sp.Parent >= 0 {
			self[sp.Parent-base] -= sp.End - sp.Start
		}
	}
	out := samples{}
	var roots []float64
	perOp := map[string]int64{}
	flush := func() {
		for name, ns := range perOp {
			out.add(name, float64(ns)/1e3)
			delete(perOp, name)
		}
	}
	for i, sp := range spans {
		if sp.Parent < 0 {
			flush()
			roots = append(roots, float64(sp.End-sp.Start)/1e3)
		}
		perOp[sp.Name] += self[i]
	}
	flush()
	return out, roots
}

// stage drives ops through the staged pipeline of one world.
type stage struct {
	w   *world
	tr  *tracer
	buf bytes.Buffer

	cands []rewrite.Candidate // the world's views, as the planner sees them

	log *wal.Log // the benchmark's own commit log, when installed

	listeners []graph.Listener // the interposed wrappers

	tally       map[string]int // counts taken at the same boundaries as the spans
	applyAllocs []float64      // heap objects allocated inside Engine.Apply
	countAllocs bool
	batches     []deltaBatch // OnChange batches of the commit in flight
}

// count adds to a named tally while the tracer is on. The tallies:
// commits and the changed elements in them, stmts and the rows they
// matched, delta frames with their bytes and deltas (as a subscriber of
// every view would get them), and per read class reads.<class> and
// rows.<class>.
func (st *stage) count(name string, by int) {
	if st.tr.on.Load() {
		st.tally[name] += by
	}
}

type deltaBatch struct {
	view string
	ds   []rete.Delta
}

// spanListener puts a span around a graph listener's Apply.
type spanListener struct {
	name  string
	inner graph.Listener
	st    *stage
}

func (l *spanListener) Apply(cs *graph.ChangeSet) {
	sp := l.st.tr.begin(l.name)
	l.inner.Apply(cs)
	l.st.tr.end(sp)
}

// engineListener is the span around Engine.Apply: input translation,
// Rete propagation, publish and OnChange coalescing.
type engineListener struct{ spanListener }

// mallocs reads the exact count of heap objects allocated so far. It
// stops the world to flush the per-P caches, so the allocation probe is a
// pass of its own and its ops are not timed.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func (l *engineListener) Apply(cs *graph.ChangeSet) {
	st := l.st
	st.count("commits", 1)
	st.count("elems", cs.Len())
	if !st.countAllocs {
		l.spanListener.Apply(cs)
		return
	}
	before := mallocs()
	l.inner.Apply(cs)
	st.applyAllocs = append(st.applyAllocs, float64(mallocs()-before))
}

// spanCommitLog makes the two calls ivm's walCommitLog makes, each in a
// span of its own.
type spanCommitLog struct{ st *stage }

func (c spanCommitLog) AppendCommit(cs *graph.ChangeSet, epoch uint64, nextV, nextE graph.ID) error {
	tr := c.st.tr
	sp := tr.begin("graph.ops_from_cs")
	ops, err := graph.OpsFromChangeSet(cs)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("wal.append")
	_, err = c.st.log.AppendCommit(epoch, int64(nextV), int64(nextE), ops)
	tr.end(sp)
	return err
}

// newStage interposes on the world's commit path. The wrappers stay in
// place for the rest of the world's life; with the tracer off they cost
// one branch each.
func newStage(w *world) (*stage, error) {
	st := &stage{w: w, tr: &tracer{}, tally: map[string]int{}}
	w.g.Unsubscribe(w.eng)
	st.subscribe(&engineListener{spanListener{"ivm.apply", w.eng, st}})
	if w.srv != nil {
		st.wrapServer()
	}
	w.onDeltas = st.capture // in-process worlds subscribed during set-up
	for _, v := range w.views {
		if w.sp.wire() {
			st.hook(v)
		}
		if err := st.addCandidate(v); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// capture keeps a commit's OnChange batch until the op's root has closed.
func (st *stage) capture(view string, ds []rete.Delta) {
	if st.tr.on.Load() {
		st.batches = append(st.batches, deltaBatch{view, ds})
	}
}

func (st *stage) hook(v *ivm.View) {
	name := v.Name()
	v.OnChange(func(ds []rete.Delta) { st.capture(name, ds) })
}

func (st *stage) subscribe(l graph.Listener) {
	st.w.g.Subscribe(l)
	st.listeners = append(st.listeners, l)
}

// wrapServer moves the server behind a span; it must follow the engine
// in dispatch order, as server.New arranges.
func (st *stage) wrapServer() {
	st.w.g.Unsubscribe(st.w.srv)
	st.subscribe(&spanListener{"server.fanout", st.w.srv, st})
}

func (st *stage) close() {
	for _, l := range st.listeners {
		st.w.g.Unsubscribe(l)
	}
	if st.log != nil {
		st.w.g.SetCommitLog(nil)
		st.log.Close()
	}
}

// logCommits installs the benchmark's own commit log under dir.
func (st *stage) logCommits(dir string) error {
	log, _, err := wal.Open(filepath.Join(dir, "staged-wal.log"), wal.Options{Fsync: fsyncPolicy})
	if err != nil {
		return err
	}
	st.log = log
	st.w.g.SetCommitLog(spanCommitLog{st})
	return nil
}

// addCandidate recompiles a view's query into the plan the rewrite
// planner matches against, with the view's published rows behind it.
func (st *stage) addCandidate(v *ivm.View) error {
	plan, err := fra.CompileString(v.Query())
	if err != nil {
		return err
	}
	st.cands = append(st.cands, rewrite.Candidate{Name: v.Name(), Plan: plan.Root,
		Rows: func() ([]value.Row, uint64, bool) { return v.PublishedRows() }})
	return nil
}

// roundTrip frames a message and parses it back, as the two ends of a
// connection do between them.
func (st *stage) roundTrip(m *protocol.Message) (*protocol.Message, error) {
	st.buf.Reset()
	if err := protocol.WriteFrame(&st.buf, m); err != nil {
		return nil, err
	}
	return protocol.ReadFrame(&st.buf)
}

func (st *stage) request(op string, o *op) (map[string]value.Value, error) {
	sp := st.tr.begin("protocol.req")
	defer st.tr.end(sp)
	m, err := st.roundTrip(&protocol.Message{Type: "req", Req: &protocol.Request{
		ID: 1, Op: op, Text: o.text, Params: protocol.EncodeParams(o.params)}})
	if err != nil {
		return nil, err
	}
	return protocol.DecodeParams(m.Req.Params)
}

// exec is the staged counterpart of world.native.
func (st *stage) exec(o *op) (uint64, error) {
	st.tr.op++
	root := st.tr.begin("op")
	var err error
	switch {
	case o.steps != nil:
		err = st.mutate(o)
	case o.class != "":
		err = st.read(o)
	default:
		err = st.stmt(o)
	}
	st.tr.end(root)
	st.frameDeltas()
	return 0, err
}

func (st *stage) commit(tx *graph.Tx) error {
	sp := st.tr.begin("graph.commit")
	err := tx.Commit()
	st.tr.end(sp)
	return err
}

// stmt follows client.Exec and server.handleExec.
func (st *stage) stmt(o *op) error {
	tr, g := st.tr, st.w.g
	params, err := st.request(protocol.OpExec, o)
	if err != nil {
		return err
	}
	sp := tr.begin("cypher.parse")
	parsed, err := cypher.ParseStatement(o.text)
	tr.end(sp)
	if err != nil {
		return err
	}
	tx := g.Begin()
	sp = tr.begin("write.bind_apply")
	stats, err := write.ExecTx(g, tx, parsed.Write, params)
	tr.end(sp)
	if err != nil {
		_ = tx.Rollback()
		return err
	}
	if err := st.commit(tx); err != nil {
		return err
	}
	st.count("stmts", 1)
	st.count("matched", stats.MatchedRows)
	sp = tr.begin("protocol.resp")
	_, err = st.roundTrip(&protocol.Message{Type: "resp", Resp: &protocol.Response{ID: 1, Seq: g.Epoch(),
		Stats: &protocol.WriteStats{MatchedRows: stats.MatchedRows, NodesCreated: stats.NodesCreated,
			EdgesCreated: stats.EdgesCreated, NodesDeleted: stats.NodesDeleted, EdgesDeleted: stats.EdgesDeleted,
			PropertiesSet: stats.PropertiesSet, LabelsAdded: stats.LabelsAdded, LabelsRemoved: stats.LabelsRemoved}}})
	tr.end(sp)
	if err == nil && stats.MatchedRows == 0 {
		err = errNoMatch
	}
	return err
}

// mutate follows graph.Batch: Begin, the Mutator calls, Commit.
func (st *stage) mutate(o *op) error {
	size := len(o.steps)
	if o.eachCommits {
		size = 1
	}
	for i := 0; i < len(o.steps); i += size {
		tx := st.w.g.Begin()
		sp := st.tr.begin("graph.mutate")
		err := apply(tx, o.steps[i:i+size])
		st.tr.end(sp)
		if err != nil {
			_ = tx.Rollback()
			return err
		}
		if err := st.commit(tx); err != nil {
			return err
		}
	}
	return nil
}

// compile follows fra.CompileString, one span per stage.
func (st *stage) compile(text string) (*fra.Plan, error) {
	tr := st.tr
	sp := tr.begin("cypher.parse")
	ast, err := cypher.Parse(text)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("gra.compile")
	gp, err := gra.Compile(ast)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("nra.transform")
	np, err := nra.Transform(gp)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("fra.flatten")
	plan, err := fra.Flatten(np)
	tr.end(sp)
	return plan, err
}

// read follows client.Query, server.handleQuery and Engine.QueryParams:
// compile, pin a snapshot, ask the rewrite planner, evaluate over the
// memo or from scratch, encode the rows.
func (st *stage) read(o *op) error {
	tr, g := st.tr, st.w.g
	params, err := st.request(protocol.OpQuery, o)
	if err != nil {
		return err
	}
	plan, err := st.compile(o.text)
	if err != nil {
		return err
	}
	sp := tr.begin("graph.snapshot_pin")
	snap := g.Snapshot()
	tr.end(sp)
	sp = tr.begin("rewrite.subsume")
	hit := rewrite.Match(plan, params, st.cands)
	tr.end(sp)
	var res *snapshot.Result
	if hit != nil {
		rows, _, _ := hit.Cand.Rows()
		name := "rewrite.residual_eval"
		if hit.Exact {
			name = "rewrite.exact_rows" // a pass-through of the memo's rows
		}
		sp = tr.begin(name)
		res, err = hit.Eval(snap, rows, params)
	} else {
		sp = tr.begin("snapshot.eval." + o.class)
		res, err = snapshot.Eval(snap, plan, params)
	}
	tr.end(sp)
	sp = tr.begin("graph.snapshot_pin")
	snap.Release()
	tr.end(sp)
	if err != nil {
		return err
	}
	st.count("reads."+o.class, 1)
	st.count("rows."+o.class, len(res.Rows))
	sp = tr.begin("protocol.resp." + o.class)
	defer tr.end(sp)
	rows := make([][]protocol.WireValue, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = protocol.EncodeRow(r)
	}
	m, err := st.roundTrip(&protocol.Message{Type: "resp", Resp: &protocol.Response{
		ID: 1, Schema: []string(res.Schema), Rows: rows, Seq: snap.Epoch()}})
	if err != nil {
		return err
	}
	for _, r := range m.Resp.Rows {
		if _, err := protocol.DecodeRow(r); err != nil {
			return err
		}
	}
	if len(res.Rows) == 0 {
		return errNoRows
	}
	return nil
}

// frameDeltas encodes the commit's OnChange batches the way
// server.bufferBatch and the connection's writer do, after the op's root
// span has closed: it counts bytes, it is not part of the op.
func (st *stage) frameDeltas() {
	for _, b := range st.batches {
		wds := make([]protocol.WireDelta, len(b.ds))
		for i, d := range b.ds {
			wds[i] = protocol.WireDelta{Row: protocol.EncodeRow(d.Row), Mult: d.Mult}
		}
		st.buf.Reset()
		_ = protocol.WriteFrame(&st.buf, &protocol.Message{Type: "delta", // a bytes.Buffer write cannot fail
			Delta: &protocol.DeltaBatch{View: b.view, Seq: st.w.g.Epoch(), Deltas: wds}})
		st.tally["frames"]++ // batches are only captured while the tracer is on
		st.tally["frameBytes"] += st.buf.Len()
		st.tally["deltas"] += len(b.ds)
	}
	st.batches = st.batches[:0]
}

// cut remembers where the spans and the tallies stand, so that a later
// since can tell what one stretch of ops added.
type cut struct {
	spans int
	tally map[string]int
}

func (st *stage) cut() cut {
	c := cut{len(st.tr.spans), make(map[string]int, len(st.tally))}
	for k, v := range st.tally {
		c.tally[k] = v
	}
	return c
}

// stretch is what the traced ops since a cut produced.
type stretch struct {
	from, to int            // its spans are tracer.spans[from:to]
	n        map[string]int // what it added to each tally
	self     samples        // per span name: self time per op, us
	roots    []float64      // per op: duration of its root span, us
}

func (st *stage) since(c cut) *stretch {
	s := &stretch{from: c.spans, to: len(st.tr.spans), n: st.cut().tally}
	for k, v := range c.tally {
		s.n[k] -= v
	}
	s.self, s.roots = selfTimes(st.tr.spans, c.spans)
	return s
}

// per is the stretch's tally a over its tally b.
func (s *stretch) per(a, b string) float64 { return float64(s.n[a]) / float64(s.n[b]) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// anatomy is where an op's time went: per span name, the median self
// time per op and the share of all ops' time.
type anatomy struct {
	Ops        int                `json:"ops"`
	RootP50Us  float64            `json:"root_p50_us"`
	SelfP50Us  map[string]float64 `json:"self_p50_us"`
	Share      map[string]float64 `json:"share"`
	Attributed float64            `json:"attributed_share"` // 1 - the root span's own share
}

func (s *stretch) anatomy() *anatomy {
	a := &anatomy{Ops: len(s.roots), RootP50Us: median(s.roots),
		SelfP50Us: map[string]float64{}, Share: map[string]float64{}}
	total := sum(s.roots)
	for name, xs := range s.self {
		a.SelfP50Us[name] = median(xs)
		a.Share[name] = sum(xs) / total
	}
	a.Attributed = 1 - a.Share["op"]
	return a
}

func (a *anatomy) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d ops, median %.1f us, %.1f%% of the time in named spans\n", a.Ops, a.RootP50Us, 100*a.Attributed)
	for _, name := range sortedKeys(a.Share) {
		fmt.Fprintf(&b, "  %-28s %10.2f us  %5.1f%%\n", name, a.SelfP50Us[name], 100*a.Share[name])
	}
	return b.String()
}
