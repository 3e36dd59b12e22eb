package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is what one invocation fixes for every workload it runs.
type config struct {
	seed      int64
	seconds   float64 // length of the timed window
	setupReps int     // set-ups per run; setup_s is their median
	outdir    string  // traces, reports and scratch state
	shrink    int     // smoke test only: divide every fixed op count (1 = full size)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Noisy     bool              `json:"noisy"`
	Samples   int               `json:"samples"` // ops in the timed window
	Metrics   map[string]metric `json:"metrics"`
	Errors    []string          `json:"errors,omitempty"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{v, unit}
}

// fail records one failed check or op; the first few keep their message.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

var (
	errNoMatch = errors.New("statement bound no row")
	errNoRows  = errors.New("query returned no row")
)

// execFn drives one op and returns the commit sequence it produced, if
// the path reports one.
type execFn func(o *op) (seq uint64, err error)

func (w *world) execLocal(o *op) (uint64, error) {
	if o.eachCommits {
		return 0, apply(w.g, o.steps) // the graph's own mutators auto-commit
	}
	tx := w.g.Begin()
	if err := apply(tx, o.steps); err != nil {
		_ = tx.Rollback()
		return 0, err
	}
	return 0, tx.Commit()
}

func (w *world) execStmt(o *op) (uint64, error) {
	st, seq, err := w.writer.Exec(o.text, o.params)
	if err == nil && st.MatchedRows == 0 {
		err = errNoMatch
	}
	return seq, err
}

func (w *world) execRead(o *op) (uint64, error) {
	_, rows, err := w.reader.Query(o.text, o.params)
	if err == nil && len(rows) == 0 {
		err = errNoRows
	}
	return 0, err
}

// native is the path a user of the workload takes, with no tracing.
func (w *world) native() execFn {
	switch w.sp.fam {
	case famStmt:
		return w.execStmt
	case famRead:
		return w.execRead
	default:
		return w.execLocal
	}
}

// opSource generates the timed ops. Reads draw only from the static
// person pool, so the reader and the background writer never share a
// generator.
func (w *world) opSource(seed int64) *pools {
	if w.sp.fam != famRead {
		return w.pools
	}
	return &pools{rng: rand.New(rand.NewSource(seed*104729 + 7)), persons: w.pools.persons}
}

// sent pairs an op's start time with the commit it produced.
type sent struct {
	seq uint64
	at  int64
}

// window accumulates what the timed segments of one run observe.
type window struct {
	lat       []int64 // per-op latency, ns
	fresh     []int64 // op start -> view change observed, ns
	pending   []sent  // wire writes awaiting their delta frames
	elapsed   int64   // ns on the clock, generation excluded
	mallocs   uint64
	gcCycles  uint32
	gcPauseNs uint64
	genNs     int64
	genOps    int
}

// segment generates n ops off the clock, then runs them back to back on
// the clock. Timestamps are chained: one clock read per op.
func (w *world) segment(src *pools, exec execFn, n int, win *window, res *result) {
	t := now()
	ops := make([]op, n)
	for i := range ops {
		ops[i] = src.next(w.sp)
	}
	win.genNs += now() - t
	win.genOps += n
	if need := len(win.lat) + n; need > cap(win.lat) {
		win.lat = append(make([]int64, 0, 2*need), win.lat...)
		win.fresh = append(make([]int64, 0, 2*need), win.fresh...)
		win.pending = append(make([]sent, 0, 2*need), win.pending...)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := now()
	s := start
	for i := range ops {
		seq, err := exec(&ops[i])
		e := now()
		win.lat = append(win.lat, e-s)
		if err != nil {
			res.fail("op: %v", err)
		} else if seq != 0 {
			win.pending = append(win.pending, sent{seq, s})
		} else if w.lastChange >= s {
			win.fresh = append(win.fresh, w.lastChange-s)
		}
		s = e
	}
	win.elapsed += s - start
	runtime.ReadMemStats(&m1)
	win.mallocs += m1.Mallocs - m0.Mallocs
	win.gcCycles += m1.NumGC - m0.NumGC
	win.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	res.Attempted += n
}

// settle resolves the pending wire writes against the subscriber's
// arrival times: freshness as a subscribed client sees it.
func (w *world) settle(pending []sent, fresh []int64) ([]int64, error) {
	if w.sub == nil {
		return fresh, nil
	}
	arr, err := w.sub.arrivals()
	if err != nil {
		return fresh, err
	}
	for _, p := range pending {
		if t, ok := arr[p.seq]; ok {
			fresh = append(fresh, t-p.at)
		}
	}
	return fresh, nil
}

// bgWriter commits one write-mix statement every 50 ms while reads are
// timed, so the reads run against a moving epoch and a busy commit path.
type bgWriter struct {
	stop, done chan struct{}
	attempted  int
	errs       []error
}

func (w *world) startWriter() *bgWriter {
	b := &bgWriter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(b.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-b.stop:
				return
			case <-tick.C:
			}
			o := w.pools.stmt()
			b.attempted++
			if _, err := w.execStmt(&o); err != nil {
				b.errs = append(b.errs, err)
			}
		}
	}()
	return b
}

func (b *bgWriter) finish(res *result) {
	close(b.stop)
	<-b.done
	res.Attempted += b.attempted
	for _, err := range b.errs {
		res.fail("background write: %v", err)
	}
}

// freshAfterReads gives the read workloads their freshness samples: n
// write-mix statements sent back to back once the reads are over. The
// background writer's own commits cannot serve: a timer wakes it into a
// busy scheduler, and from run to run their median moves by a quarter.
func (w *world) freshAfterReads(n int, win *window, res *result) {
	for i := 0; i < n; i++ {
		o := w.pools.stmt()
		res.Attempted++
		s := now()
		seq, err := w.execStmt(&o)
		if err != nil {
			res.fail("write after reads: %v", err)
		} else if seq != 0 {
			win.pending = append(win.pending, sent{seq, s})
		}
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile sorts a copy and takes the nearest-rank value.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

func quantileNs(xs []int64, q float64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return quantile(fs, q)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// scratchDir returns a fresh directory under the output directory.
func scratchDir(cfg *config, prefix string) (string, error) {
	tmp := filepath.Join(cfg.outdir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmp, prefix)
}

// setUp builds the world cfg.setupReps times and keeps the last: setup_s
// is the median, so one cold first build does not decide it.
func setUp(sp *spec, cfg *config, staged bool) (*world, []float64, error) {
	if cfg.shrink > 1 { // the smoke test's small world and short counts
		small := *sp
		small.scale = 1
		small.warmup, small.chunk = sp.warmup/cfg.shrink, max(sp.chunk/cfg.shrink, 4)
		sp = &small
	}
	var w *world
	var times []float64
	for i := 0; i < cfg.setupReps; i++ {
		if w != nil {
			w.close()
			runtime.GC()
		}
		tmp, err := scratchDir(cfg, sp.name+"-")
		if err != nil {
			return nil, nil, err
		}
		t := now()
		if w, err = buildWorld(sp, cfg.seed, tmp, staged); err != nil {
			os.RemoveAll(tmp)
			return nil, nil, err
		}
		times = append(times, float64(now()-t)/1e9)
		if w.durDir == "" {
			os.RemoveAll(tmp)
		}
	}
	return w, times, nil
}

// warmUp runs the workload's fixed warm-up count, untimed: connections,
// caches and the allocator settle, and every run reaches the same state.
func (w *world) warmUp(src *pools, exec execFn, res *result) error {
	var scratch window
	w.segment(src, exec, w.sp.warmup, &scratch, res)
	return w.pools.inSync(w.g)
}

// timed runs segments until they have spent the given time on the clock.
// quiet says nothing else commits, so the id shadow can be checked after
// every segment.
func (w *world) timed(src *pools, exec execFn, seconds float64, quiet bool, res *result) (*window, error) {
	win := &window{}
	for target := int64(seconds * 1e9); win.elapsed < target; {
		w.segment(src, exec, w.sp.chunk, win, res)
		if quiet {
			if err := w.pools.inSync(w.g); err != nil {
				return nil, err
			}
		}
	}
	return win, nil
}

// liveHeap forces a collection and returns what survives it.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(sp *spec, cfg *config) (*result, error) {
	res := &result{Workload: sp.name, Metrics: map[string]metric{}}
	w, setups, err := setUp(sp, cfg, false)
	if err != nil {
		return nil, err
	}
	defer w.close()
	src, exec := w.opSource(cfg.seed), w.native()
	if err := w.warmUp(src, exec, res); err != nil {
		return nil, err
	}

	// The fixed point: every run of a seed has executed the same ops.
	stateRows := w.eng.MemoryEntries()
	heap := liveHeap()

	var bg *bgWriter
	if sp.fam == famRead {
		bg = w.startWriter()
	}
	win, err := w.timed(src, exec, cfg.seconds, bg == nil, res)
	if err != nil {
		return nil, err
	}
	if bg != nil {
		bg.finish(res)
		w.freshAfterReads(200/cfg.shrink, win, res)
		if err := w.pools.inSync(w.g); err != nil {
			return nil, err
		}
	}
	if win.fresh, err = w.settle(win.pending, win.fresh); err != nil {
		return nil, err
	}
	w.check(res)

	n := float64(len(win.lat))
	res.Samples = len(win.lat)
	res.set("setup_s", median(setups), "s")
	res.set("op_p50_us", quantileNs(win.lat, 0.5)/1e3, "us")
	res.set("ops_per_s", n/(float64(win.elapsed)/1e9), "1/s")
	res.set("fresh_p50_us", quantileNs(win.fresh, 0.5)/1e3, "us")
	res.set("allocs_per_op", float64(win.mallocs)/n, "count")
	res.set("state_rows", float64(stateRows), "count")
	res.set("heap_live_mb", float64(heap)/(1<<20), "MiB")
	res.Correct = res.Failed == 0
	return res, nil
}
