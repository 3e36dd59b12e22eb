package rete

import (
	"slices"
	"sync"
	"sync/atomic"

	"pgiv/internal/value"
)

// mergeLimit is the most deltas a watched production whose slice holds
// n rows logs between two folds. Past it the log is dropped and the
// next fold rebuilds the slice from the bag. BenchmarkPublishMerge times
// one fold of k logged deltas into an n-row view both ways; from n = 64
// to 200k the rebuild overtakes the merge between k = n/8 and n/4
// (merge vs rebuild at -cpu 1, k = n/8 then n/4: n = 2k, 0.35 vs 0.65
// and 0.82 vs 0.70 ms; n = 20k, 7.0 vs 10.8 and 16.7 vs 15.3 ms;
// n = 200k, 162 vs 308 and 330 vs 321 ms). At n/4 the two are within
// 17% of each other. The floor of 16 keeps a small commit on a view of
// a few rows, such as a grouped count, merging; either way costs
// microseconds there (n = 64, k = 16: 15 vs 16 µs).
func mergeLimit(n int) int { return max(16, n/4) }

// Production is the terminal node of a view's network: it materialises
// the view contents (a bag with multiplicities) and notifies subscribers
// with the delta batches it receives. Views whose plans share the same
// fingerprint share one production (the materialised bag is identical by
// construction), so each holds its own subscription token for detach.
type Production struct {
	memoVersion
	mem    *memory
	subs   []prodSub
	nextID int

	// rowsMu guards mem's folds and the canonical-order state below, so a
	// Rows reader never sees half a batch. One lock per Apply batch keeps
	// the hot path cheap; a read while a commit propagates sees the
	// batches folded so far.
	rowsMu sync.Mutex
	// base is the bag in canonical order as of the last fold, nil when it
	// must be rebuilt from mem. A fold never writes into it: each one
	// makes a fresh slice, so a slice handed out stays immutable.
	base []value.Row
	// pending holds the deltas folded into mem since base was built. Only
	// a watched production with a base logs; an unwatched one drops base
	// on Apply and rebuilds lazily in Rows.
	pending  []Delta
	rebuilds int // full rebuilds of base, see Rebuilds

	// Merge scratch, reused across folds.
	keys []byte
	runs []keyRun
	h    value.Hasher

	// Epoch publication (MVCC read path): when watched, Publish installs
	// an immutable (epoch, rows) pair after each commit's propagation,
	// and Published hands it to wait-free readers — no lock the commit
	// path takes.
	watched atomic.Bool
	pub     atomic.Pointer[PubRows]
}

// PubRows is one published epoch of a production: the canonical-order row
// set as of the commit with that epoch. Both fields are immutable.
type PubRows struct {
	Epoch uint64
	Rows  []value.Row
}

// NewProduction builds an empty production node.
func NewProduction() *Production { return &Production{mem: newMemory()} }

// Apply implements Receiver: it folds the deltas into the materialised
// bag and forwards the batch to subscribers. Batches may contain
// transient retract/assert pairs for the same row; subscribers needing
// net effects should fold them.
func (p *Production) Apply(port int, deltas []Delta) {
	if len(deltas) > 0 {
		p.bumpMemo()
		// The fold and the log append share one critical section: a Rows
		// call between them would rebuild from a bag that already holds
		// the batch, and the logged batch would then apply twice.
		p.rowsMu.Lock()
		for _, d := range deltas {
			p.mem.apply(d.Row, d.Mult)
		}
		if p.base != nil && p.watched.Load() && len(p.pending)+len(deltas) <= mergeLimit(len(p.base)) {
			p.pending = append(p.pending, deltas...)
		} else {
			p.base = nil
			p.dropLog()
		}
		p.rowsMu.Unlock()
	}
	for _, s := range p.subs {
		s.fn(deltas)
	}
}

// prodSub is one subscription with its removal token.
type prodSub struct {
	id int
	fn func([]Delta)
}

// Subscribe registers a delta callback and returns a token for
// Unsubscribe. Callbacks run synchronously inside the mutating store
// call and must not mutate the graph.
func (p *Production) Subscribe(fn func([]Delta)) int {
	p.nextID++
	p.subs = append(p.subs, prodSub{id: p.nextID, fn: fn})
	return p.nextID
}

// Unsubscribe removes a subscription by token (used when one of several
// views sharing this production drops).
func (p *Production) Unsubscribe(id int) {
	for i, s := range p.subs {
		if s.id == id {
			p.subs = append(p.subs[:i], p.subs[i+1:]...)
			return
		}
	}
}

// Rows returns the materialised view contents in canonical order, each
// row repeated per its multiplicity. Repeated reads between commits
// return the same slice; a watched production returns the slice it
// publishes. The slice is never mutated by later calls; callers must
// not modify it.
func (p *Production) Rows() []value.Row {
	p.rowsMu.Lock()
	defer p.rowsMu.Unlock()
	p.fold()
	return p.base
}

// Rebuilds reports how many times the production has built its
// canonical slice by sorting the whole bag rather than merging logged
// deltas into it. It is test instrumentation: tests pin it to show a
// watched view's commits cost O(|Δ|) sorting, not O(|view|). It is
// exported only because internal/ivm's tests pin it too, and one
// package's test files cannot reach another's unexported fields.
func (p *Production) Rebuilds() int {
	p.rowsMu.Lock()
	defer p.rowsMu.Unlock()
	return p.rebuilds
}

// fold brings base up to date with mem. Callers hold rowsMu.
func (p *Production) fold() {
	switch {
	case p.base == nil:
		p.base = p.mem.rows()
		p.rebuilds++
	case len(p.pending) > 0:
		p.base = p.merge()
	}
	p.dropLog()
}

// dropLog empties the pending log without retaining its rows.
func (p *Production) dropLog() {
	clear(p.pending)
	p.pending = p.pending[:0]
}

// merge returns base with the pending log applied, in one linear pass.
// The sorted log splits into compare-equal groups, and within a group
// rows are told apart by the bag's RowKey, since CompareRows ties rows
// the bag keeps apart (NaNs with different payloads, say). Each touched
// key's copies leave base and the bag entry's own row comes back at its
// current count, so every published row is the row the bag retains.
// A group is copied only when a touched key's entry no longer matches
// base's copies — another count, or another row under the same key, as
// when SET turns Int 1 into Float 1.0 — so a commit that leaves the
// view as it was returns base itself and keeps slice identity.
func (p *Production) merge() []value.Row {
	log, base := p.pending, p.base
	slices.SortFunc(log, func(a, b Delta) int { return value.CompareRows(a.Row, b.Row) })
	defer clear(p.runs)
	var out []value.Row
	copied, pos := 0, 0 // base[:copied] is in out; the next group starts at or past pos
	for i := 0; i < len(log); {
		at := log[i].Row
		j := i + 1
		for j < len(log) && value.CompareRows(at, log[j].Row) == 0 {
			j++
		}
		p.touch(log[i:j])
		lo, _ := slices.BinarySearchFunc(base[pos:], at, value.CompareRows)
		lo += pos
		hi := lo
		for hi < len(base) && value.CompareRows(base[hi], at) == 0 {
			hi++
		}
		if p.changed(base[lo:hi]) {
			if out == nil {
				out = make([]value.Row, 0, len(base)+len(log))
			}
			out = append(out, base[copied:lo]...)
			t := -1
			for k, row := range base[lo:hi] {
				if k == 0 || !sameBacking(row, base[lo+k-1]) {
					t = p.find(p.h.RowKey(row))
				}
				if t < 0 {
					out = append(out, row)
				}
			}
			for _, r := range p.runs {
				if e := p.entry(r); e != nil {
					for c := 0; c < e.count; c++ {
						out = append(out, e.row)
					}
				}
			}
			copied = hi
		}
		pos, i = hi, j
	}
	if out == nil {
		return base
	}
	return append(out, base[copied:]...)
}

// keyRun is one distinct RowKey (keys[from:to]) the log touches in the
// group being merged, with the copies of it base holds: had copies of
// row. All copies of one key in base share row's backing array, since
// both a rebuild and a merge write one bag entry's row per copy.
type keyRun struct {
	from, to int
	had      int
	row      value.Row
}

// touch loads runs with the distinct keys of one compare-equal group of
// the log.
func (p *Production) touch(group []Delta) {
	clear(p.runs)
	p.keys, p.runs = p.keys[:0], p.runs[:0]
	for _, d := range group {
		from := len(p.keys)
		p.keys = value.AppendRowKey(p.keys, d.Row)
		if p.find(p.keys[from:]) >= 0 {
			p.keys = p.keys[:from]
			continue
		}
		p.runs = append(p.runs, keyRun{from: from, to: len(p.keys)})
	}
}

// changed counts the touched keys' copies in run, base's compare-equal
// run for the group, and reports whether any differs from its bag entry.
// A key is encoded once per stretch of copies sharing a backing array,
// not once per copy.
func (p *Production) changed(run []value.Row) bool {
	t := -1
	for k, row := range run {
		if k == 0 || !sameBacking(row, run[k-1]) {
			t = p.find(p.h.RowKey(row))
		}
		if t >= 0 {
			p.runs[t].had++
			p.runs[t].row = row
		}
	}
	for _, r := range p.runs {
		e := p.entry(r)
		if e == nil {
			if r.had > 0 {
				return true
			}
		} else if e.count != r.had || !sameBacking(e.row, r.row) {
			return true
		}
	}
	return false
}

// find returns the index of the run whose key is k, or -1.
func (p *Production) find(k []byte) int {
	for i, r := range p.runs {
		if string(p.keys[r.from:r.to]) == string(k) {
			return i
		}
	}
	return -1
}

// entry returns the bag entry of a touched key, nil once it is gone.
func (p *Production) entry(r keyRun) *memEntry { return p.mem.items[string(p.keys[r.from:r.to])] }

// sameBacking reports whether a and b are the same row value: equal
// length over one backing array (all empty rows share one key).
func sameBacking(a, b value.Row) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Watch turns on epoch publication for this production and publishes the
// current contents at the given epoch. Callers must ensure no commit is
// propagating concurrently (the server calls this under its write lock).
// Once watched, the maintenance path publishes after every commit; the
// unwatched cost stays one atomic load per commit.
func (p *Production) Watch(epoch uint64) {
	p.watched.Store(true)
	p.publish(epoch, true)
}

// Publish installs the post-commit row set at the given epoch. It is a
// no-op unless the production is watched. Runs on the maintenance path
// after propagation for this commit has finished; epochs are published
// in commit order because commits are serialised.
func (p *Production) Publish(epoch uint64) {
	if !p.watched.Load() {
		return
	}
	p.publish(epoch, false)
}

// publish folds the commit's log into base and stamps it with epoch. A
// commit that left the view unchanged restamps the previous slice, so
// readers still learn the latest epoch (read-your-writes).
func (p *Production) publish(epoch uint64, force bool) {
	if prev := p.pub.Load(); prev != nil && prev.Epoch == epoch && !force {
		return
	}
	p.rowsMu.Lock()
	p.fold()
	p.pub.Store(&PubRows{Epoch: epoch, Rows: p.base})
	p.rowsMu.Unlock()
}

// Published returns the latest published (epoch, rows) pair, or nil if
// the production is not watched (or not yet published). Wait-free; the
// result is immutable and safe to retain.
func (p *Production) Published() *PubRows { return p.pub.Load() }

// DistinctCount returns the number of distinct rows in the view.
func (p *Production) DistinctCount() int { return p.mem.size() }

func (p *Production) memoryEntries() int { return p.mem.size() }
