// Package rete implements the incremental view maintenance engine of the
// paper (Section 4 step 4): a Rete-style discrimination network over flat
// relational algebra plans.
//
// Rows flow through the network as deltas — (row, ±multiplicity) pairs
// under bag semantics, following the counting approach of Gupta et al. and
// Griffin & Libkin. Input nodes translate fine-grained graph change events
// (FGN) into deltas; stateful nodes (joins, dedup, aggregation, transitive
// joins) memoize their inputs so that each update is processed
// incrementally; the production node materialises the view and notifies
// subscribers.
//
// Transitive (variable-length) patterns are maintained by a dedicated
// node that memoizes, per active source vertex, the set of edge-distinct
// paths — paths are atomic values per the paper's treatment of ordering
// (ORD): they are inserted and deleted as units.
package rete

import (
	"slices"

	"pgiv/internal/value"
)

// Delta is a change to a relation: Row appears (Mult > 0) or disappears
// (Mult < 0) with the given multiplicity.
type Delta struct {
	Row  value.Row
	Mult int
}

// memEntry is a memoized row with its current multiplicity.
type memEntry struct {
	row   value.Row
	count int
}

// memory is a bag of rows keyed by their binary encoding. Key encodings
// go through a per-memory scratch Hasher, so steady-state apply calls on
// already-memoized rows (and all probes) allocate no key; a key string
// is materialised only when a new distinct row is inserted.
type memory struct {
	items map[string]*memEntry
	h     value.Hasher
}

func newMemory() *memory { return &memory{items: make(map[string]*memEntry)} }

// apply adjusts the multiplicity of row by mult and returns the previous
// and new counts.
func (m *memory) apply(row value.Row, mult int) (old, new int) {
	k := m.h.RowKey(row)
	e := m.items[string(k)] // zero-copy probe
	if e == nil {
		if mult == 0 {
			return 0, 0
		}
		e = &memEntry{row: row}
		m.items[string(k)] = e
	}
	old = e.count
	e.count += mult
	new = e.count
	if e.count == 0 {
		delete(m.items, string(k)) // zero-copy delete
	}
	return old, new
}

// rows returns the bag contents in canonical sorted order, each row
// repeated by its multiplicity. It always rebuilds, and it is the only
// routine that does: Production merges later deltas into its result.
func (m *memory) rows() []value.Row {
	out := make([]value.Row, 0, len(m.items))
	for _, e := range m.items {
		for i := 0; i < e.count; i++ {
			out = append(out, e.row)
		}
	}
	slices.SortFunc(out, value.CompareRows)
	return out
}

// size returns the number of distinct rows.
func (m *memory) size() int { return len(m.items) }

// indexedMemory is a bag of rows indexed by a join key (a subset of
// columns), supporting per-key probes. Like memory, key encodings use
// scratch Hashers: probes and steady-state applies allocate no keys.
type indexedMemory struct {
	keyIdx []int
	items  map[string]map[string]*memEntry // joinKey → rowKey → entry
	jh, rh value.Hasher                    // join-key and row-key scratch
}

func newIndexedMemory(keyIdx []int) *indexedMemory {
	return &indexedMemory{keyIdx: keyIdx, items: make(map[string]map[string]*memEntry)}
}

// keyOf encodes row's join key into scratch; the result is valid until
// the next keyOf or apply call on this memory.
func (m *indexedMemory) keyOf(row value.Row) []byte {
	return m.jh.ColsKey(row, m.keyIdx)
}

func (m *indexedMemory) apply(row value.Row, mult int) (old, new int) {
	jk := m.keyOf(row)
	bucket := m.items[string(jk)]
	if bucket == nil {
		bucket = make(map[string]*memEntry)
		m.items[string(jk)] = bucket
	}
	rk := m.rh.RowKey(row)
	e := bucket[string(rk)]
	if e == nil {
		e = &memEntry{row: row}
		bucket[string(rk)] = e
	}
	old = e.count
	e.count += mult
	new = e.count
	if e.count == 0 {
		delete(bucket, string(rk))
		if len(bucket) == 0 {
			delete(m.items, string(jk))
		}
	}
	return old, new
}

// probe invokes fn for every row currently stored under the join key.
// The key may be scratch bytes (e.g. a keyOf result); it is not
// retained.
func (m *indexedMemory) probe(key []byte, fn func(row value.Row, count int)) {
	for _, e := range m.items[string(key)] {
		fn(e.row, e.count)
	}
}

// rowArena hands out row storage carved from shared chunks, cutting the
// one-allocation-per-output-row cost of row construction in hot nodes
// (join combine) to one allocation per chunk. Rows are immutable once
// built and may be retained indefinitely by downstream memories; each
// returned slice is full-slice-capped so appends can never bleed into a
// neighbour. A chunk stays reachable while any row carved from it is —
// the chunk size bounds that overhead per live batch.
type rowArena struct {
	chunk []value.Value
}

const arenaChunk = 256 // values per chunk (~3 cache lines of rows)

// alloc returns an empty row with capacity n, backed by the arena.
func (a *rowArena) alloc(n int) value.Row {
	if cap(a.chunk)-len(a.chunk) < n {
		size := arenaChunk
		if n > size {
			size = n
		}
		a.chunk = make([]value.Value, 0, size)
	}
	start := len(a.chunk)
	a.chunk = a.chunk[: start+n : cap(a.chunk)]
	return a.chunk[start : start : start+n]
}

// size returns the number of distinct rows across all keys.
func (m *indexedMemory) size() int {
	n := 0
	for _, b := range m.items {
		n += len(b)
	}
	return n
}
