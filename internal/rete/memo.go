package rete

import (
	"fmt"
	"sort"
	"strings"

	"pgiv/internal/graph"
	"pgiv/internal/value"
)

// This file is the checkpoint side of the durability layer: every
// stateful node type can serialise its memoized state into a NodeMemo
// and restore it later, byte-for-byte equivalently to having replayed
// the history that produced it. Restoring never emits deltas — it
// reconstructs internal memories only; the caller restores every node of
// a network (and its production) before any commit propagates again.
//
// Each node also carries a memo version, bumped whenever its state may
// have changed. The checkpoint store compares versions against its
// manifest to rewrite only the node files that are dirty — the
// "dirty-page" granularity that keeps periodic checkpoints incremental.

// MemoRow is one memoized row of a node-side memory. Port selects the
// memory on multi-memory nodes (0 = left/main, 1 = right); Keys carries
// the evaluated sort keys on TopK entries (nil elsewhere).
type MemoRow struct {
	Port int
	Row  value.Row
	Keys value.Row
	Mult int
}

// ValCount is one distinct aggregate argument value with its
// multiplicity.
type ValCount struct {
	Val   value.Value
	Count int
}

// AggGroupMemo is the serialised state of one aggregation group.
type AggGroupMemo struct {
	Keys     value.Row
	RowCount int64
	Sets     [][]ValCount
	Out      value.Row // currently emitted row, nil if none
}

// TransSourceMemo is the serialised path set of one active transitive
// source.
type TransSourceMemo struct {
	Src   graph.ID
	Frags []value.Row
}

// KeyCount is one binary-keyed support counter (ExistsNode right side).
type KeyCount struct {
	Key   []byte
	Count int
}

// NodeMemo is the serialisable memo state of one stateful node. Kind
// tags the producing node type; restore rejects a mismatch.
type NodeMemo struct {
	Kind    string
	Rows    []MemoRow
	Groups  []AggGroupMemo
	Sources []TransSourceMemo
	Counts  []KeyCount
}

// MemoNode is implemented by every stateful node (and the production):
// the unit of checkpoint granularity.
type MemoNode interface {
	MemoVersion() uint64
	SnapshotMemo() *NodeMemo
	RestoreMemo(m *NodeMemo) error
}

// memoVersion is the embedded dirty counter.
type memoVersion struct {
	ver uint64
}

// bumpMemo marks the node's memo state changed.
func (m *memoVersion) bumpMemo() { m.ver++ }

// MemoVersion implements MemoNode.
func (m *memoVersion) MemoVersion() uint64 { return m.ver }

// BaseKey strips the private-copy serial suffix a no-sharing registry
// appends to entry keys, recovering the structural fingerprint. Private
// copies of the same subplan hold identical state by construction, so
// the fingerprint is the stable checkpoint identity across restarts
// (registration order fixes which copy maps to which).
func BaseKey(key string) string {
	if i := strings.IndexByte(key, '\x00'); i >= 0 {
		return key[:i]
	}
	return key
}

// ForEachMemoNode iterates every live stateful entry in creation order,
// yielding its registry key and memo interface.
func (r *SubplanRegistry) ForEachMemoNode(fn func(key string, n MemoNode)) {
	entries := make([]*SubplanEntry, 0, len(r.entries))
	for _, e := range r.entries {
		if e.counter != nil {
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].order < entries[j].order })
	for _, e := range entries {
		if mn, ok := e.counter.(MemoNode); ok {
			fn(e.key, mn)
		}
	}
}

// sortMemoRows puts memo rows into deterministic order so equal state
// serialises to equal bytes.
func sortMemoRows(rows []MemoRow) []MemoRow {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Port != rows[j].Port {
			return rows[i].Port < rows[j].Port
		}
		return value.CompareRows(rows[i].Row, rows[j].Row) < 0
	})
	return rows
}

func memoKindErr(want string, m *NodeMemo) error {
	return fmt.Errorf("rete: restore: memo kind %q, node wants %q", m.Kind, want)
}

// notEmptyErr guards restore-into-used-node mistakes.
var errMemoNotEmpty = fmt.Errorf("rete: restore into a non-empty node")

// --- memory helpers ---

func snapshotMemory(m *memory, port int, rows []MemoRow) []MemoRow {
	for _, e := range m.items {
		rows = append(rows, MemoRow{Port: port, Row: e.row, Mult: e.count})
	}
	return rows
}

func snapshotIndexed(m *indexedMemory, port int, rows []MemoRow) []MemoRow {
	for _, bucket := range m.items {
		for _, e := range bucket {
			rows = append(rows, MemoRow{Port: port, Row: e.row, Mult: e.count})
		}
	}
	return rows
}

// --- JoinNode ---

// SnapshotMemo implements MemoNode.
func (n *JoinNode) SnapshotMemo() *NodeMemo {
	rows := snapshotIndexed(n.left, 0, nil)
	rows = snapshotIndexed(n.right, 1, rows)
	return &NodeMemo{Kind: "join", Rows: sortMemoRows(rows)}
}

// RestoreMemo implements MemoNode.
func (n *JoinNode) RestoreMemo(m *NodeMemo) error {
	if m.Kind != "join" {
		return memoKindErr("join", m)
	}
	if n.left.size() != 0 || n.right.size() != 0 {
		return errMemoNotEmpty
	}
	for _, r := range m.Rows {
		if r.Port == 0 {
			n.left.apply(r.Row, r.Mult)
		} else {
			n.right.apply(r.Row, r.Mult)
		}
	}
	return nil
}

// --- OuterJoinNode ---

// SnapshotMemo implements MemoNode. The per-key right support counts are
// derivable (per-bucket sums of the right memory), so only the two
// memories are serialised.
func (n *OuterJoinNode) SnapshotMemo() *NodeMemo {
	rows := snapshotIndexed(n.left, 0, nil)
	rows = snapshotIndexed(n.right, 1, rows)
	return &NodeMemo{Kind: "outerjoin", Rows: sortMemoRows(rows)}
}

// RestoreMemo implements MemoNode.
func (n *OuterJoinNode) RestoreMemo(m *NodeMemo) error {
	if m.Kind != "outerjoin" {
		return memoKindErr("outerjoin", m)
	}
	if n.left.size() != 0 || n.right.size() != 0 || len(n.rightCounts) != 0 {
		return errMemoNotEmpty
	}
	for _, r := range m.Rows {
		if r.Port == 0 {
			n.left.apply(r.Row, r.Mult)
		} else {
			n.right.apply(r.Row, r.Mult)
		}
	}
	// Rebuild the support index: the right memory's bucket keys are the
	// same join-key strings rightCounts uses.
	for jk, bucket := range n.right.items {
		sum := 0
		for _, e := range bucket {
			sum += e.count
		}
		if sum != 0 {
			c := sum
			n.rightCounts[jk] = &c
		}
	}
	return nil
}

// --- ExistsNode ---

// SnapshotMemo implements MemoNode. Right rows are never memoized — only
// their per-key support counts — so the counts serialise verbatim under
// their binary keys.
func (n *ExistsNode) SnapshotMemo() *NodeMemo {
	rows := sortMemoRows(snapshotIndexed(n.left, 0, nil))
	counts := make([]KeyCount, 0, len(n.rightCounts))
	for k, p := range n.rightCounts {
		counts = append(counts, KeyCount{Key: []byte(k), Count: *p})
	}
	sort.Slice(counts, func(i, j int) bool { return string(counts[i].Key) < string(counts[j].Key) })
	return &NodeMemo{Kind: "exists", Rows: rows, Counts: counts}
}

// RestoreMemo implements MemoNode.
func (n *ExistsNode) RestoreMemo(m *NodeMemo) error {
	if m.Kind != "exists" {
		return memoKindErr("exists", m)
	}
	if n.left.size() != 0 || len(n.rightCounts) != 0 {
		return errMemoNotEmpty
	}
	for _, r := range m.Rows {
		n.left.apply(r.Row, r.Mult)
	}
	for _, kc := range m.Counts {
		c := kc.Count
		n.rightCounts[string(kc.Key)] = &c
	}
	return nil
}

// --- DedupNode ---

// SnapshotMemo implements MemoNode.
func (n *DedupNode) SnapshotMemo() *NodeMemo {
	return &NodeMemo{Kind: "dedup", Rows: sortMemoRows(snapshotMemory(n.mem, 0, nil))}
}

// RestoreMemo implements MemoNode.
func (n *DedupNode) RestoreMemo(m *NodeMemo) error {
	if m.Kind != "dedup" {
		return memoKindErr("dedup", m)
	}
	if n.mem.size() != 0 {
		return errMemoNotEmpty
	}
	for _, r := range m.Rows {
		n.mem.apply(r.Row, r.Mult)
	}
	return nil
}

// --- AggregateNode ---

// SnapshotMemo implements MemoNode: group state serialises directly
// (there is no raw-input memo to rebuild it from).
func (n *AggregateNode) SnapshotMemo() *NodeMemo {
	groups := make([]AggGroupMemo, 0, len(n.groups))
	for _, grp := range n.groups {
		gm := AggGroupMemo{Keys: grp.keys, RowCount: grp.rowCount, Out: grp.out}
		gm.Sets = make([][]ValCount, len(grp.sets))
		for i, set := range grp.sets {
			vcs := make([]ValCount, 0, len(set))
			for _, av := range set {
				vcs = append(vcs, ValCount{Val: av.val, Count: av.count})
			}
			sort.Slice(vcs, func(a, b int) bool { return value.Compare(vcs[a].Val, vcs[b].Val) < 0 })
			gm.Sets[i] = vcs
		}
		groups = append(groups, gm)
	}
	sort.Slice(groups, func(i, j int) bool { return value.CompareRows(groups[i].Keys, groups[j].Keys) < 0 })
	return &NodeMemo{Kind: "aggregate", Groups: groups}
}

// RestoreMemo implements MemoNode. Restoring also replaces the initial
// global-aggregate group EmitInitial would have created — a restored
// network never runs EmitInitial.
func (n *AggregateNode) RestoreMemo(m *NodeMemo) error {
	if m.Kind != "aggregate" {
		return memoKindErr("aggregate", m)
	}
	if len(n.groups) != 0 {
		return errMemoNotEmpty
	}
	for _, gm := range m.Groups {
		if len(gm.Sets) != len(n.specs) {
			return fmt.Errorf("rete: restore aggregate: %d sets, want %d", len(gm.Sets), len(n.specs))
		}
		grp := n.group(gm.Keys)
		grp.rowCount = gm.RowCount
		grp.out = gm.Out
		for i, vcs := range gm.Sets {
			for _, vc := range vcs {
				vk := n.vh.ValueKey(vc.Val)
				grp.sets[i][string(vk)] = &aggVal{val: vc.Val, count: vc.Count}
			}
		}
	}
	return nil
}

// --- TransitiveNode ---

// SnapshotMemo implements MemoNode: left rows plus the per-source
// fragment sets (the edge-containment index is derivable).
func (n *TransitiveNode) SnapshotMemo() *NodeMemo {
	rows := sortMemoRows(snapshotIndexed(n.left, 0, nil))
	srcs := make([]TransSourceMemo, 0, len(n.sources))
	for id, st := range n.sources {
		frags := make([]value.Row, 0, len(st.frags))
		for _, f := range st.frags {
			frags = append(frags, f)
		}
		sortRows(frags)
		srcs = append(srcs, TransSourceMemo{Src: id, Frags: frags})
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].Src < srcs[j].Src })
	return &NodeMemo{Kind: "transitive", Rows: rows, Sources: srcs}
}

// RestoreMemo implements MemoNode.
func (n *TransitiveNode) RestoreMemo(m *NodeMemo) error {
	if m.Kind != "transitive" {
		return memoKindErr("transitive", m)
	}
	if n.left.size() != 0 || len(n.sources) != 0 {
		return errMemoNotEmpty
	}
	for _, r := range m.Rows {
		n.left.apply(r.Row, r.Mult)
	}
	for _, sm := range m.Sources {
		st := &srcState{frags: make(map[string]value.Row, len(sm.Frags)), sortedDirty: true}
		for _, f := range sm.Frags {
			if len(f) < 2 || f[1].Kind() != value.KindPath {
				return fmt.Errorf("rete: restore transitive: malformed fragment for source %d", sm.Src)
			}
			st.frags[value.RowKey(f)] = f
		}
		st.edges = buildEdgeIndex(st.frags)
		n.sources[sm.Src] = st
	}
	return nil
}

// --- ShortestPathNode ---

// SnapshotMemo implements MemoNode: left rows plus the per-source
// fragment sets, exactly like TransitiveNode (the edge-containment index
// is derivable from the witness paths). Fragments keep the witness path
// at index 1, so the memo layout is shared.
func (n *ShortestPathNode) SnapshotMemo() *NodeMemo {
	rows := sortMemoRows(snapshotIndexed(n.left, 0, nil))
	srcs := make([]TransSourceMemo, 0, len(n.sources))
	for id, st := range n.sources {
		frags := make([]value.Row, 0, len(st.frags))
		for _, f := range st.frags {
			frags = append(frags, f)
		}
		sortRows(frags)
		srcs = append(srcs, TransSourceMemo{Src: id, Frags: frags})
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].Src < srcs[j].Src })
	return &NodeMemo{Kind: "shortestpath", Rows: rows, Sources: srcs}
}

// RestoreMemo implements MemoNode.
func (n *ShortestPathNode) RestoreMemo(m *NodeMemo) error {
	if m.Kind != "shortestpath" {
		return memoKindErr("shortestpath", m)
	}
	if n.left.size() != 0 || len(n.sources) != 0 {
		return errMemoNotEmpty
	}
	for _, r := range m.Rows {
		n.left.apply(r.Row, r.Mult)
	}
	for _, sm := range m.Sources {
		st := &srcState{frags: make(map[string]value.Row, len(sm.Frags)), sortedDirty: true}
		for _, f := range sm.Frags {
			if len(f) < 3 || f[1].Kind() != value.KindPath {
				return fmt.Errorf("rete: restore shortestpath: malformed fragment for source %d", sm.Src)
			}
			st.frags[value.RowKey(f)] = f
		}
		st.edges = buildEdgeIndex(st.frags)
		n.sources[sm.Src] = st
	}
	return nil
}

// --- TopKNode ---

// SnapshotMemo implements MemoNode. Entries serialise with their
// evaluated sort keys verbatim — restore must not re-evaluate key
// expressions against a graph state later than the rows' epoch.
func (n *TopKNode) SnapshotMemo() *NodeMemo {
	rows := make([]MemoRow, 0, len(n.byKey))
	for _, e := range n.byKey {
		rows = append(rows, MemoRow{Row: e.row, Keys: e.keys, Mult: e.count})
	}
	return &NodeMemo{Kind: "topk", Rows: sortMemoRows(rows)}
}

// RestoreMemo implements MemoNode: entries re-insert into the
// order-statistic skip list with emission suppressed, then the emitted
// window state is rebuilt from the restored tree so the next diff pass
// starts from the pre-crash window.
func (n *TopKNode) RestoreMemo(m *NodeMemo) error {
	if m.Kind != "topk" {
		return memoKindErr("topk", m)
	}
	if len(n.byKey) != 0 {
		return errMemoNotEmpty
	}
	for _, r := range m.Rows {
		if r.Mult <= 0 {
			// Transiently negative counts exist only mid-batch; a
			// checkpoint never observes one.
			return fmt.Errorf("rete: restore topk: non-positive count %d", r.Mult)
		}
		rk := n.kh.RowKey(r.Row)
		if _, dup := n.byKey[string(rk)]; dup {
			return fmt.Errorf("rete: restore topk: duplicate row")
		}
		ent := &topEntry{
			keys:   append(value.Row(nil), r.Keys...),
			row:    r.Row,
			rowKey: string(rk),
			count:  r.Mult,
		}
		n.byKey[ent.rowKey] = ent
		n.search(ent.keys, ent.row, rk)
		n.insert(ent, ent.count)
	}
	// Rebuild the previously-emitted diff region (the window for bounded
	// limits, the invisible prefix for unbounded ones).
	lo, hi := n.skip, n.skip+n.limit
	if n.limit < 0 {
		lo, hi = 0, n.skip
	}
	n.win = n.fillRange(nil, lo, hi)
	return nil
}

// --- Production ---

// SnapshotMemo implements MemoNode.
func (p *Production) SnapshotMemo() *NodeMemo {
	return &NodeMemo{Kind: "production", Rows: sortMemoRows(snapshotMemory(p.mem, 0, nil))}
}

// RestoreMemo implements MemoNode.
func (p *Production) RestoreMemo(m *NodeMemo) error {
	if m.Kind != "production" {
		return memoKindErr("production", m)
	}
	if p.mem.size() != 0 {
		return errMemoNotEmpty
	}
	p.rowsMu.Lock()
	for _, r := range m.Rows {
		p.mem.apply(r.Row, r.Mult)
	}
	p.base = nil
	p.dropLog()
	p.rowsMu.Unlock()
	return nil
}

var (
	_ MemoNode = (*JoinNode)(nil)
	_ MemoNode = (*OuterJoinNode)(nil)
	_ MemoNode = (*ExistsNode)(nil)
	_ MemoNode = (*DedupNode)(nil)
	_ MemoNode = (*AggregateNode)(nil)
	_ MemoNode = (*TransitiveNode)(nil)
	_ MemoNode = (*ShortestPathNode)(nil)
	_ MemoNode = (*TopKNode)(nil)
	_ MemoNode = (*Production)(nil)
)
