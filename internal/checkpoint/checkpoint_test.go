package checkpoint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"pgiv/internal/checkpoint"
	"pgiv/internal/graph"
	"pgiv/internal/rete"
	"pgiv/internal/value"
)

// everyValue is one row holding a value of every kind a memo can carry.
func everyValue() value.Row {
	return value.Row{
		value.Null,
		value.NewBool(true),
		value.NewInt(-42),
		value.NewFloat(2.5),
		value.NewString("héllo"),
		value.NewVertex(7),
		value.NewEdge(9),
		value.NewList([]value.Value{value.NewInt(1), value.NewString("x")}),
		value.NewMap(map[string]value.Value{"a": value.NewInt(1), "b": value.Null}),
		value.NewPath(&value.Path{Vertices: []int64{1, 2, 3}, Edges: []int64{10, 11}}),
	}
}

// memos returns one memo per node kind, each using the payload fields
// that kind's SnapshotMemo fills.
func memos() map[string]*rete.NodeMemo {
	row := everyValue()
	keyed := func(kind string) *rete.NodeMemo {
		return &rete.NodeMemo{Kind: kind, Rows: []rete.MemoRow{
			{Port: 0, Row: row, Keys: value.Row{value.NewVertex(7)}, Mult: 2},
			{Port: 1, Row: value.Row{value.NewVertex(8), value.NewString("r")}, Keys: value.Row{value.NewVertex(8)}, Mult: 1},
		}}
	}
	plain := func(kind string) *rete.NodeMemo {
		return &rete.NodeMemo{Kind: kind, Rows: []rete.MemoRow{{Row: row, Mult: 3}, {Row: value.Row{}, Mult: 1}}}
	}
	sources := func(kind string) *rete.NodeMemo {
		m := keyed(kind)
		m.Sources = []rete.TransSourceMemo{
			{Src: 7, Frags: []value.Row{{value.NewVertex(8), value.NewPath(&value.Path{Vertices: []int64{7, 8}, Edges: []int64{3}})}}},
			{Src: 9},
		}
		return m
	}
	exists := keyed("exists")
	exists.Counts = []rete.KeyCount{{Key: []byte{0, 1, 0xff}, Count: 2}, {Key: []byte("k"), Count: 1}}
	return map[string]*rete.NodeMemo{
		"join":         keyed("join"),
		"outerjoin":    keyed("outerjoin"),
		"exists":       exists,
		"dedup":        plain("dedup"),
		"topk":         plain("topk"),
		"production":   plain("production"),
		"transitive":   sources("transitive"),
		"shortestpath": sources("shortestpath"),
		"aggregate": {Kind: "aggregate", Groups: []rete.AggGroupMemo{
			{Keys: value.Row{value.NewString("en")}, RowCount: 3,
				Sets: [][]rete.ValCount{{{Val: value.NewInt(1), Count: 2}, {Val: value.NewFloat(0.5), Count: 1}}},
				Out:  value.Row{value.NewString("en"), value.NewInt(3)}},
			{Keys: value.Row{value.NewString("de")}, RowCount: 0}, // no output row
		}},
	}
}

// snapshot builds a Write input over the memos, every node at version v.
func snapshot(t *testing.T, ms map[string]*rete.NodeMemo, v uint64) *checkpoint.Snapshot {
	t.Helper()
	g := graph.New()
	a := g.AddVertex([]string{"Person"}, map[string]value.Value{"name": value.NewString("a")})
	b := g.AddVertex([]string{"Person"}, nil)
	if _, err := g.AddEdge(a, b, "KNOWS", map[string]value.Value{"w": value.NewFloat(1.5)}); err != nil {
		t.Fatal(err)
	}
	var state bytes.Buffer
	if err := g.ExportState(&state); err != nil {
		t.Fatal(err)
	}
	nv, ne := g.NextIDs()
	snap := &checkpoint.Snapshot{
		Epoch: g.Epoch(), LSN: 17, NextV: int64(nv), NextE: int64(ne),
		Views: []checkpoint.ViewRecord{
			{Name: "v1", Query: "MATCH (a:Person) RETURN a"},
			{Name: "v2", Query: "MATCH (a:Person) WHERE a.name = $n RETURN a",
				Params: checkpoint.EncodeParams(map[string]value.Value{"n": value.NewString("a")})},
		},
		GraphState: state.Bytes(),
	}
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		snap.Nodes = append(snap.Nodes, checkpoint.NodeState{Key: k, Version: v, Memo: ms[k]})
	}
	return snap
}

func sameRow(a, b value.Row) bool { return value.RowKey(a) == value.RowKey(b) && len(a) == len(b) }

func sameRows(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameRow(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameMemo compares memos field by field, rows by canonical key. An
// empty Keys row reads back as nil, which TopKNode.RestoreMemo treats
// the same.
func sameMemo(a, b *rete.NodeMemo) bool {
	if a.Kind != b.Kind || len(a.Rows) != len(b.Rows) || len(a.Groups) != len(b.Groups) ||
		len(a.Sources) != len(b.Sources) || !reflect.DeepEqual(a.Counts, b.Counts) {
		return false
	}
	for i, r := range a.Rows {
		o := b.Rows[i]
		if r.Port != o.Port || r.Mult != o.Mult || !sameRow(r.Row, o.Row) || !sameRow(r.Keys, o.Keys) {
			return false
		}
	}
	for i, g := range a.Groups {
		o := b.Groups[i]
		if !sameRow(g.Keys, o.Keys) || g.RowCount != o.RowCount || (g.Out == nil) != (o.Out == nil) ||
			!sameRow(g.Out, o.Out) || len(g.Sets) != len(o.Sets) {
			return false
		}
		for j, set := range g.Sets {
			if len(set) != len(o.Sets[j]) {
				return false
			}
			for k, vc := range set {
				if vc.Count != o.Sets[j][k].Count || value.Compare(vc.Val, o.Sets[j][k].Val) != 0 {
					return false
				}
			}
		}
	}
	for i, s := range a.Sources {
		if s.Src != b.Sources[i].Src || !sameRows(s.Frags, b.Sources[i].Frags) {
			return false
		}
	}
	return true
}

// TestRoundTrip writes a checkpoint holding every memo kind, reopens the
// directory and reads everything back.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, m, err := checkpoint.Open(dir)
	if err != nil || m != nil {
		t.Fatalf("open empty dir: manifest %v, err %v", m, err)
	}
	ms := memos()
	snap := snapshot(t, ms, 1)
	if err := store.Write(snap); err != nil {
		t.Fatal(err)
	}

	store, m, err = checkpoint.Open(dir)
	if err != nil || m == nil {
		t.Fatalf("reopen: manifest %v, err %v", m, err)
	}
	if m.Epoch != snap.Epoch || m.LSN != snap.LSN || m.NextV != snap.NextV || m.NextE != snap.NextE {
		t.Fatalf("manifest header %+v, wrote %+v", m, snap)
	}
	if !reflect.DeepEqual(m.Views, snap.Views) {
		t.Fatalf("views %+v, wrote %+v", m.Views, snap.Views)
	}
	params, err := checkpoint.DecodeParams(m.Views[1].Params)
	if err != nil || params["n"].Str() != "a" {
		t.Fatalf("params %v, err %v", params, err)
	}
	state, err := store.ReadGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, snap.GraphState) {
		t.Fatal("graph state bytes differ after round trip")
	}
	g := graph.New()
	if err := g.RestoreState(bytes.NewReader(state)); err != nil {
		t.Fatalf("restore graph state: %v", err)
	}
	if len(m.Nodes) != len(ms) {
		t.Fatalf("manifest holds %d nodes, wrote %d", len(m.Nodes), len(ms))
	}
	for _, rec := range m.Nodes {
		got, err := store.ReadNode(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMemo(got, ms[rec.Key]) {
			t.Errorf("node %q: read %+v, wrote %+v", rec.Key, got, ms[rec.Key])
		}
	}
}

// files lists the directory's file names.
func files(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// TestIncrementalReuse checks that a node whose version is unchanged
// keeps its file across an incremental Write, including one made after
// reopening the store, while a dirty node gets a fresh file and the old
// one is swept.
func TestIncrementalReuse(t *testing.T) {
	dir := t.TempDir()
	store, _, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ms := memos()
	if err := store.Write(snapshot(t, ms, 1)); err != nil {
		t.Fatal(err)
	}
	store, first, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !store.Unchanged("join", 1) || store.Unchanged("join", 2) || store.Unchanged("missing", 1) {
		t.Fatal("Unchanged disagrees with the manifest")
	}
	fileOf := func(m *checkpoint.Manifest) map[string]string {
		out := map[string]string{}
		for _, nr := range m.Nodes {
			out[nr.Key] = nr.File
		}
		return out
	}

	// Second checkpoint: join is dirty, every other node is unchanged and
	// handed over without its memo.
	snap := snapshot(t, ms, 1)
	dirty := &rete.NodeMemo{Kind: "join", Rows: []rete.MemoRow{{Row: value.Row{value.NewInt(5)}, Mult: 1}}}
	for i := range snap.Nodes {
		if snap.Nodes[i].Key == "join" {
			snap.Nodes[i] = checkpoint.NodeState{Key: "join", Version: 2, Memo: dirty}
		} else {
			snap.Nodes[i].Memo = nil
		}
	}
	if err := store.Write(snap); err != nil {
		t.Fatal(err)
	}
	store, second, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	before, after := fileOf(first), fileOf(second)
	for key, file := range after {
		if key == "join" {
			if file == before[key] {
				t.Errorf("dirty node kept its old file %s", file)
			}
		} else if file != before[key] {
			t.Errorf("unchanged node %q moved from %s to %s", key, before[key], file)
		}
	}
	for _, name := range files(t, dir) {
		if name == before["join"] || name == first.GraphFile {
			t.Errorf("superseded file %s was not swept", name)
		}
	}
	for _, rec := range second.Nodes {
		got, err := store.ReadNode(rec)
		if err != nil {
			t.Fatal(err)
		}
		want := ms[rec.Key]
		if rec.Key == "join" {
			want = dirty
		}
		if !sameMemo(got, want) {
			t.Errorf("node %q: read %+v after incremental write", rec.Key, got)
		}
	}
}

// TestSweepInterrupted plants the leftovers of a checkpoint that died
// before its manifest rename and checks that Open removes them, keeps
// every file the manifest names, and that the next Write still works.
func TestSweepInterrupted(t *testing.T) {
	dir := t.TempDir()
	store, _, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Write(snapshot(t, memos(), 1)); err != nil {
		t.Fatal(err)
	}
	kept := files(t, dir)
	orphans := []string{"graph-2.json", "node-2-0.json", "node-2-5.json", "MANIFEST.tmp"}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{\"partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, m, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := files(t, dir); !reflect.DeepEqual(got, kept) {
		t.Fatalf("after sweep the directory holds %v, want %v", got, kept)
	}
	for _, rec := range m.Nodes {
		if _, err := store.ReadNode(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Write(snapshot(t, memos(), 2)); err != nil {
		t.Fatalf("write after sweep: %v", err)
	}
	if _, _, err := checkpoint.Open(dir); err != nil {
		t.Fatal(err)
	}

	// Without any manifest every payload file is a leftover.
	bare := t.TempDir()
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(bare, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, m, err := checkpoint.Open(bare); err != nil || m != nil {
		t.Fatalf("open without manifest: manifest %v, err %v", m, err)
	}
	if got := files(t, bare); len(got) != 0 {
		t.Fatalf("leftovers survived a manifest-less open: %v", got)
	}
}

// TestTruncation cuts the manifest and then a node file at every offset
// short of its full length: Open or ReadNode must return an error, never
// panic and never hand back a partial memo.
func TestTruncation(t *testing.T) {
	dir := t.TempDir()
	store, _, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Write(snapshot(t, memos(), 1)); err != nil {
		t.Fatal(err)
	}
	store, m, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "MANIFEST")
	full, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		if err := os.WriteFile(manifest, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, m, err := checkpoint.Open(dir); err == nil {
			t.Fatalf("manifest cut at %d/%d bytes opened without error (manifest %+v)", n, len(full), m)
		}
	}
	if err := os.WriteFile(manifest, full, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, rec := range m.Nodes {
		path := filepath.Join(dir, rec.File)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(data); n++ {
			if err := os.WriteFile(path, data[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			if memo, err := store.ReadNode(rec); err == nil {
				t.Fatalf("node %q cut at %d/%d bytes read without error: %+v", rec.Key, n, len(data), memo)
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
