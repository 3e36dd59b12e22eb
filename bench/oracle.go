package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pgiv/internal/graph"
	"pgiv/internal/ivm"
	"pgiv/internal/snapshot"
	"pgiv/internal/value"
)

// sameRows compares two row lists position by position.
func sameRows(got, want []value.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if value.CompareRows(got[i], want[i]) != 0 {
			return fmt.Errorf("row %d is %s, want %s", i, value.RowString(got[i]), value.RowString(want[i]))
		}
	}
	return nil
}

// checkViews holds every view against a from-scratch evaluation of its
// query on the final graph: in the oracle's exact order for ordered
// views, in canonical order otherwise.
func checkViews(g *graph.Graph, views []*ivm.View, res *result) {
	for _, v := range views {
		res.Attempted++
		want, err := snapshot.Query(g, v.Query(), nil)
		if err != nil {
			res.fail("oracle %s: %v", v.Name(), err)
			continue
		}
		rows := want.Sorted()
		if v.Ordered() {
			rows = want.Rows
		}
		if err := sameRows(v.Rows(), rows); err != nil {
			res.fail("view %s: %v", v.Name(), err)
		}
	}
}

// checkSubscriber holds the rows a subscriber rebuilt from its seed rows
// and delta batches against what client.Rows returns now, and requires
// each view's batches to have arrived in strictly increasing Seq order.
func (w *world) checkSubscriber(res *result) {
	if _, err := w.sub.arrivals(); err != nil { // drain frames in flight
		res.fail("subscriber: %v", err)
		return
	}
	w.sub.mu.Lock()
	defer w.sub.mu.Unlock()
	res.Attempted++
	if w.sub.badSeq > 0 {
		res.fail("subscriber: %d batches out of Seq order", w.sub.badSeq)
	}
	for _, v := range w.views {
		res.Attempted++
		_, rows, _, err := w.writer.Rows(v.Name())
		if err != nil {
			res.fail("rows %s: %v", v.Name(), err)
			continue
		}
		want := map[string]int{}
		for _, r := range rows {
			want[value.RowKey(r)]++
		}
		got := w.sub.state[v.Name()]
		bad := len(got) != len(want)
		for k, n := range want {
			bad = bad || got[k] != n
		}
		if bad {
			res.fail("subscriber replay of %s: %d distinct rows, server has %d", v.Name(), len(got), len(want))
		}
	}
}

// checkReads holds every read template, answered over the wire through
// the rewrite planner, against a from-scratch evaluation. The writer has
// stopped, so both see the same graph.
func (w *world) checkReads(res *result) {
	src := w.opSource(1)
	for _, class := range readClasses {
		res.Attempted++
		o := src.read(class)
		_, got, err := w.reader.Query(o.text, o.params)
		if err != nil {
			res.fail("read %s: %v", class, err)
			continue
		}
		want, err := snapshot.Query(w.g, o.text, o.params)
		if err != nil {
			res.fail("oracle %s: %v", class, err)
			continue
		}
		wantRows := want.Rows // an ordered answer must arrive in the oracle's order
		if !strings.Contains(o.text, "ORDER BY") {
			got, wantRows = (&snapshot.Result{Rows: got}).Sorted(), want.Sorted()
		}
		if err := sameRows(got, wantRows); err != nil {
			res.fail("read %s: %v", class, err)
		}
	}
}

// copyTree copies a directory of regular files and directories.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		if fi.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// recovered is a second engine opened on a copy of a live engine's files.
type recovered struct {
	g      *graph.Graph
	eng    *ivm.Engine
	dir    string
	openNs int64 // OpenDurable until views are readable
}

func (r *recovered) close() {
	r.eng.Close()
	os.RemoveAll(r.dir)
}

// recoverCopy copies the WAL and checkpoint files as they are on disk —
// what a crash would leave under fsync=always — and recovers them into a
// fresh graph.
func recoverCopy(dir string) (*recovered, error) {
	r := &recovered{g: graph.New(), dir: dir + "-copy"}
	if err := copyTree(dir, r.dir); err != nil {
		return nil, err
	}
	t := now()
	eng, err := ivm.OpenDurable(r.g, durableOptions(r.dir, 0))
	if err != nil {
		os.RemoveAll(r.dir)
		return nil, err
	}
	r.eng, r.openNs = eng, now()-t
	return r, nil
}

// checkRecovery requires the recovered graph digest and every recovered
// view's rows to equal the live ones.
func checkRecovery(g *graph.Graph, views []*ivm.View, r *recovered, res *result) {
	res.Attempted++
	live, err1 := g.Digest()
	rec, err2 := r.g.Digest()
	if err1 != nil || err2 != nil || live != rec {
		res.fail("recovered graph digest %.12s (%v), live %.12s (%v)", rec, err2, live, err1)
	}
	for _, v := range views {
		res.Attempted++
		rv, ok := r.eng.View(v.Name())
		if !ok {
			res.fail("recovery lost view %s", v.Name())
		} else if err := sameRows(rv.Rows(), v.Rows()); err != nil {
			res.fail("recovered view %s: %v", v.Name(), err)
		}
	}
}

// check runs the workload's correctness oracle at the end of a run.
func (w *world) check(res *result) {
	checkViews(w.g, w.views, res)
	switch w.sp.fam {
	case famStmt:
		w.checkSubscriber(res)
	case famRead:
		w.checkSubscriber(res)
		w.checkReads(res)
	case famBatch:
		if w.durDir == "" {
			return // a staged world is not durable; the traced run recovers a durable twin
		}
		r, err := recoverCopy(w.durDir)
		res.Attempted++
		if err != nil {
			res.fail("recovery: %v", err)
			return
		}
		defer r.close()
		checkRecovery(w.g, w.views, r, res)
	}
}
