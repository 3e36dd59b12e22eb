package rete

import (
	"pgiv/internal/graph"
	"pgiv/internal/value"
)

// VertexInput is the Rete input node of a get-vertices operator
// ©(v:Labels{props}). It translates vertex-level graph events into deltas
// over rows of the form (vertex, prop1, prop2, ...). A property update on
// a pushed-down key re-emits only the affected row — the paper's
// fine-granularity (FGN) property.
type VertexInput struct {
	emitter
	nopSink
	g      *graph.Graph
	labels []string
	props  []string // pushed-down property keys, in row order
}

// NewVertexInput constructs an input node for the given label set and
// pushed property keys.
func NewVertexInput(g *graph.Graph, labels, props []string) *VertexInput {
	return &VertexInput{g: g, labels: labels, props: props}
}

func (n *VertexInput) rowFor(v *graph.Vertex) value.Row {
	row := make(value.Row, 0, 1+len(n.props))
	row = append(row, value.NewVertex(v.ID))
	for _, k := range n.props {
		row = append(row, v.Prop(k))
	}
	return row
}

// Seed replays the current graph contents into one successor edge (used
// when a new view attaches to an already-live shared input).
func (n *VertexInput) Seed(target succ) {
	primary := ""
	if len(n.labels) > 0 {
		primary = n.labels[0]
	}
	var deltas []Delta
	for _, v := range n.g.VerticesByLabel(primary) {
		if vertexMatches(v, n.labels) {
			deltas = append(deltas, Delta{Row: n.rowFor(v), Mult: 1})
		}
	}
	if len(deltas) > 0 {
		target.node.Apply(target.port, deltas)
	}
}

// VertexAdded implements GraphSink.
func (n *VertexInput) VertexAdded(v *graph.Vertex) {
	if vertexMatches(v, n.labels) {
		n.emit([]Delta{{Row: n.rowFor(v), Mult: 1}})
	}
}

// VertexRemoved implements GraphSink.
func (n *VertexInput) VertexRemoved(v *graph.Vertex) {
	if vertexMatches(v, n.labels) {
		n.emit([]Delta{{Row: n.rowFor(v), Mult: -1}})
	}
}

// VertexLabelAdded implements GraphSink.
func (n *VertexInput) VertexLabelAdded(v *graph.Vertex, label string) {
	if !containsLabel(n.labels, label) {
		return // the label is irrelevant; match status unchanged
	}
	if vertexMatches(v, n.labels) {
		// Before the event the vertex lacked a required label, so the row
		// is new.
		n.emit([]Delta{{Row: n.rowFor(v), Mult: 1}})
	}
}

// VertexLabelRemoved implements GraphSink.
func (n *VertexInput) VertexLabelRemoved(v *graph.Vertex, label string) {
	if !containsLabel(n.labels, label) {
		return
	}
	// The row existed before iff all other required labels still match.
	if vertexMatchesExcept(v, n.labels, label) {
		n.emit([]Delta{{Row: n.rowFor(v), Mult: -1}})
	}
}

// VertexPropertyChanged implements GraphSink.
func (n *VertexInput) VertexPropertyChanged(v *graph.Vertex, key string, old value.Value) {
	if !vertexMatches(v, n.labels) {
		return
	}
	affected := false
	for _, k := range n.props {
		if k == key {
			affected = true
			break
		}
	}
	if !affected {
		return
	}
	newRow := n.rowFor(v)
	oldRow := value.CloneRow(newRow)
	for i, k := range n.props {
		if k == key {
			oldRow[1+i] = old
		}
	}
	n.emit([]Delta{{Row: oldRow, Mult: -1}, {Row: newRow, Mult: 1}})
}

func containsLabel(labels []string, l string) bool {
	for _, x := range labels {
		if x == l {
			return true
		}
	}
	return false
}

// vertexMatchesExcept checks the label requirements assuming the vertex
// still carried the given (just removed) label.
func vertexMatchesExcept(v *graph.Vertex, labels []string, removed string) bool {
	for _, l := range labels {
		if l == removed {
			continue
		}
		if !v.HasLabel(l) {
			return false
		}
	}
	return true
}

// EdgeInput is the Rete input node of a get-edges operator
// ⇑(a:AL)-[e:T]->(b:BL) with pushed-down endpoint and edge properties.
// Rows have the form (a, e, b, aProps..., eProps..., bProps...). With
// Undirected, each edge contributes both orientations (except self-loops,
// which contribute one).
type EdgeInput struct {
	emitter
	nopSink
	g          *graph.Graph
	types      []string
	aLabels    []string
	bLabels    []string
	undirected bool
	aProps     []string
	eProps     []string
	bProps     []string

	// changeset-translation scratch, reused across commits
	cands     map[graph.ID]edgeCand
	candIDs   []graph.ID
	usedAfter []bool
}

// NewEdgeInput constructs an edge input node.
func NewEdgeInput(g *graph.Graph, types, aLabels, bLabels []string, undirected bool, aProps, eProps, bProps []string) *EdgeInput {
	return &EdgeInput{
		g: g, types: types, aLabels: aLabels, bLabels: bLabels,
		undirected: undirected, aProps: aProps, eProps: eProps, bProps: bProps,
	}
}

// orientation is one (a, b) assignment of an edge's endpoints.
type orientation struct {
	a, b *graph.Vertex
}

// orientations returns the candidate endpoint assignments of e (without
// label checks). The forward orientation comes first.
func (n *EdgeInput) orientations(e *graph.Edge) []orientation {
	src, okS := n.g.VertexByID(e.Src)
	trg, okT := n.g.VertexByID(e.Trg)
	if !okS || !okT {
		return nil
	}
	out := []orientation{{a: src, b: trg}}
	if n.undirected && e.Src != e.Trg {
		out = append(out, orientation{a: trg, b: src})
	}
	return out
}

func (n *EdgeInput) rowFor(o orientation, e *graph.Edge) value.Row {
	row := make(value.Row, 0, 3+len(n.aProps)+len(n.eProps)+len(n.bProps))
	row = append(row, value.NewVertex(o.a.ID), value.NewEdge(e.ID), value.NewVertex(o.b.ID))
	for _, k := range n.aProps {
		row = append(row, o.a.Prop(k))
	}
	for _, k := range n.eProps {
		row = append(row, e.Prop(k))
	}
	for _, k := range n.bProps {
		row = append(row, o.b.Prop(k))
	}
	return row
}

func (n *EdgeInput) matchingRows(e *graph.Edge) []Delta {
	var out []Delta
	for _, o := range n.orientations(e) {
		if vertexMatches(o.a, n.aLabels) && vertexMatches(o.b, n.bLabels) {
			out = append(out, Delta{Row: n.rowFor(o, e), Mult: 1})
		}
	}
	return out
}

// Seed replays the current edge set into one successor edge.
func (n *EdgeInput) Seed(target succ) {
	var deltas []Delta
	ts := n.types
	if len(ts) == 0 {
		ts = []string{""}
	}
	for _, t := range ts {
		for _, e := range n.g.EdgesByType(t) {
			deltas = append(deltas, n.matchingRows(e)...)
		}
	}
	if len(deltas) > 0 {
		target.node.Apply(target.port, deltas)
	}
}

// EdgeAdded implements GraphSink.
func (n *EdgeInput) EdgeAdded(e *graph.Edge) {
	if !typeMatches(n.types, e.Type) {
		return
	}
	n.emit(n.matchingRows(e))
}

// EdgeRemoved implements GraphSink. The edge is already unlinked from the
// store, but the removed object and its endpoints (removed-vertex events
// follow their incident-edge events) are still readable.
func (n *EdgeInput) EdgeRemoved(e *graph.Edge) {
	if !typeMatches(n.types, e.Type) {
		return
	}
	rows := n.matchingRows(e)
	for i := range rows {
		rows[i].Mult = -1
	}
	n.emit(rows)
}

// incidentEdges lists the distinct edges touching v that match the type
// filter.
func (n *EdgeInput) incidentEdges(v *graph.Vertex) []*graph.Edge {
	seen := make(map[graph.ID]bool)
	var out []*graph.Edge
	for _, e := range n.g.OutEdges(v.ID, "") {
		if typeMatches(n.types, e.Type) && !seen[e.ID] {
			seen[e.ID] = true
			out = append(out, e)
		}
	}
	for _, e := range n.g.InEdges(v.ID, "") {
		if typeMatches(n.types, e.Type) && !seen[e.ID] {
			seen[e.ID] = true
			out = append(out, e)
		}
	}
	return out
}

// labelDelta handles a label addition or removal on v: rows whose match
// status flips are emitted or retracted.
func (n *EdgeInput) labelDelta(v *graph.Vertex, label string, added bool) {
	relevant := containsLabel(n.aLabels, label) || containsLabel(n.bLabels, label)
	if !relevant {
		return
	}
	matchNow := func(x *graph.Vertex, req []string) bool { return vertexMatches(x, req) }
	matchBefore := func(x *graph.Vertex, req []string) bool {
		if x.ID != v.ID {
			return vertexMatches(x, req)
		}
		if added {
			// Before the event v lacked the label.
			return vertexMatches(x, req) && !containsLabel(req, label)
		}
		// Before the event v still carried the label.
		return vertexMatchesExcept(x, req, label)
	}
	var deltas []Delta
	for _, e := range n.incidentEdges(v) {
		for _, o := range n.orientations(e) {
			after := matchNow(o.a, n.aLabels) && matchNow(o.b, n.bLabels)
			before := matchBefore(o.a, n.aLabels) && matchBefore(o.b, n.bLabels)
			if after && !before {
				deltas = append(deltas, Delta{Row: n.rowFor(o, e), Mult: 1})
			} else if before && !after {
				deltas = append(deltas, Delta{Row: n.rowFor(o, e), Mult: -1})
			}
		}
	}
	n.emit(deltas)
}

// VertexLabelAdded implements GraphSink.
func (n *EdgeInput) VertexLabelAdded(v *graph.Vertex, label string) {
	n.labelDelta(v, label, true)
}

// VertexLabelRemoved implements GraphSink.
func (n *EdgeInput) VertexLabelRemoved(v *graph.Vertex, label string) {
	n.labelDelta(v, label, false)
}

// VertexPropertyChanged implements GraphSink: rows containing v on a side
// whose pushed properties include the key are re-emitted with the new
// value.
func (n *EdgeInput) VertexPropertyChanged(v *graph.Vertex, key string, old value.Value) {
	inA := containsLabel(n.aProps, key)
	inB := containsLabel(n.bProps, key)
	if !inA && !inB {
		return
	}
	var deltas []Delta
	for _, e := range n.incidentEdges(v) {
		for _, o := range n.orientations(e) {
			if !vertexMatches(o.a, n.aLabels) || !vertexMatches(o.b, n.bLabels) {
				continue
			}
			touched := (o.a.ID == v.ID && inA) || (o.b.ID == v.ID && inB)
			if !touched {
				continue
			}
			newRow := n.rowFor(o, e)
			oldRow := value.CloneRow(newRow)
			base := 3
			if o.a.ID == v.ID {
				for i, k := range n.aProps {
					if k == key {
						oldRow[base+i] = old
					}
				}
			}
			if o.b.ID == v.ID {
				for i, k := range n.bProps {
					if k == key {
						oldRow[base+len(n.aProps)+len(n.eProps)+i] = old
					}
				}
			}
			deltas = append(deltas, Delta{Row: oldRow, Mult: -1}, Delta{Row: newRow, Mult: 1})
		}
	}
	n.emit(deltas)
}

// EdgePropertyChanged implements GraphSink.
func (n *EdgeInput) EdgePropertyChanged(e *graph.Edge, key string, old value.Value) {
	if !typeMatches(n.types, e.Type) || !containsLabel(n.eProps, key) {
		return
	}
	var deltas []Delta
	for _, o := range n.orientations(e) {
		if !vertexMatches(o.a, n.aLabels) || !vertexMatches(o.b, n.bLabels) {
			continue
		}
		newRow := n.rowFor(o, e)
		oldRow := value.CloneRow(newRow)
		for i, k := range n.eProps {
			if k == key {
				oldRow[3+len(n.aProps)+i] = old
			}
		}
		deltas = append(deltas, Delta{Row: oldRow, Mult: -1}, Delta{Row: newRow, Mult: 1})
	}
	n.emit(deltas)
}

// UnitInput produces a single empty row (the input of UNWIND-led queries).
type UnitInput struct {
	emitter
	nopSink
}

// Seed emits the unit row into one successor edge.
func (n *UnitInput) Seed(target succ) {
	target.node.Apply(target.port, []Delta{{Row: value.Row{}, Mult: 1}})
}

// --- batched changeset consumption ---
//
// The TranslateChangeSet implementations below are the native batch path:
// one coalesced ChangeSet per commit yields one delta batch per input
// node. Pre-transaction state is read from the per-element deltas, so
// combined transitions (a label flip plus a property write on the same
// vertex, an edge removal whose endpoint vanished in the same
// transaction) produce exact retract/assert pairs — something the
// per-event replay cannot reconstruct once operations are coalesced.

// labelsMatchBefore checks the label requirements against a vertex's
// pre-transaction label set.
func labelsMatchBefore(d *graph.VertexDelta, labels []string) bool {
	for _, l := range labels {
		if !d.HadLabel(l) {
			return false
		}
	}
	return true
}

// beforeRowFor builds the pre-transaction row of a changed vertex.
func (n *VertexInput) beforeRowFor(d *graph.VertexDelta) value.Row {
	row := make(value.Row, 0, 1+len(n.props))
	row = append(row, value.NewVertex(d.V.ID))
	for _, k := range n.props {
		row = append(row, d.BeforeProp(k))
	}
	return row
}

// TranslateChangeSet implements Translator: every touched vertex
// contributes a retraction of its pre-transaction row (if it matched)
// and an assertion of its post-transaction row (if it matches). The
// result lives in the node's reusable buffer — valid until the next
// commit.
func (n *VertexInput) TranslateChangeSet(cs *graph.ChangeSet) []Delta {
	deltas := n.outBuf()
	for _, d := range cs.Vertices() {
		beforeMatch := d.ExistedBefore() && labelsMatchBefore(d, n.labels)
		afterMatch := d.ExistsAfter() && vertexMatches(d.V, n.labels)
		if !beforeMatch && !afterMatch {
			continue
		}
		var beforeRow, afterRow value.Row
		if beforeMatch {
			beforeRow = n.beforeRowFor(d)
		}
		if afterMatch {
			afterRow = n.rowFor(d.V)
		}
		if beforeMatch && afterMatch && value.EqualRows(beforeRow, afterRow) {
			continue
		}
		if beforeMatch {
			deltas = append(deltas, Delta{Row: beforeRow, Mult: -1})
		}
		if afterMatch {
			deltas = append(deltas, Delta{Row: afterRow, Mult: 1})
		}
	}
	n.buf = deltas
	return deltas
}

// resolveVertex finds an endpoint vertex object, preferring the
// changeset delta (whose object stays readable even after removal) over
// the store.
func (n *EdgeInput) resolveVertex(cs *graph.ChangeSet, id graph.ID) (*graph.Vertex, *graph.VertexDelta) {
	if vd := cs.VertexDelta(id); vd != nil {
		return vd.V, vd
	}
	if v, ok := n.g.VertexByID(id); ok {
		return v, nil
	}
	return nil, nil
}

func endpointHadLabels(v *graph.Vertex, vd *graph.VertexDelta, labels []string) bool {
	if vd != nil {
		return vd.ExistedBefore() && labelsMatchBefore(vd, labels)
	}
	return vertexMatches(v, labels)
}

func endpointBeforeProp(v *graph.Vertex, vd *graph.VertexDelta, key string) value.Value {
	if vd != nil {
		return vd.BeforeProp(key)
	}
	return v.Prop(key)
}

// vertexRelevant reports whether a vertex transition can change this
// input's rows. Created and removed vertices are irrelevant here: their
// incident edges are created/removed in the same transaction and appear
// as edge deltas of their own.
func (n *EdgeInput) vertexRelevant(vd *graph.VertexDelta) bool {
	if vd.Created() || vd.Removed() {
		return false
	}
	if vd.LabelsChanged() {
		for _, l := range n.aLabels {
			if vd.HadLabel(l) != vd.V.HasLabel(l) {
				return true
			}
		}
		for _, l := range n.bLabels {
			if vd.HadLabel(l) != vd.V.HasLabel(l) {
				return true
			}
		}
	}
	for _, k := range vd.ChangedProps() {
		if containsLabel(n.aProps, k) || containsLabel(n.bProps, k) {
			return true
		}
	}
	return false
}

// beforeRows builds the pre-transaction rows of an edge (nil if the edge
// was created in the transaction, or its pre-state did not match).
func (n *EdgeInput) beforeRows(cs *graph.ChangeSet, e *graph.Edge, d *graph.EdgeDelta) []value.Row {
	if d != nil && d.Created() {
		return nil
	}
	src, sd := n.resolveVertex(cs, e.Src)
	trg, td := n.resolveVertex(cs, e.Trg)
	if src == nil || trg == nil {
		return nil
	}
	type orient struct {
		a, b   *graph.Vertex
		ad, bd *graph.VertexDelta
	}
	orients := []orient{{src, trg, sd, td}}
	if n.undirected && e.Src != e.Trg {
		orients = append(orients, orient{trg, src, td, sd})
	}
	var rows []value.Row
	for _, o := range orients {
		if !endpointHadLabels(o.a, o.ad, n.aLabels) || !endpointHadLabels(o.b, o.bd, n.bLabels) {
			continue
		}
		row := make(value.Row, 0, 3+len(n.aProps)+len(n.eProps)+len(n.bProps))
		row = append(row, value.NewVertex(o.a.ID), value.NewEdge(e.ID), value.NewVertex(o.b.ID))
		for _, k := range n.aProps {
			row = append(row, endpointBeforeProp(o.a, o.ad, k))
		}
		for _, k := range n.eProps {
			if d != nil {
				row = append(row, d.BeforeProp(k))
			} else {
				row = append(row, e.Prop(k))
			}
		}
		for _, k := range n.bProps {
			row = append(row, endpointBeforeProp(o.b, o.bd, k))
		}
		rows = append(rows, row)
	}
	return rows
}

// afterRows builds the post-transaction rows of an edge (nil if removed
// or not matching).
func (n *EdgeInput) afterRows(e *graph.Edge, d *graph.EdgeDelta) []value.Row {
	if d != nil && d.Removed() {
		return nil
	}
	var rows []value.Row
	for _, o := range n.orientations(e) {
		if vertexMatches(o.a, n.aLabels) && vertexMatches(o.b, n.bLabels) {
			rows = append(rows, n.rowFor(o, e))
		}
	}
	return rows
}

// edgeCand is one affected-edge candidate during changeset translation.
type edgeCand struct {
	e *graph.Edge
	d *graph.EdgeDelta
}

// TranslateChangeSet implements Translator. The affected edge set is the
// union of the changeset's edge deltas and the current incident edges of
// every relevantly-changed vertex (edges removed alongside a changed
// vertex are already edge deltas, so the union is complete). Each
// affected edge contributes its pre-row retractions and post-row
// assertions; identical pairs cancel. The result and the candidate
// bookkeeping live in node-owned scratch reused across commits — valid
// until the next commit.
func (n *EdgeInput) TranslateChangeSet(cs *graph.ChangeSet) []Delta {
	if n.cands == nil {
		n.cands = make(map[graph.ID]edgeCand)
	}
	clear(n.cands)
	order := n.candIDs[:0]
	add := func(e *graph.Edge, d *graph.EdgeDelta) {
		if !typeMatches(n.types, e.Type) {
			return
		}
		if _, ok := n.cands[e.ID]; ok {
			return
		}
		n.cands[e.ID] = edgeCand{e: e, d: d}
		order = append(order, e.ID)
	}
	for _, d := range cs.Edges() {
		add(d.E, d)
	}
	for _, vd := range cs.Vertices() {
		if !n.vertexRelevant(vd) {
			continue
		}
		for _, e := range n.g.OutEdges(vd.V.ID, "") {
			add(e, cs.EdgeDelta(e.ID))
		}
		for _, e := range n.g.InEdges(vd.V.ID, "") {
			add(e, cs.EdgeDelta(e.ID))
		}
	}
	n.candIDs = order

	deltas := n.outBuf()
	for _, id := range order {
		c := n.cands[id]
		before := n.beforeRows(cs, c.e, c.d)
		after := n.afterRows(c.e, c.d)
		used := n.usedAfter[:0]
		for range after {
			used = append(used, false)
		}
		n.usedAfter = used
		for _, br := range before {
			matched := false
			for i, ar := range after {
				if !used[i] && value.EqualRows(br, ar) {
					used[i] = true
					matched = true
					break
				}
			}
			if !matched {
				deltas = append(deltas, Delta{Row: br, Mult: -1})
			}
		}
		for i, ar := range after {
			if !used[i] {
				deltas = append(deltas, Delta{Row: ar, Mult: 1})
			}
		}
	}
	n.buf = deltas
	return deltas
}

// TranslateChangeSet implements Translator: the unit relation never
// changes, so the batch is always empty.
func (n *UnitInput) TranslateChangeSet(*graph.ChangeSet) []Delta { return nil }

var (
	_ Translator = (*VertexInput)(nil)
	_ Translator = (*EdgeInput)(nil)
	_ Translator = (*UnitInput)(nil)
)
