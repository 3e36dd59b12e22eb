package rete

import (
	"pgiv/internal/graph"
	"pgiv/internal/value"
)

// Receiver consumes delta batches on a numbered input port (0 for unary
// nodes and the left input of joins, 1 for the right input).
type Receiver interface {
	Apply(port int, deltas []Delta)
}

// succ is a successor edge in the network.
type succ struct {
	node Receiver
	port int
}

// emitter is embedded by every node that forwards deltas. It owns a
// reusable output buffer: nodes build each Apply call's batch in
// outBuf() and hand it to emitOwned(), which forwards it and keeps the
// grown capacity for the next call instead of re-making the slice.
// Reuse is sound because delivery is synchronous and receivers never
// retain the batch slice (rows are retained, the []Delta is not), and
// the network is acyclic so a node's Apply is never re-entered while
// its own emit is on the stack.
type emitter struct {
	succs []succ
	buf   []Delta
}

// outBuf returns the node's scratch output batch, reset to length zero.
func (e *emitter) outBuf() []Delta { return e.buf[:0] }

// emitOwned forwards out to all successors and adopts it (including any
// growth) as the scratch buffer for the next outBuf call.
func (e *emitter) emitOwned(out []Delta) {
	e.buf = out
	e.emit(out)
}

// addSucc connects a successor; returns the edge for targeted seeding.
func (e *emitter) addSucc(node Receiver, port int) succ {
	s := succ{node: node, port: port}
	e.succs = append(e.succs, s)
	return s
}

// removeSucc disconnects a successor (used when a view is dropped).
func (e *emitter) removeSucc(node Receiver, port int) {
	for i, s := range e.succs {
		if s.node == node && s.port == port {
			e.succs = append(e.succs[:i], e.succs[i+1:]...)
			return
		}
	}
}

func (e *emitter) hasSuccs() bool { return len(e.succs) > 0 }

// emit forwards a delta batch to all successors.
func (e *emitter) emit(deltas []Delta) {
	if len(deltas) == 0 {
		return
	}
	for _, s := range e.succs {
		s.node.Apply(s.port, deltas)
	}
}

// ChangeSink is implemented by the path nodes (TransitiveNode,
// ShortestPathNode), which consume the committed change set directly
// instead of through an input edge: their memoized paths read the graph,
// so their cost does not show in any input delta batch. The engine hands
// each sink exactly one coalesced ChangeSet per commit, after the node's
// input edges have delivered their batches. ApplyChangeSet runs after
// the whole transaction has been applied to the store; pre-state is read
// from the per-element deltas, post-state from the live objects.
type ChangeSink interface {
	ApplyChangeSet(cs *graph.ChangeSet)
}

// Translator is implemented by the shared input nodes (get-vertices,
// get-edges, unit): TranslateChangeSet computes the node's delta batch
// for a committed change set without emitting it. The engine translates
// each input exactly once per commit and delivers the same (read-only)
// batch into every attached input edge, possibly from different
// goroutines.
//
// The returned slice is owned by the node and valid until its next
// TranslateChangeSet call — i.e. until the next commit, since the store
// serialises transactions. Callers must not retain or modify it across
// commits.
type Translator interface {
	TranslateChangeSet(cs *graph.ChangeSet) []Delta
}

// GraphSink is the legacy per-event sink interface, kept so node
// internals can migrate gradually: the transitive-join node still routes
// single-change commits through its fine-grained handlers, and
// AsChangeSink lifts any GraphSink into a ChangeSink. All methods are
// invoked after the store has applied the change; property callbacks
// carry the previous value.
type GraphSink interface {
	VertexAdded(v *graph.Vertex)
	VertexRemoved(v *graph.Vertex)
	EdgeAdded(e *graph.Edge)
	EdgeRemoved(e *graph.Edge)
	VertexLabelAdded(v *graph.Vertex, label string)
	VertexLabelRemoved(v *graph.Vertex, label string)
	VertexPropertyChanged(v *graph.Vertex, key string, old value.Value)
	EdgePropertyChanged(e *graph.Edge, key string, old value.Value)
}

// nopSink provides no-op defaults for GraphSink implementers.
type nopSink struct{}

func (nopSink) VertexAdded(*graph.Vertex)                                    {}
func (nopSink) VertexRemoved(*graph.Vertex)                                  {}
func (nopSink) EdgeAdded(*graph.Edge)                                        {}
func (nopSink) EdgeRemoved(*graph.Edge)                                      {}
func (nopSink) VertexLabelAdded(*graph.Vertex, string)                       {}
func (nopSink) VertexLabelRemoved(*graph.Vertex, string)                     {}
func (nopSink) VertexPropertyChanged(*graph.Vertex, string, value.Value)     {}
func (nopSink) EdgePropertyChanged(e *graph.Edge, key string, o value.Value) {}

// AsChangeSink adapts a per-event GraphSink to the ChangeSet interface
// via graph.AdaptEvents — a migration aid for sink implementations that
// have not learned batches yet. The replay presents net per-element
// transitions one event at a time, so a sink that reconstructs pre-state
// from the live object (as the input nodes do) sees exact deltas only
// when each element changed in a single way; the native ApplyChangeSet
// implementations below handle arbitrary combined transitions and should
// be preferred.
func AsChangeSink(s GraphSink) ChangeSink {
	return adaptedSink{graph.AdaptEvents(s)}
}

type adaptedSink struct{ l graph.Listener }

func (a adaptedSink) ApplyChangeSet(cs *graph.ChangeSet) { a.l.Apply(cs) }

func vertexMatches(v *graph.Vertex, labels []string) bool {
	for _, l := range labels {
		if !v.HasLabel(l) {
			return false
		}
	}
	return true
}

func typeMatches(types []string, t string) bool {
	if len(types) == 0 {
		return true
	}
	for _, x := range types {
		if x == t {
			return true
		}
	}
	return false
}
