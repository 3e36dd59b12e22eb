package snapshot

import (
	"fmt"
	"math"
	"sort"

	"pgiv/internal/cypher"
	"pgiv/internal/expr"
	"pgiv/internal/gra"
	"pgiv/internal/graph"
	"pgiv/internal/nra"
	"pgiv/internal/schema"
	"pgiv/internal/value"
)

// EdgePredVal is a resolved interior-edge predicate: a traversed edge e is
// usable only if e.Key equals Val. A null property (or a null predicate
// value) never matches, per Cypher's null-rejecting comparison semantics.
type EdgePredVal struct {
	Key string
	Val value.Value
}

// ShortestPathSpec describes one shortest-path traversal. It is shared
// between the snapshot evaluator and the Rete shortest-path node (package
// rete) so the two produce byte-identical fragments.
type ShortestPathSpec struct {
	Types      []string
	Dir        cypher.Direction
	Min, Max   int // hops; Max == -1 means unbounded
	DstLabels  []string
	WeightProp string // "" = unweighted (hop-count cost)
	EdgePreds  []EdgePredVal
}

// ResolveEdgePreds evaluates the constant predicate expressions of a
// ShortestPath operator once, at plan-build time.
func ResolveEdgePreds(preds []gra.EdgePred, params map[string]value.Value) ([]EdgePredVal, error) {
	if len(preds) == 0 {
		return nil, nil
	}
	out := make([]EdgePredVal, 0, len(preds))
	for _, p := range preds {
		fn, err := expr.Compile(p.Expr, schema.Schema{}, params)
		if err != nil {
			return nil, err
		}
		out = append(out, EdgePredVal{Key: p.Key, Val: fn(&expr.Env{Row: value.Row{}})})
	}
	return out, nil
}

// EdgeUsable reports whether a traversal under this spec may cross e, and
// the edge's cost contribution if so. Unusable edges are those failing an
// EdgePred, or — when the spec is weighted — those whose weight property
// is missing, non-numeric, NaN or negative (our dialect excludes such
// edges rather than poisoning the path sum). Unweighted traversals charge
// every usable edge 1, so the cost sum is the hop count.
func (s *ShortestPathSpec) EdgeUsable(e *graph.Edge) (float64, bool) {
	for _, p := range s.EdgePreds {
		pv := e.Prop(p.Key)
		if pv.Kind() == value.KindNull || !value.Equal(pv, p.Val) {
			return 0, false
		}
	}
	if s.WeightProp == "" {
		return 1, true
	}
	wv := e.Prop(s.WeightProp)
	if !wv.IsNumeric() {
		return 0, false
	}
	w := wv.AsFloat()
	if math.IsNaN(w) || w < 0 {
		return 0, false
	}
	return w, true
}

// CostValue renders a path cost as the operator's output value: the float
// weight sum when weighted, the integer hop count otherwise.
func (s *ShortestPathSpec) CostValue(sum float64, hops int) value.Value {
	if s.WeightProp == "" {
		return value.NewInt(int64(hops))
	}
	return value.NewFloat(sum)
}

// spBest tracks the per-destination champion during enumeration. The
// canonical key — the final tie-break — is computed lazily: most
// candidates lose on (cost, hops) alone, and rendering a path key per
// DFS step would dominate the enumeration.
type spBest struct {
	cost float64
	hops int
	key  string // canonical key of the path value; "" = not yet rendered
	path *value.Path
	dst  *graph.Vertex
}

// ShortestPathEnum finds, for every vertex reachable from src over an
// edge-distinct trail of spec.Min..spec.Max usable edges that ends at a
// vertex carrying spec.DstLabels, the cheapest such trail — ties broken by
// hop count, then by the path's canonical key — and invokes emit once per
// destination in ascending destination-ID order. With spec.Min == 0 a
// matching source emits the zero-length path at cost 0. The enumeration
// is an exhaustive trail DFS (not Dijkstra) because the hop window
// [Min, Max] makes prefix-optimality fail: the cheapest trail to an
// intermediate vertex may be unable to reach the window. The DFS walks a
// single mutable vertex/edge buffer and copies it into an immutable Path
// only when a candidate actually takes (or founds) a championship.
func ShortestPathEnum(g graph.Reader, src graph.ID, spec *ShortestPathSpec, emit func(p *value.Path, dst *graph.Vertex, cost value.Value)) {
	srcV, ok := g.VertexByID(src)
	if !ok {
		return
	}
	vbuf := []int64{int64(src)}
	var ebuf []int64
	snapPath := func() *value.Path {
		return &value.Path{
			Vertices: append([]int64(nil), vbuf...),
			Edges:    append([]int64(nil), ebuf...),
		}
	}
	best := make(map[graph.ID]*spBest)
	consider := func(dst *graph.Vertex, cost float64) {
		hops := len(ebuf)
		b := best[dst.ID]
		if b == nil {
			best[dst.ID] = &spBest{cost: cost, hops: hops, path: snapPath(), dst: dst}
			return
		}
		if cost > b.cost || (cost == b.cost && hops > b.hops) {
			return
		}
		if cost < b.cost || hops < b.hops {
			b.cost, b.hops, b.path, b.key = cost, hops, snapPath(), ""
			return
		}
		// Exact (cost, hops) tie: fall back to the canonical key. The
		// candidate's key renders through a transient Path header over the
		// live buffers — no copy unless it wins.
		ck := value.Key(value.NewPath(&value.Path{Vertices: vbuf, Edges: ebuf}))
		if b.key == "" {
			b.key = value.Key(value.NewPath(b.path))
		}
		if ck < b.key {
			b.path, b.key = snapPath(), ck
		}
	}
	if spec.Min == 0 && vertexMatches(srcV, spec.DstLabels) {
		consider(srcV, 0)
	}
	used := make(map[graph.ID]bool)
	var dfs func(cur graph.ID, sum float64)
	dfs = func(cur graph.ID, sum float64) {
		if spec.Max != -1 && len(ebuf) >= spec.Max {
			return
		}
		forEachExpansionStep(g, cur, spec.Types, spec.Dir, func(edge, nextID graph.ID) {
			if used[edge] {
				return
			}
			e, ok := g.EdgeByID(edge)
			if !ok {
				return
			}
			w, usable := spec.EdgeUsable(e)
			if !usable {
				return
			}
			next, ok := g.VertexByID(nextID)
			if !ok {
				return
			}
			ebuf = append(ebuf, int64(edge))
			vbuf = append(vbuf, int64(nextID))
			ns := sum + w
			if len(ebuf) >= spec.Min && vertexMatches(next, spec.DstLabels) {
				consider(next, ns)
			}
			used[edge] = true
			dfs(nextID, ns)
			used[edge] = false
			ebuf = ebuf[:len(ebuf)-1]
			vbuf = vbuf[:len(vbuf)-1]
		})
	}
	dfs(src, 0)
	ids := make([]graph.ID, 0, len(best))
	for id := range best {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		b := best[id]
		emit(b.path, b.dst, spec.CostValue(b.cost, b.hops))
	}
}

func (ev *evaluator) evalShortestPath(o *nra.ShortestPath, a access) ([]value.Row, error) {
	in, err := ev.evalInput(o.Input, a)
	if err != nil {
		return nil, err
	}
	srcIdx := o.Input.Schema().Index(o.SrcAttr)
	if srcIdx < 0 {
		return nil, fmt.Errorf("snapshot: shortest path source %q not in input schema", o.SrcAttr)
	}
	preds, err := ResolveEdgePreds(o.EdgePreds, ev.params)
	if err != nil {
		return nil, err
	}
	spec := &ShortestPathSpec{
		Types: o.Types, Dir: o.Dir, Min: o.Min, Max: o.Max,
		DstLabels: o.DstLabels, WeightProp: o.WeightProp, EdgePreds: preds,
	}
	var rows []value.Row
	for _, row := range in {
		srcVal := row[srcIdx]
		if srcVal.Kind() != value.KindVertex {
			continue
		}
		ShortestPathEnum(ev.g, srcVal.ID(), spec, func(p *value.Path, dst *graph.Vertex, cost value.Value) {
			out := make(value.Row, 0, len(row)+3+len(o.DstProps))
			out = append(out, row...)
			out = append(out, value.NewVertex(dst.ID))
			if o.PathAttr != "" {
				out = append(out, value.NewPath(p))
			}
			if o.CostAttr != "" {
				out = append(out, cost)
			}
			for _, ps := range o.DstProps {
				out = append(out, dst.Prop(ps.Key))
			}
			rows = append(rows, out)
		})
	}
	return rows, nil
}
