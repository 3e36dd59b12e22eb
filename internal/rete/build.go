package rete

import (
	"fmt"

	"pgiv/internal/expr"
	"pgiv/internal/fra"
	"pgiv/internal/graph"
	"pgiv/internal/nra"
	"pgiv/internal/schema"
	"pgiv/internal/snapshot"
	"pgiv/internal/value"
)

// seeder replays current rows into one successor edge: input nodes scan
// the graph (they are stateless), stateful nodes replay their memoized
// state, transform nodes relay their upstream seeder through the
// transformation (see seed.go).
type seeder interface{ Seed(target succ) }

// producer is any node that can feed successors.
type producer interface {
	addSucc(node Receiver, port int) succ
	removeSucc(node Receiver, port int)
}

// memoryCounter is implemented by stateful nodes.
type memoryCounter interface{ memoryEntries() int }

// Network is one view's handle onto the shared Rete network: the
// production entry it materialises through, plus the bookkeeping needed
// to seed the nodes this registration created. With subplan sharing, the
// "network of a view" is a set of references into the registry's shared
// DAG — possibly with no private node at all when another view already
// registered the identical plan.
type Network struct {
	Prod *Production
	root *SubplanEntry // the production's registry entry

	// seeds are the boundary edges of this registration: every edge where
	// a node created by this build attaches below a pre-populated shared
	// entry (memory replay) or an input node (graph scan). Edges between
	// two newly created nodes need no seeding — deltas reach them by
	// propagation from the boundary.
	seeds []seedEdge

	newAggs  []*AggregateNode    // created by this build; EmitInitial before seeding
	newTrans []*TransitiveNode   // created by this build; clearFresh after seeding
	newSPs   []*ShortestPathNode // created by this build; clearFresh after seeding

	counters []memoryCounter // distinct stateful nodes this view depends on
}

// Seed populates the nodes created by this registration: global
// aggregates emit their initial row, then every boundary edge replays —
// shared stateful ancestors from memory, inputs from the graph. Order
// among boundary edges is irrelevant: the counting semantics make the
// final memories independent of delivery order. Seeding happens outside
// any commit, so the freshness window of newly created transitive nodes
// is closed explicitly afterwards.
func (nw *Network) Seed() {
	for _, a := range nw.newAggs {
		a.EmitInitial()
	}
	for _, s := range nw.seeds {
		s.seed.Seed(s.edge)
	}
	for _, t := range nw.newTrans {
		t.clearFresh()
	}
	for _, s := range nw.newSPs {
		s.clearFresh()
	}
}

// Release drops this view's reference on the production entry; the
// registry unwinds whatever suffix of the chain no other view holds.
// The caller must also unsubscribe its production callback.
func (nw *Network) Release(reg *SubplanRegistry) { reg.release(nw.root) }

// MemoryEntries sums the distinct memoized rows of all stateful nodes
// this view depends on (for the memory-cost experiment). A node shared
// with other views is counted once here and once in each of their
// figures; SubplanRegistry.MemoryEntries reports the deduplicated
// engine-level total.
func (nw *Network) MemoryEntries() int {
	total := 0
	for _, c := range nw.counters {
		total += c.memoryEntries()
	}
	return total
}

type builder struct {
	g       *graph.Graph
	reg     *SubplanRegistry
	params  map[string]value.Value
	fper    *fra.Fingerprinter // memoizes subtree fingerprints for this plan
	nw      *Network
	created map[*SubplanEntry]bool // entries created by this build call
}

// Build compiles an FRA plan into the shared Rete network: every subtree
// is fingerprinted and resolved through the registry, so subtrees another
// live view already compiled — including the terminal production when the
// whole plan matches — are attached to rather than rebuilt. The plan must
// lie in the incrementally maintainable fragment (the ivm package checks
// this before calling Build).
func Build(plan *fra.Plan, g *graph.Graph, reg *SubplanRegistry, params map[string]value.Value) (*Network, error) {
	b := &builder{
		g: g, reg: reg, params: params,
		fper: fra.NewFingerprinter(params),
		nw:   &Network{}, created: make(map[*SubplanEntry]bool),
	}
	planFP := b.fper.Fingerprint(plan.Root)
	prodFP := "prod[" + planFP + "]"
	if e := reg.lookup(prodFP); e != nil {
		// Another live view materialises the identical plan: share its
		// production outright. Nothing to build, nothing to seed.
		e.refs++
		b.nw.root = e
		b.nw.Prod = e.production
		b.collectCounters(e)
		return b.nw, nil
	}
	root, err := b.build(plan.Root)
	if err != nil {
		// Every failing path below releases the references it took, so a
		// failed registration leaves the registry unchanged.
		return nil, err
	}
	prod := NewProduction()
	entry := b.newEntry(prodFP, &SubplanEntry{
		counter: prod, production: prod,
		prodPlan: plan.Root, prodParams: params, prodFP: planFP,
	})
	b.link(entry, prod, 0, root)
	b.nw.root = entry
	b.nw.Prod = prod
	b.collectCounters(entry)
	return b.nw, nil
}

// newEntry registers a freshly built entry and marks it as created by
// this build.
func (b *builder) newEntry(fp string, e *SubplanEntry) *SubplanEntry {
	b.reg.register(fp, e)
	b.created[e] = true
	return e
}

// link connects child's node into node's port, records the use on
// parent, and — when the child is pre-populated (reused) or an input —
// schedules the new edge for seeding.
func (b *builder) link(parent *SubplanEntry, node Receiver, port int, child *SubplanEntry) {
	edge := child.p.addSucc(node, port)
	parent.children = append(parent.children, childLink{child: child, edge: edge})
	if !b.created[child] || child.trans != nil {
		b.nw.seeds = append(b.nw.seeds, seedEdge{seed: child.seed, edge: edge})
	}
}

// collectCounters walks the view's entry closure and records each
// distinct stateful node once.
func (b *builder) collectCounters(root *SubplanEntry) {
	seen := make(map[*SubplanEntry]bool)
	var walk func(e *SubplanEntry)
	walk = func(e *SubplanEntry) {
		if seen[e] {
			return
		}
		seen[e] = true
		if e.counter != nil {
			b.nw.counters = append(b.nw.counters, e.counter)
		}
		for _, cl := range e.children {
			walk(cl.child)
		}
	}
	walk(root)
}

func propKeys(ps []nra.PropSpec) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Key
	}
	return out
}

// entryKey returns the registry key of op's node. Input (alpha) nodes
// are variable-independent — their rows carry positions, not names — so
// they are keyed by labels/types/pushed property keys only
// (fra.InputKey) and shared across views that merely rename pattern
// variables (the PR 2 alpha sharing). Every other node keeps the full
// structural fingerprint: variable names flow into parent fingerprints,
// where they genuinely determine schemas and join-key positions.
func (b *builder) entryKey(op nra.Op) string {
	if k, ok := fra.InputKey(op); ok {
		return k
	}
	return b.fper.Fingerprint(op)
}

// build resolves op through the registry: a key hit returns the live
// shared entry (one new reference), a miss builds the node, links its
// children and registers it.
func (b *builder) build(op nra.Op) (*SubplanEntry, error) {
	fp := b.entryKey(op)
	if e := b.reg.lookup(fp); e != nil {
		e.refs++
		return e, nil
	}

	switch o := op.(type) {
	case *nra.Unit:
		n := &UnitInput{}
		return b.newEntry(fp, &SubplanEntry{p: n, seed: n, trans: n}), nil

	case *nra.GetVertices:
		n := NewVertexInput(b.g, o.Labels, propKeys(o.Props))
		return b.newEntry(fp, &SubplanEntry{p: n, seed: n, trans: n}), nil

	case *nra.GetEdges:
		n := NewEdgeInput(b.g, o.Types, o.ALabels, o.BLabels, o.Undirected,
			propKeys(o.AProps), propKeys(o.EProps), propKeys(o.BProps))
		return b.newEntry(fp, &SubplanEntry{p: n, seed: n, trans: n}), nil

	case *nra.TransitiveJoin:
		in, err := b.build(o.Input)
		if err != nil {
			return nil, err
		}
		srcIdx := o.Input.Schema().Index(o.SrcAttr)
		if srcIdx < 0 {
			b.reg.release(in)
			return nil, fmt.Errorf("rete: transitive join source %q not in input schema", o.SrcAttr)
		}
		if o.PathAttr == "" {
			b.reg.release(in)
			return nil, fmt.Errorf("rete: transitive join without path attribute")
		}
		n := NewTransitiveNode(b.g, srcIdx, o.Types, o.Dir, o.Min, o.Max, o.DstLabels, propKeys(o.DstProps))
		e := b.newEntry(fp, &SubplanEntry{p: n, seed: n, sink: n, counter: n})
		b.link(e, n, 0, in)
		b.nw.newTrans = append(b.nw.newTrans, n)
		return e, nil

	case *nra.ShortestPath:
		in, err := b.build(o.Input)
		if err != nil {
			return nil, err
		}
		srcIdx := o.Input.Schema().Index(o.SrcAttr)
		if srcIdx < 0 {
			b.reg.release(in)
			return nil, fmt.Errorf("rete: shortest path source %q not in input schema", o.SrcAttr)
		}
		if o.PathAttr == "" || o.CostAttr == "" {
			b.reg.release(in)
			return nil, fmt.Errorf("rete: shortest path without path/cost attribute")
		}
		preds, err := snapshot.ResolveEdgePreds(o.EdgePreds, b.params)
		if err != nil {
			b.reg.release(in)
			return nil, err
		}
		spec := &snapshot.ShortestPathSpec{
			Types: o.Types, Dir: o.Dir, Min: o.Min, Max: o.Max,
			DstLabels: o.DstLabels, WeightProp: o.WeightProp, EdgePreds: preds,
		}
		n := NewShortestPathNode(b.g, srcIdx, spec, propKeys(o.DstProps))
		e := b.newEntry(fp, &SubplanEntry{p: n, seed: n, sink: n, counter: n})
		b.link(e, n, 0, in)
		b.nw.newSPs = append(b.nw.newSPs, n)
		return e, nil

	case *nra.Join:
		l, err := b.build(o.L)
		if err != nil {
			return nil, err
		}
		r, err := b.build(o.R)
		if err != nil {
			b.reg.release(l)
			return nil, err
		}
		lKey, rKey, rKeep := schema.JoinKeys(o.L.Schema(), o.R.Schema())
		n := NewJoinNode(lKey, rKey, rKeep)
		e := b.newEntry(fp, &SubplanEntry{p: n, seed: n, counter: n})
		b.link(e, n, 0, l)
		b.link(e, n, 1, r)
		return e, nil

	case *nra.LeftOuterJoin:
		l, err := b.build(o.L)
		if err != nil {
			return nil, err
		}
		r, err := b.build(o.R)
		if err != nil {
			b.reg.release(l)
			return nil, err
		}
		lKey, rKey, rKeep := schema.JoinKeys(o.L.Schema(), o.R.Schema())
		n := NewOuterJoinNode(lKey, rKey, rKeep)
		e := b.newEntry(fp, &SubplanEntry{p: n, seed: n, counter: n})
		b.link(e, n, 0, l)
		b.link(e, n, 1, r)
		return e, nil

	case *nra.SemiJoin:
		return b.buildExists(fp, o.L, o.R, false)
	case *nra.AntiJoin:
		return b.buildExists(fp, o.L, o.R, true)

	case *nra.Select:
		in, err := b.build(o.Input)
		if err != nil {
			return nil, err
		}
		fn, err := expr.Compile(o.Cond, o.Input.Schema(), b.params)
		if err != nil {
			b.reg.release(in)
			return nil, err
		}
		env := &expr.Env{G: b.g}
		return b.transform(fp, in, func(row value.Row, emit func(value.Row)) {
			env.Row = row
			if ok, known := expr.Truth(fn(env)); known && ok {
				emit(row)
			}
		}), nil

	case *nra.Project:
		in, err := b.build(o.Input)
		if err != nil {
			return nil, err
		}
		fns := make([]expr.Fn, len(o.Items))
		for i, it := range o.Items {
			fn, err := expr.Compile(it.Expr, o.Input.Schema(), b.params)
			if err != nil {
				b.reg.release(in)
				return nil, err
			}
			fns[i] = fn
		}
		env := &expr.Env{G: b.g}
		return b.transform(fp, in, func(row value.Row, emit func(value.Row)) {
			env.Row = row
			out := make(value.Row, len(fns))
			for i, fn := range fns {
				out[i] = fn(env)
			}
			emit(out)
		}), nil

	case *nra.Dedup:
		in, err := b.build(o.Input)
		if err != nil {
			return nil, err
		}
		n := NewDedupNode()
		e := b.newEntry(fp, &SubplanEntry{p: n, seed: n, counter: n})
		b.link(e, n, 0, in)
		return e, nil

	case *nra.AllDifferent:
		in, err := b.build(o.Input)
		if err != nil {
			return nil, err
		}
		s := o.Input.Schema()
		var edgeIdx, pathIdx []int
		for _, a := range o.EdgeAttrs {
			i := s.Index(a)
			if i < 0 {
				b.reg.release(in)
				return nil, fmt.Errorf("rete: all-different attribute %q missing", a)
			}
			edgeIdx = append(edgeIdx, i)
		}
		for _, a := range o.PathAttrs {
			i := s.Index(a)
			if i < 0 {
				b.reg.release(in)
				return nil, fmt.Errorf("rete: all-different attribute %q missing", a)
			}
			pathIdx = append(pathIdx, i)
		}
		return b.transform(fp, in, func(row value.Row, emit func(value.Row)) {
			if snapshot.EdgesDisjoint(row, edgeIdx, pathIdx) {
				emit(row)
			}
		}), nil

	case *nra.PathBuild:
		in, err := b.build(o.Input)
		if err != nil {
			return nil, err
		}
		items, err := snapshot.ResolvePathItems(o.Items, o.Input.Schema())
		if err != nil {
			b.reg.release(in)
			return nil, err
		}
		return b.transform(fp, in, func(row value.Row, emit func(value.Row)) {
			p, ok := snapshot.BuildPath(row, items)
			if !ok {
				return
			}
			out := make(value.Row, 0, len(row)+1)
			out = append(out, row...)
			out = append(out, value.NewPath(p))
			emit(out)
		}), nil

	case *nra.Aggregate:
		in, err := b.build(o.Input)
		if err != nil {
			return nil, err
		}
		groupFns := make([]expr.Fn, len(o.GroupBy))
		for i, it := range o.GroupBy {
			fn, err := expr.Compile(it.Expr, o.Input.Schema(), b.params)
			if err != nil {
				b.reg.release(in)
				return nil, err
			}
			groupFns[i] = fn
		}
		specs := make([]AggSpec, len(o.Aggs))
		for i, a := range o.Aggs {
			spec := AggSpec{Func: a.Func, Distinct: a.Distinct}
			if a.Arg != nil {
				fn, err := expr.Compile(a.Arg, o.Input.Schema(), b.params)
				if err != nil {
					b.reg.release(in)
					return nil, err
				}
				spec.ArgFn = fn
			}
			specs[i] = spec
		}
		n := NewAggregateNode(b.g, groupFns, specs)
		e := b.newEntry(fp, &SubplanEntry{p: n, seed: n, counter: n})
		b.link(e, n, 0, in)
		b.nw.newAggs = append(b.nw.newAggs, n)
		return e, nil

	case *nra.Unwind:
		in, err := b.build(o.Input)
		if err != nil {
			return nil, err
		}
		fn, err := expr.Compile(o.Expr, o.Input.Schema(), b.params)
		if err != nil {
			b.reg.release(in)
			return nil, err
		}
		env := &expr.Env{G: b.g}
		return b.transform(fp, in, func(row value.Row, emit func(value.Row)) {
			env.Row = row
			v := fn(env)
			switch v.Kind() {
			case value.KindNull:
			case value.KindList:
				for _, el := range v.List() {
					r := make(value.Row, 0, len(row)+1)
					r = append(r, row...)
					r = append(r, el)
					emit(r)
				}
			default:
				r := make(value.Row, 0, len(row)+1)
				r = append(r, row...)
				r = append(r, v)
				emit(r)
			}
		}), nil

	case *nra.Top:
		in, err := b.build(o.Input)
		if err != nil {
			return nil, err
		}
		keyFns := make([]expr.Fn, len(o.Items))
		desc := make([]bool, len(o.Items))
		for i, it := range o.Items {
			fn, err := expr.Compile(it.Expr, o.Input.Schema(), b.params)
			if err != nil {
				b.reg.release(in)
				return nil, err
			}
			keyFns[i] = fn
			desc[i] = it.Desc
		}
		skip, limit := 0, -1
		if o.Skip != nil {
			if skip, err = snapshot.EvalConstN(o.Skip, b.params, "rete: SKIP"); err != nil {
				b.reg.release(in)
				return nil, err
			}
		}
		if o.Limit != nil {
			if limit, err = snapshot.EvalConstN(o.Limit, b.params, "rete: LIMIT"); err != nil {
				b.reg.release(in)
				return nil, err
			}
		}
		if skip == 0 && limit < 0 {
			// Pure ORDER BY: the operator is the identity on the bag —
			// delivery order is applied at the view layer (ivm sorts
			// reads and OnChange batches by the Top comparator) — so an
			// identity transform keeps the registry mapping uniform
			// without duplicating the relation in a stateful node.
			return b.transform(fp, in, func(row value.Row, emit func(value.Row)) {
				emit(row)
			}), nil
		}
		n := NewTopKNode(b.g, keyFns, desc, skip, limit)
		e := b.newEntry(fp, &SubplanEntry{p: n, seed: n, counter: n})
		b.link(e, n, 0, in)
		return e, nil
	}
	return nil, fmt.Errorf("rete: unsupported operator %T", op)
}

// transform registers a stateless transform node over in; the node's
// replay seeding pulls in's seeder through the transformation.
func (b *builder) transform(fp string, in *SubplanEntry, fn func(value.Row, func(value.Row))) *SubplanEntry {
	n := NewTransformNode(fn)
	n.seedSrc = in.seed
	e := b.newEntry(fp, &SubplanEntry{p: n, seed: n})
	b.link(e, n, 0, in)
	return e
}

func (b *builder) buildExists(fp string, lop, rop nra.Op, negate bool) (*SubplanEntry, error) {
	l, err := b.build(lop)
	if err != nil {
		return nil, err
	}
	r, err := b.build(rop)
	if err != nil {
		b.reg.release(l)
		return nil, err
	}
	lKey, rKey, _ := schema.JoinKeys(lop.Schema(), rop.Schema())
	n := NewExistsNode(lKey, rKey, negate)
	e := b.newEntry(fp, &SubplanEntry{p: n, seed: n, counter: n})
	b.link(e, n, 0, l)
	b.link(e, n, 1, r)
	return e, nil
}
