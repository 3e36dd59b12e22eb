// Package write executes Cypher write statements (CREATE, MERGE, SET,
// REMOVE, DELETE/DETACH DELETE, with an optional reading prefix) against
// a property graph.
//
// The reading prefix is bound through the snapshot evaluator — the same
// GRA→NRA→FRA pipeline read queries use — evaluated once, eagerly,
// before any mutation, per openCypher's clause-major semantics: a MATCH
// never observes the writes of its own statement. The update clauses are
// then applied clause by clause over the binding rows, and every mutation
// goes through the transactional Mutator path, so one statement is one
// commit: views receive one coalesced OnChange batch, and any error rolls
// the whole statement back.
package write

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"pgiv/internal/cypher"
	"pgiv/internal/expr"
	"pgiv/internal/graph"
	"pgiv/internal/schema"
	"pgiv/internal/snapshot"
	"pgiv/internal/stmt"
	"pgiv/internal/value"
)

// Stats summarises the effects of one executed write statement,
// mirroring the counters graph databases report for write queries.
type Stats struct {
	MatchedRows   int `json:"matchedRows"`
	NodesCreated  int `json:"nodesCreated,omitempty"`
	EdgesCreated  int `json:"edgesCreated,omitempty"`
	NodesDeleted  int `json:"nodesDeleted,omitempty"`
	EdgesDeleted  int `json:"edgesDeleted,omitempty"`
	PropertiesSet int `json:"propertiesSet,omitempty"`
	LabelsAdded   int `json:"labelsAdded,omitempty"`
	LabelsRemoved int `json:"labelsRemoved,omitempty"`
}

// String renders the non-zero counters, e.g.
// "3 rows, +2 nodes, +1 edges, 4 properties".
func (s Stats) String() string {
	parts := []string{fmt.Sprintf("%d rows", s.MatchedRows)}
	add := func(n int, format string) {
		if n != 0 {
			parts = append(parts, fmt.Sprintf(format, n))
		}
	}
	add(s.NodesCreated, "+%d nodes")
	add(s.EdgesCreated, "+%d edges")
	add(s.NodesDeleted, "-%d nodes")
	add(s.EdgesDeleted, "-%d edges")
	add(s.PropertiesSet, "%d properties")
	add(s.LabelsAdded, "+%d labels")
	add(s.LabelsRemoved, "-%d labels")
	return strings.Join(parts, ", ")
}

// Exec prepares src (through the shared statement cache) and executes it
// as a single-commit write statement on g. Registered views observe
// exactly one coalesced OnChange batch; on error nothing is applied.
func Exec(g *graph.Graph, src string, params map[string]value.Value) (Stats, error) {
	w, err := stmt.Write(src)
	if errors.Is(err, stmt.ErrNotWrite) {
		return Stats{}, fmt.Errorf("write: statement has no write clause (evaluate read queries with Snapshot or RegisterView)")
	}
	if err != nil {
		return Stats{}, err
	}
	return ExecPrepared(g, w, params)
}

// ExecPrepared executes a prepared write statement in its own
// transaction. The prepared statement is only read, so one value serves
// any number of executions.
func ExecPrepared(g *graph.Graph, w *stmt.WriteStmt, params map[string]value.Value) (Stats, error) {
	var st Stats
	err := g.Batch(func(tx *graph.Tx) error {
		var err error
		st, err = execTx(g, tx, w, params)
		return err
	})
	if err != nil {
		return Stats{}, err
	}
	return st, nil
}

// ExecStatement executes an already-parsed write statement in its own
// transaction.
func ExecStatement(g *graph.Graph, w *cypher.WriteStatement, params map[string]value.Value) (Stats, error) {
	p, err := prepare(w)
	if err != nil {
		return Stats{}, err
	}
	return ExecPrepared(g, p, params)
}

// ExecTx applies a write statement through an already-open transaction
// (mut is the *graph.Tx). The reading prefix observes the transaction's
// earlier writes — the store applies eagerly — so a sequence of ExecTx
// calls inside one Batch equals the same statements in per-statement
// commits, state-wise. Errors leave the transaction open; the caller
// decides to roll back.
func ExecTx(g *graph.Graph, mut graph.Mutator, w *cypher.WriteStatement, params map[string]value.Value) (Stats, error) {
	p, err := prepare(w)
	if err != nil {
		return Stats{}, err
	}
	return execTx(g, mut, p, params)
}

// prepare compiles the reading prefix of a statement that did not come
// through the statement cache.
func prepare(w *cypher.WriteStatement) (*stmt.WriteStmt, error) {
	prefix, err := stmt.CompilePrefix(w.Reading)
	if err != nil {
		return nil, err
	}
	return &stmt.WriteStmt{Stmt: w, Prefix: prefix}, nil
}

func execTx(g *graph.Graph, mut graph.Mutator, w *stmt.WriteStmt, params map[string]value.Value) (Stats, error) {
	x := &exec{g: g, mut: mut, params: params,
		deadV: make(map[int64]bool), deadE: make(map[int64]bool)}
	if err := x.bind(w.Prefix); err != nil {
		return Stats{}, err
	}
	x.st.MatchedRows = len(x.rows)
	for _, u := range w.Stmt.Updates {
		var err error
		switch c := u.(type) {
		case *cypher.CreateClause:
			err = x.applyCreate(c)
		case *cypher.MergeClause:
			err = x.applyMerge(c)
		case *cypher.SetClause:
			err = x.applySet(c.Items)
		case *cypher.RemoveClause:
			err = x.applyRemove(c)
		case *cypher.DeleteClause:
			err = x.applyDelete(c)
		default:
			err = fmt.Errorf("write: unsupported update clause %T", u)
		}
		if err != nil {
			return Stats{}, err
		}
	}
	return x.st, nil
}

type exec struct {
	g      *graph.Graph
	mut    graph.Mutator
	params map[string]value.Value
	sch    schema.Schema
	rows   []value.Row
	st     Stats
	deadV  map[int64]bool // vertices deleted by this statement
	deadE  map[int64]bool // edges deleted by this statement
}

// bind evaluates the reading prefix once against the current graph and
// captures its rows as the binding table. An empty prefix yields the
// single empty row.
func (x *exec) bind(p *stmt.Prefix) error {
	if p.Plan == nil {
		x.sch, x.rows = schema.Schema{}, []value.Row{{}}
		return nil
	}
	res, err := snapshot.Eval(x.g, p.Plan, x.params)
	if err != nil {
		return err
	}
	x.sch, x.rows = res.Schema, res.Rows
	if p.ConstOnly {
		// The constant column only carried multiplicity; hide it so
		// update clauses cannot reference it.
		x.sch = schema.Schema{}
		for i := range x.rows {
			x.rows[i] = x.rows[i][:0]
		}
	}
	return nil
}

// propSet is one compiled property initialiser or constraint.
type propSet struct {
	key string
	fn  expr.Fn
}

func compileProps(props map[string]cypher.Expr, sch schema.Schema, params map[string]value.Value) ([]propSet, error) {
	if len(props) == 0 {
		return nil, nil
	}
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]propSet, 0, len(keys))
	for _, k := range keys {
		fn, err := expr.Compile(props[k], sch, params)
		if err != nil {
			return nil, err
		}
		out = append(out, propSet{key: k, fn: fn})
	}
	return out, nil
}

func evalProps(env *expr.Env, ps []propSet) map[string]value.Value {
	if len(ps) == 0 {
		return nil
	}
	m := make(map[string]value.Value, len(ps))
	for _, p := range ps {
		m[p.key] = p.fn(env)
	}
	return m
}

// extendRows widens every binding row to the clause's extended schema.
func (x *exec) extendRows(newLen int) {
	for i, row := range x.rows {
		nr := make(value.Row, newLen)
		copy(nr, row)
		x.rows[i] = nr
	}
}

// cNode is one compiled CREATE node slot.
type cNode struct {
	useIdx  int // >= 0: reuse the bound vertex at this row index
	labels  []string
	props   []propSet
	bindIdx int // >= 0: write the created vertex to this row index
}

// cRel is one compiled CREATE relationship.
type cRel struct {
	typ            string
	srcPos, trgPos int // node positions within the pattern
	props          []propSet
	bindIdx        int
}

type cPattern struct {
	nodes []cNode
	rels  []cRel
}

// compileCreatePattern lowers one CREATE (or MERGE-create) pattern
// against the schema in *sch, extending it with the variables the
// pattern binds. forMerge relaxes direction (MERGE may match -[]-; a
// created relationship is then oriented left-to-right).
func compileCreatePattern(pat *cypher.PathPattern, sch *schema.Schema, params map[string]value.Value, forMerge bool) (*cPattern, error) {
	cp := &cPattern{}
	for _, n := range pat.Nodes {
		cn := cNode{useIdx: -1, bindIdx: -1, labels: n.Labels}
		if n.Var != "" {
			if idx := sch.Index(n.Var); idx >= 0 {
				if len(n.Labels) > 0 || len(n.Props) > 0 {
					return nil, fmt.Errorf("write: pattern reuses bound variable %q; it must be bare", n.Var)
				}
				cn.useIdx = idx
				cp.nodes = append(cp.nodes, cn)
				continue
			}
		}
		ps, err := compileProps(n.Props, *sch, params)
		if err != nil {
			return nil, err
		}
		cn.props = ps
		if n.Var != "" {
			cn.bindIdx = len(*sch)
			*sch = append(*sch, n.Var)
		}
		cp.nodes = append(cp.nodes, cn)
	}
	for j, r := range pat.Rels {
		if r.VarLength {
			return nil, fmt.Errorf("write: cannot create a variable-length relationship")
		}
		if len(r.Types) != 1 {
			return nil, fmt.Errorf("write: a created relationship requires exactly one type")
		}
		cr := cRel{typ: r.Types[0], bindIdx: -1}
		switch r.Dir {
		case cypher.DirOut:
			cr.srcPos, cr.trgPos = j, j+1
		case cypher.DirIn:
			cr.srcPos, cr.trgPos = j+1, j
		default:
			if !forMerge {
				return nil, fmt.Errorf("write: a created relationship requires a direction")
			}
			cr.srcPos, cr.trgPos = j, j+1
		}
		ps, err := compileProps(r.Props, *sch, params)
		if err != nil {
			return nil, err
		}
		cr.props = ps
		if r.Var != "" {
			if sch.Index(r.Var) >= 0 {
				return nil, fmt.Errorf("write: relationship variable %q is already bound", r.Var)
			}
			cr.bindIdx = len(*sch)
			*sch = append(*sch, r.Var)
		}
		cp.rels = append(cp.rels, cr)
	}
	return cp, nil
}

// createPattern instantiates one compiled pattern for one binding row,
// returning the vertex IDs of the pattern's node slots.
func (x *exec) createPattern(cp *cPattern, row value.Row, env *expr.Env) ([]int64, error) {
	ids := make([]int64, len(cp.nodes))
	for i, n := range cp.nodes {
		if n.useIdx >= 0 {
			v := row[n.useIdx]
			if v.Kind() != value.KindVertex {
				return nil, fmt.Errorf("write: pattern endpoint is %s, not a vertex", v)
			}
			if x.deadV[v.ID()] {
				return nil, fmt.Errorf("write: pattern endpoint was deleted by this statement")
			}
			ids[i] = v.ID()
			continue
		}
		id := x.mut.AddVertex(n.labels, evalProps(env, n.props))
		x.st.NodesCreated++
		ids[i] = id
		if n.bindIdx >= 0 {
			row[n.bindIdx] = value.NewVertex(id)
		}
	}
	for _, r := range cp.rels {
		eid, err := x.mut.AddEdge(ids[r.srcPos], ids[r.trgPos], r.typ, evalProps(env, r.props))
		if err != nil {
			return nil, fmt.Errorf("write: %v", err)
		}
		x.st.EdgesCreated++
		if r.bindIdx >= 0 {
			row[r.bindIdx] = value.NewEdge(eid)
		}
	}
	return ids, nil
}

func (x *exec) applyCreate(c *cypher.CreateClause) error {
	sch := x.sch.Clone()
	pats := make([]*cPattern, 0, len(c.Patterns))
	for _, pat := range c.Patterns {
		if pat.Var != "" {
			return fmt.Errorf("write: named paths are not supported in CREATE")
		}
		cp, err := compileCreatePattern(pat, &sch, x.params, false)
		if err != nil {
			return err
		}
		pats = append(pats, cp)
	}
	x.extendRows(len(sch))
	env := &expr.Env{G: x.g}
	for _, row := range x.rows {
		env.Row = row
		for _, cp := range pats {
			if _, err := x.createPattern(cp, row, env); err != nil {
				return err
			}
		}
	}
	x.sch = sch
	return nil
}

// compiledSetItem is one lowered SET/REMOVE target.
type compiledSetItem struct {
	varIdx int
	name   string
	key    string
	labels []string
	fn     expr.Fn // property form only
	remove bool
}

func (x *exec) compileSetItems(items []cypher.SetItem, sch schema.Schema) ([]compiledSetItem, error) {
	out := make([]compiledSetItem, 0, len(items))
	for _, it := range items {
		idx := sch.Index(it.Variable)
		if idx < 0 {
			return nil, fmt.Errorf("write: SET references unbound variable %q", it.Variable)
		}
		ci := compiledSetItem{varIdx: idx, name: it.Variable, key: it.Key, labels: it.Labels}
		if it.Key != "" && it.Value != nil { // REMOVE items carry no value
			fn, err := expr.Compile(it.Value, sch, x.params)
			if err != nil {
				return nil, err
			}
			ci.fn = fn
		}
		out = append(out, ci)
	}
	return out, nil
}

// applySetItem applies one SET/REMOVE item to one row. SET on a null
// target is a no-op (the OPTIONAL MATCH convention); any other non-element
// target is an error.
func (x *exec) applySetItem(ci compiledSetItem, row value.Row, env *expr.Env) error {
	v := row[ci.varIdx]
	if v.IsNull() {
		return nil
	}
	switch v.Kind() {
	case value.KindVertex:
		if ci.key != "" {
			val := value.Null
			if !ci.remove {
				val = ci.fn(env)
			}
			if err := x.mut.SetVertexProperty(v.ID(), ci.key, val); err != nil {
				return fmt.Errorf("write: %v", err)
			}
			x.st.PropertiesSet++
			return nil
		}
		for _, l := range ci.labels {
			var err error
			if ci.remove {
				err = x.mut.RemoveVertexLabel(v.ID(), l)
				x.st.LabelsRemoved++
			} else {
				err = x.mut.AddVertexLabel(v.ID(), l)
				x.st.LabelsAdded++
			}
			if err != nil {
				return fmt.Errorf("write: %v", err)
			}
		}
		return nil
	case value.KindEdge:
		if ci.key == "" {
			return fmt.Errorf("write: cannot change labels of relationship %q", ci.name)
		}
		val := value.Null
		if !ci.remove {
			val = ci.fn(env)
		}
		if err := x.mut.SetEdgeProperty(v.ID(), ci.key, val); err != nil {
			return fmt.Errorf("write: %v", err)
		}
		x.st.PropertiesSet++
		return nil
	}
	return fmt.Errorf("write: SET target %q is %s, not a vertex or relationship", ci.name, v)
}

func (x *exec) applySet(items []cypher.SetItem) error {
	cis, err := x.compileSetItems(items, x.sch)
	if err != nil {
		return err
	}
	env := &expr.Env{G: x.g}
	for _, row := range x.rows {
		env.Row = row
		for _, ci := range cis {
			if err := x.applySetItem(ci, row, env); err != nil {
				return err
			}
		}
	}
	return nil
}

func (x *exec) applyRemove(c *cypher.RemoveClause) error {
	items := make([]cypher.SetItem, 0, len(c.Items))
	for _, it := range c.Items {
		items = append(items, cypher.SetItem{Variable: it.Variable, Key: it.Key, Labels: it.Labels})
	}
	cis, err := x.compileSetItems(items, x.sch)
	if err != nil {
		return err
	}
	for i := range cis {
		cis[i].remove = true
	}
	env := &expr.Env{G: x.g}
	for _, row := range x.rows {
		env.Row = row
		for _, ci := range cis {
			if err := x.applySetItem(ci, row, env); err != nil {
				return err
			}
		}
	}
	return nil
}

// incidentEdges returns the IDs of the edges incident to a vertex,
// deduplicated (a self-loop appears once), in ascending order.
func (x *exec) incidentEdges(id int64) []int64 {
	seen := make(map[int64]bool)
	var ids []int64
	collect := func(e *graph.Edge) bool {
		if !seen[e.ID] {
			seen[e.ID] = true
			ids = append(ids, e.ID)
		}
		return true
	}
	x.g.ForEachOutEdge(id, "", collect)
	x.g.ForEachInEdge(id, "", collect)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (x *exec) applyDelete(c *cypher.DeleteClause) error {
	fns := make([]expr.Fn, len(c.Exprs))
	for i, e := range c.Exprs {
		fn, err := expr.Compile(e, x.sch, x.params)
		if err != nil {
			return err
		}
		fns[i] = fn
	}
	env := &expr.Env{G: x.g}
	for _, row := range x.rows {
		env.Row = row
		for i, fn := range fns {
			v := fn(env)
			switch v.Kind() {
			case value.KindNull:
				// DELETE null is a no-op.
			case value.KindVertex:
				id := v.ID()
				if x.deadV[id] {
					continue
				}
				inc := x.incidentEdges(id)
				if !c.Detach && len(inc) > 0 {
					return fmt.Errorf("write: cannot DELETE vertex %d: it still has %d relationships (use DETACH DELETE)", id, len(inc))
				}
				if err := x.mut.RemoveVertex(id); err != nil {
					return fmt.Errorf("write: %v", err)
				}
				x.deadV[id] = true
				x.st.NodesDeleted++
				for _, eid := range inc {
					if !x.deadE[eid] {
						x.deadE[eid] = true
						x.st.EdgesDeleted++
					}
				}
			case value.KindEdge:
				id := v.ID()
				if x.deadE[id] {
					continue
				}
				if err := x.mut.RemoveEdge(id); err != nil {
					return fmt.Errorf("write: %v", err)
				}
				x.deadE[id] = true
				x.st.EdgesDeleted++
			default:
				return fmt.Errorf("write: cannot DELETE %s (expression %s)", v, c.Exprs[i])
			}
		}
	}
	return nil
}
