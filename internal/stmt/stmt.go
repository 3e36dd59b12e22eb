// Package stmt prepares statement texts — parse, then compile what can be
// compiled without parameters — and keeps the results in one small
// process-wide cache keyed by the exact source text. Servers see a handful
// of parameterised texts over and over; once binding a statement is cheap,
// re-parsing and re-compiling each one is a measurable share of its cost.
//
// Entries are immutable once published: executions only read the AST and
// the plan, and parameters stay parameters (expr.Compile binds them per
// execution), so one entry serves any number of concurrent executions
// with any parameter values. Parse and compile errors are not cached.
package stmt

import (
	"errors"
	"sync"

	"pgiv/internal/cypher"
	"pgiv/internal/fra"
	"pgiv/internal/value"
)

// ErrNotWrite is returned by Write for a text that parses as a read
// query.
var ErrNotWrite = errors.New("statement has no write clause")

// WriteStmt is a prepared write statement: the parsed statement and the
// compiled plan binding its reading prefix.
type WriteStmt struct {
	Stmt   *cypher.WriteStatement
	Prefix *Prefix
}

// Prefix is the compiled reading prefix of a write statement: a plan
// whose rows are the statement's binding table, one column per visible
// variable.
type Prefix struct {
	// Plan is nil for a statement without a reading prefix, which binds
	// the single empty row.
	Plan *fra.Plan
	// ConstOnly marks a prefix that binds no variables: the plan's one
	// column is a constant that only carries row multiplicity.
	ConstOnly bool
}

// Read returns the compiled plan of a read query text.
func Read(src string) (*fra.Plan, error) {
	if e := lookup(src); e != nil && e.read != nil {
		return e.read, nil
	}
	plan, err := fra.CompileString(src)
	if err != nil {
		return nil, err
	}
	store(src, &entry{read: plan})
	return plan, nil
}

// Write returns the prepared form of a write statement text, or
// ErrNotWrite when the text is a read query.
func Write(src string) (*WriteStmt, error) {
	if e := lookup(src); e != nil && e.write != nil {
		return e.write, nil
	}
	st, err := cypher.ParseStatement(src)
	if err != nil {
		return nil, err
	}
	if !st.IsWrite() {
		return nil, ErrNotWrite
	}
	prefix, err := CompilePrefix(st.Write.Reading)
	if err != nil {
		return nil, err
	}
	w := &WriteStmt{Stmt: st.Write, Prefix: prefix}
	store(src, &entry{write: w})
	return w, nil
}

// CompilePrefix compiles a reading prefix into its binding plan: the
// prefix followed by a RETURN of every variable it leaves in scope. A
// prefix binding no variables still preserves row multiplicity through a
// constant projection.
func CompilePrefix(reading []cypher.Clause) (*Prefix, error) {
	if len(reading) == 0 {
		return &Prefix{}, nil
	}
	vars := visibleVars(reading)
	items := make([]cypher.ReturnItem, 0, len(vars))
	for _, v := range vars {
		items = append(items, cypher.ReturnItem{Expr: &cypher.Variable{Name: v}, Alias: v})
	}
	if len(items) == 0 {
		items = append(items, cypher.ReturnItem{
			Expr: &cypher.Literal{Val: value.NewInt(1)}, Alias: "1"})
	}
	plan, err := fra.Compile(&cypher.Query{Reading: reading, Return: &cypher.ReturnClause{Items: items}})
	if err != nil {
		return nil, err
	}
	return &Prefix{Plan: plan, ConstOnly: len(vars) == 0}, nil
}

// visibleVars lists, in first-appearance order, the variables a reading
// prefix leaves in scope: pattern variables (nodes, fixed-length
// relationships, named paths), UNWIND aliases, and — resetting the scope,
// as WITH is a horizon — WITH aliases.
func visibleVars(reading []cypher.Clause) []string {
	var vars []string
	seen := make(map[string]bool)
	add := func(n string) {
		if n != "" && !seen[n] {
			seen[n] = true
			vars = append(vars, n)
		}
	}
	for _, c := range reading {
		switch cl := c.(type) {
		case *cypher.MatchClause:
			for _, p := range cl.Patterns {
				add(p.Var)
				for _, n := range p.Nodes {
					add(n.Var)
				}
				for _, r := range p.Rels {
					if !r.VarLength {
						add(r.Var)
					}
				}
			}
		case *cypher.UnwindClause:
			add(cl.Alias)
		case *cypher.WithClause:
			vars = vars[:0]
			seen = make(map[string]bool)
			for _, it := range cl.Items {
				add(it.Alias)
			}
		}
	}
	return vars
}

// The cache: a fixed number of entries, evicted first-in first-out. The
// capacity is far above the number of distinct texts a parameterised
// client sends and small enough that a client inlining literals into
// every text costs a bounded amount of memory; texts too long to be
// worth pinning are prepared every time.
const (
	capacity   = 256
	maxTextLen = 4096
)

// entry is one cached text. A text is a read query or a write statement
// by grammar, never both.
type entry struct {
	read  *fra.Plan
	write *WriteStmt
}

var cache = struct {
	sync.RWMutex
	m    map[string]*entry
	ring [capacity]string // insertion order; ring[next] is the oldest once full
	next int
}{m: make(map[string]*entry, capacity)}

func lookup(src string) *entry {
	cache.RLock()
	e := cache.m[src]
	cache.RUnlock()
	return e
}

func store(src string, e *entry) {
	if len(src) > maxTextLen {
		return
	}
	cache.Lock()
	defer cache.Unlock()
	if _, ok := cache.m[src]; !ok {
		if len(cache.m) == capacity {
			delete(cache.m, cache.ring[cache.next])
		}
		cache.ring[cache.next] = src
		cache.next = (cache.next + 1) % capacity
	}
	cache.m[src] = e
}
