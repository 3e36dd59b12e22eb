package cypher

import (
	"fmt"
	"sort"
	"strings"

	"pgiv/internal/value"
)

// Query is a parsed read query:
// (MATCH | OPTIONAL MATCH | UNWIND | WITH)* RETURN.
type Query struct {
	Reading []Clause
	Return  *ReturnClause
}

// Clause is a reading clause: *MatchClause, *UnwindClause or
// *WithClause.
type Clause interface{ clauseNode() }

// MatchClause is a [OPTIONAL] MATCH with optional WHERE. For an
// OPTIONAL MATCH the WHERE belongs to the optional pattern: it filters
// candidate matches before the match outcome is decided, so a failing
// predicate yields the null-padded row, not an eliminated row.
type MatchClause struct {
	Optional bool
	Patterns []*PathPattern
	Where    Expr // nil if absent
}

func (*MatchClause) clauseNode() {}

// UnwindClause is UNWIND expr AS alias.
type UnwindClause struct {
	Expr  Expr
	Alias string
}

func (*UnwindClause) clauseNode() {}

// WithClause is WITH [DISTINCT] items [ORDER BY ...] [SKIP n] [LIMIT n]
// [WHERE expr]: a horizon in the query — the projection replaces the
// working relation, ORDER BY/SKIP/LIMIT window the projected rows, and
// the WHERE filters the windowed rows (acting as HAVING when items
// aggregate). Every item carries an alias (non-variable expressions must
// be aliased explicitly, per openCypher).
type WithClause struct {
	Distinct bool
	Items    []ReturnItem
	OrderBy  []SortItem
	Skip     Expr // nil if absent
	Limit    Expr // nil if absent
	Where    Expr // nil if absent
}

func (*WithClause) clauseNode() {}

// PathPattern is one comma-separated pattern of a MATCH clause, optionally
// bound to a path variable: Var = (n0)-[r0]->(n1)-...
// len(Nodes) == len(Rels)+1.
type PathPattern struct {
	Var      string // named path variable, "" if unnamed
	Nodes    []*NodePattern
	Rels     []*RelPattern
	Shortest bool // wrapped in shortestPath(...): exactly one var-length rel
}

// NodePattern is (var:Label1:Label2 {key: expr, ...}).
type NodePattern struct {
	Var    string
	Labels []string
	Props  map[string]Expr
}

// Direction of a relationship pattern.
type Direction uint8

// Relationship directions.
const (
	DirOut  Direction = iota // -[]->
	DirIn                    // <-[]-
	DirBoth                  // -[]-
)

// RelPattern is -[var:TYPE1|TYPE2 *min..max {key: expr}]->.
// For fixed-length relationships VarLength is false and Min == Max == 1.
// Max == -1 means unbounded. WeightProp is the bare name form {w} inside a
// shortestPath relationship: the edge property whose sum the path minimizes
// ("" for unweighted, i.e. hop-count, shortest paths).
type RelPattern struct {
	Var        string
	Types      []string
	Dir        Direction
	VarLength  bool
	Min        int
	Max        int
	Props      map[string]Expr
	WeightProp string
}

// ReturnClause is RETURN [DISTINCT] items [ORDER BY ...] [SKIP n] [LIMIT n].
type ReturnClause struct {
	Distinct bool
	Items    []ReturnItem
	OrderBy  []SortItem
	Skip     Expr // nil if absent
	Limit    Expr // nil if absent
}

// ReturnItem is expr [AS alias]. Alias is always non-empty after parsing
// (defaulted to the expression text).
type ReturnItem struct {
	Expr  Expr
	Alias string
}

// SortItem is expr [ASC|DESC].
type SortItem struct {
	Expr Expr
	Desc bool
}

// Expr is an expression AST node.
type Expr interface {
	exprNode()
	String() string
}

// Literal is a constant value.
type Literal struct{ Val value.Value }

// Variable references a bound variable.
type Variable struct{ Name string }

// Parameter is a $name query parameter, substituted at compile time.
type Parameter struct{ Name string }

// PropAccess is subject.key (property access on a vertex, edge or map).
type PropAccess struct {
	Subject Expr
	Key     string
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpPow
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpXor
	OpIn
	OpStartsWith
	OpEndsWith
	OpContains
)

func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpPow:
		return "^"
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpXor:
		return "XOR"
	case OpIn:
		return "IN"
	case OpStartsWith:
		return "STARTS WITH"
	case OpEndsWith:
		return "ENDS WITH"
	case OpContains:
		return "CONTAINS"
	}
	return "?"
}

// Binary applies a binary operator.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// UnOp enumerates unary operators.
type UnOp uint8

// Unary operators.
const (
	OpNeg UnOp = iota
	OpNot
)

// Unary applies a unary operator.
type Unary struct {
	Op UnOp
	X  Expr
}

// IsNull is expr IS [NOT] NULL.
type IsNull struct {
	X      Expr
	Negate bool
}

// FuncCall invokes a built-in function; Name is lower-case.
type FuncCall struct {
	Name     string
	Distinct bool
	Args     []Expr
}

// CountStar is count(*).
type CountStar struct{}

// ListLit is a list literal [e1, e2, ...].
type ListLit struct{ Elems []Expr }

// MapLit is a map literal {k1: e1, k2: e2, ...}.
type MapLit struct{ Entries map[string]Expr }

// PatternPredicate is a pattern used as a predicate in WHERE, e.g.
// WHERE (a)-[:KNOWS]->(b) or WHERE NOT (s)-[:monitoredBy]->(:Sensor).
// It is only supported as a (possibly NOT-negated) top-level conjunct of
// WHERE, where it compiles to a semijoin (antijoin when negated).
type PatternPredicate struct{ Pattern *PathPattern }

func (*Literal) exprNode()          {}
func (*Variable) exprNode()         {}
func (*Parameter) exprNode()        {}
func (*PropAccess) exprNode()       {}
func (*Binary) exprNode()           {}
func (*Unary) exprNode()            {}
func (*IsNull) exprNode()           {}
func (*FuncCall) exprNode()         {}
func (*CountStar) exprNode()        {}
func (*ListLit) exprNode()          {}
func (*MapLit) exprNode()           {}
func (*PatternPredicate) exprNode() {}

func (e *Literal) String() string   { return e.Val.String() }
func (e *Variable) String() string  { return e.Name }
func (e *Parameter) String() string { return "$" + e.Name }
func (e *PropAccess) String() string {
	return fmt.Sprintf("%s.%s", e.Subject.String(), e.Key)
}
func (e *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L.String(), e.Op, e.R.String())
}
func (e *Unary) String() string {
	if e.Op == OpNot {
		return fmt.Sprintf("(NOT %s)", e.X.String())
	}
	return fmt.Sprintf("(-%s)", e.X.String())
}
func (e *IsNull) String() string {
	if e.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", e.X.String())
	}
	return fmt.Sprintf("(%s IS NULL)", e.X.String())
}
func (e *FuncCall) String() string {
	var args []string
	for _, a := range e.Args {
		args = append(args, a.String())
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", e.Name, d, strings.Join(args, ", "))
}
func (e *CountStar) String() string { return "count(*)" }
func (e *PatternPredicate) String() string {
	var sb strings.Builder
	for i, n := range e.Pattern.Nodes {
		if i > 0 {
			r := e.Pattern.Rels[i-1]
			switch r.Dir {
			case DirIn:
				sb.WriteString("<-[]-")
			case DirOut:
				sb.WriteString("-[]->")
			default:
				sb.WriteString("-[]-")
			}
		}
		sb.WriteByte('(')
		sb.WriteString(n.Var)
		for _, l := range n.Labels {
			sb.WriteByte(':')
			sb.WriteString(l)
		}
		sb.WriteByte(')')
	}
	return sb.String()
}
func (e *ListLit) String() string {
	var elems []string
	for _, x := range e.Elems {
		elems = append(elems, x.String())
	}
	return "[" + strings.Join(elems, ", ") + "]"
}
func (e *MapLit) String() string {
	keys := make([]string, 0, len(e.Entries))
	for k := range e.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, k+": "+e.Entries[k].String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// aggregateFuncs are the built-in aggregation functions.
var aggregateFuncs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
	"collect": true,
}

// IsAggregate reports whether e is an aggregation function call or
// count(*).
func IsAggregate(e Expr) bool {
	switch x := e.(type) {
	case *CountStar:
		return true
	case *FuncCall:
		return aggregateFuncs[x.Name]
	}
	return false
}

// ContainsAggregate reports whether any subexpression of e is an
// aggregation.
func ContainsAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if IsAggregate(x) {
			found = true
		}
	})
	return found
}

// Conjuncts flattens an AND tree into its conjunct list, left to right.
func Conjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// WalkExpr invokes fn on e and every subexpression, pre-order.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *PropAccess:
		WalkExpr(x.Subject, fn)
	case *Binary:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *Unary:
		WalkExpr(x.X, fn)
	case *IsNull:
		WalkExpr(x.X, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *ListLit:
		for _, el := range x.Elems {
			WalkExpr(el, fn)
		}
	case *MapLit:
		keys := make([]string, 0, len(x.Entries))
		for k := range x.Entries {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			WalkExpr(x.Entries[k], fn)
		}
	}
}

// RewriteExpr rebuilds e bottom-up, replacing every subexpression x with
// fn(x). fn receives each node after its children have been rewritten and
// must return a non-nil expression (return the argument to keep it).
// Subexpression containers are mutated in place.
func RewriteExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *PropAccess:
		x.Subject = RewriteExpr(x.Subject, fn)
	case *Binary:
		x.L = RewriteExpr(x.L, fn)
		x.R = RewriteExpr(x.R, fn)
	case *Unary:
		x.X = RewriteExpr(x.X, fn)
	case *IsNull:
		x.X = RewriteExpr(x.X, fn)
	case *FuncCall:
		for i, a := range x.Args {
			x.Args[i] = RewriteExpr(a, fn)
		}
	case *ListLit:
		for i, el := range x.Elems {
			x.Elems[i] = RewriteExpr(el, fn)
		}
	case *MapLit:
		for k, v := range x.Entries {
			x.Entries[k] = RewriteExpr(v, fn)
		}
	}
	return fn(e)
}

// Variables returns the sorted set of variable names referenced by e.
func Variables(e Expr) []string {
	set := make(map[string]bool)
	WalkExpr(e, func(x Expr) {
		if v, ok := x.(*Variable); ok {
			set[v.Name] = true
		}
	})
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
