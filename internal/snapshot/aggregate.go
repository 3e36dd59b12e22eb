package snapshot

import (
	"fmt"
	"sort"

	"pgiv/internal/expr"
	"pgiv/internal/nra"
	"pgiv/internal/value"
)

// FinalizeAgg computes the result of one aggregation function from the
// multiset of collected (non-null) argument values; star selects the
// count(*) semantics, which counts raw rows (rowCount) instead. Shared
// with the Rete aggregation node so both engines agree on edge cases:
//
//	count(*)  → number of rows
//	count(x)  → number of non-null values
//	sum       → 0 for the empty multiset; integer if all inputs integer
//	avg       → null for the empty multiset
//	min/max   → null for the empty multiset
//	collect   → values in canonical (sorted) order; bags are unordered, so
//	            an implementation-defined deterministic order is chosen
func FinalizeAgg(fn string, star bool, vals []value.Value, rowCount int64) (value.Value, error) {
	switch fn {
	case "count":
		if star {
			return value.NewInt(rowCount), nil
		}
		return value.NewInt(int64(len(vals))), nil
	case "sum":
		var isum int64
		var fsum float64
		sawFloat := false
		for _, v := range vals {
			switch v.Kind() {
			case value.KindInt:
				isum += v.Int()
			case value.KindFloat:
				sawFloat = true
				fsum += v.Float()
			}
		}
		if sawFloat {
			return value.NewFloat(fsum + float64(isum)), nil
		}
		return value.NewInt(isum), nil
	case "avg":
		if len(vals) == 0 {
			return value.Null, nil
		}
		var sum float64
		n := 0
		for _, v := range vals {
			if v.IsNumeric() {
				sum += v.AsFloat()
				n++
			}
		}
		if n == 0 {
			return value.Null, nil
		}
		return value.NewFloat(sum / float64(n)), nil
	case "min":
		if len(vals) == 0 {
			return value.Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if value.Compare(v, best) < 0 {
				best = v
			}
		}
		return best, nil
	case "max":
		if len(vals) == 0 {
			return value.Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if value.Compare(v, best) > 0 {
				best = v
			}
		}
		return best, nil
	case "collect":
		sorted := make([]value.Value, len(vals))
		copy(sorted, vals)
		sort.Slice(sorted, func(i, j int) bool { return value.Compare(sorted[i], sorted[j]) < 0 })
		return value.NewList(sorted), nil
	}
	return value.Null, fmt.Errorf("snapshot: unknown aggregate %q", fn)
}

func (ev *evaluator) evalAggregate(o *nra.Aggregate) ([]value.Row, error) {
	in, err := ev.eval(o.Input, access{})
	if err != nil {
		return nil, err
	}
	inSchema := o.Input.Schema()
	groupFns := make([]expr.Fn, len(o.GroupBy))
	for i, it := range o.GroupBy {
		fn, err := ev.compile(it.Expr, inSchema)
		if err != nil {
			return nil, err
		}
		groupFns[i] = fn
	}
	argFns := make([]expr.Fn, len(o.Aggs))
	for i, a := range o.Aggs {
		if a.Arg == nil {
			continue
		}
		fn, err := ev.compile(a.Arg, inSchema)
		if err != nil {
			return nil, err
		}
		argFns[i] = fn
	}

	type groupState struct {
		keys     value.Row
		rowCount int64
		vals     [][]value.Value   // per aggregate, collected non-null values
		seen     []map[string]bool // per aggregate, for DISTINCT
	}
	groups := make(map[string]*groupState)
	var order []string // deterministic output order by first appearance

	env := &expr.Env{G: ev.g}
	for _, row := range in {
		env.Row = row
		keys := make(value.Row, len(groupFns))
		for i, fn := range groupFns {
			keys[i] = fn(env)
		}
		k := value.RowKey(keys)
		gs := groups[k]
		if gs == nil {
			gs = &groupState{
				keys: keys,
				vals: make([][]value.Value, len(o.Aggs)),
				seen: make([]map[string]bool, len(o.Aggs)),
			}
			for i, a := range o.Aggs {
				if a.Distinct {
					gs.seen[i] = make(map[string]bool)
				}
			}
			groups[k] = gs
			order = append(order, k)
		}
		gs.rowCount++
		for i, a := range o.Aggs {
			if a.Arg == nil {
				continue // count(*): rowCount suffices
			}
			v := argFns[i](env)
			if v.IsNull() {
				continue
			}
			if a.Distinct {
				vk := value.Key(v)
				if gs.seen[i][vk] {
					continue
				}
				gs.seen[i][vk] = true
			}
			gs.vals[i] = append(gs.vals[i], v)
		}
	}

	// A global aggregate (no group keys) over an empty input yields one
	// row of default values.
	if len(groups) == 0 && len(o.GroupBy) == 0 {
		gs := &groupState{vals: make([][]value.Value, len(o.Aggs))}
		groups[""] = gs
		order = append(order, "")
	}

	var rows []value.Row
	for _, k := range order {
		gs := groups[k]
		out := make(value.Row, 0, len(gs.keys)+len(o.Aggs))
		out = append(out, gs.keys...)
		for i, a := range o.Aggs {
			v, err := FinalizeAgg(a.Func, a.Arg == nil, gs.vals[i], gs.rowCount)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		rows = append(rows, out)
	}
	return rows, nil
}
