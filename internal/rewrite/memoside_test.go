package rewrite

import (
	"testing"

	"pgiv/internal/fra"
	"pgiv/internal/value"
)

// TestMatchDerivesMemoSideOncePerCandidate: a candidate written as a keyed
// literal (no constructor) derives its memo side on the first Match and
// reuses it afterwards, and Match agrees with the stateless Subsumes on
// every pairing — including the pairings the leaf-set filter rejects.
func TestMatchDerivesMemoSideOncePerCandidate(t *testing.T) {
	views := []string{
		"MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a, b",
		"MATCH (p:Post) WHERE p.score > 3 RETURN p, p.lang",
		"MATCH (p:Person) RETURN p.name, p.score ORDER BY p.score DESC LIMIT 10",
		"MATCH (c:Comm) RETURN c.lang, count(*) AS n",
	}
	queries := []string{
		"MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a, b LIMIT 5",
		"MATCH (p:Post) WHERE p.score > 5 RETURN p, p.lang",
		"MATCH (p:Person) RETURN p.name, p.score ORDER BY p.score DESC SKIP 2 LIMIT 3",
		"MATCH (c:Comm) RETURN c.lang, count(*) AS n",
		"MATCH (t:Tag) RETURN t",
		"MATCH (n:Person) WHERE id(n) = $id RETURN n.name",
	}
	rows := func() ([]value.Row, uint64, bool) { return nil, 1, true }
	var cands []Candidate
	for i, v := range views {
		plan, err := fra.CompileString(v)
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, Candidate{Name: v[:8+i], Plan: plan.Root, Rows: rows})
	}
	params := map[string]value.Value{"id": value.NewInt(7)}
	var derived []*memoSide
	for round := 0; round < 2; round++ {
		for _, qText := range queries {
			q, err := fra.CompileString(qText)
			if err != nil {
				t.Fatal(err)
			}
			got := Match(q, params, cands)
			var want *Plan
			for i := range cands {
				if p, ok := Subsumes(cands[i].Plan, cands[i].Params, q, params); ok && want == nil {
					want, p.Cand = p, &cands[i]
				}
			}
			switch {
			case (got == nil) != (want == nil):
				t.Errorf("%s: Match %v, Subsumes %v", qText, got, want)
			case got != nil && (got.Cand != want.Cand || got.Format() != want.Format()):
				t.Errorf("%s: Match chose\n%s\nSubsumes chose\n%s", qText, got.Format(), want.Format())
			}
		}
		for i := range cands {
			m := cands[i].memo.Load()
			if m == nil {
				t.Fatalf("candidate %d has no memo side after a Match", i)
			}
			if round == 0 {
				derived = append(derived, m)
			} else if m != derived[i] {
				t.Errorf("candidate %d derived its memo side again", i)
			}
		}
	}
}
