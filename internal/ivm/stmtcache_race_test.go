package ivm_test

import (
	"reflect"
	"sync"
	"testing"

	"pgiv/internal/cypher"
	"pgiv/internal/fra"
	"pgiv/internal/graph"
	"pgiv/internal/ivm"
	"pgiv/internal/nra"
	"pgiv/internal/stmt"
	"pgiv/internal/value"
	"pgiv/internal/write"
)

// TestStatementCacheSharedAcrossGoroutines is for the race detector: eight
// readers issue the same three cached texts through Engine.QueryParams —
// one a rewrite hit, one a residual over the memo, one a miss that seeks
// by id — while a writer executes one cached write text, all with
// changing parameters. Cached entries are shared by every execution, so
// nothing on the read or write path may write to an AST or a plan: the
// detector watches for that during the run, and afterwards each cached
// entry must still equal a fresh parse and compile of its text.
func TestStatementCacheSharedAcrossGoroutines(t *testing.T) {
	g := graph.New()
	engine := ivm.NewEngine(g, ivm.Options{NumWorkers: 1})
	defer engine.Close()
	if _, err := engine.RegisterView("scored",
		"MATCH (p:CachePost) WHERE p.score > 3 RETURN p, p.score"); err != nil {
		t.Fatal(err)
	}
	var ids []int64
	if err := g.Batch(func(tx *graph.Tx) error {
		for i := 0; i < 40; i++ {
			ids = append(ids, tx.AddVertex([]string{"CachePost"}, map[string]value.Value{
				"score": value.NewInt(int64(i % 10))}))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	engine.EnableRewrite()

	reads := []string{
		"MATCH (p:CachePost) WHERE p.score > 3 RETURN p, p.score",
		"MATCH (p:CachePost) WHERE p.score > $min RETURN p.score",
		"MATCH (p:CachePost) WHERE id(p) = $id RETURN p.score",
	}
	const writeText = "MATCH (p:CachePost) WHERE id(p) = $id SET p.score = $min"

	// Fill the cache and remember the entries every goroutine will share.
	plans := make([]*fra.Plan, len(reads))
	for i, q := range reads {
		p, err := stmt.Read(q)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p
	}
	prepared, err := stmt.Write(writeText)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// At least a few rounds of every text, then until the writer
			// is done.
			for i := 0; ; i++ {
				select {
				case <-stop:
					if i >= 4*len(reads) {
						return
					}
				default:
				}
				params := map[string]value.Value{
					"min": value.NewInt(int64((i + r) % 10)),
					"id":  value.NewInt(ids[(i*7+r)%len(ids)]),
				}
				if _, _, err := engine.QueryParams(reads[i%len(reads)], params); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 300; i++ {
		params := map[string]value.Value{
			"min": value.NewInt(int64(i % 10)),
			"id":  value.NewInt(ids[i%len(ids)]),
		}
		if st, err := write.Exec(g, writeText, params); err != nil || st.MatchedRows != 1 {
			t.Fatalf("write %d: %+v, %v", i, st, err)
		}
	}
	close(stop)
	wg.Wait()

	for i, q := range reads {
		again, err := stmt.Read(q)
		if err != nil {
			t.Fatal(err)
		}
		if again != plans[i] {
			t.Errorf("%q left the cache during the run", q)
		}
		fresh, err := fra.CompileString(q)
		if err != nil {
			t.Fatal(err)
		}
		if nra.Format(plans[i].Root) != nra.Format(fresh.Root) || !reflect.DeepEqual(plans[i], fresh) {
			t.Errorf("cached plan of %q changed:\n%s\nfresh:\n%s", q, nra.Format(plans[i].Root), nra.Format(fresh.Root))
		}
	}
	freshStmt, err := cypher.ParseStatement(writeText)
	if err != nil {
		t.Fatal(err)
	}
	freshPrefix, err := stmt.CompilePrefix(freshStmt.Write.Reading)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prepared.Stmt, freshStmt.Write) {
		t.Errorf("cached AST of %q changed", writeText)
	}
	if !reflect.DeepEqual(prepared.Prefix, freshPrefix) {
		t.Errorf("cached prefix plan of %q changed:\n%s", writeText, nra.Format(prepared.Prefix.Plan.Root))
	}
	if st := engine.Stats(); st.RewriteExact == 0 || st.RewriteResidual == 0 || st.RewriteMiss == 0 {
		t.Errorf("the reads did not cover hit, residual and miss: %+v", st)
	}
}
