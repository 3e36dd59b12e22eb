package stmt

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func cached(src string) bool { return lookup(src) != nil }

func TestReadAndWriteAreCachedByExactText(t *testing.T) {
	const q = "MATCH (n:StmtTest) WHERE id(n) = $id RETURN n.name"
	p1, err := Read(q)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Read(q)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("second Read of the same text compiled again")
	}
	if p3, _ := Read(q + " "); p3 == p1 {
		t.Error("a different text shares an entry")
	}

	const w = "MATCH (n:StmtTest) WHERE id(n) = $id SET n.score = $s"
	w1, err := Write(w)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Write(w)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Error("second Write of the same text prepared again")
	}
	if w1.Prefix.Plan == nil || w1.Prefix.ConstOnly || len(w1.Stmt.Updates) != 1 {
		t.Errorf("prepared write looks wrong: %+v", w1)
	}
}

func TestPrefixShapes(t *testing.T) {
	w, err := Write("CREATE (:StmtTest {k: 1})")
	if err != nil {
		t.Fatal(err)
	}
	if w.Prefix.Plan != nil {
		t.Error("a statement without a reading prefix has a binding plan")
	}
	w, err = Write("MATCH (:StmtTest) CREATE (:StmtTest)")
	if err != nil {
		t.Fatal(err)
	}
	if w.Prefix.Plan == nil || !w.Prefix.ConstOnly {
		t.Errorf("a prefix binding no variable must keep multiplicity through a constant column: %+v", w.Prefix)
	}
	w, err = Write("MATCH (a:StmtTest)-[r:R]->(b) WITH a, b.x AS x UNWIND [1, 2] AS k SET a.x = x + k")
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Prefix.Plan.OutSchema.String(); got != "(a, x, k)" {
		t.Errorf("visible variables after WITH and UNWIND: %s", got)
	}
}

func TestErrorsAndWrongKindAreNotCached(t *testing.T) {
	const bad = "MATCH (n:StmtTest RETURN n"
	for i := 0; i < 2; i++ {
		if _, err := Read(bad); err == nil {
			t.Fatal("syntax error accepted")
		}
		if _, err := Write(bad); err == nil {
			t.Fatal("syntax error accepted")
		}
	}
	if cached(bad) {
		t.Error("a text that does not parse was cached")
	}

	const read = "MATCH (n:StmtTest) RETURN n.wrongkind"
	if _, err := Write(read); !errors.Is(err, ErrNotWrite) {
		t.Errorf("Write of a read query: %v, want ErrNotWrite", err)
	}
	if _, err := Read(read); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(read); !errors.Is(err, ErrNotWrite) {
		t.Errorf("Write of a cached read query: %v, want ErrNotWrite", err)
	}

	const write = "MATCH (n:StmtTest) SET n.wrongkind = 1"
	if _, err := Write(write); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(write); err == nil {
		t.Error("Read of a cached write statement succeeded")
	}
	if _, err := Write(write); err != nil {
		t.Errorf("a failed Read disturbed the write entry: %v", err)
	}
}

func TestCapacityIsFixed(t *testing.T) {
	text := func(i int) string { return fmt.Sprintf("MATCH (n:StmtTest) WHERE n.k = %d RETURN n", i) }
	first, err := Read(text(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= capacity; i++ {
		if _, err := Read(text(i)); err != nil {
			t.Fatal(err)
		}
	}
	cache.RLock()
	n := len(cache.m)
	cache.RUnlock()
	if n != capacity {
		t.Errorf("cache holds %d entries, capacity is %d", n, capacity)
	}
	if cached(text(0)) {
		t.Error("the oldest entry survived a full turn of the ring")
	}
	if !cached(text(capacity)) {
		t.Error("the newest entry is missing")
	}
	again, err := Read(text(0))
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Error("an evicted entry came back without compiling")
	}

	long := "MATCH (n:StmtTest) WHERE n.name = '" + strings.Repeat("x", maxTextLen) + "' RETURN n"
	if _, err := Read(long); err != nil {
		t.Fatal(err)
	}
	if cached(long) {
		t.Error("a text over the length limit was cached")
	}
}

// TestConcurrentPrepare is for the race detector: many goroutines prepare
// a shared text and private texts at once.
func TestConcurrentPrepare(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := Read("MATCH (n:StmtTest) WHERE id(n) = $shared RETURN n"); err != nil {
					t.Error(err)
				}
				if _, err := Write("MATCH (n:StmtTest) WHERE id(n) = $shared SET n.k = 1"); err != nil {
					t.Error(err)
				}
				if _, err := Read(fmt.Sprintf("MATCH (n:StmtTest) WHERE n.k = %d RETURN %d", i, g)); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
}
