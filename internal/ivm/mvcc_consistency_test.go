package ivm_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pgiv/internal/graph"
	"pgiv/internal/ivm"
	"pgiv/internal/snapshot"
	"pgiv/internal/value"
)

// consistencyPanel is the snapshot-consistency battery: one
// representative per operator family, small enough that readers can
// re-evaluate the whole panel on every pinned snapshot.
var consistencyPanel = []string{
	"MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a, b",
	"MATCH (p:Post)-[:REPLY*]->(c:Comm) RETURN p, c",
	"MATCH (p:Post) RETURN p.lang, count(*)",
	"MATCH (a:Person) WHERE NOT (a)-[:KNOWS]->(:Person) RETURN a",
	"MATCH (a:Person) OPTIONAL MATCH (a)-[:KNOWS]->(b) RETURN a, count(b)",
	"MATCH (a:Person) RETURN a, a.score ORDER BY a.score DESC LIMIT 5",
}

// digestRows canonicalises a result for equality comparison: exact row
// order for ordered results, sorted otherwise.
func digestRows(rows []value.Row, ordered bool) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = value.RowKey(r)
	}
	if !ordered {
		sort.Strings(keys)
	}
	return strings.Join(keys, "\n")
}

// observation is one reader-side result: a digest attributed to the
// epoch the reader pinned (or the epoch a published row set carried).
type observation struct {
	epoch  uint64
	key    string // panel query or view name
	digest string
	src    string // "snap" or "pub"
}

// TestSnapshotConsistencyFuzz is the PR's snapshot-consistency battery:
// concurrent readers re-evaluate the whole panel against pinned epoch
// snapshots — and read published view row sets — while the seeded
// differential mutation stream commits. Every digest a reader observes
// must be byte-identical to the oracle digest the writer computed for
// that epoch right after its commit: anything else is a torn commit.
// Epochs must also be monotonic per reader per read path.
func TestSnapshotConsistencyFuzz(t *testing.T) {
	steps := 200
	if testing.Short() {
		steps = 60
	}
	const nReaders = 3

	g := graph.New()
	engine := ivm.NewEngine(g)
	defer engine.Close()
	g.EnableMVCC()

	views := make([]*ivm.View, len(consistencyPanel))
	ordered := make([]bool, len(consistencyPanel))
	for i, q := range consistencyPanel {
		v, err := engine.RegisterView(fmt.Sprintf("c%02d", i), q)
		if err != nil {
			t.Fatalf("register %q: %v", q, err)
		}
		v.Watch()
		views[i] = v
		ordered[i] = v.Ordered()
	}

	// Oracle: per committed epoch, the canonical digest of every panel
	// query, computed from the live graph by the (only) writer right
	// after each commit. Written before readers start or by the writer
	// goroutine below; read only after wg.Wait.
	oracle := map[uint64]map[string]string{}
	recordOracle := func() {
		ds := make(map[string]string, len(consistencyPanel))
		for i, q := range consistencyPanel {
			res, err := snapshot.Query(g, q, nil)
			if err != nil {
				t.Fatalf("oracle %q: %v", q, err)
			}
			ds[q] = digestRows(res.Rows, ordered[i])
		}
		oracle[g.Epoch()] = ds
	}

	m := &mutator{g: g, mut: g, r: rand.New(rand.NewSource(424242)), capV: 40, capE: 80, cypherFrac: 0.4}
	for i := 0; i < 25; i++ {
		m.step(t)
	}
	recordOracle() // the state readers may pin before the first fuzz commit

	stop := make(chan struct{})
	var wg sync.WaitGroup
	obs := make([][]observation, nReaders)
	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			// Views publish one after another inside a commit, so published
			// epochs are monotonic per view, not across views.
			var lastSnap uint64
			lastPub := make([]uint64, len(views))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rng.Intn(4) > 0 {
					snap := g.Snapshot()
					e := snap.Epoch()
					if e < lastSnap {
						t.Errorf("reader %d: snapshot epoch went backwards: %d after %d", r, e, lastSnap)
						snap.Release()
						return
					}
					lastSnap = e
					i := rng.Intn(len(consistencyPanel))
					q := consistencyPanel[i]
					res, err := snapshot.Query(snap, q, nil)
					snap.Release()
					if err != nil {
						t.Errorf("reader %d: %q at epoch %d: %v", r, q, e, err)
						return
					}
					obs[r] = append(obs[r], observation{e, q, digestRows(res.Rows, ordered[i]), "snap"})
				} else {
					i := rng.Intn(len(views))
					rows, e, ok := views[i].PublishedRows()
					if !ok {
						t.Errorf("reader %d: view %d has no published rows", r, i)
						return
					}
					if e < lastPub[i] {
						t.Errorf("reader %d: view %d published epoch went backwards: %d after %d", r, i, e, lastPub[i])
						return
					}
					lastPub[i] = e
					// The digest sorts unordered rows, so check here that the
					// published slice itself is in canonical order.
					for j := 1; j < len(rows) && !ordered[i]; j++ {
						if value.CompareRows(rows[j-1], rows[j]) > 0 {
							t.Errorf("reader %d: view %d at epoch %d: published rows %d and %d out of canonical order", r, i, e, j-1, j)
							return
						}
					}
					obs[r] = append(obs[r], observation{e, consistencyPanel[i], digestRows(rows, ordered[i]), "pub"})
				}
			}
		}(r)
	}

	for i := 0; i < steps; i++ {
		m.step(t)
		recordOracle()
		// Yield so readers interleave with many distinct epochs rather
		// than the writer monopolising the scheduler slice.
		runtime.Gosched()
		if i%10 == 9 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	close(stop)
	wg.Wait()

	epochs := map[uint64]bool{}
	total := 0
	for r := 0; r < nReaders; r++ {
		for _, o := range obs[r] {
			total++
			epochs[o.epoch] = true
			want, ok := oracle[o.epoch]
			if !ok {
				t.Fatalf("reader %d observed epoch %d the writer never committed (%s %q)", r, o.epoch, o.src, o.key)
			}
			if o.digest != want[o.key] {
				t.Fatalf("torn %s read at epoch %d, query %q:\n got  %q\n want %q",
					o.src, o.epoch, o.key, o.digest, want[o.key])
			}
		}
	}
	t.Logf("verified %d observations across %d distinct epochs (%d committed)", total, len(epochs), len(oracle))
	if st := g.MVCCStats(); st.PinnedReaders != 0 {
		t.Fatalf("readers done but %d pins still held", st.PinnedReaders)
	}
}
