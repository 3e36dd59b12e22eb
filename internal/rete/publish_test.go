package rete

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pgiv/internal/value"
)

// Compare-equal rows the merge must tell apart or keep together: an Int
// and a Float of one value share a RowKey (one bag entry), while NaNs
// with different payloads compare equal under distinct keys.
var (
	nanA = value.Row{value.NewFloat(math.NaN()), value.NewInt(0)}
	nanB = value.Row{value.NewFloat(math.Float64frombits(0x7ff8000000000042)), value.NewInt(0)}
	oneI = value.Row{value.NewInt(1), value.NewInt(0)}
	oneF = value.Row{value.NewFloat(1), value.NewInt(0)}
)

// keptPub is a published epoch the test retained, with a copy of its
// row headers and a digest of its row values taken at publication.
type keptPub struct {
	pub     *PubRows
	headers []value.Row
	digest  string
}

func keepPub(pub *PubRows) keptPub {
	return keptPub{pub, append([]value.Row(nil), pub.Rows...), rowsDigest(pub.Rows)}
}

func rowsDigest(rows []value.Row) string {
	var b []byte
	for _, r := range rows {
		b = value.AppendRowKey(b, r)
		b = append(b, '|')
	}
	return string(b)
}

// keyCounts is a bag as RowKey → multiplicity.
func keyCounts(rows []value.Row) map[string]int {
	m := map[string]int{}
	for _, r := range rows {
		m[value.RowKey(r)]++
	}
	return m
}

// checkMergeLaws asserts the publication laws on a watched production
// just published at epoch: the published slice is in canonical order,
// holds the bag's multiset, is what Rows returns, and no earlier
// published slice changed.
func checkMergeLaws(t *testing.T, p *Production, epoch uint64, kept []keptPub) {
	t.Helper()
	pub := p.Published()
	if pub == nil || pub.Epoch != epoch {
		t.Fatalf("published %+v, want epoch %d", pub, epoch)
	}
	for i := 1; i < len(pub.Rows); i++ {
		if value.CompareRows(pub.Rows[i-1], pub.Rows[i]) > 0 {
			t.Fatalf("epoch %d: rows %d and %d out of order: %v > %v", epoch, i-1, i,
				value.RowString(pub.Rows[i-1]), value.RowString(pub.Rows[i]))
		}
	}
	// The bag's entries are what a from-scratch memory.rows() expands:
	// each published row is its entry's own row, as many times as it
	// counts.
	for i, r := range pub.Rows {
		if e := p.mem.items[value.RowKey(r)]; e == nil || !sameBacking(r, e.row) {
			t.Fatalf("epoch %d: published row %d %v is not the row its bag entry holds", epoch, i, value.RowString(r))
		}
	}
	got := keyCounts(pub.Rows)
	if len(got) != p.mem.size() {
		t.Fatalf("epoch %d: %d distinct published rows, bag has %d", epoch, len(got), p.mem.size())
	}
	for k, e := range p.mem.items {
		if got[k] != e.count {
			t.Fatalf("epoch %d: published multiplicity %d of %v, bag has %d", epoch, got[k], value.RowString(e.row), e.count)
		}
	}
	if rows := p.Rows(); len(rows) != len(pub.Rows) || (len(rows) > 0 && &rows[0] != &pub.Rows[0]) {
		t.Fatalf("epoch %d: Rows() is not the published slice", epoch)
	}
	for _, k := range kept {
		if len(k.pub.Rows) != len(k.headers) {
			t.Fatalf("epoch %d: earlier epoch %d changed length", epoch, k.pub.Epoch)
		}
		for i, r := range k.pub.Rows {
			if !sameBacking(r, k.headers[i]) {
				t.Fatalf("epoch %d: earlier epoch %d row %d rewritten", epoch, k.pub.Epoch, i)
			}
		}
	}
}

func TestPublishMergeTable(t *testing.T) {
	one, three := row(1), row(3)
	// many returns n distinct single-copy rows whose second column is c.
	many := func(n int, c int64) []Delta {
		ds := make([]Delta, n)
		for i := range ds {
			ds[i] = Delta{Row: value.Row{value.NewInt(int64(100 + i)), value.NewInt(c)}, Mult: 1}
		}
		return ds
	}
	cases := []struct {
		name      string
		bag       []Delta
		batch     []Delta
		sameSlice bool // the batch leaves every touched bag entry as it was
		rebuilds  int
		check     func(rows []value.Row) error
	}{
		{name: "assert into empty", batch: []Delta{{oneI, 1}}},
		{name: "retract last row", bag: []Delta{{oneI, 1}}, batch: []Delta{{oneI, -1}}},
		{name: "empty batch", bag: []Delta{{oneI, 1}}, sameSlice: true},
		{name: "multiplicities", bag: []Delta{{row(1), 3}, {row(2), 1}},
			batch: []Delta{{row(1), -2}, {row(3), 2}, {row(0), 1}}},
		{name: "transient pairs of the bag's rows", bag: []Delta{{one, 1}, {row(2), 1}},
			batch: []Delta{{one, -1}, {three, 1}, {one, 1}, {three, -1}}, sameSlice: true},
		{name: "transient pair inside a count", bag: []Delta{{one, 2}},
			batch: []Delta{{row(1), -1}, {row(1), 1}}, sameSlice: true},
		{name: "transient pair publishes the reasserted copy", bag: []Delta{{one, 1}, {row(2), 1}},
			batch: []Delta{{row(1), -1}, {row(1), 1}}},
		{name: "int turning float publishes the float", bag: []Delta{{oneI, 1}, {row(5), 1}},
			batch: []Delta{{oneI, -1}, {oneF, 1}},
			check: func(rows []value.Row) error {
				if rows[0][0].Kind() != value.KindFloat {
					return fmt.Errorf("published %v, bag holds the Float row", value.RowString(rows[0]))
				}
				return nil
			}},
		{name: "twin assert publishes the bag's row", bag: []Delta{{oneI, 1}, {row(5), 1}},
			batch: []Delta{{oneF, 1}},
			check: func(rows []value.Row) error {
				for _, r := range rows[:2] {
					if r[0].Kind() != value.KindInt {
						return fmt.Errorf("published %v, bag holds the Int row", value.RowString(r))
					}
				}
				return nil
			}},
		{name: "nan payloads stay apart", bag: []Delta{{nanA, 2}, {row(9), 1}, {nanB, 1}},
			batch: []Delta{{nanB, -1}},
			check: func(rows []value.Row) error {
				if n := keyCounts(rows)[value.RowKey(nanA)]; n != 2 {
					return fmt.Errorf("%d copies of the first NaN, want 2", n)
				}
				return nil
			}},
		{name: "nan retract inside its run", bag: []Delta{{nanA, 1}, {nanB, 2}, {nanA, 1}},
			batch: []Delta{{nanA, -1}, {nanB, 1}}},
		{name: "batch at the floor merges", bag: []Delta{{row(1), 1}}, batch: many(mergeLimit(1), 1)},
		{name: "batch past the floor rebuilds", bag: []Delta{{row(1), 1}}, batch: many(mergeLimit(1)+1, 1), rebuilds: 1},
		{name: "batch of a quarter of the view merges", bag: many(400, 2), batch: many(100, 1)},
		{name: "batch past a quarter of the view rebuilds", bag: many(400, 2), batch: many(101, 1), rebuilds: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewProduction()
			p.Apply(0, c.bag)
			p.Watch(1)
			before := p.Published()
			kept := []keptPub{keepPub(before)}
			rebuilds := p.Rebuilds()
			p.Apply(0, c.batch)
			p.Publish(2)
			checkMergeLaws(t, p, 2, kept)
			after := p.Published().Rows
			if same := len(after) == len(before.Rows) && (len(after) == 0 || &after[0] == &before.Rows[0]); same != c.sameSlice {
				t.Errorf("slice kept = %v, want %v", same, c.sameSlice)
			}
			if got := p.Rebuilds() - rebuilds; got != c.rebuilds {
				t.Errorf("%d rebuilds, want %d", got, c.rebuilds)
			}
			if c.check != nil {
				if err := c.check(after); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// lawUniverse is the randomised test's row pool: 2k distinct rows
// whose first columns repeat, so compare-equal prefixes are common,
// each with a Float twin sharing its RowKey, plus the two NaNs.
func lawUniverse() (rows, twins []value.Row) {
	for i := 0; i < 2000; i++ {
		a, b := int64(i/4), int64(i%4)
		rows = append(rows, value.Row{value.NewInt(a), value.NewInt(b)})
		twins = append(twins, value.Row{value.NewFloat(float64(a)), value.NewFloat(float64(b))})
	}
	rows = append(rows, nanA, nanB)
	twins = append(twins, nanA, nanB)
	return rows, twins
}

// lawBatch draws one commit's deltas against model (RowKey → count):
// asserts with multiplicities, retractions of present rows, and
// transient retract/assert pairs that net to nothing. Past 3k rows it
// only retracts, so the bag stays within the sizes the test names.
func lawBatch(rng *rand.Rand, rows, twins []value.Row, model map[string]int, n int) []Delta {
	pick := func(i int) value.Row {
		if rng.Intn(2) == 0 {
			return twins[i]
		}
		return rows[i]
	}
	total := 0
	for _, c := range model {
		total += c
	}
	var ds []Delta
	for len(ds) < n {
		i := rng.Intn(len(rows))
		k := value.RowKey(rows[i])
		switch op := rng.Intn(10); {
		case op < 2:
			ds = append(ds, Delta{pick(i), -1}, Delta{pick(i), 1})
		case (op < 6 || total > 3000) && model[k] > 0:
			m := 1 + rng.Intn(model[k])
			ds = append(ds, Delta{pick(i), -m})
			model[k] -= m
			total -= m
		case total <= 3000:
			m := 1 + rng.Intn(3)
			ds = append(ds, Delta{pick(i), m})
			model[k] += m
			total += m
		}
	}
	return ds
}

// TestPublishMergeLaw drives a watched production through random
// commits: bags from empty to 2k distinct rows, batch sizes from 0 to
// twice mergeLimit, each commit arriving in up to three Apply calls with
// an occasional Rows read between them. It checks the publication laws
// after every commit and counts the rebuilds exactly.
func TestPublishMergeLaw(t *testing.T) {
	rows, twins := lawUniverse()
	for _, start := range []int{0, 10, 2000} {
		t.Run(fmt.Sprintf("start-%d", start), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(start) + 1))
			model := map[string]int{}
			p := NewProduction()
			p.Apply(0, lawBatch(rng, rows, twins, model, start))
			p.Watch(1)
			kept := []keptPub{keepPub(p.Published())}
			wantRebuilds, logged := p.Rebuilds(), 0
			limit := mergeLimit(len(p.Rows()))
			fold := func() {
				if logged > limit {
					wantRebuilds++
				}
				logged, limit = 0, mergeLimit(len(p.Rows()))
			}
			for epoch := uint64(2); epoch < 120; epoch++ {
				n := []int{0, 1, 2, 7, 60, limit, limit + 1, 2 * limit}[rng.Intn(8)]
				batch := lawBatch(rng, rows, twins, model, n)
				for len(batch) > 0 {
					part := batch[:1+rng.Intn(len(batch))]
					batch = batch[len(part):]
					p.Apply(0, part)
					logged += len(part)
					if rng.Intn(5) == 0 {
						p.Rows()
						fold()
					}
				}
				p.Publish(epoch)
				fold()
				checkMergeLaws(t, p, epoch, kept)
				if got := p.Rebuilds(); got != wantRebuilds {
					t.Fatalf("epoch %d: %d rebuilds, want %d", epoch, got, wantRebuilds)
				}
				if epoch%10 == 0 {
					kept = append(kept, keepPub(p.Published()))
				}
			}
			for _, k := range kept {
				if rowsDigest(k.pub.Rows) != k.digest {
					t.Fatalf("epoch %d's rows changed after publication", k.pub.Epoch)
				}
			}
		})
	}
}

// TestPublishMergeConcurrentReaders applies random commits while two
// goroutines spin on Published (one also calling Rows, which may fold a
// half-applied commit's log). Run under -race it shows that no merge
// writes into a slice a reader holds.
func TestPublishMergeConcurrentReaders(t *testing.T) {
	rows, twins := lawUniverse()
	rng := rand.New(rand.NewSource(7))
	model := map[string]int{}
	p := NewProduction()
	p.Apply(0, lawBatch(rng, rows, twins, model, 500))
	p.Watch(1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(callRows bool) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pub := p.Published()
				for i := 1; i < len(pub.Rows); i++ {
					if value.CompareRows(pub.Rows[i-1], pub.Rows[i]) > 0 {
						t.Errorf("epoch %d: rows %d and %d out of order", pub.Epoch, i-1, i)
						return
					}
				}
				if callRows {
					p.Rows()
				}
			}
		}(r == 1)
	}
	for epoch := uint64(2); epoch < 300; epoch++ {
		// The bag stays near 3k rows at most, so 1,000 deltas pass its
		// merge limit and rebuild.
		batch := lawBatch(rng, rows, twins, model, []int{1, 3, 40, 1000}[rng.Intn(4)])
		half := len(batch) / 2
		p.Apply(0, batch[:half])
		p.Apply(0, batch[half:])
		p.Publish(epoch)
	}
	close(stop)
	wg.Wait()
	checkMergeLaws(t, p, 299, nil)
}

// BenchmarkPublishMerge is the crossover behind mergeLimit: one fold of
// a log of k deltas into an n-row watched view, merged or rebuilt from
// the bag. Each op toggles k random rows of an (n+k)-row universe, so
// the view stays near n rows. The k = n/8, n/4 and n/2 points bracket
// the crossover at every n.
func BenchmarkPublishMerge(b *testing.B) {
	for _, n := range []int{64, 2000, 20000, 200000} {
		ks := []int{1, 8, 64, 256, 1024, n / 8, n / 4, n / 2}
		slices.Sort(ks)
		for _, k := range slices.Compact(ks) {
			if k > n {
				continue
			}
			for _, mode := range []string{"merge", "rebuild"} {
				b.Run(fmt.Sprintf("n=%d/k=%d/%s", n, k, mode), func(b *testing.B) {
					universe := make([]value.Row, n+k)
					for i := range universe {
						universe[i] = value.Row{value.NewVertex(int64(i)), value.NewInt(int64(i % 100))}
					}
					present := make([]bool, len(universe))
					p := NewProduction()
					for i := 0; i < n; i++ {
						p.mem.apply(universe[i], 1)
						present[i] = true
					}
					p.fold()
					rng := rand.New(rand.NewSource(1))
					ds := make([]Delta, k)
					b.ResetTimer()
					for it := 0; it < b.N; it++ {
						for j := range ds {
							i := rng.Intn(len(universe))
							ds[j] = Delta{universe[i], 1}
							if present[i] {
								ds[j].Mult = -1
							}
							present[i] = !present[i]
							p.mem.apply(ds[j].Row, ds[j].Mult)
						}
						p.pending = append(p.pending, ds...)
						if mode == "rebuild" {
							p.base = nil
						}
						p.fold()
					}
				})
			}
		}
	}
}
