package ivm_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pgiv/internal/graph"
	"pgiv/internal/ivm"
	"pgiv/internal/value"
	"pgiv/internal/workload"
)

// BenchmarkApplyCommitSize locates the commit size from which waking a
// pool helper pays for itself: the 15 non-path social views (joins,
// anti-joins, outer joins, aggregates and top-k windows) at scale 1,
// commits of 1 to 64 churn steps drawn from the Social.Churn mix, on a
// sequential engine (workers=1) and on one that hands groups to a helper
// on every commit with two or more active groups, whatever its size
// (workers=2). Where workers=2 turns faster is where Apply's fan-out
// threshold belongs. Each commit's steps are generated off the clock, in chunks, from
// shadow id pools — Social.ChurnBatch reads the KNOWS extent on every
// removal, which would swamp the small sizes. ns/op is per commit;
// elems/commit is the mean ChangeSet size the engine saw, the figure
// Apply's fan-out threshold is stated in.
//
//	go test -run xxx -bench ApplyCommitSize -benchtime 2000x ./internal/ivm/
func BenchmarkApplyCommitSize(b *testing.B) {
	type world struct {
		soc   *workload.Social
		gen   *churnGen
		count *elemCounter
	}
	worlds := map[int]*world{}
	for _, workers := range []int{1, 2} {
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
		engine := ivm.NewEngine(soc.G, ivm.Options{NumWorkers: workers})
		defer engine.Close()
		engine.SetFanOutAt(0)
		for _, name := range churnBattery() {
			if _, err := engine.RegisterView(name, socialQuery(name)); err != nil {
				b.Fatal(err)
			}
		}
		w := &world{soc: soc, gen: newChurnGen(soc), count: &elemCounter{}}
		soc.G.Subscribe(w.count)
		worlds[workers] = w
	}
	for _, size := range []int{1, 2, 4, 8, 16, 32, 64} {
		for _, workers := range []int{1, 2} {
			w := worlds[workers]
			b.Run(fmt.Sprintf("size=%d/workers=%d", size, workers), func(b *testing.B) {
				*w.count = elemCounter{}
				b.ReportAllocs()
				b.ResetTimer()
				const chunk = 64 // commits generated per timer stop
				for done := 0; done < b.N; done += chunk {
					b.StopTimer()
					w.gen.settle()
					commits := w.gen.commits(min(chunk, b.N-done), size)
					b.StartTimer()
					for _, steps := range commits {
						if err := w.soc.G.Batch(func(tx *graph.Tx) error { return w.gen.apply(tx, steps) }); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				if w.count.commits > 0 {
					b.ReportMetric(float64(w.count.elems)/float64(w.count.commits), "elems/commit")
				}
			})
		}
	}
}

// churnBattery names the non-path views of the social batteries, sorted:
// the view_churn battery of the benchmark harness.
func churnBattery() []string {
	var names []string
	for _, battery := range []map[string]string{workload.SocialQueries,
		workload.SocialRankedQueries, workload.SocialOptionalQueries} {
		for name := range battery {
			if name != "threads" && name != "deep-thread" {
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// socialQuery looks a view up by name across the social batteries.
func socialQuery(name string) string {
	return workload.SocialQueries[name] + workload.SocialRankedQueries[name] + workload.SocialOptionalQueries[name]
}

// elemCounter totals the ChangeSet elements the graph dispatches.
type elemCounter struct{ commits, elems int }

func (c *elemCounter) Apply(cs *graph.ChangeSet) {
	c.commits++
	c.elems += cs.Len()
}

type churnKind uint8

const (
	churnAddComment churnKind = iota
	churnRemoveComment
	churnFlipLang
	churnAddKnows
	churnRemoveKnows
)

type churnStep struct {
	kind churnKind
	id   graph.ID // target vertex or edge, or the parent of a new comment
	b    graph.ID // second endpoint of a new KNOWS edge
	lang string
}

// churnGen draws the Social.Churn mix (1/6 add comment, 1/6 remove
// comment, 2/6 language flip, 1/6 add KNOWS, 1/6 remove KNOWS) from
// shadow pools. Elements a chunk creates join the pools at settle, so a
// generated step never targets an element removed before it runs.
type churnGen struct {
	rng                *rand.Rand
	persons, posts     []graph.ID
	comms, knows       []graph.ID
	newComms, newKnows []graph.ID // created by the running chunk
	langs              []string
	lang               map[graph.ID]int
}

func newChurnGen(soc *workload.Social) *churnGen {
	gen := &churnGen{
		rng:     rand.New(rand.NewSource(7)),
		persons: soc.Persons, posts: soc.Posts,
		comms: append([]graph.ID(nil), soc.Comments...),
		langs: []string{"en", "de", "fr", "hu"},
		lang:  make(map[graph.ID]int),
	}
	for _, e := range soc.G.EdgesByType("KNOWS") {
		gen.knows = append(gen.knows, e.ID)
	}
	for _, id := range append(gen.posts[:len(gen.posts):len(gen.posts)], gen.comms...) {
		v, _ := soc.G.VertexByID(id)
		for i, l := range gen.langs {
			if v.Prop("lang").Str() == l {
				gen.lang[id] = i
			}
		}
	}
	return gen
}

// take removes and returns a random element of *pool.
func (gen *churnGen) take(pool *[]graph.ID) graph.ID {
	p := *pool
	i := gen.rng.Intn(len(p))
	id := p[i]
	p[i] = p[len(p)-1]
	*pool = p[:len(p)-1]
	return id
}

func (gen *churnGen) message() graph.ID {
	if len(gen.comms) > 0 && gen.rng.Intn(2) == 0 {
		return gen.comms[gen.rng.Intn(len(gen.comms))]
	}
	return gen.posts[gen.rng.Intn(len(gen.posts))]
}

func (gen *churnGen) step() churnStep {
	switch k := gen.rng.Intn(6); {
	case k == 0:
		return churnStep{kind: churnAddComment, id: gen.message()}
	case k == 1 && len(gen.comms) > 0:
		id := gen.take(&gen.comms)
		delete(gen.lang, id)
		return churnStep{kind: churnRemoveComment, id: id}
	case k == 4:
		a := gen.persons[gen.rng.Intn(len(gen.persons))]
		c := gen.persons[gen.rng.Intn(len(gen.persons))]
		for c == a {
			c = gen.persons[gen.rng.Intn(len(gen.persons))]
		}
		return churnStep{kind: churnAddKnows, id: a, b: c}
	case k == 5 && len(gen.knows) > 0:
		return churnStep{kind: churnRemoveKnows, id: gen.take(&gen.knows)}
	default:
		id := gen.message()
		l := (gen.lang[id] + 1) % len(gen.langs) // never a no-op write
		gen.lang[id] = l
		return churnStep{kind: churnFlipLang, id: id, lang: gen.langs[l]}
	}
}

// commits generates n commits of size steps each.
func (gen *churnGen) commits(n, size int) [][]churnStep {
	out := make([][]churnStep, n)
	for i := range out {
		out[i] = make([]churnStep, size)
		for j := range out[i] {
			out[i][j] = gen.step()
		}
	}
	return out
}

func (gen *churnGen) apply(m graph.Mutator, steps []churnStep) error {
	for _, s := range steps {
		var err error
		switch s.kind {
		case churnAddComment:
			c := m.AddVertex([]string{"Comm"}, map[string]value.Value{
				"lang": value.NewString("en"), "score": value.NewInt(int64(s.id % 100)),
			})
			gen.newComms = append(gen.newComms, c)
			_, err = m.AddEdge(s.id, c, "REPLY", nil)
		case churnRemoveComment:
			err = m.RemoveVertex(s.id)
		case churnFlipLang:
			err = m.SetVertexProperty(s.id, "lang", value.NewString(s.lang))
		case churnAddKnows:
			var id graph.ID
			id, err = m.AddEdge(s.id, s.b, "KNOWS", map[string]value.Value{"weight": value.NewInt(int64(s.b % 10))})
			gen.newKnows = append(gen.newKnows, id)
		case churnRemoveKnows:
			err = m.RemoveEdge(s.id)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// settle moves the elements the last chunk created into the pools (a
// new comment's language is "en", index 0, the lang map's zero value).
func (gen *churnGen) settle() {
	gen.comms = append(gen.comms, gen.newComms...)
	gen.knows = append(gen.knows, gen.newKnows...)
	gen.newComms, gen.newKnows = gen.newComms[:0], gen.newKnows[:0]
}
