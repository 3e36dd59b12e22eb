package main

import (
	"fmt"
	"math/rand"

	"pgiv/internal/graph"
	"pgiv/internal/value"
	"pgiv/internal/workload"
)

// The op generator never asks the system under test which elements are
// alive. Vertex and edge ids are handed out sequentially, so a shadow of
// the id pools, advanced by the ops it emits, predicts every id the
// system will assign. That keeps generation off the clock and makes every
// generated op hit a live target: an op that binds nothing is a harness
// bug and counts as a failure.

type stepKind uint8

const (
	stAddComment stepKind = iota // AddVertex(:Comm) + AddEdge(parent -REPLY-> it)
	stRemoveVertex
	stSetProp
	stAddKnows
	stRemoveEdge
)

// step is one Mutator call (two for stAddComment), fully materialised.
type step struct {
	kind  stepKind
	id    graph.ID // target, or the id the created vertex must receive
	a, b  graph.ID // parent (stAddComment) or endpoints (stAddKnows)
	key   string
	val   value.Value
	props map[string]value.Value
}

// op is one timed operation: a Cypher text with parameters (a write
// statement or an ad-hoc read), or Mutator steps — one commit for all of
// them, or with eachCommits one commit per step.
type op struct {
	text        string
	params      map[string]value.Value
	class       string // reads only: the read class
	steps       []step
	eachCommits bool
}

var (
	langs      = []string{"en", "de", "fr", "hu"}
	commLabels = []string{"Comm"}
)

// stmtTemplates are the distinct statement texts of the write mix; ids
// and values travel as parameters, so a plan cache keyed by text can hit.
var stmtTemplates = []string{
	"MATCH (p) WHERE id(p) = $id CREATE (p)-[:REPLY]->(:Comm {lang: $lang, score: $score})",
	"MATCH (n) WHERE id(n) = $id SET n.score = $score",
	"MATCH (p) WHERE id(p) = $id SET p.lang = $lang",
	"MATCH (p) WHERE id(p) = $id MERGE (t:Tag {name: $name}) CREATE (p)-[:TAGGED]->(t)",
	"MATCH (n) WHERE id(n) = $id SET n:Hot",
	"MATCH (n) WHERE id(n) = $id REMOVE n:Hot",
	"MATCH (c:Comm) WHERE id(c) = $id DETACH DELETE c",
}

const (
	tmplReply = iota
	tmplScore
	tmplLang
	tmplTag
	tmplHotOn
	tmplHotOff
	tmplDelete
)

// pools shadows the live id pools of one social graph.
type pools struct {
	rng          *rand.Rand
	persons      []graph.ID // never removed by any mix
	posts        []graph.ID // never removed by any mix
	comms        []graph.ID
	knows        []graph.ID       // live KNOWS edge ids
	lang         map[graph.ID]int // current language of every post and comment
	hot          map[graph.ID]bool
	tags         [16]bool
	nextV, nextE graph.ID // last ids assigned
}

// newPools reads the freshly generated graph once, during set-up.
func newPools(soc *workload.Social, seed int64) *pools {
	p := &pools{
		rng:     rand.New(rand.NewSource(seed)),
		persons: soc.Persons, posts: soc.Posts,
		comms: append([]graph.ID(nil), soc.Comments...),
		lang:  make(map[graph.ID]int, len(soc.Posts)+len(soc.Comments)),
		hot:   make(map[graph.ID]bool),
	}
	for _, e := range soc.G.EdgesByType("KNOWS") {
		p.knows = append(p.knows, e.ID)
	}
	langIdx := map[string]int{}
	for i, l := range langs {
		langIdx[l] = i
	}
	for _, ids := range [][]graph.ID{soc.Posts, soc.Comments} {
		for _, id := range ids {
			v, _ := soc.G.VertexByID(id)
			p.lang[id] = langIdx[v.Prop("lang").Str()]
		}
	}
	p.nextV, p.nextE = soc.G.NextIDs()
	return p
}

// inSync reports whether the shadow still predicts the graph's allocators.
func (p *pools) inSync(g *graph.Graph) error {
	v, e := g.NextIDs()
	if v != p.nextV || e != p.nextE {
		return fmt.Errorf("bench: id shadow out of sync: graph at (%d,%d), shadow at (%d,%d)", v, e, p.nextV, p.nextE)
	}
	return nil
}

func (p *pools) pick(ids []graph.ID) graph.ID { return ids[p.rng.Intn(len(ids))] }

func (p *pools) takeComm() graph.ID {
	i := p.rng.Intn(len(p.comms))
	id := p.comms[i]
	p.comms[i] = p.comms[len(p.comms)-1]
	p.comms = p.comms[:len(p.comms)-1]
	delete(p.lang, id)
	return id
}

func (p *pools) message() graph.ID {
	if p.rng.Intn(2) == 0 && len(p.comms) > 0 {
		return p.pick(p.comms)
	}
	return p.pick(p.posts)
}

// otherLang moves id to a language it does not have, so the write is
// never a no-op.
func (p *pools) otherLang(id graph.ID) value.Value {
	l := (p.lang[id] + 1 + p.rng.Intn(len(langs)-1)) % len(langs)
	p.lang[id] = l
	return value.NewString(langs[l])
}

func (p *pools) newComm() (id graph.ID, lang, score value.Value) {
	p.nextV++
	p.nextE++ // its REPLY edge
	l := p.rng.Intn(len(langs))
	p.comms = append(p.comms, p.nextV)
	p.lang[p.nextV] = l
	return p.nextV, value.NewString(langs[l]), value.NewInt(int64(p.rng.Intn(100)))
}

func (p *pools) addComment() step {
	parent := p.message()
	id, lang, score := p.newComm()
	return step{kind: stAddComment, id: id, a: parent,
		props: map[string]value.Value{"lang": lang, "score": score}}
}

func (p *pools) removeComment() step { return step{kind: stRemoveVertex, id: p.takeComm()} }

func (p *pools) flipLanguage() step {
	id := p.message()
	return step{kind: stSetProp, id: id, key: "lang", val: p.otherLang(id)}
}

func (p *pools) addKnows() step {
	a := p.pick(p.persons)
	b := p.pick(p.persons)
	for b == a {
		b = p.pick(p.persons)
	}
	p.nextE++
	p.knows = append(p.knows, p.nextE)
	return step{kind: stAddKnows, id: p.nextE, a: a, b: b,
		props: map[string]value.Value{"weight": value.NewInt(int64(p.rng.Intn(10)))}}
}

func (p *pools) removeKnows() step {
	i := p.rng.Intn(len(p.knows))
	id := p.knows[i]
	p.knows[i] = p.knows[len(p.knows)-1]
	p.knows = p.knows[:len(p.knows)-1]
	return step{kind: stRemoveEdge, id: id}
}

// churnStep draws from the Social.Churn mix: 1/6 add comment, 1/6 remove
// comment, 2/6 language flip, 1/6 add KNOWS, 1/6 remove KNOWS.
func (p *pools) churnStep() step {
	switch p.rng.Intn(6) {
	case 0:
		return p.addComment()
	case 1:
		return p.removeComment()
	case 2, 3:
		return p.flipLanguage()
	case 4:
		return p.addKnows()
	default:
		return p.removeKnows()
	}
}

// pathCycle is the four flips that move transitive and shortest-path
// views, each its own commit. The flips differ in cost by an order of
// magnitude, so the timed op is the whole cycle: every sample then has
// the same composition and the median does not sit between two modes.
// The pools stay stationary.
func (p *pools) pathCycle() op {
	return op{eachCommits: true,
		steps: []step{p.addKnows(), p.addComment(), p.removeKnows(), p.removeComment()}}
}

// stmt draws from the SocialWriteMix shares: 30% reply, 25% score SET,
// 15% language SET, 10% MERGE tag, 10% label flip, 10% DETACH DELETE.
func (p *pools) stmt() op {
	o := op{params: make(map[string]value.Value, 3)}
	set := func(tmpl int, id graph.ID) {
		o.text = stmtTemplates[tmpl]
		o.params["id"] = value.NewInt(int64(id))
	}
	switch r := p.rng.Intn(100); {
	case r < 30:
		set(tmplReply, p.message())
		_, o.params["lang"], o.params["score"] = p.newComm()
	case r < 55:
		set(tmplScore, p.pick(p.comms))
		o.params["score"] = value.NewInt(int64(p.rng.Intn(100)))
	case r < 70:
		id := p.pick(p.posts)
		set(tmplLang, id)
		o.params["lang"] = p.otherLang(id)
	case r < 80:
		set(tmplTag, p.pick(p.posts))
		t := p.rng.Intn(len(p.tags))
		o.params["name"] = value.NewString(fmt.Sprintf("tag-%d", t))
		if !p.tags[t] {
			p.tags[t] = true
			p.nextV++
		}
		p.nextE++
	case r < 90:
		id := p.pick(p.persons)
		if p.hot[id] {
			set(tmplHotOff, id)
		} else {
			set(tmplHotOn, id)
		}
		p.hot[id] = !p.hot[id]
	default:
		set(tmplDelete, p.takeComm())
	}
	return o
}

func (p *pools) read(class string) op {
	o := op{text: readTemplates[class], class: class}
	if class == "point" {
		o.params = map[string]value.Value{"id": value.NewInt(int64(p.pick(p.persons)))}
	}
	return o
}

// next returns the next op of a workload family.
func (p *pools) next(sp *spec) op {
	switch sp.fam {
	case famStmt:
		return p.stmt()
	case famChurn:
		return op{steps: []step{p.churnStep()}}
	case famPath:
		return p.pathCycle()
	case famBatch:
		steps := make([]step, 32)
		for i := range steps {
			steps[i] = p.churnStep()
		}
		return op{steps: steps}
	default:
		return p.read(sp.readClass)
	}
}

// apply performs the steps on m, checking the ids the shadow predicted.
func apply(m graph.Mutator, steps []step) error {
	for i := range steps {
		s := &steps[i]
		var err error
		switch s.kind {
		case stAddComment:
			if id := m.AddVertex(commLabels, s.props); id != s.id {
				return fmt.Errorf("bench: created vertex %d, shadow predicted %d", id, s.id)
			}
			_, err = m.AddEdge(s.a, s.id, "REPLY", nil)
		case stRemoveVertex:
			err = m.RemoveVertex(s.id)
		case stSetProp:
			err = m.SetVertexProperty(s.id, s.key, s.val)
		case stAddKnows:
			var id graph.ID
			if id, err = m.AddEdge(s.a, s.b, "KNOWS", s.props); err == nil && id != s.id {
				err = fmt.Errorf("bench: created edge %d, shadow predicted %d", id, s.id)
			}
		case stRemoveEdge:
			err = m.RemoveEdge(s.id)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
