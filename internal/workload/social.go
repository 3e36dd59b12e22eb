// Package workload provides deterministic, seeded workload generators for
// the evaluation:
//
//   - a social-network generator modelled on the entities of the paper's
//     running example and the LDBC Social Network Benchmark it cites
//     (Persons, Posts, Comments, KNOWS/LIKES/REPLY edges, language
//     properties), with a fine-grained update stream;
//   - a railway-model generator following the structure of the Train
//     Benchmark (the paper's continuous model validation use case), with
//     the standard queries and inject/repair transformation mixes;
//   - a uniform random graph generator for property-based tests.
//
// All generators write through graph.Mutator, so the same deterministic
// operation stream can load through one batched transaction (the
// default — one coalesced propagation pass for the whole dataset) or
// through auto-committed per-operation transactions (the baseline the
// loading benchmarks compare against). Both paths produce byte-identical
// graphs: IDs are assigned in the same order either way.
//
// Substitution note: the original LDBC and Train
// Benchmark generators are external Java/Hadoop tools; these native
// generators reproduce the entity/edge structure and update
// characteristics that the paper's claims depend on, not the exact
// datasets.
package workload

import (
	"fmt"
	"math/rand"

	"pgiv/internal/graph"
	"pgiv/internal/value"
)

// SocialConfig parameterises the social network generator.
type SocialConfig struct {
	Persons        int
	PostsPerPerson int
	RepliesPerPost int // size of each post's reply tree
	KnowsPerPerson int
	LikesPerPerson int
	Langs          []string
	Seed           int64
}

// DefaultSocialConfig returns a configuration scaled by the given factor
// (scale 1 ≈ 1.3k vertices).
func DefaultSocialConfig(scale int) SocialConfig {
	if scale < 1 {
		scale = 1
	}
	return SocialConfig{
		Persons:        100 * scale,
		PostsPerPerson: 4,
		RepliesPerPost: 8,
		KnowsPerPerson: 6,
		LikesPerPerson: 5,
		Langs:          []string{"en", "de", "fr", "hu"},
		Seed:           42,
	}
}

// Social is a generated social network with handles for the update
// stream.
type Social struct {
	G        *graph.Graph
	Persons  []graph.ID
	Posts    []graph.ID
	Comments []graph.ID
	cfg      SocialConfig
	rng      *rand.Rand
}

var cities = []string{"berlin", "budapest", "aachen", "paris", "wien"}

// NewSocial creates an empty social workload bound to a fresh graph.
// Register views on s.G before calling Load/LoadPerOp to measure (or
// exercise) view maintenance during loading.
func NewSocial(cfg SocialConfig) *Social {
	s := &Social{G: graph.New(), cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if len(s.cfg.Langs) == 0 {
		s.cfg.Langs = []string{"en"}
	}
	return s
}

// GenerateSocial builds a social network graph, loading it in a single
// batched transaction.
func GenerateSocial(cfg SocialConfig) *Social {
	s := NewSocial(cfg)
	s.Load()
	return s
}

// Load populates the graph in one transaction: listeners receive a
// single coalesced ChangeSet for the entire dataset.
func (s *Social) Load() {
	_ = s.G.Batch(func(tx *graph.Tx) error {
		s.build(tx)
		return nil
	})
}

// LoadPerOp populates the graph through auto-committed one-operation
// transactions — the per-operation baseline for the loading benchmarks.
// The resulting graph is identical to Load's.
func (s *Social) LoadPerOp() { s.build(s.G) }

// build emits the deterministic generation stream through m.
func (s *Social) build(m graph.Mutator) {
	cfg := s.cfg
	for i := 0; i < cfg.Persons; i++ {
		id := m.AddVertex([]string{"Person"}, map[string]value.Value{
			"name":  value.NewString(fmt.Sprintf("person-%d", i)),
			"city":  value.NewString(cities[s.rng.Intn(len(cities))]),
			"score": value.NewInt(int64(s.rng.Intn(100))),
		})
		s.Persons = append(s.Persons, id)
	}
	for _, p := range s.Persons {
		for k := 0; k < cfg.KnowsPerPerson; k++ {
			q := s.Persons[s.rng.Intn(len(s.Persons))]
			if q == p {
				continue
			}
			_, _ = m.AddEdge(p, q, "KNOWS", map[string]value.Value{
				"weight": value.NewInt(int64(s.rng.Intn(10))),
			})
		}
	}
	for _, p := range s.Persons {
		for k := 0; k < cfg.PostsPerPerson; k++ {
			post := m.AddVertex([]string{"Post"}, map[string]value.Value{
				"lang":  value.NewString(s.lang()),
				"score": value.NewInt(int64(s.rng.Intn(100))),
			})
			s.Posts = append(s.Posts, post)
			_, _ = m.AddEdge(p, post, "AUTHORED", nil)
			// Grow a reply tree under the post: each comment replies to
			// the post or to an earlier comment of the same thread (the
			// paper's REPLY edges point from the message to its reply).
			thread := []graph.ID{post}
			for r := 0; r < cfg.RepliesPerPost; r++ {
				parent := thread[s.rng.Intn(len(thread))]
				c := m.AddVertex([]string{"Comm"}, map[string]value.Value{
					"lang":  value.NewString(s.lang()),
					"score": value.NewInt(int64(s.rng.Intn(100))),
				})
				s.Comments = append(s.Comments, c)
				_, _ = m.AddEdge(parent, c, "REPLY", nil)
				thread = append(thread, c)
			}
		}
	}
	for _, p := range s.Persons {
		for k := 0; k < cfg.LikesPerPerson; k++ {
			if len(s.Posts) == 0 {
				break
			}
			post := s.Posts[s.rng.Intn(len(s.Posts))]
			_, _ = m.AddEdge(p, post, "LIKES", nil)
		}
	}
}

func (s *Social) lang() string { return s.cfg.Langs[s.rng.Intn(len(s.cfg.Langs))] }

// AddComment inserts a new comment replying to a random message and
// returns its ID (auto-committed).
func (s *Social) AddComment() graph.ID { return s.addComment(s.G) }

func (s *Social) addComment(m graph.Mutator) graph.ID {
	var parent graph.ID
	if len(s.Comments) > 0 && s.rng.Intn(2) == 0 {
		parent = s.Comments[s.rng.Intn(len(s.Comments))]
	} else if len(s.Posts) > 0 {
		parent = s.Posts[s.rng.Intn(len(s.Posts))]
	} else {
		return 0
	}
	c := m.AddVertex([]string{"Comm"}, map[string]value.Value{
		"lang":  value.NewString(s.lang()),
		"score": value.NewInt(int64(s.rng.Intn(100))),
	})
	_, _ = m.AddEdge(parent, c, "REPLY", nil)
	s.Comments = append(s.Comments, c)
	return c
}

// RemoveComment deletes a random comment (with its incident edges,
// auto-committed).
func (s *Social) RemoveComment() bool { return s.removeComment(s.G) }

func (s *Social) removeComment(m graph.Mutator) bool {
	for len(s.Comments) > 0 {
		i := s.rng.Intn(len(s.Comments))
		id := s.Comments[i]
		s.Comments[i] = s.Comments[len(s.Comments)-1]
		s.Comments = s.Comments[:len(s.Comments)-1]
		if err := m.RemoveVertex(id); err == nil {
			return true
		}
	}
	return false
}

// FlipLanguage changes the lang property of a random message — the FGN
// update: a single property-level transition (auto-committed).
func (s *Social) FlipLanguage() graph.ID { return s.flipLanguage(s.G) }

func (s *Social) flipLanguage(m graph.Mutator) graph.ID {
	pool := s.Posts
	if len(s.Comments) > 0 && s.rng.Intn(2) == 0 {
		pool = s.Comments
	}
	if len(pool) == 0 {
		return 0
	}
	id := pool[s.rng.Intn(len(pool))]
	_ = m.SetVertexProperty(id, "lang", value.NewString(s.lang()))
	return id
}

// FlipScore changes the score property of a random person
// (auto-committed).
func (s *Social) FlipScore() graph.ID { return s.flipScore(s.G) }

func (s *Social) flipScore(m graph.Mutator) graph.ID {
	if len(s.Persons) == 0 {
		return 0
	}
	id := s.Persons[s.rng.Intn(len(s.Persons))]
	_ = m.SetVertexProperty(id, "score", value.NewInt(int64(s.rng.Intn(100))))
	return id
}

// FlipPostScore changes the score property of a random post
// (auto-committed) — the post-leaderboard update of the ranked battery.
func (s *Social) FlipPostScore() graph.ID { return s.flipPostScore(s.G) }

func (s *Social) flipPostScore(m graph.Mutator) graph.ID {
	if len(s.Posts) == 0 {
		return 0
	}
	id := s.Posts[s.rng.Intn(len(s.Posts))]
	_ = m.SetVertexProperty(id, "score", value.NewInt(int64(s.rng.Intn(100))))
	return id
}

// ChurnScores applies n random score flips across persons and posts,
// each auto-committed — the update stream of the leaderboard experiment
// (EXP-N): every flip can move a row into, out of, or within the
// registered top-K windows.
func (s *Social) ChurnScores(n int) {
	for i := 0; i < n; i++ {
		if s.rng.Intn(3) == 0 {
			s.flipPostScore(s.G)
		} else {
			s.flipScore(s.G)
		}
	}
}

// AddKnows inserts a KNOWS edge between random persons (auto-committed).
func (s *Social) AddKnows() { s.addKnows(s.G) }

func (s *Social) addKnows(m graph.Mutator) {
	if len(s.Persons) < 2 {
		return
	}
	p := s.Persons[s.rng.Intn(len(s.Persons))]
	q := s.Persons[s.rng.Intn(len(s.Persons))]
	if p != q {
		_, _ = m.AddEdge(p, q, "KNOWS", map[string]value.Value{
			"weight": value.NewInt(int64(s.rng.Intn(10))),
		})
	}
}

// RemoveKnows deletes a random KNOWS edge (auto-committed).
func (s *Social) RemoveKnows() { s.removeKnows(s.G) }

func (s *Social) removeKnows(m graph.Mutator) {
	es := s.G.EdgesByType("KNOWS")
	if len(es) == 0 {
		return
	}
	_ = m.RemoveEdge(es[s.rng.Intn(len(es))].ID)
}

// churn applies n random fine-grained updates drawn from the full
// operation mix through m.
func (s *Social) churn(m graph.Mutator, n int) {
	for i := 0; i < n; i++ {
		switch s.rng.Intn(6) {
		case 0:
			s.addComment(m)
		case 1:
			s.removeComment(m)
		case 2, 3:
			s.flipLanguage(m)
		case 4:
			s.addKnows(m)
		case 5:
			s.removeKnows(m)
		}
	}
}

// Churn applies n random fine-grained updates, each auto-committed (one
// propagation pass per update).
func (s *Social) Churn(n int) { s.churn(s.G, n) }

// ChurnBatch applies n random updates inside one transaction (one
// coalesced propagation pass for the whole mix).
func (s *Social) ChurnBatch(n int) {
	_ = s.G.Batch(func(tx *graph.Tx) error {
		s.churn(tx, n)
		return nil
	})
}

// SocialQueries is the social-network view battery used in benchmarks.
var SocialQueries = map[string]string{
	"threads":     "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t",
	"same-lang":   "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
	"popular":     "MATCH (u:Person)-[:LIKES]->(p:Post) RETURN p, count(u)",
	"fof":         "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) WHERE NOT (a)-[:KNOWS]->(c) RETURN a, c",
	"lonely":      "MATCH (a:Person) WHERE NOT (a)-[:KNOWS]->(:Person) RETURN a",
	"deep-thread": "MATCH t = (p:Post)-[:REPLY*3..]->(c:Comm) RETURN p, c, length(t)",
}

// SocialRankedQueries is the leaderboard battery (EXP-N): ordered
// top-K/windowed views over churning score properties — the
// ORDER BY/SKIP/LIMIT workload class the order-statistic TopKNode
// maintains incrementally. Scores are drawn from 0..99 over hundreds of
// vertices, so window boundaries regularly cut through ties and the
// deterministic tie-break is on the hot path.
var SocialRankedQueries = map[string]string{
	"top10-persons":  "MATCH (a:Person) RETURN a.name, a.score ORDER BY a.score DESC, a.name LIMIT 10",
	"top100-persons": "MATCH (a:Person) RETURN a.name, a.score ORDER BY a.score DESC, a.name LIMIT 100",
	"mid-board":      "MATCH (a:Person) RETURN a.name, a.score ORDER BY a.score DESC, a.name SKIP 45 LIMIT 10",
	"top10-posts":    "MATCH (p:Post) RETURN p, p.score ORDER BY p.score DESC LIMIT 10",
	"top-langs":      "MATCH (p:Post) WITH p.lang AS l, count(*) AS n ORDER BY n DESC, l LIMIT 2 RETURN l, n",
}

// SocialRoutingQueries is the shortest-path battery (EXP-S): bounded-hop
// weighted and unweighted shortest-path views over the churning KNOWS
// graph. Every KNOWS edge carries an integer weight in 0..9, so weighted
// and unweighted routes genuinely differ, and AddKnows/RemoveKnows churn
// moves witnesses on nearly every commit.
var SocialRoutingQueries = map[string]string{
	"route-hops":   "MATCH t = shortestPath((a:Person)-[:KNOWS*1..2]->(b:Person)) RETURN a, b, cost(t)",
	"route-weight": "MATCH t = shortestPath((a:Person)-[:KNOWS*1..2 {weight}]->(b:Person)) RETURN a, b, cost(t)",
	"route-both":   "MATCH t = shortestPath((a:Person)-[:KNOWS*1..2 {weight}]-(b:Person)) RETURN a, b, cost(t), length(t)",
}

// SocialOptionalQueries is the optional-match battery (EXP-M): the same
// social graph queried through OPTIONAL MATCH left outer joins and WITH
// projection horizons — kept separate from SocialQueries so the
// longstanding EXP-A..L figures stay comparable across PRs.
var SocialOptionalQueries = map[string]string{
	"opt-knows":    "MATCH (a:Person) OPTIONAL MATCH (a)-[:KNOWS]->(b:Person) RETURN a, b",
	"opt-likes":    "MATCH (p:Post) OPTIONAL MATCH (p)<-[:LIKES]-(u:Person) WHERE u.score >= 50 RETURN p, u",
	"opt-reply":    "MATCH (p:Post) OPTIONAL MATCH (p)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
	"opt-count":    "MATCH (a:Person) OPTIONAL MATCH (a)-[:KNOWS]->(b) RETURN a, count(b)",
	"with-friends": "MATCH (a:Person)-[:KNOWS]->(b:Person) WITH a, count(b) AS friends WHERE friends >= 3 RETURN a, friends",
	"with-langs":   "MATCH (p:Post) WITH p.lang AS l, count(*) AS n RETURN l, n",
}
