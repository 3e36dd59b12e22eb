package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pgiv/client"
	"pgiv/internal/graph"
	"pgiv/internal/ivm"
	"pgiv/internal/rete"
	"pgiv/internal/server"
	"pgiv/internal/value"
	"pgiv/internal/workload"
)

// fsyncPolicy is pgivd's default; its latency here is the sandbox file
// system's, not a device's.
const fsyncPolicy = "always"

// checkpointEvery is pgivd's default cadence: the engine checkpoints
// inside the commit that crosses it, which the caller sees as one slow op.
const checkpointEvery = 1000

var epoch0 = time.Now()

// now is the benchmark's monotonic clock, in nanoseconds.
func now() int64 { return int64(time.Since(epoch0)) }

// world is one workload's system under test, set up the way pgivd sets
// itself up: default engine options (sharing on, NumWorkers 0), and for
// the wire workloads a server on loopback with rewrite and MVCC on.
type world struct {
	sp    *spec
	g     *graph.Graph
	eng   *ivm.Engine
	views []*ivm.View
	pools *pools

	registerMs []float64 // one RegisterView time per view

	// in-process workloads: the benchmark is the views' only subscriber
	lastChange int64                              // clock reading of the latest OnChange callback
	onDeltas   func(view string, ds []rete.Delta) // traced runs: sees every batch

	// wire workloads
	srv    *server.Server
	addr   string
	writer *client.Client // sends Exec
	reader *client.Client // sends Query (read workloads)
	sub    *subscriber

	durDir string // durable workloads: holds wal.log and checkpoint/
}

func socialConfig(scale int, seed int64) workload.SocialConfig {
	cfg := workload.DefaultSocialConfig(scale)
	cfg.Seed = seed
	return cfg
}

func durableOptions(dir string, every int) ivm.DurabilityOptions {
	return ivm.DurabilityOptions{
		WALPath:         filepath.Join(dir, "wal.log"),
		CheckpointDir:   filepath.Join(dir, "checkpoint"),
		Fsync:           fsyncPolicy,
		CheckpointEvery: every,
	}
}

// buildWorld is the set-up that setup_s times: generate and load the
// graph, register and seed the views, and for wire workloads listen,
// dial and subscribe. tmp is a fresh directory for durable state. A
// staged world leaves durability to the traced run, which installs its
// own commit log in place of the engine's.
func buildWorld(sp *spec, seed int64, tmp string, staged bool) (*world, error) {
	w := &world{sp: sp}
	soc := workload.NewSocial(socialConfig(sp.scale, seed))
	w.g = soc.G
	if sp.fam == famBatch && !staged {
		w.durDir = tmp
		eng, err := ivm.OpenDurable(w.g, durableOptions(tmp, checkpointEvery))
		if err != nil {
			return nil, err
		}
		w.eng = eng
	} else {
		w.eng = ivm.NewEngine(w.g)
	}
	soc.Load()
	for _, vd := range sp.views {
		t := now()
		v, err := w.eng.RegisterView(vd.name, vd.query)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("register %s: %w", vd.name, err)
		}
		w.registerMs = append(w.registerMs, float64(now()-t)/1e6)
		w.views = append(w.views, v)
	}
	w.pools = newPools(soc, seed*7919+1)
	if !sp.wire() {
		for _, v := range w.views {
			name := v.Name()
			v.OnChange(func(ds []rete.Delta) {
				w.lastChange = now()
				if w.onDeltas != nil {
					w.onDeltas(name, ds)
				}
			})
		}
		return w, nil
	}
	if err := w.serve(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// serve puts a server in front of the engine and connects the workload's
// clients: a writer, a subscriber on every view, and for reads a reader.
func (w *world) serve() error {
	w.srv = server.New(w.g, w.eng)
	addr, err := w.srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return err
	}
	w.addr = addr.String()
	if w.writer, err = client.Dial(w.addr); err != nil {
		return err
	}
	if w.sp.fam == famRead {
		if w.reader, err = client.Dial(w.addr); err != nil {
			return err
		}
	}
	c, err := client.Dial(w.addr)
	if err != nil {
		return err
	}
	w.sub, err = subscribe(c, w.views)
	return err
}

func (w *world) close() {
	if w.sub != nil {
		w.sub.c.Close()
	}
	for _, c := range []*client.Client{w.writer, w.reader} {
		if c != nil {
			c.Close()
		}
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.eng != nil {
		if w.durDir != "" {
			_ = w.eng.CloseDurable() // shutdown of a scratch world; its files are deleted next
		} else {
			w.eng.Close()
		}
	}
	if w.durDir != "" {
		os.RemoveAll(w.durDir)
	}
}

// subscriber is one client connection subscribed to every view. It keeps
// what a real subscriber keeps — each view's rows, advanced by the delta
// batches — plus the arrival time of every commit's last batch.
type subscriber struct {
	c *client.Client

	mu      sync.Mutex
	state   map[string]map[string]int // view -> row key -> multiplicity
	lastSeq map[string]uint64
	arrival map[uint64]int64 // commit seq -> clock reading of its last batch
	badSeq  int              // batches whose Seq did not increase
}

func subscribe(c *client.Client, views []*ivm.View) (*subscriber, error) {
	s := &subscriber{c: c, state: map[string]map[string]int{},
		lastSeq: map[string]uint64{}, arrival: map[uint64]int64{}}
	for _, v := range views {
		// Nothing commits during set-up, so no batch can precede the
		// seed rows being stored.
		_, rows, seq, err := c.Subscribe(v.Name(), s.onBatch)
		if err != nil {
			c.Close()
			return nil, err
		}
		st := make(map[string]int, len(rows))
		for _, r := range rows {
			st[value.RowKey(r)]++
		}
		s.mu.Lock()
		s.state[v.Name()], s.lastSeq[v.Name()] = st, seq
		s.mu.Unlock()
	}
	return s, nil
}

func (s *subscriber) onBatch(b client.DeltaBatch) {
	t := now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if b.Seq <= s.lastSeq[b.View] {
		s.badSeq++
	}
	s.lastSeq[b.View] = b.Seq
	st := s.state[b.View]
	for _, d := range b.Deltas {
		k := value.RowKey(d.Row)
		if st[k] += d.Mult; st[k] == 0 {
			delete(st, k)
		}
	}
	s.arrival[b.Seq] = t
}

// arrivals waits until every frame already fanned out has been handled
// (a ping's response is ordered after them) and hands over the arrival
// times collected so far.
func (s *subscriber) arrivals() (map[uint64]int64, error) {
	if err := s.c.Ping(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.arrival
	s.arrival = map[uint64]int64{}
	return out, nil
}
