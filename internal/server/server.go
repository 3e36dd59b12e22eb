// Package server implements pgivd: a TCP server exposing the incremental
// view maintenance engine over the pgiv wire protocol (package protocol).
//
// Clients send write statements, ad-hoc read queries, view
// registration/drop requests, and view subscriptions. A subscription
// delivers the OnChange contract over the socket: per committed
// transaction, every subscriber of every touched view receives exactly
// one DeltaBatch frame with the commit's coalesced net deltas, stamped
// with the server's monotonic commit sequence number.
//
// Sequencing works by listener ordering on the graph's dispatch chain:
// the engine subscribes at NewEngine, the server subscribes afterwards,
// and the graph notifies listeners in subscription order. By the time the
// server's Apply runs — still synchronously inside Commit — every view's
// OnChange callback has already buffered its batch with the server, so
// Apply fans the batches out stamped with the commit's epoch. A
// subscriber therefore observes batches in commit order with no gaps,
// and the Subscribe response carries the view's current rows plus the
// sequence number they are consistent with (the wire-level analogue of
// the engine's replay seeding).
//
// Concurrency: sequence numbers ARE the graph's commit epochs, and reads
// never touch the write lock. An ad-hoc query pins an epoch snapshot of
// the graph (graph.Snapshot) and evaluates against it; a view read
// (OpRows) loads the view's published (epoch, rows) pair wait-free. Both
// run concurrently with commits and with each other, so a slow read
// never delays a writer and reads scale with connections. Writes, view
// registration/drop and subscription management still serialise on
// execMu, unchanged. WithSerializedReads restores the old
// everything-on-execMu behaviour (the benchmark baseline).
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pgiv/internal/graph"
	"pgiv/internal/ivm"
	"pgiv/internal/protocol"
	"pgiv/internal/rete"
	"pgiv/internal/snapshot"
	"pgiv/internal/stmt"
	"pgiv/internal/value"
	"pgiv/internal/write"
)

// Server serves one engine over TCP.
type Server struct {
	g      *graph.Graph
	engine *ivm.Engine

	// execMu serialises everything that mutates the graph or the
	// engine's view set: write statements, view registration/drop, and
	// subscription management (Engine methods must not run while a
	// mutation is in flight). Reads do NOT take it (unless serialized):
	// ad-hoc queries evaluate against a pinned epoch snapshot and view
	// reads load published rows, both isolated from half-applied
	// statements by construction.
	execMu sync.Mutex

	// serialized routes reads through execMu like pre-MVCC builds —
	// kept as the measurable baseline behind WithSerializedReads.
	serialized bool

	// noRewrite disables answering ad-hoc queries from materialized view
	// state (the -no-rewrite escape hatch); reads always evaluate from a
	// pinned snapshot.
	noRewrite bool

	// lastSeq is the last stamped commit sequence number — the graph
	// epoch of the latest commit observed by Apply. Guarded by execMu:
	// every commit happens inside it.
	lastSeq uint64

	// subs maps view name -> subscribed connections; hooked marks views
	// whose OnChange dispatcher is installed (views expose no
	// per-callback unsubscribe, so the dispatcher stays for the view's
	// lifetime and consults subs). Both guarded by execMu.
	subs   map[string]map[*conn]bool
	hooked map[string]bool

	// commitBuf accumulates the current commit's per-view batches
	// between the OnChange callbacks and the server's Apply. Only
	// touched inside a commit, which execMu serialises.
	commitBuf []pendingBatch

	// timeouts are the per-connection I/O deadlines (zero fields disable
	// the corresponding deadline). Set at construction, read-only after.
	timeouts Timeouts

	mu     sync.Mutex // guards conns and closed
	conns  map[*conn]bool
	closed bool

	ln net.Listener
	wg sync.WaitGroup
}

type pendingBatch struct {
	view   string
	deltas []protocol.WireDelta
}

// Option configures a Server at construction.
type Option func(*Server)

// Timeouts are the per-connection I/O deadlines. A zero field disables
// that deadline (the pre-timeout behaviour).
type Timeouts struct {
	// ReadIdle is the maximum quiet time between client frames; a
	// connection that sends nothing for this long is closed. Subscribers
	// that only listen must ping within the window to stay connected.
	ReadIdle time.Duration
	// Write bounds each outbound frame write. A subscriber that stops
	// draining its socket stalls the writer on a full TCP buffer; the
	// deadline cuts it loose so a commit blocked on that subscriber's
	// full out channel (backpressure) unblocks instead of wedging the
	// dispatcher.
	Write time.Duration
}

// WithTimeouts sets per-connection read/write deadlines and an idle
// timeout, so one stalled or vanished client can never wedge the commit
// dispatcher or pin resources forever.
func WithTimeouts(t Timeouts) Option {
	return func(s *Server) { s.timeouts = t }
}

// WithSerializedReads makes ad-hoc queries and view reads take execMu
// like writes do, disabling the epoch-snapshot read path. This is the
// pre-MVCC behaviour, kept as the comparison baseline for benchmarks
// (pgivbench EXP-P) and differential testing.
func WithSerializedReads() Option {
	return func(s *Server) { s.serialized = true }
}

// WithoutRewrite disables serving ad-hoc queries from materialized view
// state: every OpQuery evaluates from scratch against a pinned snapshot,
// the pre-rewrite behaviour. Escape hatch (pgivd -no-rewrite) and the
// benchmark baseline for EXP-R.
func WithoutRewrite() Option {
	return func(s *Server) { s.noRewrite = true }
}

// New creates a server for an existing graph + engine pair and hooks it
// into the graph's commit dispatch chain (after the engine — New must be
// called after ivm.NewEngine so sequence stamping sees completed view
// updates). Unless WithSerializedReads is given, it enables MVCC
// snapshot maintenance on the graph so reads never take the write path's
// locks.
func New(g *graph.Graph, engine *ivm.Engine, opts ...Option) *Server {
	s := &Server{
		g:      g,
		engine: engine,
		subs:   make(map[string]map[*conn]bool),
		hooked: make(map[string]bool),
		conns:  make(map[*conn]bool),
	}
	for _, o := range opts {
		o(s)
	}
	if !s.serialized {
		g.EnableMVCC()
	}
	if !s.serialized && !s.noRewrite {
		// Ad-hoc reads serve from materialized state when a registered
		// view covers them; no commit is in flight at construction time.
		engine.EnableRewrite()
	}
	s.lastSeq = g.Epoch()
	g.Subscribe(s)
	return s
}

// Apply is the graph.Listener hook: it runs synchronously inside every
// Commit, after the engine has propagated the changeset and all OnChange
// callbacks have buffered their batches. The commit's sequence number is
// its graph epoch — the same value ad-hoc query responses and published
// view rows carry, so a client can correlate every read with the delta
// stream. Apply fans the buffered batches out to subscribers.
func (s *Server) Apply(cs *graph.ChangeSet) {
	s.lastSeq = cs.Epoch()
	if len(s.commitBuf) == 0 {
		return
	}
	seq := s.lastSeq
	for _, pb := range s.commitBuf {
		msg := &protocol.Message{Type: "delta", Delta: &protocol.DeltaBatch{
			View: pb.view, Seq: seq, Deltas: pb.deltas,
		}}
		for c := range s.subs[pb.view] {
			c.send(msg)
		}
	}
	s.commitBuf = s.commitBuf[:0]
}

// bufferBatch is the per-view OnChange dispatcher body: it encodes the
// commit's coalesced batch once, to be stamped and fanned out by Apply.
func (s *Server) bufferBatch(view string, ds []rete.Delta) {
	if len(s.subs[view]) == 0 {
		return
	}
	wds := make([]protocol.WireDelta, len(ds))
	for i, d := range ds {
		wds[i] = protocol.WireDelta{Row: protocol.EncodeRow(d.Row), Mult: d.Mult}
	}
	s.commitBuf = append(s.commitBuf, pendingBatch{view: view, deltas: wds})
}

// Serve accepts connections on ln until Close. It returns after the
// listener fails (nil error after Close).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := &conn{s: s, nc: nc, out: make(chan *protocol.Message, 256), done: make(chan struct{})}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[c] = true
		s.mu.Unlock()
		s.wg.Add(2)
		go c.writeLoop()
		go c.readLoop()
	}
}

// ListenAndServe listens on addr and serves. The returned ready channel
// yields the bound address once listening (useful with ":0").
func (s *Server) ListenAndServe(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go s.Serve(ln) //nolint:errcheck
	return ln.Addr(), nil
}

// Close stops accepting, closes every connection, waits for their
// goroutines, and unhooks the server from the graph. The engine and
// graph stay usable. Connections are cut immediately, with no goodbye
// grace; use CloseWithTimeout for a graceful shutdown.
func (s *Server) Close() {
	s.closeWithin(0)
}

// CloseWithTimeout is the graceful Close: it stops accepting, sends each
// connection a best-effort "bye" frame (so clients can distinguish a
// deliberate shutdown from a crash), waits up to d for the writers to
// flush it, then closes every connection and waits for their goroutines.
// The deadline bounds the whole shutdown — a subscriber that refuses to
// drain its socket cannot hold the server open past it. Returns true if
// every goodbye flushed within the deadline.
func (s *Server) CloseWithTimeout(d time.Duration) bool {
	return s.closeWithin(d)
}

func (s *Server) closeWithin(d time.Duration) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return true
	}
	s.closed = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	flushed := true
	if d > 0 {
		// Goodbye phase: enqueue a "bye" on each connection without
		// blocking (a stalled subscriber's full queue just skips it —
		// that connection gets the abrupt close below), then wait out
		// the grace period for the writers to flush. A writer exits
		// right after putting the bye on the wire, which closes done.
		bye := &protocol.Message{Type: "bye"}
		waiting := make([]*conn, 0, len(conns))
		for _, c := range conns {
			select {
			case c.out <- bye:
				waiting = append(waiting, c)
			case <-c.done:
			default:
				flushed = false
			}
		}
		deadline := time.NewTimer(d)
		for _, c := range waiting {
			select {
			case <-c.done:
			case <-deadline.C:
				flushed = false
				// Deadline spent: cut the rest off immediately.
				deadline.Reset(0)
			}
		}
		deadline.Stop()
	}
	for _, c := range conns {
		c.close()
	}
	s.wg.Wait()
	s.g.Unsubscribe(s)
	return flushed
}

// Seq returns the last stamped commit sequence number.
func (s *Server) Seq() uint64 {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	return s.lastSeq
}

// conn is one client connection. Outbound frames (responses and delta
// batches) flow through the out channel to a single writer goroutine, so
// a commit never interleaves frames with a response mid-write; if a slow
// subscriber fills the buffer the committing statement blocks —
// backpressure, not loss.
type conn struct {
	s    *Server
	nc   net.Conn
	out  chan *protocol.Message
	done chan struct{} // closed when the writer exits
	once sync.Once
}

func (c *conn) close() {
	c.once.Do(func() {
		c.nc.Close()
	})
}

func (c *conn) send(m *protocol.Message) {
	select {
	case c.out <- m:
	case <-c.done:
	}
}

func (c *conn) writeLoop() {
	defer c.s.wg.Done()
	defer close(c.done)
	for m := range c.out {
		if d := c.s.timeouts.Write; d > 0 {
			c.nc.SetWriteDeadline(time.Now().Add(d)) //nolint:errcheck
		}
		if err := protocol.WriteFrame(c.nc, m); err != nil {
			c.close()
			// Drain senders until readLoop closes the channel.
			for range c.out {
			}
			return
		}
		if m.Type == "bye" {
			// Goodbye flushed: nothing further may follow it. Exit (which
			// closes done, unblocking the graceful Close and any blocked
			// send) and drain what readLoop still feeds us.
			c.close()
			for range c.out {
			}
			return
		}
	}
}

func (c *conn) readLoop() {
	defer c.s.wg.Done()
	defer func() {
		c.close()
		c.s.detach(c)
		close(c.out)
	}()
	for {
		if d := c.s.timeouts.ReadIdle; d > 0 {
			c.nc.SetReadDeadline(time.Now().Add(d)) //nolint:errcheck
		}
		msg, err := protocol.ReadFrame(c.nc)
		if err != nil {
			return
		}
		if msg.Type != "req" || msg.Req == nil {
			return
		}
		if resp := c.s.handle(c, msg.Req); resp != nil {
			c.send(&protocol.Message{Type: "resp", Resp: resp})
		}
	}
}

// detach removes a dying connection from every subscriber set and from
// the server's connection table.
func (s *Server) detach(c *conn) {
	s.execMu.Lock()
	for _, set := range s.subs {
		delete(set, c)
	}
	s.execMu.Unlock()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func errResp(id uint64, format string, args ...interface{}) *protocol.Response {
	return &protocol.Response{ID: id, Error: fmt.Sprintf(format, args...)}
}

func (s *Server) handle(c *conn, req *protocol.Request) *protocol.Response {
	switch req.Op {
	case protocol.OpPing:
		return &protocol.Response{ID: req.ID}
	case protocol.OpViews:
		return &protocol.Response{ID: req.ID, Views: s.engine.ViewNames()}
	case protocol.OpExec:
		return s.handleExec(req)
	case protocol.OpQuery:
		return s.handleQuery(req)
	case protocol.OpRows:
		return s.handleRows(req)
	case protocol.OpRegister:
		return s.handleRegister(req)
	case protocol.OpDrop:
		return s.handleDrop(req)
	case protocol.OpSubscribe:
		return s.handleSubscribe(c, req)
	case protocol.OpUnsubscribe:
		s.execMu.Lock()
		if set, ok := s.subs[req.Name]; ok {
			delete(set, c)
		}
		s.execMu.Unlock()
		return &protocol.Response{ID: req.ID}
	}
	return errResp(req.ID, "server: unknown op %q", req.Op)
}

func (s *Server) handleExec(req *protocol.Request) *protocol.Response {
	w, err := stmt.Write(req.Text)
	if errors.Is(err, stmt.ErrNotWrite) {
		return errResp(req.ID, "server: exec requires a write statement; use query for reads")
	}
	if err != nil {
		return errResp(req.ID, "%v", err)
	}
	params, err := protocol.DecodeParams(req.Params)
	if err != nil {
		return errResp(req.ID, "%v", err)
	}
	s.execMu.Lock()
	defer s.execMu.Unlock()
	before := s.lastSeq
	st, err := write.ExecPrepared(s.g, w, params)
	if err != nil {
		return errResp(req.ID, "%v", err)
	}
	resp := &protocol.Response{ID: req.ID, Stats: &protocol.WriteStats{
		MatchedRows:   st.MatchedRows,
		NodesCreated:  st.NodesCreated,
		EdgesCreated:  st.EdgesCreated,
		NodesDeleted:  st.NodesDeleted,
		EdgesDeleted:  st.EdgesDeleted,
		PropertiesSet: st.PropertiesSet,
		LabelsAdded:   st.LabelsAdded,
		LabelsRemoved: st.LabelsRemoved,
	}}
	if s.lastSeq != before { // the statement committed a non-empty changeset
		resp.Seq = s.lastSeq
	}
	return resp
}

// handleQuery evaluates an ad-hoc read. Without execMu: it pins the
// latest committed epoch and evaluates against that immutable snapshot,
// so it runs concurrently with writers and other readers and can never
// observe a half-applied statement. The response's Seq is the pinned
// epoch. Read-your-writes per connection follows from the wire being
// ordered: by the time a client sends the query, its own exec response
// (carrying that commit's epoch) is already on the wire, and Snapshot
// pins an epoch at least as new as any completed commit.
func (s *Server) handleQuery(req *protocol.Request) *protocol.Response {
	params, err := protocol.DecodeParams(req.Params)
	if err != nil {
		return errResp(req.ID, "%v", err)
	}
	var (
		res *snapshot.Result
		seq uint64
	)
	switch {
	case s.serialized:
		s.execMu.Lock()
		res, err = snapshot.Query(s.g, req.Text, params)
		seq = s.lastSeq
		s.execMu.Unlock()
	case s.noRewrite:
		snap := s.g.Snapshot()
		res, err = snapshot.Query(snap, req.Text, params)
		seq = snap.Epoch()
		snap.Release()
	default:
		// Rewrite path: answer from a covering view memo when one exists
		// (falling back to snapshot evaluation inside the engine on a
		// miss). Seq is the epoch the answer reflects either way.
		res, seq, err = s.engine.QueryParams(req.Text, params)
	}
	if err != nil {
		return errResp(req.ID, "%v", err)
	}
	rows := make([][]protocol.WireValue, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = protocol.EncodeRow(r)
	}
	return &protocol.Response{ID: req.ID, Schema: []string(res.Schema), Rows: rows, Seq: seq}
}

// handleRows returns a registered view's current contents. Without
// execMu: the view's production publishes an immutable (epoch, rows)
// pair after every commit, and this handler just loads it — a wait-free
// read that never blocks a commit and is never blocked by one. Seq is
// the epoch the rows are consistent with.
func (s *Server) handleRows(req *protocol.Request) *protocol.Response {
	v, ok := s.engine.View(req.Name)
	if !ok {
		return errResp(req.ID, "server: no view %q", req.Name)
	}
	var (
		cur []value.Row
		seq uint64
	)
	if s.serialized {
		s.execMu.Lock()
		cur = v.Rows()
		seq = s.lastSeq
		s.execMu.Unlock()
	} else if cur, seq, ok = v.PublishedRows(); !ok {
		// Not watched (registered before this server, or engine used
		// directly): fall back to the locked path once.
		s.execMu.Lock()
		v.Watch()
		cur, seq, _ = v.PublishedRows()
		s.execMu.Unlock()
	}
	rows := make([][]protocol.WireValue, len(cur))
	for i, r := range cur {
		rows[i] = protocol.EncodeRow(r)
	}
	return &protocol.Response{ID: req.ID, Schema: []string(v.Schema()), Rows: rows, Seq: seq}
}

func (s *Server) handleRegister(req *protocol.Request) *protocol.Response {
	if req.Name == "" {
		return errResp(req.ID, "server: register requires a view name")
	}
	params, err := protocol.DecodeParams(req.Params)
	if err != nil {
		return errResp(req.ID, "%v", err)
	}
	s.execMu.Lock()
	defer s.execMu.Unlock()
	v, err := s.engine.RegisterViewParams(req.Name, req.Text, params)
	if err != nil {
		return errResp(req.ID, "%v", err)
	}
	if !s.serialized {
		// Start epoch publication now (no commit can be in flight:
		// execMu is held), so OpRows reads are wait-free from the start.
		v.Watch()
	}
	return &protocol.Response{ID: req.ID, Schema: []string(v.Schema())}
}

func (s *Server) handleDrop(req *protocol.Request) *protocol.Response {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	if err := s.engine.DropView(req.Name); err != nil {
		return errResp(req.ID, "%v", err)
	}
	// A future view under the same name is a different view: drop the
	// old dispatcher bookkeeping and subscriber set.
	delete(s.hooked, req.Name)
	delete(s.subs, req.Name)
	return &protocol.Response{ID: req.ID}
}

// handleSubscribe enqueues its own response while still holding execMu,
// so no later commit's delta frames can precede it on the wire; the
// returned nil tells readLoop not to send a second response.
func (s *Server) handleSubscribe(c *conn, req *protocol.Request) *protocol.Response {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	v, ok := s.engine.View(req.Name)
	if !ok {
		return errResp(req.ID, "server: no view %q", req.Name)
	}
	if !s.hooked[req.Name] {
		name := req.Name
		v.OnChange(func(ds []rete.Delta) { s.bufferBatch(name, ds) })
		s.hooked[name] = true
	}
	set := s.subs[req.Name]
	if set == nil {
		set = make(map[*conn]bool)
		s.subs[req.Name] = set
	}
	set[c] = true
	// Seed from the published epoch when available (its epoch equals
	// lastSeq here: publication happens inside every commit, and execMu
	// excludes commits now). Either way the rows are consistent with the
	// stamped Seq, and later delta frames carry strictly greater ones.
	cur, seq, ok := v.PublishedRows()
	if !ok {
		cur, seq = v.Rows(), s.lastSeq
	}
	rows := make([][]protocol.WireValue, len(cur))
	for i, r := range cur {
		rows[i] = protocol.EncodeRow(r)
	}
	c.send(&protocol.Message{Type: "resp", Resp: &protocol.Response{
		ID: req.ID, Schema: []string(v.Schema()), Rows: rows, Seq: seq,
	}})
	return nil
}
