package stream

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/serve/admission"
)

// ErrServerClosed is returned by Serve after Close or Shutdown.
var ErrServerClosed = errors.New("stream: server closed")

// Options parameterises the streaming listener. Zero values select the
// documented defaults.
type Options struct {
	// Window is the per-connection pipelining depth: the most request
	// frames one connection may have accepted and not yet answered. It is
	// also the connection's concurrency — every accepted frame runs on a
	// handler goroutine of its own, started on demand and parked for
	// reuse, so one pipelined client can fill the batching scheduler. A
	// frame past the window is shed with a 429 status frame rather than
	// stalling the reader — a blocked reader would head-of-line-block
	// every other request on the connection. Default: 64.
	Window int
	// Admission is the shared admission controller consulted before a
	// request frame is accepted into the window; nil admits everything.
	// The same controller instance should also guard the process's HTTP
	// handlers, so capacity limits hold across both protocols.
	Admission *admission.Controller
	// Metrics, when non-nil, registers the listener's Prometheus series
	// (connection/frame/shed/GOAWAY counters and a pipelining-depth
	// gauge) at NewServer time. The callbacks read the same counters
	// Stats snapshots, so the two surfaces always agree.
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 64
	}
	return o
}

// ServerStats is a snapshot of the streaming listener's counters.
type ServerStats struct {
	// Conns is the number of currently open connections; TotalConns
	// counts every connection ever accepted.
	Conns      int64  `json:"conns"`
	TotalConns uint64 `json:"total_conns"`
	// Frames counts request frames accepted into a connection window;
	// Responses counts response frames handed to a successful socket
	// write, and Writes the socket writes issued — each connection's
	// writer carries every frame ready at that moment in one write, so
	// Responses/Writes is about how many share one.
	Frames    uint64 `json:"frames"`
	Responses uint64 `json:"responses"`
	Writes    uint64 `json:"writes"`
	// Shed counts request frames answered with a 429 status frame
	// (admission or window overflow) instead of being executed.
	Shed uint64 `json:"shed"`
	// GoAways counts server-sent GOAWAY frames — one per drained
	// connection, whether the drain was initiated by Shutdown or by the
	// connection's own teardown acknowledgement.
	GoAways uint64 `json:"goaways"`
}

// Backend answers routed inference requests. *serve.Registry satisfies
// it in a single process; the fleet router satisfies it too, which is
// how cmd/router re-exposes the same RPS2 front end it consumes.
type Backend interface {
	InferInto(ctx context.Context, name, version string, input, scores []float64) (serve.Result, error)
}

// Server speaks RPS2 over any net.Listener, routing request frames into a
// Backend (usually a serve.Registry). One Server may serve several
// listeners; Shutdown drains every connection (GOAWAY handshake) before
// returning.
type Server struct {
	reg  Backend
	opts Options

	mu       sync.Mutex
	lns      map[net.Listener]struct{}
	conns    map[*sconn]struct{}
	draining bool
	closed   bool
	connWG   sync.WaitGroup

	totalConns uint64
	frames     atomic.Uint64
	responses  atomic.Uint64
	writes     atomic.Uint64
	shed       atomic.Uint64
	goaways    atomic.Uint64
}

// NewServer builds a streaming server over reg. When opts.Metrics is set
// the listener's series are registered here, once per server — they are
// callback-backed, reading the same counters Stats reads.
func NewServer(reg Backend, opts Options) *Server {
	s := &Server{
		reg:   reg,
		opts:  opts.withDefaults(),
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[*sconn]struct{}),
	}
	if r := s.opts.Metrics; r != nil {
		r.GaugeFunc("repro_stream_conns", "Open RPS2 connections.",
			func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.conns)) })
		r.CounterFunc("repro_stream_conns_total", "RPS2 connections ever accepted.",
			func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.totalConns) })
		r.CounterFunc("repro_stream_frames_total", "Request frames accepted into a connection window.",
			func() float64 { return float64(s.frames.Load()) })
		r.CounterFunc("repro_stream_responses_total", "Response frames handed to a successful socket write.",
			func() float64 { return float64(s.responses.Load()) })
		r.CounterFunc("repro_stream_writes_total", "Socket writes issued by the connection writers; responses_total over this is the frames sharing one write.",
			func() float64 { return float64(s.writes.Load()) })
		r.CounterFunc("repro_stream_shed_total", "Request frames answered with a 429 status frame.",
			func() float64 { return float64(s.shed.Load()) })
		r.CounterFunc("repro_stream_goaways_total", "Server-sent GOAWAY frames (connection drains).",
			func() float64 { return float64(s.goaways.Load()) })
		r.GaugeFunc("repro_stream_pipeline_depth", "Request frames accepted and not yet answered, summed across open connections.",
			func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				depth := int64(0)
				for c := range s.conns {
					depth += c.inflight.Load()
				}
				return float64(depth)
			})
	}
	return s
}

// Stats snapshots the listener counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	st := ServerStats{
		Conns:      int64(len(s.conns)),
		TotalConns: s.totalConns,
	}
	s.mu.Unlock()
	st.Frames = s.frames.Load()
	st.Responses = s.responses.Load()
	st.Writes = s.writes.Load()
	st.Shed = s.shed.Load()
	st.GoAways = s.goaways.Load()
	return st
}

// Serve accepts connections on ln until the listener fails or the server
// is shut down; it returns ErrServerClosed on a clean stop. Each
// connection gets a reader goroutine, a writer goroutine and one handler
// per frame it has had in flight at once, at most Options.Window.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		_ = ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
		_ = ln.Close()
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopped := s.closed || s.draining
			s.mu.Unlock()
			if stopped {
				return ErrServerClosed
			}
			return err
		}
		c := newSConn(s, nc)
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			_ = nc.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.totalConns++
		s.connWG.Add(1)
		s.mu.Unlock()
		go c.run()
	}
}

// Shutdown drains the server: listeners stop accepting, every open
// connection receives a GOAWAY frame, and Shutdown waits — up to ctx —
// for each connection to answer all of its in-flight frames and close.
// On ctx expiry the stragglers are force-closed and ctx.Err() returned.
// The registry is left open; the caller closes it after Shutdown so
// drained work completes normally.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for ln := range s.lns {
		_ = ln.Close()
	}
	conns := make([]*sconn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.sendGoAway(ctx)
	}
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			_ = c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun: new connections are
// refused, existing ones are completing their GOAWAY handshake. The
// router's drain admin endpoint surfaces this per backend.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close force-closes every listener and connection without draining.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for ln := range s.lns {
		_ = ln.Close()
	}
	for c := range s.conns {
		_ = c.nc.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	return nil
}

// sreq is one request frame accepted into a connection's window, recycled
// through the connection's free list so the steady-state frame path
// allocates nothing.
type sreq struct {
	id       uint64
	name     string // resolved route, interned per connection
	version  string
	deadline time.Duration // client's latency budget; 0 = none
	arrival  time.Time
	wire     []byte // embedded wire-v1 request, copied out of the read buffer
	ticket   admission.Ticket
}

// route is an interned model route.
type route struct{ name, version string }

// sconn is one server-side RPS2 connection.
type sconn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	// w is the connection's only writer: the handlers' replies, the
	// reader's status frames and the GOAWAY all go through its queue.
	w *connWriter

	sbuf   []byte      // status-frame encode scratch, the reader's own
	goaway atomic.Bool // server GOAWAY already queued

	// pending hands accepted frames to the handlers and inflight counts
	// the frames accepted and not yet answered; the reader keeps it at or
	// under the window, so a send on pending (capacity: the window) never
	// blocks. handlers is how many handler goroutines the reader has
	// started: the most frames ever in flight at once.
	pending  chan *sreq
	free     chan *sreq
	inflight atomic.Int64
	handlers int
	hwg      sync.WaitGroup
	routes   map[string]route // route bytes → interned name/version

	// admit is this connection's fairness accounting, handed to
	// AdmitConn so one hot pipelined connection cannot consume the whole
	// global admission budget (Config.MaxPerConn).
	admit admission.ConnState

	ctx    context.Context // cancelled when the connection is torn down
	cancel context.CancelFunc
}

func newSConn(s *Server, nc net.Conn) *sconn {
	ctx, cancel := context.WithCancel(context.Background())
	return &sconn{
		srv:     s,
		nc:      nc,
		br:      bufio.NewReaderSize(nc, 64<<10),
		w:       newConnWriter(nc, &s.writes, &s.responses),
		pending: make(chan *sreq, s.opts.Window),
		free:    make(chan *sreq, s.opts.Window),
		routes:  make(map[string]route),
		ctx:     ctx,
		cancel:  cancel,
	}
}

// run owns the connection lifecycle: the reader loop fills the window and
// starts handlers as it deepens; when the reader stops (client GOAWAY,
// EOF, protocol error) the window is closed, the handlers finish every
// frame already accepted, and the writer flushes every reply they queued
// with the GOAWAY behind them — the drain guarantee — and only then does
// the connection close.
func (c *sconn) run() {
	c.read()
	close(c.pending)
	c.hwg.Wait()
	// All accepted frames are answered; acknowledge the drain (unless
	// Shutdown already announced it) so a GOAWAY-initiated client can
	// distinguish "drained clean" from a cut connection, then tear down.
	c.sendGoAway(c.ctx)
	c.w.stop(net.ErrClosed)
	c.cancel()
	_ = c.nc.Close()
	s := c.srv
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.connWG.Done()
}

// sendGoAway announces the drain to the client (idempotent: one GOAWAY
// per connection, whichever of Shutdown and the connection's own teardown
// gets there first). ctx bounds the wait for room in a queue a stalled
// client has filled.
func (c *sconn) sendGoAway(ctx context.Context) {
	if c.goaway.Swap(true) {
		return
	}
	c.srv.goaways.Add(1)
	_ = c.w.enqueue(ctx, goAwayFrame, false) // best-effort: a lost connection surfaces in the read loop or the teardown
}

// statusFrame encodes a complete status frame for id into dst[:0].
func statusFrame(dst []byte, id uint64, code int, retryAfter time.Duration, msg string) []byte {
	dst = beginFrame(dst[:0], FrameStatus, id)
	dst = appendStatusPayload(dst, code, retryAfter, msg)
	return finishFrame(dst, 0)
}

// writeStatus answers id with a status frame from the reader loop (sheds
// and malformed frames).
func (c *sconn) writeStatus(id uint64, code int, retryAfter time.Duration, msg string) {
	c.sbuf = statusFrame(c.sbuf, id, code, retryAfter, msg)
	_ = c.w.enqueue(c.ctx, c.sbuf, false) // best-effort: a lost connection surfaces in the read loop
}

// lookupRoute interns the route bytes into name/version strings — a map
// hit costs no allocation, so repeated routes (the steady state: clients
// address a handful of models) keep the reader allocation-free.
func (c *sconn) lookupRoute(b []byte) (string, string) {
	if rt, ok := c.routes[string(b)]; ok {
		return rt.name, rt.version
	}
	name, version := model.ParseID(string(b))
	c.routes[string(b)] = route{name: name, version: version}
	return name, version
}

// read is the connection's reader loop: decode frames, shed what
// admission or the window rejects, hand the rest to the handlers. It
// returns when the client is done sending (GOAWAY, EOF) or the stream is
// unrecoverable (protocol error).
func (c *sconn) read() {
	var f Frame
	for {
		if err := DecodeFrame(c.br, &f); err != nil {
			return
		}
		switch f.Type {
		case FrameGoAway:
			// Client is done sending; everything accepted still completes.
			return
		case FrameRequest:
			c.readRequest(&f)
		default:
			// Response/status frames only flow server→client; a peer that
			// sends them is broken, not malicious enough to keep around.
			c.writeStatus(f.ID, 400, 0, fmt.Sprintf("stream: unexpected frame type %d from client", f.Type))
			return
		}
	}
}

// readRequest admits one request frame into the window or sheds it.
func (c *sconn) readRequest(f *Frame) {
	routeB, deadline, wire, err := parseRequestPayload(f.Payload)
	if err != nil {
		c.writeStatus(f.ID, 400, 0, err.Error())
		return
	}
	name, version := c.lookupRoute(routeB)
	var ticket admission.Ticket
	if ctrl := c.srv.opts.Admission; ctrl != nil {
		t, err := ctrl.AdmitConn(name, &c.admit)
		if err != nil {
			c.srv.shed.Add(1)
			var oe *admission.OverloadError
			errors.As(err, &oe)
			c.writeStatus(f.ID, 429, oe.RetryAfter, oe.Reason)
			return
		}
		ticket = t
	}
	if c.inflight.Load() >= int64(c.srv.opts.Window) {
		// Window full: shed rather than block the reader — a stalled
		// reader would head-of-line-block every response already owed.
		ticket.Release()
		c.srv.shed.Add(1)
		retry := time.Duration(0)
		if ctrl := c.srv.opts.Admission; ctrl != nil {
			retry = ctrl.RetryAfter()
		}
		c.writeStatus(f.ID, 429, retry, admission.ReasonQueue)
		return
	}
	var q *sreq
	select {
	case q = <-c.free:
	default:
		q = &sreq{}
	}
	q.id, q.name, q.version, q.deadline = f.ID, name, version, deadline
	q.arrival = time.Now()
	q.wire = append(q.wire[:0], wire...)
	q.ticket = ticket
	// Only this goroutine raises inflight, so the window check above still
	// holds. Every frame in flight has a handler to itself: one more frame
	// than there are handlers starts one more handler.
	if n := int(c.inflight.Add(1)); n > c.handlers {
		c.handlers++
		c.hwg.Add(1)
		go c.handle()
	}
	c.srv.frames.Add(1)
	c.pending <- q
}

func (c *sconn) putFree(q *sreq) {
	select {
	case c.free <- q:
	default:
	}
}

// handle is one handler goroutine: it owns all its decode and encode
// scratch, so at steady state a request frame travels decode → InferInto
// → encode → the writer's queue without a single allocation.
func (c *sconn) handle() {
	defer c.hwg.Done()
	var (
		scratch serve.WireRowsScratch
		results []serve.Result
		out     []byte
	)
	for q := range c.pending {
		var answered bool
		results, out, answered = c.answer(q, &scratch, results, out)
		// The admission slot and the window slot are given back before the
		// reply is queued: a sequential client sends its next request the
		// moment it has read this one's reply, and with a slot still held
		// that request would be shed by the very request it follows.
		q.ticket.Release()
		c.putFree(q)
		c.inflight.Add(-1)
		_ = c.w.enqueue(c.ctx, out, answered) // a lost connection surfaces in the read loop
	}
}

// answer runs one request frame and encodes its reply — a response frame
// (answered) or the status frame of whatever went wrong — into out[:0],
// returning the (possibly grown) scratch slices for reuse.
func (c *sconn) answer(q *sreq, scratch *serve.WireRowsScratch, results []serve.Result, out []byte) ([]serve.Result, []byte, bool) {
	inputs, err := serve.ParseWireRequest(q.wire, scratch)
	if err != nil {
		return results, statusFrame(out, q.id, 400, 0, err.Error()), false
	}
	ctx := c.ctx
	if q.deadline > 0 {
		// The only allocating branch on the frame path, taken just when
		// the client set a latency budget: the deadline context is what
		// lets the batch scheduler shed this request once it is late.
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, q.arrival.Add(q.deadline))
		defer cancel()
	}
	n := len(inputs)
	for cap(results) < n {
		results = append(results[:cap(results)], serve.Result{})
	}
	results = results[:n]
	for i, in := range inputs {
		res, err := c.srv.reg.InferInto(ctx, q.name, q.version, in, results[i].Scores[:0])
		if err != nil {
			return results, c.statusErrFrame(out, q.id, err), false
		}
		results[i] = res
	}
	out = beginFrame(out[:0], FrameResponse, q.id)
	out, err = serve.AppendWireResults(out, results)
	if err != nil {
		return results, statusFrame(out, q.id, 500, 0, err.Error()), false
	}
	return results, finishFrame(out, 0), true
}

// statusErrFrame encodes err's status frame for id (StatusFor is the
// policy). An overload's message is its bare reason — the client rebuilds
// the typed admission.OverloadError from it.
func (c *sconn) statusErrFrame(dst []byte, id uint64, err error) []byte {
	code, retryAfter := StatusFor(err)
	msg := err.Error()
	var oe *admission.OverloadError
	if errors.As(err, &oe) {
		c.srv.shed.Add(1)
		msg = oe.Reason
	}
	return statusFrame(dst, id, code, retryAfter, msg)
}
