package stream

import (
	"bufio"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/admission"
)

// Client errors.
var (
	// ErrGoingAway is returned by Do once the server has announced a
	// drain (GOAWAY): in-flight requests still complete, new ones must go
	// to another connection.
	ErrGoingAway = errors.New("stream: connection draining (GOAWAY received)")
	// ErrClientClosed is returned by Do after Close.
	ErrClientClosed = errors.New("stream: client closed")
	// ErrConnLost is the typed identity of a transport failure: every Do
	// that was in flight when the connection died fails with an error for
	// which errors.Is(err, ErrConnLost) is true, and a reconnecting
	// client (ClientOptions.Reconnect) fails fast with it while the
	// redial loop is still backing off. The response to an in-flight call
	// is gone with the connection — the caller decides whether the
	// request is safe to retry (the fleet router does, on a different
	// backend).
	ErrConnLost = errors.New("stream: connection lost")
)

// connLostError carries the transport error underneath the typed
// ErrConnLost identity. One instance is built per disconnect and shared
// by every call it failed.
type connLostError struct{ cause error }

func (e *connLostError) Error() string {
	return "stream: connection lost: " + e.cause.Error()
}
func (e *connLostError) Is(target error) bool { return target == ErrConnLost }
func (e *connLostError) Unwrap() error        { return e.cause }

// ClientOptions parameterises Dial behaviour beyond the defaults.
type ClientOptions struct {
	// Dial overrides the transport dialer — the seam the fault-injection
	// harness (internal/faultinject) and a future TLS wrap plug into.
	// nil dials plain TCP to the DialOptions address.
	Dial func() (net.Conn, error)
	// Reconnect opts into automatic redial: when the connection fails,
	// in-flight calls fail with a typed ErrConnLost error, and the
	// client redials with exponential backoff and jitter instead of
	// dying permanently. Calls made while the transport is down fail
	// fast with ErrConnLost. A server GOAWAY drain followed by a
	// connection close also redials — the rolling-restart shape, where
	// the backend comes back on the same address.
	Reconnect bool
	// ReconnectMin is the initial redial backoff (default 5ms); each
	// failed redial doubles it up to ReconnectMax (default 1s), and each
	// wait is jittered ±50% so a fleet of clients does not thunder back
	// in lockstep.
	ReconnectMin time.Duration
	ReconnectMax time.Duration
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.ReconnectMin <= 0 {
		o.ReconnectMin = 5 * time.Millisecond
	}
	if o.ReconnectMax <= 0 {
		o.ReconnectMax = time.Second
	}
	return o
}

// call is one in-flight request's rendezvous, pooled so the steady-state
// Do round trip allocates nothing. Do encodes the request frame into the
// call's own buffer before queueing it for the writer; the reader parses
// the response into the call's own scratch before signalling done; Do
// copies outward and recycles. A call abandoned by context cancellation
// is NOT pooled — the reader may still be about to touch it (the buffered
// done channel makes that signal harmless on a dead call).
type call struct {
	done    chan struct{}
	frame   []byte // encoded request frame
	scratch serve.WireResultsScratch
	results []serve.Result
	err     error
}

var callPool = sync.Pool{
	New: func() any { return &call{done: make(chan struct{}, 1)} },
}

// Client is one RPS2 connection: any number of goroutines may Do on it
// concurrently, each request becomes one pipelined frame, and responses
// are matched back by id as they complete — out of order, as the server's
// batching dictates. Create one with Dial, DialOptions or NewClient.
type Client struct {
	opts ClientOptions

	mu sync.Mutex
	// w is the current transport and its one writer. It is set at
	// construction and — for a reconnecting client — replaced by the
	// redial loop; a frame is only ever queued on the writer that was
	// current when its call was registered, so nothing queued for a lost
	// transport reaches its successor.
	w        *connWriter
	calls    map[uint64]*call
	inflight int
	idle     chan struct{} // signalled when inflight drops to 0, for Close
	closed   bool
	drained  chan struct{} // closed on the server's GOAWAY drain ack; fresh per connection

	nextID    atomic.Uint64
	goingAway atomic.Bool
	down      atomic.Bool   // reconnecting client with no live transport
	dials     atomic.Uint64 // transports established

	shutdown chan struct{} // closed by Close, wakes the redial backoff

	readDone chan struct{} // closed when the read loop exits for good
	readErr  error         // valid after readDone
}

// Dial connects an RPS2 client to addr over TCP.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, ClientOptions{})
}

// DialOptions is Dial with explicit options: a transport dial hook
// and/or opt-in reconnect. The initial dial failing is returned
// directly — reconnection only spans the life of an established client.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	opts = opts.withDefaults()
	if opts.Dial == nil {
		opts.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	nc, err := opts.Dial()
	if err != nil {
		return nil, err
	}
	return newClient(nc, opts), nil
}

// NewClient speaks RPS2 over an established connection (any net.Conn,
// including net.Pipe ends in tests) and starts its read loop. A client
// built this way has no dialer, so it cannot reconnect.
func NewClient(nc net.Conn) *Client {
	return newClient(nc, ClientOptions{}.withDefaults())
}

func newClient(nc net.Conn, opts ClientOptions) *Client {
	c := &Client{
		opts:     opts,
		w:        newConnWriter(nc, nil, nil),
		calls:    make(map[uint64]*call),
		idle:     make(chan struct{}, 1),
		drained:  make(chan struct{}),
		shutdown: make(chan struct{}),
		readDone: make(chan struct{}),
	}
	c.dials.Store(1)
	go c.read()
	return c
}

// GoingAway reports whether the server has announced a drain.
func (c *Client) GoingAway() bool { return c.goingAway.Load() }

// Down reports whether a reconnecting client currently has no live
// transport (the redial loop is backing off). Calls fail fast with
// ErrConnLost while down.
//
//repro:noalloc
func (c *Client) Down() bool { return c.down.Load() }

// Dials reports how many transport connections the client has
// established — 1 until the first reconnect.
func (c *Client) Dials() uint64 { return c.dials.Load() }

// Do submits one routed request — route is "name" or "name@version",
// exactly the HTTP path's id — and blocks until its response frame
// arrives. If ctx carries a deadline, the remaining budget rides in the
// frame, so the server can shed the request once it is past the SLO
// instead of computing an answer nobody reads. Do is DoInto(..., nil).
func (c *Client) Do(ctx context.Context, route string, inputs [][]float64) ([]serve.Result, error) {
	return c.DoInto(ctx, route, inputs, nil)
}

// DoInto is Do appending the results into out's storage (out[i].Scores
// buffers are reused when their capacity suffices), the allocation-free
// form for a long-lived client goroutine reusing one results slice.
//
//repro:noalloc
func (c *Client) DoInto(ctx context.Context, route string, inputs [][]float64, out []serve.Result) ([]serve.Result, error) {
	if c.goingAway.Load() {
		return out, ErrGoingAway
	}
	if c.down.Load() {
		return out, ErrConnLost
	}
	var budget time.Duration
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl)
		if budget <= 0 {
			return out, context.DeadlineExceeded
		}
	}

	cl := callPool.Get().(*call)
	cl.err = nil
	id := c.nextID.Add(1)
	cl.frame = beginFrame(cl.frame[:0], FrameRequest, id)
	var err error
	cl.frame, err = appendRequestPayload(cl.frame, route, budget, inputs)
	if err != nil {
		callPool.Put(cl)
		return out, err
	}
	cl.frame = finishFrame(cl.frame, 0)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		callPool.Put(cl)
		return out, ErrClientClosed
	}
	//repro:lint-ignore noalloc registering the pending call in the id map may grow it; the sync.Pool reuses call slots themselves
	c.calls[id] = cl
	c.inflight++
	w := c.w
	c.mu.Unlock()

	// The frame goes to the writer of the transport the call was
	// registered against. Once that transport is lost its writer refuses
	// frames with the typed ErrConnLost identity retry policies key on —
	// and it is stopped before the registered calls are failed, so a call
	// registered too late to be failed with them is refused here: no
	// frame is ever queued and then silently dropped.
	if err := w.enqueue(ctx, cl.frame, false); err != nil {
		// The reader may have raced us: a connection failure between
		// registering the call and the refusal runs failInflight, which
		// claims the call and signals done. Pooling a call with that
		// signal still pending would poison the pool, so claim it back
		// under mu — and if the reader won, drain its signal (and prefer
		// its error) before recycling.
		c.mu.Lock()
		_, mine := c.calls[id]
		delete(c.calls, id)
		c.mu.Unlock()
		if !mine {
			<-cl.done
			if cl.err != nil {
				err = cl.err
			}
		}
		c.decInflight()
		callPool.Put(cl)
		return out, err
	}

	select {
	case <-cl.done:
		if cl.err != nil {
			err := cl.err
			c.finish(cl)
			return out, err
		}
		out = appendResults(out, cl.results)
		c.finish(cl)
		return out, nil
	case <-ctx.Done():
		// The response may race in at any moment; drop the call without
		// pooling it (see the call doc comment).
		c.forget(id)
		return out, ctx.Err()
	case <-c.readDone:
		c.forget(id)
		return out, c.readErr
	}
}

// finish recycles a completed call.
//
//repro:noalloc
func (c *Client) finish(cl *call) {
	c.decInflight()
	callPool.Put(cl)
}

// forget unregisters an abandoned or failed call id. The in-flight count
// is decremented unconditionally: every Do ends in exactly one of finish
// (response consumed) or forget, even when the reader claimed the call
// a moment before the abandoning context fired.
//
//repro:noalloc
func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.calls, id)
	c.inflight--
	if c.inflight == 0 {
		select {
		case c.idle <- struct{}{}:
		default:
		}
	}
	c.mu.Unlock()
}

//repro:noalloc
func (c *Client) decInflight() {
	c.mu.Lock()
	c.inflight--
	if c.inflight == 0 {
		select {
		case c.idle <- struct{}{}:
		default:
		}
	}
	c.mu.Unlock()
}

// appendResults copies parsed results into out, reusing out's backing
// storage and per-result score buffers where capacity allows.
//
//repro:noalloc
func appendResults(out, parsed []serve.Result) []serve.Result {
	n := len(parsed)
	for cap(out) < n {
		out = append(out[:cap(out)], serve.Result{})
	}
	out = out[:n]
	for i, r := range parsed {
		scores := append(out[i].Scores[:0], r.Scores...)
		out[i] = r
		out[i].Scores = scores
	}
	return out
}

// read owns the connection lifecycle end to end: it demultiplexes one
// transport until that fails, and — for a reconnecting client — fails
// the in-flight calls with the typed ErrConnLost, redials with backoff,
// and resumes on the fresh transport. It exits (closing readDone) when
// the client is closed or, without Reconnect, on the first transport
// failure.
func (c *Client) read() {
	var rng *rand.Rand // lazily built; jitter only matters when redialing
	for {
		w := c.writer()
		err := c.readConn(w)
		// The transport is done with, whatever ended the read. Closing it
		// makes the writer's last flush fail at once instead of blocking,
		// and stopping the writer — before any registered call is failed
		// — makes every later enqueue on it fail typed (see DoInto).
		_ = w.nc.Close()
		w.stop(err)
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed || !c.opts.Reconnect {
			c.readErr = err
			c.mu.Lock()
			c.closed = true
			c.mu.Unlock()
			close(c.readDone)
			return
		}
		c.down.Store(true)
		c.failInflight(err)
		if rng == nil {
			rng = rand.New(rand.NewSource(time.Now().UnixNano()))
		}
		if !c.redial(rng) {
			c.readErr = ErrClientClosed
			c.mu.Lock()
			c.closed = true
			c.mu.Unlock()
			close(c.readDone)
			return
		}
	}
}

// readConn demultiplexes w's transport until it fails, returning the
// transport error.
func (c *Client) readConn(w *connWriter) error {
	br := bufio.NewReaderSize(w.nc, 64<<10)
	var f Frame
	for {
		if err := DecodeFrame(br, &f); err != nil {
			return err
		}
		switch f.Type {
		case FrameGoAway:
			// Drain announcement or drain ack: either way no new work. A
			// server-initiated drain is answered automatically — once the
			// in-flight calls complete, the client sends its own GOAWAY so
			// the server can finish the handshake without waiting on an
			// explicit Close.
			if !c.goingAway.Swap(true) {
				c.mu.Lock()
				drained := c.drained
				c.mu.Unlock()
				close(drained)
				go c.ackGoAway(w)
			}
		case FrameResponse:
			cl := c.take(f.ID)
			if cl == nil {
				continue // abandoned call; drop the late response
			}
			cl.results, cl.err = serve.ParseWireResults(f.Payload, &cl.scratch)
			cl.done <- struct{}{}
		case FrameStatus:
			cl := c.take(f.ID)
			if cl == nil {
				continue
			}
			code, retryAfter, msg, err := parseStatusPayload(f.Payload)
			switch {
			case err != nil:
				cl.err = err
			case code == 429:
				cl.err = &admission.OverloadError{Reason: string(msg), RetryAfter: retryAfter}
			default:
				cl.err = &StatusError{Code: code, RetryAfter: retryAfter, Msg: string(msg)}
			}
			cl.done <- struct{}{}
		}
	}
}

// failInflight answers every registered call with the typed conn-lost
// error; their waiting Dos wake through the normal done path and release
// the in-flight accounting themselves.
func (c *Client) failInflight(cause error) {
	lost := &connLostError{cause: cause}
	c.mu.Lock()
	failed := make([]*call, 0, len(c.calls))
	for id, cl := range c.calls {
		delete(c.calls, id)
		cl.err = lost
		failed = append(failed, cl)
	}
	c.mu.Unlock()
	// Signal outside mu: a Do racing a failed write may need mu to claim
	// its call back before it consumes this signal.
	for _, cl := range failed {
		cl.done <- struct{}{}
	}
}

// redial re-establishes the transport with exponential backoff and
// ±50% jitter, returning false when the client was closed instead.
func (c *Client) redial(rng *rand.Rand) bool {
	backoff := c.opts.ReconnectMin
	for {
		select {
		case <-c.shutdown:
			return false
		default:
		}
		nc, err := c.opts.Dial()
		if err == nil {
			// Install the fresh transport, with a writer of its own, and
			// reset the per-connection drain state.
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				_ = nc.Close()
				return false
			}
			c.w = newConnWriter(nc, nil, nil)
			c.drained = make(chan struct{})
			c.dials.Add(1)
			c.goingAway.Store(false)
			c.down.Store(false)
			c.mu.Unlock()
			return true
		}
		// Jittered exponential backoff: wait backoff ± 50%.
		wait := backoff/2 + time.Duration(rng.Int63n(int64(backoff)))
		select {
		case <-c.shutdown:
			return false
		case <-time.After(wait):
		}
		backoff *= 2
		if backoff > c.opts.ReconnectMax {
			backoff = c.opts.ReconnectMax
		}
	}
}

// ackGoAway completes the client half of a server-initiated drain: wait
// for the in-flight calls to finish (goingAway already blocks new ones),
// then send GOAWAY so the server knows nothing else is coming. In
// non-reconnect mode, marking the client closed under mu before writing
// makes the wait race-free against a Do that passed the goingAway
// fast-path but has not yet registered: it observes closed and fails
// instead of slipping a frame past the handshake. A reconnecting client
// stays open — the redial loop resets the drain state once the server
// closes the drained connection — so it marks itself down instead. w is
// the transport the GOAWAY arrived on: a stale acker (its connection
// already replaced) leaves the successor alone.
func (c *Client) ackGoAway(w *connWriter) {
	for {
		c.mu.Lock()
		if c.closed || c.w != w {
			c.mu.Unlock()
			return // Close, or the successor transport, owns the handshake from here
		}
		if c.inflight == 0 {
			if c.opts.Reconnect {
				c.down.Store(true)
			} else {
				c.closed = true
			}
			c.mu.Unlock()
			_ = w.enqueue(context.Background(), goAwayFrame, false) // best-effort: a lost connection surfaces in the read loop
			return
		}
		c.mu.Unlock()
		select {
		case <-c.idle:
		case <-c.readDone:
			return
		case <-c.shutdown:
			return
		}
	}
}

// take claims the call registered under id, if any. The in-flight count
// is decremented by the Do that receives the signal (or by forget), not
// here — the call is still in flight until its owner has the result.
func (c *Client) take(id uint64) *call {
	c.mu.Lock()
	cl := c.calls[id]
	if cl != nil {
		delete(c.calls, id)
	}
	c.mu.Unlock()
	return cl
}

// closeShutdown closes the shutdown channel once.
func (c *Client) closeShutdown() {
	c.mu.Lock()
	select {
	case <-c.shutdown:
	default:
		close(c.shutdown)
	}
	c.mu.Unlock()
}

// writer returns the current transport's writer.
func (c *Client) writer() *connWriter {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w
}

// Close drains the connection: it waits for in-flight calls to complete
// (bounded by ctx), sends GOAWAY, and closes the socket. Calls made after
// Close fail with ErrClientClosed.
func (c *Client) Close(ctx context.Context) error {
	c.goingAway.Store(true) // fail-fast new Do calls
	c.closeShutdown()       // stop any redial backoff
	for {
		c.mu.Lock()
		n := c.inflight
		c.mu.Unlock()
		if n == 0 {
			break
		}
		select {
		case <-c.idle:
		case <-ctx.Done():
			_ = c.writer().nc.Close()
			<-c.readDone
			return ctx.Err()
		case <-c.readDone:
			// Connection already gone; nothing left to drain.
			return c.readErr
		}
	}
	c.mu.Lock()
	c.closed = true
	w, drained := c.w, c.drained
	c.mu.Unlock()
	_ = w.enqueue(ctx, goAwayFrame, false) // best-effort: the server may already be gone
	// The server acks the drain with its own GOAWAY before closing; wait
	// for either the ack or the close so no response frame is cut off.
	select {
	case <-drained:
	case <-c.readDone:
	case <-ctx.Done():
	}
	_ = w.nc.Close()
	<-c.readDone
	return nil
}
