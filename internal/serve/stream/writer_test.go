package stream

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
)

// Sequence-level tests of the one-writer-per-connection write path. They
// steer the interleaving with a transport whose first Write is held back
// and assert on counts and byte totals, never on elapsed time.

// gateConn counts Writes and the bytes handed to them, and holds the
// first Write back, nothing delivered, until release is closed or the
// connection is: a peer that has stopped reading, for exactly as long as
// the test wants. A nil release holds nothing.
type gateConn struct {
	net.Conn
	release <-chan struct{}
	closed  chan struct{}
	once    sync.Once

	writes atomic.Int64
	bytes  atomic.Int64
	first  atomic.Int64 // size of the first Write, set once it has been issued
}

func newGateConn(nc net.Conn, release <-chan struct{}) *gateConn {
	return &gateConn{Conn: nc, release: release, closed: make(chan struct{})}
}

func (c *gateConn) Write(b []byte) (int, error) {
	c.bytes.Add(int64(len(b)))
	if c.writes.Add(1) == 1 {
		c.first.Store(int64(len(b)))
		if c.release != nil {
			select {
			case <-c.release:
			case <-c.closed:
			}
		}
	}
	return c.Conn.Write(b)
}

func (c *gateConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// gateListener accepts gateConns sharing one release and hands each to
// the test.
type gateListener struct {
	net.Listener
	release chan struct{}
	conns   chan *gateConn
}

func (l *gateListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	gc := newGateConn(nc, l.release)
	l.conns <- gc
	return gc, nil
}

// startGatedServer serves reg on loopback behind a gateListener. Cleanup
// force-closes the server; the caller closes reg.
func startGatedServer(t *testing.T, reg *serve.Registry, opts Options) (*Server, *gateListener) {
	t.Helper()
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &gateListener{Listener: tcp, release: make(chan struct{}), conns: make(chan *gateConn, 4)}
	srv := NewServer(reg, opts)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-served
	})
	return srv, ln
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// onlyConn returns the server's single open connection, once Serve has
// registered it.
func onlyConn(t *testing.T, s *Server) *sconn {
	t.Helper()
	var c *sconn
	waitFor(t, "the server to register its one connection", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for k := range s.conns {
			c = k
		}
		return len(s.conns) == 1
	})
	return c
}

func queuedBytes(w *connWriter) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return int64(len(w.buf))
}

// requestFrame encodes one single-input request frame.
func requestFrame(t *testing.T, id uint64, route string, input []float64) []byte {
	t.Helper()
	b, err := appendRequestPayload(beginFrame(nil, FrameRequest, id), route, 0, [][]float64{input})
	if err != nil {
		t.Fatal(err)
	}
	return finishFrame(b, 0)
}

// responseFrameLen is the size of a response frame carrying one result of
// the given number of scores.
func responseFrameLen(t *testing.T, classes int) int64 {
	t.Helper()
	b, err := serve.AppendWireResults(beginFrame(nil, FrameResponse, 1), []serve.Result{{Scores: make([]float64, classes)}})
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(b))
}

// heldBurst issues one call, waits until the frame it causes is held in
// the transport's first Write, then issues n−1 more and waits until the
// frames they cause, each bytes long, are all queued behind it. It returns
// the channel the n calls' errors arrive on.
func heldBurst(t *testing.T, n int, call func() error, gc *gateConn, w *connWriter, each int64) <-chan error {
	t.Helper()
	errs := make(chan error, n)
	issue := func() { go func() { errs <- call() }() }
	issue()
	waitFor(t, "the first frame to be held in its Write", func() bool { return gc.first.Load() > 0 })
	for i := 1; i < n; i++ {
		issue()
	}
	waitFor(t, "the other frames to queue behind the held Write", func() bool {
		return queuedBytes(w) == int64(n-1)*each
	})
	if got := gc.writes.Load(); got != 1 {
		t.Fatalf("%d Writes issued while the first is held, want 1", got)
	}
	return errs
}

// TestStreamWriterCoalescesResponses: sixteen pipelined requests against a
// server whose first Write — the first reply — is held. The other fifteen
// replies are computed and queued behind it; on release all sixteen
// arrive, and the connection has issued two Writes: the held one and one
// for everything queued behind it.
func TestStreamWriterCoalescesResponses(t *testing.T) {
	reg, inputs := newArch2Registry(t, serve.Options{Workers: 2, MaxBatch: 8})
	defer reg.Close()
	srv, ln := startGatedServer(t, reg, Options{})
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	defer cl.Close(ctx)
	gc := <-ln.conns

	const n = 16
	errs := heldBurst(t, n, func() error {
		_, err := cl.Do(ctx, "mnist", inputs[:1])
		return err
	}, gc, onlyConn(t, srv).w, responseFrameLen(t, 10))
	close(ln.release)
	for g := 0; g < n; g++ {
		if err := <-errs; err != nil {
			t.Errorf("pipelined request: %v", err)
		}
	}
	if got := gc.writes.Load(); got != 2 {
		t.Errorf("%d replies took %d Writes, want 2", n, got)
	}
	waitFor(t, "the response counter to catch up with the last Write", func() bool {
		return srv.Stats().Responses == n
	})
	if st := srv.Stats(); st.Writes != 2 {
		t.Errorf("Stats().Writes = %d, the connection saw 2", st.Writes)
	}
}

// TestStreamWriterCoalescesRequests is the client half: of sixteen
// concurrent DoInto calls on a transport whose first Write is held,
// fifteen queue behind the first, and the transport sees two Writes for
// the sixteen request frames.
func TestStreamWriterCoalescesRequests(t *testing.T) {
	reg, inputs := newArch2Registry(t, serve.Options{Workers: 2, MaxBatch: 8})
	defer reg.Close()
	_, ln := startGatedServer(t, reg, Options{})
	close(ln.release) // the server's side is not held in this test
	addr := ln.Addr().String()

	release := make(chan struct{})
	var gc *gateConn
	cl, err := DialOptions(addr, ClientOptions{Dial: func() (net.Conn, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		gc = newGateConn(nc, release)
		return gc, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	defer cl.Close(ctx)

	const n = 16
	errs := heldBurst(t, n, func() error {
		_, err := cl.Do(ctx, "mnist", inputs[:1])
		return err
	}, gc, cl.writer(), int64(len(requestFrame(t, 1, "mnist", inputs[0]))))
	close(release)
	for g := 0; g < n; g++ {
		if err := <-errs; err != nil {
			t.Errorf("concurrent DoInto: %v", err)
		}
	}
	if got := gc.writes.Load(); got != 2 {
		t.Errorf("%d requests took %d Writes, want 2", n, got)
	}
}

// TestStreamWriterDrainFlushesQueuedReplies holds the first Write while a
// drain begins with replies still queued, for both drains the protocol
// has. Every accepted frame must be answered before the connection
// closes; when the client asked for the drain, the server's GOAWAY is the
// ack and must come after every reply.
func TestStreamWriterDrainFlushesQueuedReplies(t *testing.T) {
	for _, initiator := range []string{"client GOAWAY", "server Shutdown"} {
		t.Run(initiator, func(t *testing.T) {
			reg, inputs := newArch2Registry(t, serve.Options{Workers: 2, MaxBatch: 8})
			defer reg.Close()
			srv, ln := startGatedServer(t, reg, Options{})
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			_ = nc.SetDeadline(time.Now().Add(20 * time.Second))

			const n = 12
			var out []byte
			for id := uint64(1); id <= n; id++ {
				out = append(out, requestFrame(t, id, "mnist", inputs[0])...)
			}
			if initiator == "client GOAWAY" {
				out = append(out, goAwayFrame...)
			}
			if _, err := nc.Write(out); err != nil {
				t.Fatal(err)
			}
			gc := <-ln.conns
			total := n * responseFrameLen(t, 10)
			w := onlyConn(t, srv).w
			waitFor(t, "every reply to be queued behind the held Write", func() bool {
				first := gc.first.Load()
				return first > 0 && first+queuedBytes(w) >= total
			})
			shutdown := make(chan error, 1)
			if initiator == "server Shutdown" {
				go func() {
					ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
					defer cancel()
					shutdown <- srv.Shutdown(ctx)
				}()
			}
			waitFor(t, "the GOAWAY to be queued", func() bool { return srv.Stats().GoAways == 1 })
			close(ln.release)

			br := bufio.NewReader(nc)
			answered := make(map[uint64]bool)
			goAways := 0
			var f Frame
			for {
				err := DecodeFrame(br, &f)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatalf("reading the drain: %v", err)
				}
				switch f.Type {
				case FrameResponse:
					if goAways > 0 {
						t.Errorf("reply %d arrived after the GOAWAY", f.ID)
					}
					if answered[f.ID] {
						t.Errorf("reply %d arrived twice", f.ID)
					}
					answered[f.ID] = true
				case FrameGoAway:
					goAways++
					if initiator == "server Shutdown" {
						// Nothing is in flight from here: finish the handshake.
						if _, err := nc.Write(goAwayFrame); err != nil {
							t.Fatal(err)
						}
					}
				default:
					t.Errorf("unexpected frame type %d for id %d", f.Type, f.ID)
				}
			}
			if len(answered) != n || goAways != 1 {
				t.Errorf("connection closed after %d of %d replies and %d GOAWAYs, want all and 1", len(answered), n, goAways)
			}
			if initiator == "server Shutdown" {
				if err := <-shutdown; err != nil {
					t.Errorf("Shutdown: %v", err)
				}
			}
		})
	}
}

// TestStreamBackpressureStalledPeer: a peer that sends as fast as it can
// and never reads. The queue must stop at its cap, the handlers stall
// behind it, the window fill and shed, and the server's heap stay put
// however much more the peer offers; force-closing releases everything.
func TestStreamBackpressureStalledPeer(t *testing.T) {
	reg, inputs := newArch2Registry(t, serve.Options{Workers: 2, MaxBatch: 8})
	defer reg.Close()
	goroutines := runtime.NumGoroutine()
	const window = 8
	srv, ln := startGatedServer(t, reg, Options{Window: window})
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var heap0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heap0)

	// The peer: request frames back to back until the connection dies.
	frame := requestFrame(t, 1, "mnist", inputs[0])
	burst := make([]byte, 0, 64*len(frame))
	for len(burst) < cap(burst) {
		burst = append(burst, frame...)
	}
	var sent atomic.Int64
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		for {
			n, err := nc.Write(burst)
			sent.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()

	<-ln.conns
	c := onlyConn(t, srv)
	const slack = 1 << 10 // one status or response frame past the cap
	check := func() {
		if q := queuedBytes(c.w); q > maxQueuedBytes+slack {
			t.Fatalf("%d bytes queued for a peer that is not reading, cap %d", q, maxQueuedBytes)
		}
		if d := c.inflight.Load(); d > window {
			t.Fatalf("%d frames in flight, window %d", d, window)
		}
	}
	waitFor(t, "the queue to reach its cap", func() bool {
		check()
		return queuedBytes(c.w) > maxQueuedBytes
	})
	// From here every producer that tries blocks, the reader among them,
	// so the peer fills the socket buffers and stalls too. (A pause taken
	// for the stall only makes the checks below run early: they hold at
	// every moment.)
	waitFor(t, "the peer to stall", func() bool {
		check()
		s := sent.Load()
		time.Sleep(10 * time.Millisecond)
		return s == sent.Load()
	})
	check()
	if st := srv.Stats(); st.Shed == 0 {
		t.Errorf("no frame shed with the window full behind a stalled writer: %+v", st)
	}
	var heap1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heap1)
	if grown := int64(heap1.HeapAlloc) - int64(heap0.HeapAlloc); grown > 8*maxQueuedBytes {
		t.Errorf("live heap grew %d bytes behind a stalled peer that sent %d, want it bounded by the queue cap %d",
			grown, sent.Load(), maxQueuedBytes)
	}

	srv.Close()
	nc.Close()
	<-peerDone
	waitFor(t, "every goroutine of the stalled connection to exit", func() bool {
		return runtime.NumGoroutine() <= goroutines
	})
}

// TestClientFlushFailure drops the transport on the flush that carries
// most of a burst (faultinject.DropAfterOps on the second Write). Every
// call of the burst, queued or in flight, must come back ErrConnLost-typed
// inside its context — none hangs, none is silently dropped — the client
// redials and serves the next call, and the new transport carries that
// call's frame and nothing left over from the dropped one.
func TestClientFlushFailure(t *testing.T) {
	reg, inputs := newArch2Registry(t, serve.Options{Workers: 2, MaxBatch: 8})
	defer reg.Close()
	_, ln := startGatedServer(t, reg, Options{})
	close(ln.release) // the server's side is not held in this test
	addr := ln.Addr().String()

	inj := faultinject.New(faultinject.Config{Seed: 13, DropAfterOps: 2})
	release := make(chan struct{})
	var mu sync.Mutex
	var transports []*gateConn
	cl, err := DialOptions(addr, ClientOptions{
		Reconnect:    true,
		ReconnectMin: time.Millisecond,
		ReconnectMax: 5 * time.Millisecond,
		Dial: func() (net.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			defer mu.Unlock()
			var gc *gateConn
			if len(transports) == 0 {
				// Only the first transport is faulty, and its first flush held.
				gc = newGateConn(inj.Wrap(nc), release)
			} else {
				gc = newGateConn(nc, nil)
			}
			transports = append(transports, gc)
			return gc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	defer cl.Close(ctx)

	const n = 16
	frameLen := int64(len(requestFrame(t, 1, "mnist", inputs[0])))
	mu.Lock()
	first := transports[0]
	mu.Unlock()
	errs := heldBurst(t, n, func() error {
		_, err := cl.Do(ctx, "mnist", inputs[:1])
		return err
	}, first, cl.writer(), frameLen)
	close(release) // flush one goes out; flush two, fifteen frames, is the transport's second Write and drops it

	lost := 0
	for g := 0; g < n; g++ {
		switch err := <-errs; {
		case err == nil: // the call of the first flush, if its reply beat the drop
		case errors.Is(err, ErrConnLost):
			lost++
		default:
			t.Errorf("call of the dropped burst failed untyped: %v", err)
		}
	}
	if lost < n-1 {
		t.Errorf("%d calls lost, but %d frames were in the dropped flush", lost, n-1)
	}
	if d := inj.Stats().Drops; d != 1 {
		t.Errorf("injector dropped %d connections, want 1", d)
	}

	// Recovery: fail-fast typed errors until the redial lands, then service.
	waitFor(t, "the client to redial and serve", func() bool {
		_, err := cl.Do(ctx, "mnist", inputs[:1])
		if err != nil && !errors.Is(err, ErrConnLost) {
			t.Fatalf("non-typed error while recovering: %v", err)
		}
		return err == nil
	})
	mu.Lock()
	defer mu.Unlock()
	if len(transports) != 2 {
		t.Fatalf("%d transports dialed, want 2", len(transports))
	}
	if got := transports[1].bytes.Load(); got != frameLen {
		t.Errorf("the new transport was handed %d bytes, want the one %d-byte frame of the call made on it", got, frameLen)
	}
}
