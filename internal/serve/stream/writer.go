package stream

import (
	"context"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
)

// maxQueuedBytes is the backpressure threshold of a connection's outbound
// queue: a producer waits while more than this is queued and unwritten.
// With the double buffer, a connection holds at most two queues of this
// size plus one frame each. 256 KiB is two thousand 120-byte responses or
// a hundred 2 KB requests — far more than one flush ever carries while
// the peer is reading, so only a stalled peer reaches it.
const maxQueuedBytes = 256 << 10

// connWriter is the only writer of one transport, on either end of an
// RPS2 connection. Producers — the server's handlers and reader, the
// client's DoInto callers — append finished frames to buf under mu and
// post the 1-slot wake channel; the writer goroutine wakes, yields the
// processor once, takes everything queued by then and issues one Write
// for it. There is no timer and no hold: a lone frame is written as soon
// as the writer is scheduled.
//
// The yield is what makes frames share a Write. The producers one batch
// completion makes runnable run one after another, and the first one's
// wake puts the writer next in line on that processor, ahead of the
// others: without the yield it flushes that one frame, with it the rest
// of the batch has queued behind it by the time it looks.
//
// What a blocking per-frame write gave for free is kept explicitly:
// memory stays bounded (enqueue waits while more than maxQueuedBytes are
// queued, so a peer that stops reading stalls its producers), stop
// flushes what is queued before the transport is closed, and a failed
// Write is sticky — it closes the transport so the connection's reader
// unblocks, wakes waiting producers, and fails every later enqueue with
// an ErrConnLost-typed error. A connWriter is never reused for another
// transport, so no frame queued for one is written to its successor.
type connWriter struct {
	nc net.Conn
	// writes and responses, when non-nil, count the Writes issued and the
	// response frames a successful Write carried: the server's Stats. A
	// client passes nil.
	writes, responses *atomic.Uint64

	mu     sync.Mutex
	buf    []byte        // frames queued for the next Write
	nresp  int           // response frames among them
	err    error         // sticky: set by a failed Write or by stop; no enqueue succeeds after
	room   chan struct{} // non-nil while producers wait for the queue to empty; closed to wake them
	wake   chan struct{} // 1-slot: "something is queued, or stop was called"
	exited chan struct{} // closed when the writer goroutine returns
}

// newConnWriter starts the writer goroutine for nc. Release it with stop.
func newConnWriter(nc net.Conn, writes, responses *atomic.Uint64) *connWriter {
	w := &connWriter{
		nc:        nc,
		writes:    writes,
		responses: responses,
		wake:      make(chan struct{}, 1),
		exited:    make(chan struct{}),
	}
	go w.run()
	return w
}

// enqueue queues one complete frame (response says it is a response frame,
// which the server counts) and wakes the writer. It blocks only while the
// queue is over maxQueuedBytes, giving up when ctx is done. An error other
// than ctx's is ErrConnLost-typed: the frame was not queued and the
// transport is gone.
//
//repro:noalloc
func (w *connWriter) enqueue(ctx context.Context, frame []byte, response bool) error {
	w.mu.Lock()
	for len(w.buf) > maxQueuedBytes && w.err == nil {
		if w.room == nil {
			w.room = make(chan struct{})
		}
		room := w.room
		w.mu.Unlock()
		select {
		case <-room:
		case <-ctx.Done():
			return ctx.Err()
		}
		w.mu.Lock()
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.buf = append(w.buf, frame...)
	if response {
		w.nresp++
	}
	w.mu.Unlock()
	w.kick()
	return nil
}

//repro:noalloc
func (w *connWriter) kick() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// take hands the writer everything queued, leaving the spare buffer in
// its place, and releases the producers waiting for room. stopping
// reports that no frame will be queued after these.
func (w *connWriter) take(spare []byte) (buf []byte, nresp int, stopping bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf, nresp, stopping = w.buf, w.nresp, w.err != nil
	w.buf, w.nresp = spare[:0], 0
	w.wakeProducers()
	return buf, nresp, stopping
}

// wakeProducers releases every enqueue waiting for room; mu is held.
func (w *connWriter) wakeProducers() {
	if w.room != nil {
		close(w.room)
		w.room = nil
	}
}

// fail makes cause the sticky error, unless one is set already, and wakes
// the producers waiting for room so they see it.
func (w *connWriter) fail(cause error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = &connLostError{cause: cause}
	}
	w.wakeProducers()
}

// run is the writer goroutine: take under the lock, Write with it
// released, until stop is called or a Write fails.
func (w *connWriter) run() {
	defer close(w.exited)
	var spare []byte
	for range w.wake {
		runtime.Gosched()
		buf, nresp, stopping := w.take(spare)
		spare = buf
		if len(buf) > 0 {
			if w.writes != nil {
				w.writes.Add(1)
			}
			if _, err := w.nc.Write(buf); err != nil {
				// Whatever was queued behind buf is dropped with the
				// connection: closing it is what tells the reader, and
				// through the reader everyone waiting on a reply.
				w.fail(err)
				_ = w.nc.Close()
				return
			}
			if w.responses != nil {
				w.responses.Add(uint64(nresp))
			}
		}
		if stopping {
			return
		}
	}
}

// stop ends the queue: enqueues from now on fail with an error wrapping
// cause, the frames already queued are flushed (on a transport that is
// already closed that flush fails at once), and stop returns when the
// writer goroutine has exited. The caller closes the transport.
func (w *connWriter) stop(cause error) {
	w.fail(cause)
	w.kick()
	<-w.exited
}
