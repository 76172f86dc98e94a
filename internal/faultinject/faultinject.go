// Package faultinject is the serving stack's failure generator: wrapping
// net.Conn and net.Listener implementations that inject transport faults
// — connection drops, read/write latency, truncated writes, corrupted
// bytes — deterministically from a seeded schedule. The chaos suite in
// internal/router and the stream reconnect tests drive real protocol
// stacks through these wrappers, so the failure modes the router's
// circuit breaker and retry policy claim to handle are exercised by
// construction rather than asserted by hand-mocked errors.
//
// Determinism: every wrapped connection derives two private random
// streams (one per direction) from Config.Seed and the connection's
// accept/dial ordinal, and each I/O operation consumes draws from its
// stream in call order. Reads and writes on one connection are already
// serialized by their owners (a demux read loop, a single writer
// goroutine), so a fixed seed replays the same fault schedule for the same
// traffic shape, and a chaos failure reproduces under `go test -run ...
// -seed` instead of vanishing. The wrappers are nonetheless fully
// goroutine-safe: fault draws take a per-direction mutex, never the
// transport's.
package faultinject

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjectedDrop is the error a wrapped connection returns once its
// schedule has dropped it: typed, so tests can tell an injected failure
// from a real one.
var ErrInjectedDrop = errors.New("faultinject: connection dropped by schedule")

// Config is one injector's fault schedule. All probabilities are per
// I/O operation in [0, 1]; zero values inject nothing, so the zero
// Config is a transparent passthrough.
type Config struct {
	// Seed roots the deterministic per-connection fault streams.
	Seed int64
	// DropProb drops the connection (close + typed error) on an
	// operation.
	DropProb float64
	// DropAfterOps unconditionally drops the connection on the N-th
	// operation of either direction (0 disables) — the deterministic
	// "kill the connection mid-request" primitive.
	DropAfterOps int
	// DelayProb sleeps Delay before an operation — injected read/write
	// latency.
	DelayProb float64
	// Delay is the injected latency (default 1ms when DelayProb > 0).
	Delay time.Duration
	// CorruptProb flips one byte of an operation's payload: a corrupted
	// frame the codec must reject rather than misparse.
	CorruptProb float64
	// TruncateProb writes (or delivers) only a prefix of the operation's
	// buffer and then drops the connection — a frame cut off mid-flight.
	TruncateProb float64
}

// Stats counts the faults an injector has delivered.
type Stats struct {
	Conns     uint64 `json:"conns"`
	Drops     uint64 `json:"drops"`
	Delays    uint64 `json:"delays"`
	Corrupted uint64 `json:"corrupted"`
	Truncated uint64 `json:"truncated"`
}

// Injector hands out fault-wrapped connections. One Injector may back
// any number of listeners and dialers; its counters aggregate across all
// of them. Arm/Disarm gate injection at runtime, so a chaos test can run
// a clean warm-up phase over the same wrapped transports.
type Injector struct {
	cfg      Config
	connSeq  atomic.Uint64
	disarmed atomic.Bool

	conns     atomic.Uint64
	drops     atomic.Uint64
	delays    atomic.Uint64
	corrupted atomic.Uint64
	truncated atomic.Uint64
}

// New builds an injector for cfg.
func New(cfg Config) *Injector {
	if cfg.Delay <= 0 {
		cfg.Delay = time.Millisecond
	}
	return &Injector{cfg: cfg}
}

// Disarm makes every wrapped connection a passthrough until Arm; already
// scheduled draws are not consumed while disarmed, so the schedule
// resumes where it paused.
func (in *Injector) Disarm() { in.disarmed.Store(true) }

// Arm (re-)enables fault injection.
func (in *Injector) Arm() { in.disarmed.Store(false) }

// Stats snapshots the injector's fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Conns:     in.conns.Load(),
		Drops:     in.drops.Load(),
		Delays:    in.delays.Load(),
		Corrupted: in.corrupted.Load(),
		Truncated: in.truncated.Load(),
	}
}

// Wrap returns nc with this injector's fault schedule applied. Each call
// assigns the next connection ordinal, so wrap order (= accept/dial
// order) fixes the schedule.
func (in *Injector) Wrap(nc net.Conn) net.Conn {
	id := in.connSeq.Add(1)
	in.conns.Add(1)
	return &conn{
		Conn: nc,
		in:   in,
		r:    side{rng: rand.New(rand.NewSource(in.cfg.Seed ^ int64(id)<<1))},
		w:    side{rng: rand.New(rand.NewSource(in.cfg.Seed ^ int64(id)<<1 ^ 1))},
	}
}

// Listen wraps ln so every accepted connection carries the schedule.
func (in *Injector) Listen(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

// Dialer returns a dial function for addr whose connections carry the
// schedule — the hook shape internal/serve/stream.ClientOptions.Dial
// expects.
func (in *Injector) Dialer(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return in.Wrap(nc), nil
	}
}

type listener struct {
	net.Listener
	in *Injector
}

func (ln *listener) Accept() (net.Conn, error) {
	nc, err := ln.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return ln.in.Wrap(nc), nil
}

// side is one direction's private fault stream.
type side struct {
	mu  sync.Mutex
	rng *rand.Rand
	ops int
}

// fault is one operation's scheduled outcome.
type fault struct {
	delay    bool
	corrupt  int // byte index to flip, -1 for none
	truncate int // bytes to deliver before dropping, -1 for none
	drop     bool
}

// conn applies the schedule to one transport connection.
type conn struct {
	net.Conn
	in      *Injector
	r, w    side
	dropped atomic.Bool
}

// draw consumes one operation's draws from s, in a fixed order so the
// schedule depends only on Seed, connection ordinal and op ordinal.
func (c *conn) draw(s *side, n int) fault {
	cfg := &c.in.cfg
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	f := fault{corrupt: -1, truncate: -1}
	if cfg.DropAfterOps > 0 && s.ops >= cfg.DropAfterOps {
		f.drop = true
	}
	if cfg.DropProb > 0 && s.rng.Float64() < cfg.DropProb {
		f.drop = true
	}
	if cfg.DelayProb > 0 && s.rng.Float64() < cfg.DelayProb {
		f.delay = true
	}
	if cfg.CorruptProb > 0 && s.rng.Float64() < cfg.CorruptProb && n > 0 {
		f.corrupt = s.rng.Intn(n)
	}
	if cfg.TruncateProb > 0 && s.rng.Float64() < cfg.TruncateProb && n > 1 {
		f.truncate = 1 + s.rng.Intn(n-1)
	}
	return f
}

// drop closes the transport and marks the connection dead.
func (c *conn) drop() error {
	if !c.dropped.Swap(true) {
		c.in.drops.Add(1)
		_ = c.Conn.Close()
	}
	return ErrInjectedDrop
}

func (c *conn) Read(p []byte) (int, error) {
	if c.dropped.Load() {
		return 0, ErrInjectedDrop
	}
	if c.in.disarmed.Load() {
		return c.Conn.Read(p)
	}
	f := c.draw(&c.r, len(p))
	if f.drop {
		return 0, c.drop()
	}
	if f.delay {
		c.in.delays.Add(1)
		time.Sleep(c.in.cfg.Delay)
	}
	n, err := c.Conn.Read(p)
	if err != nil {
		return n, err
	}
	if f.truncate >= 0 && f.truncate < n {
		// Deliver a prefix, then kill the connection: the reader sees a
		// frame that stops mid-payload.
		c.in.truncated.Add(1)
		_ = c.drop()
		return f.truncate, nil
	}
	if f.corrupt >= 0 && f.corrupt < n {
		c.in.corrupted.Add(1)
		p[f.corrupt] ^= 0x5a
	}
	return n, err
}

func (c *conn) Write(p []byte) (int, error) {
	if c.dropped.Load() {
		return 0, ErrInjectedDrop
	}
	if c.in.disarmed.Load() {
		return c.Conn.Write(p)
	}
	f := c.draw(&c.w, len(p))
	if f.drop {
		return 0, c.drop()
	}
	if f.delay {
		c.in.delays.Add(1)
		time.Sleep(c.in.cfg.Delay)
	}
	if f.truncate >= 0 && f.truncate < len(p) {
		c.in.truncated.Add(1)
		n, _ := c.Conn.Write(p[:f.truncate])
		_ = c.drop()
		return n, ErrInjectedDrop
	}
	if f.corrupt >= 0 {
		// Corrupt a copy: the caller's buffer is borrowed, not owned.
		buf := make([]byte, len(p))
		copy(buf, p)
		buf[f.corrupt] ^= 0x5a
		c.in.corrupted.Add(1)
		return c.Conn.Write(buf)
	}
	return c.Conn.Write(p)
}

func (c *conn) Close() error {
	c.dropped.Store(true)
	return c.Conn.Close()
}
