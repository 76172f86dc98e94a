package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/stream"
)

// stream_closed and fleet_open drive the RPS2 front end with this repo's
// own stream.Client: the first saturates one cmd/serve with waiting
// callers, the second offers a fixed Poisson rate to cmd/router in front
// of two cmd/serve and times every request from when it was due.

const (
	streamConns   = 2 // never more connections than cores here
	closedPerConn = 16
	openLanes     = 96 // workers: 48 per connection, under the server's 64-frame window
	// openBacklog is how many due requests may wait for a free worker
	// before the pacer itself blocks; either way the wait is measured.
	openBacklog    = 4096
	fleetBackends  = 2
	fleetRate      = 6000.0 // req/s; about a third of what this topology sustains closed-loop
	minIssuedShare = 0.99
)

type streamInst struct {
	e      *env
	open   bool
	rate   float64
	bundle string
	pool   [][]float64
	oracle *oracle

	serves  []*proc
	router  *proc
	clients []*stream.Client

	ctx    context.Context
	cancel context.CancelFunc

	work      chan arrival // open loop: pacer → workers
	scheduled atomic.Int64 // open loop: requests due inside the windows
	issued    atomic.Int64 // …and those actually sent inside them
}

func prepareStream(e *env, open bool) (instance, error) {
	net := newModel()
	bundle := filepath.Join(e.workDir, "model", modelName)
	if err := writeBundle(bundle, net, []int{arch1Features}); err != nil {
		return nil, err
	}
	in := &streamInst{e: e, open: open, bundle: bundle, rate: fleetRate}
	in.pool = newPool(e.seed, servingPool, arch1Features)
	in.oracle = newOracle(net, in.pool, 0)
	if e.corrupt {
		for i := range in.pool { // any draw must hit it
			in.oracle.corrupt(i)
		}
	}
	return in, nil
}

func (in *streamInst) setUp() error {
	nServes := 1
	if in.open {
		nServes = fleetBackends
	}
	for i := 0; i < nServes; i++ {
		p, err := startServe(in.e, fmt.Sprintf("%s-serve%d", in.e.workload, i), in.bundle)
		if err != nil {
			return err
		}
		in.serves = append(in.serves, p)
	}
	target := in.serves[0].tcpAddr
	if in.open {
		r, err := startRouter(in.e, in.e.workload+"-router", in.serves)
		if err != nil {
			return err
		}
		in.router = r
		target = r.tcpAddr
	}
	var err error
	in.clients, err = dialClients(target, streamConns)
	return err
}

func (in *streamInst) tearDown() {
	closeClients(in.clients)
	in.clients = nil
	if in.router != nil {
		in.router.stop(stopGrace)
		in.router = nil
	}
	for _, p := range in.serves {
		p.stop(stopGrace)
	}
	in.serves = nil
	if in.cancel != nil {
		in.cancel()
		in.cancel = nil
	}
}

func (in *streamInst) setupReps() int { return 9 } // tens of milliseconds each, and as long again to stop

func (in *streamInst) lanes() int {
	if in.open {
		return 1 + openLanes // the pacer, then the workers
	}
	return len(in.clients) * closedPerConn
}

func (in *streamInst) sutPIDs() []int {
	var pids []int
	for _, p := range in.serves {
		pids = append(pids, p.pid())
	}
	if in.router != nil {
		pids = append(pids, in.router.pid())
	}
	return pids
}

func (in *streamInst) scrapeURLs() ([]string, int) {
	var urls []string
	for _, p := range in.serves {
		urls = append(urls, p.httpURL)
	}
	if in.router != nil {
		urls = append(urls, in.router.httpURL)
	}
	return urls, len(in.serves)
}

// begin bounds every request of the run with one context, so a hung
// server fails ops instead of hanging the benchmark.
func (in *streamInst) begin(tl *timeline) error {
	in.ctx, in.cancel = context.WithDeadline(context.Background(), tl.end().Add(in.e.deadline))
	in.work = make(chan arrival, openBacklog)
	return nil
}

func (in *streamInst) runLane(id int, l *lane, tl *timeline) {
	cl := in.clients[id%len(in.clients)]
	if in.open {
		in.openLane(id, cl, l, tl)
		return
	}
	in.closedLane(id, cl, l, tl)
}

// answer validates one RPS2 reply against the oracle.
func (in *streamInst) answer(idx int, res []serve.Result, err error, deep bool) error {
	switch {
	case err != nil:
		return err
	case len(res) != 1:
		return fmt.Errorf("%d results for one input", len(res))
	case !in.oracle.check(idx, res[0].Class, res[0].Scores, deep):
		return wrongAnswer("stream.Client.DoInto", idx)
	}
	return nil
}

func (in *streamInst) closedLane(id int, cl *stream.Client, l *lane, tl *timeline) {
	ctx, end := in.ctx, tl.end()
	draw := uniformDraws(in.e.seed, id, len(in.pool))
	inputs := make([][]float64, 1)
	var out []serve.Result
	prev := time.Now()
	for {
		idx := draw()
		inputs[0] = in.pool[idx]
		l.ops++
		start := time.Now()
		res, err := cl.DoInto(ctx, modelName, inputs, out[:0])
		done := time.Now()
		if err == nil {
			out = res
		}
		err = in.answer(idx, res, err, l.ops%scoreCheckEvery == 0)
		if l.spans != nil && l.ops%sampleEvery == 0 && tl.tracing(start) {
			checked := time.Now()
			root := l.spans.nextID()
			l.spans.add("stream.Client.DoInto", start, done, root, l.ops)
			l.spans.add("oracle.check", done, checked, root, l.ops)
			l.spans.put(root, "op", start, checked, 0, l.ops)
		}
		l.record(tl, done, done.Sub(start), start.Sub(prev), err)
		prev = done
		if !done.Before(end) {
			return
		}
	}
}

// arrival is one open-loop request: when it is due and which input it
// carries, both decided by the pacer from the seed.
type arrival struct {
	due time.Time
	idx int
}

// pace is the open loop's clock, lane 0: it draws the seeded Poisson
// schedule and hands each request to the workers when it falls due. It
// sleeps in nanosleep on its own OS thread, because a goroutine sleeping
// on the runtime's timers wakes up to a millisecond late on an idle
// process — lateness that would be charged to the system.
func (in *streamInst) pace(tl *timeline) {
	defer close(in.work)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// Tighten this thread's timer slack from the default 50 µs to 1 µs.
	// Failure only costs precision, which the lateness metric reports.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)

	end := tl.end()
	draw := uniformDraws(in.e.seed, 0, len(in.pool))
	gap := arrivalGaps(in.e.seed, 0, in.rate)
	due := time.Now()
	for {
		due = due.Add(time.Duration(gap() * float64(time.Second)))
		if !due.Before(end) {
			return
		}
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) just sends slightly early
		}
		in.work <- arrival{due: due, idx: draw()}
	}
}

const prSetTimerSlack = 29 // PR_SET_TIMERSLACK

func (in *streamInst) openLane(id int, cl *stream.Client, l *lane, tl *timeline) {
	if id == 0 {
		in.pace(tl)
		return
	}
	ctx, end := in.ctx, tl.end()
	inputs := make([][]float64, 1)
	var out []serve.Result
	for a := range in.work {
		due, idx := a.due, a.idx
		inputs[0] = in.pool[idx]
		l.ops++
		send := time.Now()
		res, err := cl.DoInto(ctx, modelName, inputs, out[:0])
		done := time.Now()
		// Open loop: the clock starts when the request was due, so the
		// wait a stall imposes on later requests is counted.
		lat := done.Sub(due)
		if err == nil {
			out = res
		}
		err = in.answer(idx, res, err, l.ops%scoreCheckEvery == 0)
		if w := tl.window(due); w >= 0 && w < tl.n {
			in.scheduled.Add(1)
			if send.Before(end) {
				in.issued.Add(1)
			}
		}
		if l.spans != nil && l.ops%sampleEvery == 0 && tl.tracing(due) {
			checked := time.Now()
			root := l.spans.nextID()
			l.spans.add("client.sched_wait", due, send, root, l.ops)
			l.spans.add("stream.Client.DoInto", send, done, root, l.ops)
			l.spans.add("oracle.check", done, checked, root, l.ops)
			l.spans.put(root, "op", due, checked, 0, l.ops)
		}
		l.record(tl, done, lat, send.Sub(due), err)
	}
}

// validate rejects an open-loop run whose generator could not keep its
// own schedule: its numbers would describe the generator, not the system.
func (in *streamInst) validate() error {
	if !in.open {
		return nil
	}
	sched, issued := in.scheduled.Load(), in.issued.Load()
	if float64(issued) < minIssuedShare*float64(sched) {
		return fmt.Errorf("invalid run: generator issued %d of %d scheduled requests (< %.0f%%)", issued, sched, 100*minIssuedShare)
	}
	return nil
}
