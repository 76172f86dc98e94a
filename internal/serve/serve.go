// Package serve is the batched, concurrent inference serving subsystem: it
// turns trained models — the artefacts the paper's Fig. 4 deployment
// engine produces — into a server that answers heavy concurrent traffic.
//
// The stack has two levels:
//
//   - Server executes one model.Model: a batching scheduler coalesces
//     individual requests into batches of at most Options.MaxBatch (waiting
//     at most Options.MaxDelay after the first request of a batch), a pool
//     of Options.Workers model replicas (model.Model.Replicate, so no
//     mutable state is shared) runs each dispatched batch as one planned
//     spectral pass per layer, and an optional LRU result cache — keyed by
//     the exact input, bit for bit — answers repeated queries without
//     touching the queue at all.
//   - Registry (registry.go) holds any number of versioned Servers behind
//     "name@version" identifiers with a "latest" alias, weighted A/B
//     routing between versions, and atomic hot-swap while serving.
//
// The cmd/serve binary wraps a Registry in the HTTP front end
// (internal/serve/httpapi) speaking JSON and the compact binary wire
// format v1 (wire.go); see the package examples for direct library use.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/serve/admission"
	"repro/internal/tensor"
)

// errShedSLO is the typed overload error a worker answers with when it
// sheds a request already past its SLO or context deadline instead of
// running it. A shared instance: shedding is exactly what happens on the
// overloaded hot path, so it must not allocate per request.
var errShedSLO = &admission.OverloadError{Reason: admission.ReasonSLO}

// ErrClosed is returned by Infer after Close has been called.
var ErrClosed = errors.New("serve: server closed")

// InputSizeError reports an input vector whose length does not match the
// model's flattened input dimension. The HTTP layer maps it to 400.
type InputSizeError struct {
	Model string // name@version
	Got   int
	Want  int
}

func (e *InputSizeError) Error() string {
	return fmt.Sprintf("serve: input has %d features, model %s needs %d", e.Got, e.Model, e.Want)
}

// Options parameterises the batching and caching of one served model.
// Zero values select the documented defaults.
type Options struct {
	// Workers is the number of model replicas executing batches
	// concurrently. Default: GOMAXPROCS.
	Workers int
	// MaxBatch is the largest batch the scheduler will assemble.
	// Default: 16.
	MaxBatch int
	// MaxDelay bounds how long the scheduler holds the first request of
	// a batch while waiting for more. Default: 2ms.
	MaxDelay time.Duration
	// QueueDepth is the request-queue capacity; submissions beyond it
	// block in Infer. Default: Workers × MaxBatch.
	QueueDepth int
	// CacheSize is the LRU result-cache capacity in entries; 0 disables
	// caching.
	CacheSize int
	// SLO, when positive, is the latency objective the batch scheduler
	// enforces by shedding: a request that has already waited longer than
	// SLO when its batch reaches a worker is answered with a typed
	// overload error (admission.OverloadError, reason "slo") instead of
	// being executed — past saturation, running work nobody is still
	// waiting for only pushes every later request further past its own
	// deadline. Requests whose context deadline has passed are shed the
	// same way regardless of SLO. 0 disables age-based shedding.
	SLO time.Duration
	// Metrics, when non-nil, registers this server's Prometheus series
	// (latency and batch-size histograms, queue/cache gauges, and
	// callback-backed counters reading the same state Stats reads) under
	// a model="name@version" label. The hot-path instruments are pure
	// atomics, so enabling metrics keeps the request path allocation-free.
	// Series are unregistered by Close.
	Metrics *metrics.Registry
}

// withDefaults returns opts with zero fields replaced by defaults.
func (opts Options) withDefaults() Options {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 16
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 2 * time.Millisecond
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = opts.Workers * opts.MaxBatch
	}
	return opts
}

// Result is one answered inference request.
type Result struct {
	// Class is the argmax class index.
	Class int `json:"class"`
	// Scores are the raw network outputs (unnormalised logits), one per
	// class.
	Scores []float64 `json:"scores"`
	// BatchSize is the size of the batch this request was served in
	// (1 for a batch of its own, 0 for a cache hit).
	BatchSize int `json:"batch_size"`
	// Cached reports whether the result came from the LRU result cache.
	Cached bool `json:"cached"`
}

// request is one in-flight inference job. Requests are pooled: the
// submitting Infer call owns the request again once it has received the
// response, and returns it for reuse. Requests abandoned by context
// cancellation are simply dropped (the worker may still touch them).
//
// scores is the request's own output row: the worker copies the model's
// output into it and hands it back through resp, and the receiving
// InferInto copies it onward into the caller's buffer before pooling the
// request. Both buffers reach a steady capacity after the first use, so
// the request round trip allocates nothing.
type request struct {
	input    []float64
	scores   []float64
	hash     uint64      // input hash, the cache key; unused when caching is disabled
	shard    *cacheShard // hash's home shard, resolved once per request
	enq      time.Time
	deadline time.Time // from the submitting context; zero = none
	// err is set by the worker before the resp send when the request was
	// shed instead of executed (the channel send orders the write), and
	// cleared when the request is taken from the pool.
	err  error
	resp chan Result
}

var requestPool = sync.Pool{
	New: func() any { return &request{resp: make(chan Result, 1)} },
}

// Server is a batched concurrent inference server for one model. Create
// one with NewModel; it is safe for use by any number of goroutines.
type Server struct {
	opts     Options
	m        model.Model
	id       string // name@version
	inShape  []int
	features int

	reqCh   chan *request
	batchCh chan []*request
	// freeBatches recycles batch slices between the dispatcher and the
	// workers, so steady-state batching allocates no slice headers.
	freeBatches chan []*request

	cache *resultCache
	stats collector
	mx    *serverMetrics // nil when Options.Metrics is unset

	// queued counts requests submitted but not yet taken by the
	// scheduler (it is incremented before the queue send and decremented
	// as the dispatcher pulls each request into a batch). The scheduler
	// dispatches a batch immediately once no undispatched request
	// remains, instead of idling out MaxDelay; requests already
	// executing on workers must not hold a new batch back, so they are
	// deliberately not counted.
	queued atomic.Int64

	mu     sync.RWMutex // guards closed against concurrent Infer sends
	closed bool
	wg     sync.WaitGroup
}

// NewModel validates the model, replicates it once per worker, and starts
// the scheduler and worker pool. The returned server must be released with
// Close. The model has already proven its shape contract at construction
// (model.New compiles it), so a mis-shaped model never reaches a worker.
func NewModel(m model.Model, opts Options) (*Server, error) {
	if m == nil {
		return nil, errors.New("serve: nil model")
	}
	opts = opts.withDefaults()

	replicas := make([]model.Model, opts.Workers)
	for i := range replicas {
		r, err := m.Replicate()
		if err != nil {
			return nil, fmt.Errorf("serve: replicating %s for worker %d: %w", ModelID(m), i, err)
		}
		replicas[i] = r
	}

	s := &Server{
		opts:     opts,
		m:        m,
		id:       ModelID(m),
		inShape:  m.InShape(),
		features: m.InDim(),
		reqCh:    make(chan *request, opts.QueueDepth),
		batchCh:  make(chan []*request, opts.Workers),
		// One slice per worker plus one in the dispatcher's hands.
		freeBatches: make(chan []*request, opts.Workers+1),
	}
	if opts.CacheSize > 0 {
		s.cache = newResultCache(opts.CacheSize)
	}
	if opts.Metrics != nil {
		s.mx = newServerMetrics(opts.Metrics, s)
	}
	s.wg.Add(1 + opts.Workers)
	go s.dispatch()
	for _, r := range replicas {
		go s.worker(r)
	}
	return s, nil
}

// ModelID renders a model's "name@version" identifier.
func ModelID(m model.Model) string { return model.ID(m.Name(), m.Version()) }

// Model returns the model this server executes.
func (s *Server) Model() model.Model { return s.m }

// Infer submits one input vector (features in row-major InShape order,
// length = the model's InDim) and blocks until the result is available,
// the context is cancelled, or the server is closed. It is safe to call
// from any number of goroutines; concurrent calls are what the batching
// scheduler feeds on.
func (s *Server) Infer(ctx context.Context, input []float64) (Result, error) {
	return s.InferInto(ctx, input, nil)
}

// InferInto is Infer writing the result's scores into the caller-owned
// buffer scores (grown as needed; nil allocates a fresh slice, which is
// exactly Infer). Reusing one buffer per calling goroutine makes the
// steady-state request path allocation-free end to end. The buffer is
// surrendered for the duration of the call: on a cancellation or error
// the caller must not reuse it for anything else, and the returned
// Result's Scores always replaces it.
//
//repro:noalloc
func (s *Server) InferInto(ctx context.Context, input, scores []float64) (Result, error) {
	if len(input) != s.features {
		return Result{}, &InputSizeError{Model: s.id, Got: len(input), Want: s.features}
	}

	// Reject before touching the cache, so a closed server honours the
	// ErrClosed contract even for inputs it could answer from the LRU.
	// Stats.Requests counts only accepted calls, so it is bumped on the
	// cache-hit return and after queue admission — never on a rejection.
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return Result{}, ErrClosed
	}

	var hash uint64
	var shard *cacheShard
	if s.cache != nil {
		// Count the request before the cache lookup: hits are recorded
		// inside the cache under its shard lock, and a cache counter must
		// never outrun the request it belongs to (Stats reads the cache
		// before the collector, so CacheHits+CacheMisses ≤ Requests holds
		// in every snapshot). The pre-count is reversed on the
		// closed-server and cancelled-before-admission paths below, keeping
		// the "only accepted calls are counted" contract.
		s.stats.request()
		hash = s.cache.hashInput(input)
		shard = s.cache.shard(hash)
		if res, ok := shard.get(hash, input, scores); ok {
			return res, nil
		}
		// The miss is recorded only after queue admission below, so the
		// cache counters stay consistent with Requests when a submission
		// is cancelled or rejected.
	}

	r := requestPool.Get().(*request)
	r.input = append(r.input[:0], input...) // detach from caller
	r.hash = hash
	r.shard = shard
	r.enq = time.Now()
	r.deadline, _ = ctx.Deadline()
	r.err = nil

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		requestPool.Put(r)
		if s.cache != nil {
			s.stats.unadmit() // reverse the pre-lookup request count
		}
		return Result{}, ErrClosed
	}
	// Count the request (pre-counted above when the cache lookup ran) and
	// then the cache miss before the send: once the scheduler can see the
	// request, Stats must already include it, so Requests ≥ Completed
	// holds at every instant, and a miss is never counted before its
	// request. A submission cancelled before admission is uncounted
	// again, in reverse order.
	s.queued.Add(1)
	if s.cache == nil {
		s.stats.admit()
	} else {
		shard.miss()
	}
	select {
	case s.reqCh <- r:
		s.mu.RUnlock()
	case <-ctx.Done():
		s.queued.Add(-1)
		if s.cache != nil {
			r.shard.unmiss()
		}
		s.stats.unadmit()
		s.mu.RUnlock()
		requestPool.Put(r)
		return Result{}, ctx.Err()
	}

	select {
	case res := <-r.resp:
		if err := r.err; err != nil {
			// Shed by the worker (past SLO or deadline): the typed
			// overload error is the response.
			requestPool.Put(r)
			return Result{}, err
		}
		// res.Scores is the pooled request's own buffer; detach into the
		// caller's before the request (and with it the buffer) is reused.
		res.Scores = append(scores[:0], res.Scores...)
		requestPool.Put(r)
		return res, nil
	case <-ctx.Done():
		// The worker still holds the request; let the GC reclaim it.
		return Result{}, ctx.Err()
	}
}

// Stats returns a snapshot of the server's counters. The cache figures
// (hits, misses, entries) are aggregated shard by shard — each shard's
// three numbers are read under that shard's lock, never all shard locks
// at once, so a stats poll cannot stall concurrent /infer traffic; a
// lookup landing in a shard after it was summed is simply not in this
// snapshot. The cache is read before the collector, so neither a hit nor
// a miss can appear in the snapshot ahead of the request it belongs to
// (requests are always counted first on the Infer path). With no
// cancellations in flight this keeps CacheHits + CacheMisses ≤ Requests in
// every snapshot; a submission cancelled between the two reads can
// transiently overshoot by the number of such cancellations, since its
// unmiss/unadmit pair lands across the snapshot boundary.
func (s *Server) Stats() Stats {
	var hits, misses uint64
	var entries int
	if s.cache != nil {
		hits, misses, entries = s.cache.counters()
	}
	st := s.stats.snapshot()
	st.CacheHits, st.CacheMisses, st.CacheEntries = hits, misses, entries
	st.Workers = s.opts.Workers
	return st
}

// Close stops accepting requests, waits for all in-flight requests to be
// answered, and shuts down the worker pool. Infer calls made after Close
// return ErrClosed. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.reqCh)
	s.mu.Unlock()
	s.wg.Wait()
	// Unregister after the workers are gone: a retired model's
	// callback-backed series must not outlive the state they read.
	s.mx.unregister()
}

// dispatch is the batching scheduler: it assembles batches of up to
// MaxBatch requests, holding an open batch no longer than MaxDelay past
// its first request, and hands them to the worker pool.
//
// Two refinements keep tail latency down without sacrificing batch size:
// already-queued requests are drained greedily before any waiting, and a
// batch is dispatched early once no undispatched request remains — at
// that point further waiting could only serve requests that do not exist
// yet, which is exactly the closed-loop case where deadline idling would
// otherwise dominate latency.
func (s *Server) dispatch() {
	defer s.wg.Done()
	defer close(s.batchCh)
	// One deadline timer reused across batches and batch slices recycled
	// through freeBatches: the scheduler's steady state allocates nothing
	// per batch.
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		first, ok := <-s.reqCh
		if !ok {
			return
		}
		s.queued.Add(-1)
		var batch []*request
		select {
		case batch = <-s.freeBatches:
			batch = batch[:0]
		default:
			batch = make([]*request, 0, s.opts.MaxBatch)
		}
		batch = append(batch, first)
		draining := false
		if s.opts.MaxBatch > 1 {
			timer.Reset(s.opts.MaxDelay)
			timerFired := false
			yielded := false
		fill:
			for len(batch) < s.opts.MaxBatch {
				// Greedy phase: take whatever is already queued.
				select {
				case r, ok := <-s.reqCh:
					if !ok {
						draining = true
						break fill
					}
					s.queued.Add(-1)
					batch = append(batch, r)
					yielded = false
					continue
				default:
				}
				// Queue empty. Yield once so runnable submitters (clients
				// that have entered Infer but not yet reached the channel
				// send) can land their requests — without this, a
				// single-CPU host dispatches everything in batches of one.
				if !yielded {
					yielded = true
					runtime.Gosched()
					continue
				}
				// If no undispatched request remains, dispatch now:
				// waiting longer could only serve requests that do not
				// exist yet. Otherwise wait for the stragglers, bounded
				// by the deadline.
				if s.queued.Load() == 0 {
					break fill
				}
				select {
				case r, ok := <-s.reqCh:
					if !ok {
						draining = true
						break fill
					}
					s.queued.Add(-1)
					batch = append(batch, r)
					yielded = false
				case <-timer.C:
					timerFired = true
					break fill
				}
			}
			// Quiesce the reused timer: if it has not fired, Stop it and
			// drain any value that raced in, so the next Reset starts
			// clean under pre-1.23 timer semantics too.
			if !timerFired && !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		s.batchCh <- batch
		if draining {
			return
		}
	}
}

// worker executes batches on its own model replica with its own reusable
// input buffer, then fans results back out to the per-request channels.
// The Forward call below is where batching pays: the coalesced batch
// tensor takes one batched spectral pass per block-circulant layer instead
// of one product per request.
func (s *Server) worker(m model.Model) {
	defer s.wg.Done()
	buf := make([]float64, s.opts.MaxBatch*s.features)
	lats := make([]time.Duration, 0, s.opts.MaxBatch)
	// The input tensor header is bound to buf per batch instead of
	// allocated: shape[0] is the only per-batch variable.
	shape := make([]int, 1+len(s.inShape))
	copy(shape[1:], s.inShape)
	var xt tensor.Tensor
	for batch := range s.batchCh {
		// Deadline-aware shed before execution: a request that has already
		// outlived its SLO (or its caller's context deadline) gets the
		// typed overload error now, for free, instead of a batch slot.
		// Shedding at the worker rather than at admission is what bounds
		// tail latency at saturation — whatever time a batch spent queued
		// is charged against its requests before any model work starts.
		now := time.Now()
		live := batch[:0]
		for _, r := range batch {
			expired := !r.deadline.IsZero() && now.After(r.deadline)
			if !expired && s.opts.SLO > 0 && now.Sub(r.enq) > s.opts.SLO {
				expired = true
			}
			if expired {
				r.err = errShedSLO
				r.resp <- Result{}
				continue
			}
			live = append(live, r)
		}
		if shed := len(batch) - len(live); shed > 0 {
			s.stats.shedN(shed)
		}
		batch = live
		n := len(batch)
		if n == 0 {
			select {
			case s.freeBatches <- batch:
			default:
			}
			continue
		}
		for i, r := range batch {
			copy(buf[i*s.features:(i+1)*s.features], r.input)
		}
		shape[0] = n
		x := xt.Bind(buf[:n*s.features], shape...)
		out := m.Forward(x)
		// Record stats before fanning responses out: the moment the last
		// response lands, a caller may read Stats and must see this batch.
		now = time.Now()
		lats = lats[:0]
		for _, r := range batch {
			lats = append(lats, now.Sub(r.enq))
		}
		s.stats.batchDone(n, lats)
		s.mx.observeBatch(n, lats)
		// Each requester's scores are copied out of the output tensor into
		// the request's own reusable row: the output may be a view of the
		// worker's reused input buffer (a pass-through model) or of
		// layer-retained scratch (the workspace arena), so rows must never
		// be handed out by reference — and the receiving InferInto copies
		// the row onward before the request is pooled, so no slab
		// allocation is needed either.
		classes := out.Dim(1)
		for i, r := range batch {
			r.scores = append(r.scores[:0], out.Data[i*classes:(i+1)*classes]...)
			res := Result{Class: nn.Argmax(r.scores), Scores: r.scores, BatchSize: n}
			if s.cache != nil {
				// The cache copies input and scores into its own entry: the
				// request's buffers are reused on its next trip through the pool.
				r.shard.add(r.hash, r.input, res.Class, r.scores)
			}
			r.resp <- res
		}
		// Recycle the batch slice; drop it if the free list is full (the
		// server is closing or sized smaller than the in-flight count).
		select {
		case s.freeBatches <- batch:
		default:
		}
	}
}
