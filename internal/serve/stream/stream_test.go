package stream

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/serve"
	"repro/internal/serve/admission"
	"repro/internal/tensor"
)

// newArch2Registry builds a registry serving Arch-2 (121 features, the
// smallest evaluation architecture) under mnist@v1.
func newArch2Registry(t testing.TB, opts serve.Options) (*serve.Registry, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	m, err := model.New("mnist", "v1", nn.Arch2(rng), program.CompileOptions{InShape: []int{121}})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(opts)
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	inputs := make([][]float64, 16)
	for i := range inputs {
		inputs[i] = make([]float64, 121)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
	}
	return reg, inputs
}

// startServer serves an RPS2 listener on loopback and returns a dialed
// client. Cleanup closes client, server and registry in drain order.
func startServer(t testing.TB, reg *serve.Registry, opts Options) (*Server, *Client) {
	t.Helper()
	srv := NewServer(reg, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		cl.Close(ctx)
		srv.Close()
		if err := <-serveDone; err != nil && !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
		reg.Close()
	})
	return srv, cl
}

// TestStreamRoundTrip pins the basic contract: responses match the
// in-process registry answers exactly, for single- and multi-input
// frames, through both the alias route and a pinned name@version.
func TestStreamRoundTrip(t *testing.T) {
	reg, inputs := newArch2Registry(t, serve.Options{Workers: 2, MaxBatch: 8})
	_, cl := startServer(t, reg, Options{})
	ctx := context.Background()

	want := make([]serve.Result, len(inputs))
	for i, in := range inputs {
		res, err := reg.Infer(ctx, "mnist", "v1", in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	for _, route := range []string{"mnist", "mnist@v1", "mnist@latest"} {
		res, err := cl.Do(ctx, route, inputs[:1])
		if err != nil {
			t.Fatalf("route %q: %v", route, err)
		}
		if len(res) != 1 || res[0].Class != want[0].Class {
			t.Fatalf("route %q: class %d, want %d", route, res[0].Class, want[0].Class)
		}
	}

	res, err := cl.Do(ctx, "mnist", inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(inputs) {
		t.Fatalf("%d results for %d inputs", len(res), len(inputs))
	}
	for i := range res {
		if res[i].Class != want[i].Class {
			t.Errorf("input %d: class %d, want %d", i, res[i].Class, want[i].Class)
		}
		for j := range res[i].Scores {
			if res[i].Scores[j] != want[i].Scores[j] {
				t.Fatalf("input %d score %d: %g != %g", i, j, res[i].Scores[j], want[i].Scores[j])
			}
		}
	}
}

// TestStreamStatusErrors pins the status-frame error mapping: unknown
// routes surface as serve.ErrNotFound through errors.Is, and wrong input
// sizes as a 400 StatusError.
func TestStreamStatusErrors(t *testing.T) {
	reg, inputs := newArch2Registry(t, serve.Options{Workers: 1, MaxBatch: 4})
	_, cl := startServer(t, reg, Options{})
	ctx := context.Background()

	if _, err := cl.Do(ctx, "nosuch", inputs[:1]); !errors.Is(err, serve.ErrNotFound) {
		t.Errorf("unknown route: %v, want ErrNotFound", err)
	}
	if _, err := cl.Do(ctx, "mnist@v9", inputs[:1]); !errors.Is(err, serve.ErrNotFound) {
		t.Errorf("unknown version: %v, want ErrNotFound", err)
	}
	var se *StatusError
	if _, err := cl.Do(ctx, "mnist", [][]float64{make([]float64, 7)}); !errors.As(err, &se) || se.Code != 400 {
		t.Errorf("wrong input size: %v, want 400 StatusError", err)
	}
	// The connection survives per-request errors.
	if _, err := cl.Do(ctx, "mnist", inputs[:1]); err != nil {
		t.Fatalf("after errors: %v", err)
	}
}

// TestStreamConcurrentPipelinedClients is the -race pipelining test: many
// goroutines multiplex one connection, responses complete out of order,
// and every one lands on the goroutine that asked for it.
func TestStreamConcurrentPipelinedClients(t *testing.T) {
	reg, inputs := newArch2Registry(t, serve.Options{Workers: 2, MaxBatch: 16, MaxDelay: 200 * time.Microsecond})
	_, cl := startServer(t, reg, Options{Window: 128})
	ctx := context.Background()

	want := make([]int, len(inputs))
	for i, in := range inputs {
		res, err := reg.Infer(ctx, "mnist", "", in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Class
	}

	const goroutines, iters = 16, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var out []serve.Result
			for i := 0; i < iters; i++ {
				k := (g + i) % len(inputs)
				res, err := cl.DoInto(ctx, "mnist", inputs[k:k+1], out)
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				out = res
				if res[0].Class != want[k] {
					t.Errorf("goroutine %d iter %d: class %d, want %d (response misrouted?)", g, i, res[0].Class, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStreamHotSwapMidStream drives alias and pinned traffic through one
// connection while the registry hot-swaps underneath — the PR 3 semantics
// must hold across the wire: alias-addressed frames never fail, pinned
// frames observe ErrNotFound (as a 404 status frame) only.
func TestStreamHotSwapMidStream(t *testing.T) {
	reg, inputs := newArch2Registry(t, serve.Options{Workers: 2, MaxBatch: 8, MaxDelay: 100 * time.Microsecond})
	_, cl := startServer(t, reg, Options{Window: 128})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	net2 := nn.Arch2(rng)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var aliasOK, pinnedOK, pinnedGone atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (g + i) % len(inputs)
				if _, err := cl.Do(ctx, "mnist", inputs[k:k+1]); err != nil {
					t.Errorf("alias request failed during hot swap: %v", err)
					return
				}
				aliasOK.Add(1)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := i % len(inputs)
			_, err := cl.Do(ctx, "mnist@v1", inputs[k:k+1])
			switch {
			case err == nil:
				pinnedOK.Add(1)
			case errors.Is(err, serve.ErrNotFound):
				pinnedGone.Add(1)
			default:
				t.Errorf("pinned request: %v, want success or ErrNotFound", err)
				return
			}
		}
	}()

	// Hot-swap loop: register v2, retire v1, re-register v1, retire v2 —
	// the alias always has a live target.
	for cycle := 0; cycle < 5; cycle++ {
		m2, err := model.New("mnist", "v2", net2, program.CompileOptions{InShape: []int{121}})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(m2); err != nil {
			t.Fatal(err)
		}
		if err := reg.Retire("mnist", "v1"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		m1, err := model.New("mnist", "v1", nn.Arch2(rand.New(rand.NewSource(41))), program.CompileOptions{InShape: []int{121}})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(m1); err != nil {
			t.Fatal(err)
		}
		if err := reg.Retire("mnist", "v2"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if aliasOK.Load() == 0 {
		t.Error("no alias traffic completed")
	}
	if pinnedGone.Load() == 0 {
		t.Error("pinned traffic never observed the retirement (test too fast to race the swap?)")
	}
	t.Logf("alias ok=%d pinned ok=%d pinned gone=%d", aliasOK.Load(), pinnedOK.Load(), pinnedGone.Load())
}

// slowModel wraps a Model with a fixed per-batch delay, so drain tests
// reliably catch requests in flight.
type slowModel struct {
	model.Model
	delay time.Duration
}

func (m slowModel) Forward(batch *tensor.Tensor) *tensor.Tensor {
	time.Sleep(m.delay)
	return m.Model.Forward(batch)
}

func (m slowModel) Replicate() (model.Model, error) {
	r, err := m.Model.Replicate()
	if err != nil {
		return nil, err
	}
	return slowModel{Model: r, delay: m.delay}, nil
}

// TestStreamDrainCompletesInflight is the GOAWAY drain test: Shutdown
// arrives while a window of pipelined requests is in flight; every one of
// them must complete with a real response, new work must be refused, and
// the connection goroutines must all exit.
func TestStreamDrainCompletesInflight(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m, err := model.New("mnist", "v1", nn.Arch2(rng), program.CompileOptions{InShape: []int{121}})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.Options{Workers: 2, MaxBatch: 4})
	if err := reg.Register(slowModel{Model: m, delay: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	before := runtime.NumGoroutine()
	srv := NewServer(reg, Options{Window: 64})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	input := make([]float64, 121)
	ctx := context.Background()
	const inflight = 32
	var wg sync.WaitGroup
	var completed atomic.Int64
	started := make(chan struct{}, inflight)
	for g := 0; g < inflight; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			if _, err := cl.Do(ctx, "mnist", [][]float64{input}); err != nil {
				t.Errorf("in-flight request dropped by drain: %v", err)
				return
			}
			completed.Add(1)
		}()
	}
	for g := 0; g < inflight; g++ {
		<-started
	}
	// Shut down only once every frame is accepted server-side, so the drain
	// provably has the full window in flight to complete.
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().Frames < inflight; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames accepted", srv.Stats().Frames, inflight)
		}
		time.Sleep(time.Millisecond)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if got := completed.Load(); got != inflight {
		t.Errorf("%d of %d in-flight requests completed through the drain", got, inflight)
	}
	if !cl.GoingAway() {
		t.Error("client did not observe GOAWAY")
	}
	if _, err := cl.Do(ctx, "mnist", [][]float64{input}); !errors.Is(err, ErrGoingAway) {
		t.Errorf("post-drain Do: %v, want ErrGoingAway", err)
	}
	cl.Close(sctx)
	if err := <-serveDone; !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}

	// Goroutine-leak check: everything the server and connection spawned
	// must exit once drained.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked after drain: %d before, %d after", before, runtime.NumGoroutine())
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamClientCloseDrains pins the client half of the handshake:
// Close waits for in-flight calls, sends GOAWAY, and the server answers
// everything before the socket dies.
func TestStreamClientCloseDrains(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m, err := model.New("mnist", "v1", nn.Arch2(rng), program.CompileOptions{InShape: []int{121}})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.Options{Workers: 1, MaxBatch: 4})
	if err := reg.Register(slowModel{Model: m, delay: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	srv, cl := startServer(t, reg, Options{})
	_ = srv

	input := make([]float64, 121)
	ctx := context.Background()
	var wg sync.WaitGroup
	var failed atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Do(ctx, "mnist", [][]float64{input}); err != nil {
				failed.Add(1)
			}
		}()
	}
	time.Sleep(time.Millisecond) // let most submissions hit the wire
	cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.Close(cctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Errorf("%d in-flight requests failed during client-side drain", n)
	}
}

// TestStreamAdmissionShed pins typed shedding through the stream: past
// the admission caps, requests are answered with a 429 status frame that
// surfaces client-side as an *admission.OverloadError carrying the
// configured Retry-After hint.
func TestStreamAdmissionShed(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	m, err := model.New("mnist", "v1", nn.Arch2(rng), program.CompileOptions{InShape: []int{121}})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.Options{Workers: 1, MaxBatch: 1})
	if err := reg.Register(slowModel{Model: m, delay: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	ctrl := admission.New(admission.Config{MaxInflight: 2, RetryAfter: 25 * time.Millisecond})
	srv, cl := startServer(t, reg, Options{Window: 64, Admission: ctrl})

	input := make([]float64, 121)
	ctx := context.Background()
	var wg sync.WaitGroup
	var ok, shed atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_, err := cl.Do(ctx, "mnist", [][]float64{input})
				var oe *admission.OverloadError
				switch {
				case err == nil:
					ok.Add(1)
				case errors.As(err, &oe):
					shed.Add(1)
					if oe.RetryAfter != 25*time.Millisecond {
						t.Errorf("shed RetryAfter = %v, want 25ms", oe.RetryAfter)
						return
					}
				default:
					t.Errorf("overload returned untyped error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Error("no requests admitted")
	}
	if shed.Load() == 0 {
		t.Error("no requests shed despite MaxInflight=2 under 16-way load")
	}
	st := ctrl.Stats()
	if st.ShedInflight == 0 {
		t.Errorf("controller counted no inflight sheds: %+v", st)
	}
	if st.Inflight != 0 {
		t.Errorf("controller leaked %d inflight after quiesce", st.Inflight)
	}
	if s := srv.Stats(); s.Shed == 0 {
		t.Errorf("server stats counted no sheds: %+v", s)
	}
}

// TestStreamQuotaShed pins per-model quotas: a capped model sheds with
// reason "quota" while a sibling model is unaffected.
func TestStreamQuotaShed(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	mA, err := model.New("capped", "v1", nn.Arch2(rng), program.CompileOptions{InShape: []int{121}})
	if err != nil {
		t.Fatal(err)
	}
	mB, err := model.New("open", "v1", nn.Arch2(rng), program.CompileOptions{InShape: []int{121}})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.Options{Workers: 1, MaxBatch: 2})
	if err := reg.Register(slowModel{Model: mA, delay: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(slowModel{Model: mB, delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	ctrl := admission.New(admission.Config{Quota: map[string]int{"capped": 1}})
	_, cl := startServer(t, reg, Options{Window: 64, Admission: ctrl})

	input := make([]float64, 121)
	ctx := context.Background()
	var wg sync.WaitGroup
	var quotaShed atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_, err := cl.Do(ctx, "capped", [][]float64{input})
				var oe *admission.OverloadError
				if errors.As(err, &oe) {
					if oe.Reason != admission.ReasonQuota {
						t.Errorf("shed reason %q, want %q", oe.Reason, admission.ReasonQuota)
						return
					}
					quotaShed.Add(1)
				} else if err != nil {
					t.Errorf("capped model: %v", err)
					return
				}
				if _, err := cl.Do(ctx, "open", [][]float64{input}); err != nil {
					t.Errorf("open model shed alongside capped quota: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if quotaShed.Load() == 0 {
		t.Error("quota of 1 never shed under 8-way load")
	}
	if st := ctrl.Stats(); st.ShedQuota == 0 {
		t.Errorf("controller counted no quota sheds: %+v", st)
	}
}

// TestStreamSLOShed pins deadline-aware batch scheduling end to end: with
// a server-side SLO shorter than the queueing delay a slow model builds,
// late requests are answered with the typed overload error (reason "slo")
// by the worker instead of being executed, and the serve.Stats Shed
// counter records them.
func TestStreamSLOShed(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m, err := model.New("mnist", "v1", nn.Arch2(rng), program.CompileOptions{InShape: []int{121}})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.Options{Workers: 1, MaxBatch: 1, SLO: 3 * time.Millisecond})
	if err := reg.Register(slowModel{Model: m, delay: 4 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, reg, Options{Window: 64})

	input := make([]float64, 121)
	ctx := context.Background()
	var wg sync.WaitGroup
	var ok, shed atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				_, err := cl.Do(ctx, "mnist", [][]float64{input})
				var oe *admission.OverloadError
				switch {
				case err == nil:
					ok.Add(1)
				case errors.As(err, &oe) && oe.Reason == admission.ReasonSLO:
					shed.Add(1)
				default:
					t.Errorf("SLO shed surfaced as %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Error("no requests completed")
	}
	if shed.Load() == 0 {
		t.Error("no requests shed past a 3ms SLO behind a 4ms/batch model under 8-way load")
	}
	st, err := reg.Stats("mnist", "")
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed == 0 {
		t.Errorf("serve.Stats.Shed = 0 after %d client-visible sheds", shed.Load())
	}
}
