package stream

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/serve"
	"repro/internal/serve/admission"
)

// saturationLevel is one offered-load step of the overload sweep.
type saturationLevel struct {
	clients   int
	completed int64
	shed      int64
	p50, p99  time.Duration
	reqPerSec float64
}

// runSaturationLevel drives `clients` closed-loop pipelined goroutines
// over one connection for `dur` and collects completion latencies and
// typed shed counts. Any error that is not an *admission.OverloadError
// fails the test — overload must never surface as an untyped failure.
func runSaturationLevel(t testing.TB, cl *Client, inputs [][]float64, clients int, dur time.Duration) saturationLevel {
	t.Helper()
	ctx := context.Background()
	var (
		mu        sync.Mutex
		latencies []time.Duration
		shed      atomic.Int64
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var out []serve.Result
			local := make([]time.Duration, 0, 256)
			for i := 0; ; i++ {
				select {
				case <-stop:
					mu.Lock()
					latencies = append(latencies, local...)
					mu.Unlock()
					return
				default:
				}
				k := (g + i) % len(inputs)
				begin := time.Now()
				res, err := cl.DoInto(ctx, "mnist", inputs[k:k+1], out)
				var oe *admission.OverloadError
				switch {
				case err == nil:
					out = res
					local = append(local, time.Since(begin))
				case errors.As(err, &oe):
					shed.Add(1)
					// Honour a fraction of the hint so the shed loop does
					// not spin the CPU the workers need.
					time.Sleep(oe.RetryAfter / 10)
				default:
					t.Errorf("client %d: untyped error under load: %v", g, err)
					return
				}
			}
		}(g)
	}
	begin := time.Now()
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	elapsed := time.Since(begin)

	lv := saturationLevel{clients: clients, completed: int64(len(latencies)), shed: shed.Load()}
	lv.reqPerSec = float64(lv.completed) / elapsed.Seconds()
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		lv.p50 = latencies[len(latencies)/2]
		lv.p99 = latencies[len(latencies)*99/100]
	}
	return lv
}

// TestStreamSaturation drives the streaming stack past its admission
// capacity — roughly 1×, 2× and 10× the sustainable concurrency — and
// pins the overload contract: excess load is answered with typed 429
// sheds (never untyped errors or unbounded queueing), the latency of the
// traffic that IS admitted stays bounded because admission caps the queue
// ahead of it, throughput does not collapse under 10× overload, and after
// a full drain no goroutine survives.
func TestStreamSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation sweep is a multi-second soak")
	}
	rng := rand.New(rand.NewSource(51))
	m, err := model.New("mnist", "v1", nn.Arch2(rng), program.CompileOptions{InShape: []int{121}})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	reg := serve.NewRegistry(serve.Options{
		Workers:  2,
		MaxBatch: 16,
		MaxDelay: 200 * time.Microsecond,
		SLO:      50 * time.Millisecond,
	})
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	// MaxInflight 8 ≈ the sustainable closed-loop concurrency for two
	// workers; the 1× level stays under it, 10× slams into it.
	ctrl := admission.New(admission.Config{MaxInflight: 8, RetryAfter: 5 * time.Millisecond})
	srv := NewServer(reg, Options{Window: 64, Admission: ctrl})
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

	inputs := make([][]float64, 16)
	for i := range inputs {
		inputs[i] = make([]float64, 121)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
	}

	const base = 4 // ≈1× of the admission cap with headroom
	levels := make([]saturationLevel, 0, 3)
	for _, mult := range []int{1, 2, 10} {
		levels = append(levels, runSaturationLevel(t, cl, inputs, base*mult, 300*time.Millisecond))
	}
	for _, lv := range levels {
		t.Logf("clients=%2d completed=%6d shed=%6d req/s=%9.0f p50=%v p99=%v",
			lv.clients, lv.completed, lv.shed, lv.reqPerSec, lv.p50, lv.p99)
	}

	// Teardown before the quantitative asserts so a failed assert still
	// reports the goroutine-leak check.
	cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.Close(cctx); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := srv.Shutdown(cctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-serveDone; !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve: %v", err)
	}
	reg.Close()
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(leakDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked after drain: %d before, %d after", before, n)
	}

	if levels[0].completed == 0 {
		t.Fatal("no traffic completed at 1× load")
	}
	if levels[2].shed == 0 {
		t.Error("no typed sheds at 10× the admission cap")
	}
	if st := ctrl.Stats(); st.ShedInflight == 0 {
		t.Errorf("controller counted no inflight sheds across the sweep: %+v", st)
	}
	if raceEnabled {
		// The detector's instrumentation skews latency and throughput by
		// integer factors; the structural asserts above still ran.
		return
	}
	// Overload must not collapse completed throughput: the 10× level keeps
	// at least 30% of the 1× level's rate (in practice it exceeds it — the
	// extra clients keep batches full — but CI hosts are noisy).
	if floor := 0.3 * levels[0].reqPerSec; levels[2].reqPerSec < floor {
		t.Errorf("throughput collapsed under 10× load: %.0f req/s, floor %.0f", levels[2].reqPerSec, floor)
	}
	// Admitted-traffic latency stays bounded by the queue the admission
	// cap allows, not by the offered load: p99 within 10× the 50ms SLO
	// even at 10× overload (the bound is deliberately loose — CI hosts
	// stall — while still catching unbounded-queue regressions, which
	// produce seconds of sojourn).
	for _, lv := range levels {
		if lim := 500 * time.Millisecond; lv.p99 > lim {
			t.Errorf("clients=%d: p99 %v exceeds %v", lv.clients, lv.p99, lim)
		}
	}
}
