package router

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/serve"
	"repro/internal/serve/stream"
)

// The chaos suite (run on its own via `make chaos`, and as part of the
// normal test tier) drives the router through backend kills, revivals,
// drains, hot-swaps and injected transport faults under concurrent load.
// The contract it proves: every client-visible error is typed (conn-lost
// / going-away / 503-closed / 404-not-found / 429-overload), tail
// latency stays bounded while the fleet degrades, and the fleet heals
// itself — breakers re-close, reconnects land — with zero operator
// action.

// typedChaosError reports whether err is one of the typed shapes the
// fleet tier is allowed to surface while backends churn.
func typedChaosError(err error) bool {
	return typedUnavailable(err) || errors.Is(err, serve.ErrNotFound) || isOverload(err)
}

// chaosLoad runs n worker goroutines hammering route until stop closes,
// recording per-request wall time and classifying outcomes. Non-typed
// errors are captured verbatim (first few) — they fail the calling test.
type chaosLoad struct {
	successes atomic.Int64
	typed     atomic.Int64

	mu       sync.Mutex
	lats     []time.Duration
	nonTyped []error

	wg   sync.WaitGroup
	stop chan struct{}
}

func startChaosLoad(rt *Router, name, version string, in []float64, workers int) *chaosLoad {
	l := &chaosLoad{stop: make(chan struct{})}
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			local := make([]time.Duration, 0, 4096)
			for {
				select {
				case <-l.stop:
					l.mu.Lock()
					l.lats = append(l.lats, local...)
					l.mu.Unlock()
					return
				default:
				}
				start := time.Now()
				_, err := rt.Infer(ctx, name, version, in)
				local = append(local, time.Since(start))
				switch {
				case err == nil:
					l.successes.Add(1)
				case typedChaosError(err):
					l.typed.Add(1)
				default:
					l.mu.Lock()
					if len(l.nonTyped) < 5 {
						l.nonTyped = append(l.nonTyped, err)
					}
					l.mu.Unlock()
				}
			}
		}()
	}
	return l
}

func (l *chaosLoad) finish() {
	close(l.stop)
	l.wg.Wait()
}

// p99 returns the 99th-percentile latency of the recorded requests.
func (l *chaosLoad) p99() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), l.lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)*99/100]
}

func (l *chaosLoad) checkNonTyped(t *testing.T) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, err := range l.nonTyped {
		t.Errorf("non-typed error surfaced under chaos: %v", err)
	}
}

// TestChaosKillRevive is the tentpole chaos scenario: three backends,
// continuous load, and a kill/revive cycle walking the fleet. Zero
// non-typed errors, bounded p99, and full self-healing — every breaker
// closed and a clean all-success round — at the end.
func TestChaosKillRevive(t *testing.T) {
	fbs := []*fleetBackend{
		startFleetBackend(t, newFleetRegistry(t, nil, "v1"), nil, stream.Options{}),
		startFleetBackend(t, newFleetRegistry(t, nil, "v1"), nil, stream.Options{}),
		startFleetBackend(t, newFleetRegistry(t, nil, "v1"), nil, stream.Options{}),
	}
	cfgs := make([]BackendConfig, len(fbs))
	for i, fb := range fbs {
		cfgs[i] = fb.config()
	}
	rt := newTestRouter(t, Options{
		Backends:        cfgs,
		RefreshInterval: 50 * time.Millisecond,
		ProbeInterval:   20 * time.Millisecond,
		ProbeTimeout:    250 * time.Millisecond,
		Breaker:         BreakerConfig{Failures: 3, OpenBase: 25 * time.Millisecond, OpenMax: 200 * time.Millisecond},
		Seed:            11,
	})
	in := testInput(23)

	load := startChaosLoad(rt, "mnist", "v1", in, 8)
	for cycle := 0; cycle < 3; cycle++ {
		fb := fbs[cycle%len(fbs)]
		fb.kill()
		time.Sleep(300 * time.Millisecond)
		fb.revive()
		time.Sleep(250 * time.Millisecond)
	}
	load.finish()

	load.checkNonTyped(t)
	if n := load.successes.Load(); n < 200 {
		t.Fatalf("only %d successes under chaos; the healthy majority should have served far more", n)
	}
	if p := load.p99(); p > time.Second {
		t.Fatalf("p99 = %v under chaos, want bounded under 1s", p)
	}

	// Self-healing: every breaker re-closes and a clean round succeeds.
	deadline := time.Now().Add(10 * time.Second)
	for {
		healthy := 0
		for _, row := range rt.Backends() {
			if row.Breaker == "closed" && !row.Down {
				healthy++
			}
		}
		if healthy == len(fbs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never fully healed: %+v", rt.Backends())
		}
		time.Sleep(20 * time.Millisecond)
	}
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := rt.Infer(ctx, "mnist", "v1", in); err != nil {
			t.Fatalf("post-chaos infer #%d: %v", i, err)
		}
	}
	t.Logf("chaos: %d ok, %d typed failures, p99=%v", load.successes.Load(), load.typed.Load(), load.p99())
}

// TestChaosFaultInjection soaks the routed data path in injected
// transport faults — probabilistic drops, delays and truncated frames on
// every backend's dialer — and requires the same contract: typed errors
// only, and recovery once the injector disarms.
func TestChaosFaultInjection(t *testing.T) {
	b1 := startFleetBackend(t, newFleetRegistry(t, nil, "v1"), nil, stream.Options{})
	b2 := startFleetBackend(t, newFleetRegistry(t, nil, "v1"), nil, stream.Options{})
	inj := faultinject.New(faultinject.Config{
		Seed:         17,
		DropProb:     0.002,
		DelayProb:    0.02,
		Delay:        2 * time.Millisecond,
		TruncateProb: 0.002,
	})
	cfgs := []BackendConfig{b1.config(), b2.config()}
	cfgs[0].Dial = inj.Dialer(b1.addr)
	cfgs[1].Dial = inj.Dialer(b2.addr)
	rt := newTestRouter(t, Options{
		Backends:        cfgs,
		RefreshInterval: 50 * time.Millisecond,
		ProbeInterval:   25 * time.Millisecond,
		ProbeTimeout:    250 * time.Millisecond,
		Breaker:         BreakerConfig{Failures: 5, OpenBase: 25 * time.Millisecond, OpenMax: 200 * time.Millisecond},
		Seed:            12,
	})
	in := testInput(29)

	load := startChaosLoad(rt, "mnist", "v1", in, 6)
	time.Sleep(1200 * time.Millisecond)
	load.finish()
	load.checkNonTyped(t)
	if n := load.successes.Load(); n < 100 {
		t.Fatalf("only %d successes under fault injection", n)
	}
	if st := inj.Stats(); st.Drops == 0 {
		t.Fatalf("injector delivered no drops (%+v); the soak proved nothing", st)
	}

	// Disarm: the fleet must return to clean service.
	inj.Disarm()
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for streak := 0; streak < 20; {
		_, err := rt.Infer(ctx, "mnist", "v1", in)
		if err == nil {
			streak++
			continue
		}
		streak = 0
		if !typedChaosError(err) {
			t.Fatalf("non-typed error after disarm: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never recovered after disarm: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosDrainUnderHotSwap drives the GOAWAY drain satellite through
// the router while both backends hot-swap mnist v1 → v2 under load:
// alias traffic never fails, pinned-v1 traffic degrades only through
// typed errors and ends at 404, and the drained backend completes its
// in-flight window (Shutdown returns nil well inside its deadline).
func TestChaosDrainUnderHotSwap(t *testing.T) {
	b1 := startFleetBackend(t, newFleetRegistry(t, nil, "v1"), nil, stream.Options{})
	b2 := startFleetBackend(t, newFleetRegistry(t, nil, "v1"), nil, stream.Options{})
	rt := newTestRouter(t, Options{
		Backends:        []BackendConfig{b1.config(), b2.config()},
		RefreshInterval: 25 * time.Millisecond,
		ProbeInterval:   50 * time.Millisecond,
		ProbeTimeout:    250 * time.Millisecond,
		Seed:            13,
	})
	ctx := context.Background()
	in := testInput(31)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var aliasOK, pinnedOK, pinnedGone, pinnedShed atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := rt.Infer(ctx, "mnist", "", in); err != nil {
					t.Errorf("alias request failed during drain + hot swap: %v", err)
					return
				}
				aliasOK.Add(1)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := rt.Infer(ctx, "mnist", "v1", in)
				switch {
				case err == nil:
					pinnedOK.Add(1)
				case errors.Is(err, serve.ErrNotFound):
					pinnedGone.Add(1)
				case errors.Is(err, serve.ErrClosed):
					// The drain window: v1's last holder is excluded but
					// its view has not refreshed away yet — known route,
					// no capacity, typed 503.
					pinnedShed.Add(1)
				default:
					t.Errorf("pinned request: %v, want success, 404 or 503", err)
					return
				}
			}
		}()
	}

	swapToV2 := func(fb *fleetBackend) {
		m2, err := model.New("mnist", "v2", nn.Arch2(rand.New(rand.NewSource(42))), program.CompileOptions{InShape: []int{121}})
		if err != nil {
			t.Fatal(err)
		}
		if err := fb.reg.Register(m2); err != nil {
			t.Fatal(err)
		}
		if err := fb.reg.Retire("mnist", "v1"); err != nil {
			t.Fatal(err)
		}
	}

	time.Sleep(150 * time.Millisecond)
	swapToV2(b2)
	time.Sleep(150 * time.Millisecond)

	// Drain b1 through the router, then complete its GOAWAY handshake.
	if !rt.SetDraining(b1.addr, true) {
		t.Fatal("SetDraining(b1) found no backend")
	}
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := b1.srv.Shutdown(sctx); err != nil {
		t.Fatalf("drain did not complete its in-flight window: %v", err)
	}
	drainTook := time.Since(start)
	swapToV2(b1)
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if aliasOK.Load() == 0 || pinnedOK.Load() == 0 {
		t.Fatalf("load too thin: alias=%d pinnedOK=%d", aliasOK.Load(), pinnedOK.Load())
	}

	// End state: the alias serves v2, pinned v1 is a clean 404 fleet-wide.
	if _, err := rt.Infer(ctx, "mnist", "", in); err != nil {
		t.Fatalf("alias infer after swap: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := rt.Infer(ctx, "mnist", "v1", in)
		if errors.Is(err, serve.ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pinned v1 = %v, want ErrNotFound once views refresh", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	row := rt.Backends()[0]
	if !row.Draining || row.Pending != 0 {
		t.Fatalf("drained backend row %+v, want draining with zero pending", row)
	}
	t.Logf("drain+swap: alias=%d pinnedOK=%d pinnedGone=%d pinnedShed=%d drain=%v",
		aliasOK.Load(), pinnedOK.Load(), pinnedGone.Load(), pinnedShed.Load(), drainTook)
}

// TestChaosThroughputScales pins the horizontal-scaling claim the fleet
// tier exists for: when backend capacity is the bottleneck, routed
// throughput over two backends must reach at least 1.6x a single backend
// through the same router code path.
//
// The model's delay is a sleep long enough (10 ms a batch, two workers
// of batch 1: 200 req/s a backend) that the sixteen callers saturate the
// backends while using almost no CPU, so the ratio measures the router's
// spreading and not how much of this host's processor the other packages'
// tests left over; and the ratio asserted is the best of three
// measurements, so one descheduled window does not fail it.
func TestChaosThroughputScales(t *testing.T) {
	mkBackend := func() *fleetBackend {
		rng := rand.New(rand.NewSource(41))
		m, err := model.New("mnist", "v1", nn.Arch2(rng), program.CompileOptions{InShape: []int{121}})
		if err != nil {
			t.Fatal(err)
		}
		reg := serve.NewRegistry(serve.Options{Workers: 2, MaxBatch: 1})
		if err := reg.Register(slowModel{Model: m, delay: 10 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		return startFleetBackend(t, reg, nil, stream.Options{})
	}
	b1, b2 := mkBackend(), mkBackend()
	in := testInput(37)

	measure := func(cfgs []BackendConfig) int64 {
		rt := newTestRouter(t, Options{
			Backends:        cfgs,
			RefreshInterval: 50 * time.Millisecond,
			ProbeInterval:   time.Hour,
			Seed:            14,
		})
		ctx := context.Background()
		const workers = 16
		var count atomic.Int64
		warmupOver := time.Now().Add(150 * time.Millisecond)
		end := warmupOver.Add(750 * time.Millisecond) // ≈150 requests on one backend
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					now := time.Now()
					if now.After(end) {
						return
					}
					if _, err := rt.Infer(ctx, "mnist", "v1", in); err != nil {
						t.Errorf("infer during throughput measure: %v", err)
						return
					}
					if now.After(warmupOver) {
						count.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Close(cctx)
		return count.Load()
	}

	best := 0.0
	for try := 1; try <= 3 && best < 1.6; try++ {
		single := measure([]BackendConfig{b1.config()})
		double := measure([]BackendConfig{b1.config(), b2.config()})
		if single == 0 {
			t.Fatal("no single-backend throughput measured")
		}
		ratio := float64(double) / float64(single)
		t.Logf("try %d: single=%d double=%d ratio=%.2f", try, single, double, ratio)
		best = max(best, ratio)
	}
	if best < 1.6 {
		t.Fatalf("2-backend throughput at best %.2fx single in three measurements, want >= 1.6x", best)
	}
}
