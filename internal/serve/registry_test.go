package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/tensor"
)

// registryModel wraps a small distinct network as name@version.
func registryModel(t *testing.T, name, version string, seed int64) model.Model {
	t.Helper()
	m, err := model.New(name, version, testModel(seed), program.CompileOptions{InShape: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// registryOptions keeps the lifecycle tests fast and deterministic.
func registryOptions(cacheSize int) Options {
	return Options{Workers: 2, MaxBatch: 4, MaxDelay: 100 * time.Microsecond, CacheSize: cacheSize}
}

func TestRegistryLifecycle(t *testing.T) {
	reg := NewRegistry(registryOptions(0))
	defer reg.Close()

	if err := reg.Register(registryModel(t, "m", "v1", 1)); err != nil {
		t.Fatal(err)
	}
	// Duplicate identity is rejected; a new version is not. The literal
	// version "latest" is reserved for the alias.
	if err := reg.Register(registryModel(t, "m", "v1", 2)); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate register: err=%v, want ErrExists", err)
	}
	if err := reg.Register(registryModel(t, "m", Latest, 2)); err == nil {
		t.Error("reserved version \"latest\" accepted")
	}
	if err := reg.Register(registryModel(t, "m", "v2", 2)); err != nil {
		t.Fatal(err)
	}

	input := make([]float64, 64)
	// v2 is now latest; the alias, the bare name and the pinned id must
	// agree with the reference networks.
	wantV1 := testModel(1).Predict(tensor.FromSlice(input, 1, 64))[0]
	wantV2 := testModel(2).Predict(tensor.FromSlice(input, 1, 64))[0]
	res, err := reg.Infer(context.Background(), "m", "", input)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != wantV2 {
		t.Errorf("alias routed to class %d, v2 reference %d", res.Class, wantV2)
	}
	res, err = reg.Infer(context.Background(), "m", Latest, input)
	if err != nil || res.Class != wantV2 {
		t.Errorf("latest alias: class %d err %v, want %d", res.Class, err, wantV2)
	}
	res, err = reg.Infer(context.Background(), "m", "v1", input)
	if err != nil || res.Class != wantV1 {
		t.Errorf("pinned v1: class %d err %v, want %d", res.Class, err, wantV1)
	}

	// Unknown names and versions are ErrNotFound.
	if _, err := reg.Infer(context.Background(), "absent", "", input); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown name: err=%v, want ErrNotFound", err)
	}
	if _, err := reg.Infer(context.Background(), "m", "v9", input); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown version: err=%v, want ErrNotFound", err)
	}

	// Promote rolls the alias back to v1 without moving data.
	if err := reg.Promote("m", "v1"); err != nil {
		t.Fatal(err)
	}
	res, err = reg.Infer(context.Background(), "m", "", input)
	if err != nil || res.Class != wantV1 {
		t.Errorf("after promote: class %d err %v, want %d", res.Class, err, wantV1)
	}
	if err := reg.Promote("m", "v9"); !errors.Is(err, ErrNotFound) {
		t.Errorf("promote unknown version: err=%v, want ErrNotFound", err)
	}

	// Listing shows both versions with the alias on v1.
	infos := reg.Models()
	if len(infos) != 2 {
		t.Fatalf("listing has %d entries, want 2", len(infos))
	}
	if !infos[0].Latest || infos[0].Version != "v1" || infos[1].Latest {
		t.Errorf("latest flags wrong: %+v", infos)
	}

	// Retiring a version the alias does not point at leaves the alias.
	if err := reg.Retire("m", "v2"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Infer(context.Background(), "m", "v2", input); !errors.Is(err, ErrNotFound) {
		t.Errorf("retired version still routable: err=%v", err)
	}
	res, err = reg.Infer(context.Background(), "m", "", input)
	if err != nil || res.Class != wantV1 {
		t.Errorf("alias after retiring non-latest: class %d err %v, want %d", res.Class, err, wantV1)
	}
	// Retiring the last version drops the name.
	if err := reg.Retire("m", "v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Infer(context.Background(), "m", "", input); !errors.Is(err, ErrNotFound) {
		t.Errorf("name with no versions still routable: err=%v", err)
	}
	if err := reg.Retire("m", "v1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double retire: err=%v, want ErrNotFound", err)
	}
}

// TestLatestAliasRepointing pins the re-pointing rule: retiring the latest
// version moves the alias to the most recently registered survivor, and a
// later registration takes the alias over.
func TestLatestAliasRepointing(t *testing.T) {
	reg := NewRegistry(registryOptions(0))
	defer reg.Close()
	for i, v := range []string{"v1", "v2", "v3"} {
		if err := reg.Register(registryModel(t, "m", v, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	input := make([]float64, 64)
	classOf := func(seed int64) int { return testModel(seed).Predict(tensor.FromSlice(input, 1, 64))[0] }

	// v3 is latest; retiring it must re-point to v2 (the newest survivor),
	// not v1.
	if err := reg.Retire("m", "v3"); err != nil {
		t.Fatal(err)
	}
	res, err := reg.Infer(context.Background(), "m", "", input)
	if err != nil || res.Class != classOf(2) {
		t.Errorf("alias after retiring latest: class %d err %v, want v2's %d", res.Class, err, classOf(2))
	}
	// A new registration becomes latest immediately.
	if err := reg.Register(registryModel(t, "m", "v4", 4)); err != nil {
		t.Fatal(err)
	}
	res, err = reg.Infer(context.Background(), "m", "", input)
	if err != nil || res.Class != classOf(4) {
		t.Errorf("alias after new registration: class %d err %v, want v4's %d", res.Class, err, classOf(4))
	}
}

// TestRegistryCacheNamespacing is the cache-isolation regression test:
// every registered model — another name, or another version of the same
// name — answers from its own Server's cache, so models fed the same
// input vector never serve each other's cached scores.
func TestRegistryCacheNamespacing(t *testing.T) {
	reg := NewRegistry(registryOptions(32))
	defer reg.Close()
	models := []struct {
		name, version string
		seed          int64
	}{{"a", "v1", 1}, {"a", "v2", 2}, {"b", "v1", 3}}
	for _, m := range models {
		if err := reg.Register(registryModel(t, m.name, m.version, m.seed)); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(3))
	input := make([]float64, 64)
	for i := range input {
		input[i] = rng.NormFloat64()
	}

	// The same exact input goes to each model in turn, with the earlier
	// models' caches already primed by it: every first sight must be a
	// miss served by that model's own forward pass, and every repeat a
	// hit carrying that model's own scores.
	ctx := context.Background()
	for _, m := range models {
		ref := testModel(m.seed).Forward(tensor.FromSlice(input, 1, 64), false).Row(0)
		for _, wantCached := range []bool{false, true} {
			res, err := reg.Infer(ctx, m.name, m.version, input)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cached != wantCached {
				t.Errorf("%s@%s: cached=%v, want %v", m.name, m.version, res.Cached, wantCached)
			}
			for j := range ref {
				if res.Scores[j] != ref[j] {
					t.Fatalf("%s@%s (cached=%v) score %d: %g, reference %g (another model's cached scores?)",
						m.name, m.version, res.Cached, j, res.Scores[j], ref[j])
				}
			}
		}
	}
}

// TestABWeightRouting pins the satellite's routing-distribution bounds:
// the smooth weighted round-robin must hit a 90/10 split essentially
// exactly over a window (no sampling noise), and SetWeights must validate
// its inputs.
func TestABWeightRouting(t *testing.T) {
	reg := NewRegistry(registryOptions(0))
	defer reg.Close()
	if err := reg.Register(registryModel(t, "m", "v1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(registryModel(t, "m", "v2", 2)); err != nil {
		t.Fatal(err)
	}

	// Validation: unknown version, non-positive weight.
	if err := reg.SetWeights("m", map[string]float64{"v1": 1, "v9": 1}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown version in weights: err=%v, want ErrNotFound", err)
	}
	if err := reg.SetWeights("m", map[string]float64{"v1": 0}); err == nil {
		t.Error("zero weight accepted")
	}
	// NaN and +Inf would poison the round-robin accumulators.
	if err := reg.SetWeights("m", map[string]float64{"v1": math.NaN(), "v2": 1}); err == nil {
		t.Error("NaN weight accepted")
	}
	if err := reg.SetWeights("m", map[string]float64{"v1": math.Inf(1), "v2": 1}); err == nil {
		t.Error("+Inf weight accepted")
	}

	if err := reg.SetWeights("m", map[string]float64{"v1": 0.9, "v2": 0.1}); err != nil {
		t.Fatal(err)
	}
	const total = 1000
	input := make([]float64, 64)
	for i := 0; i < total; i++ {
		if _, err := reg.Infer(context.Background(), "m", "", input); err != nil {
			t.Fatal(err)
		}
	}
	st1, err := reg.Stats("m", "v1")
	if err != nil {
		t.Fatal(err)
	}
	st2, err := reg.Stats("m", "v2")
	if err != nil {
		t.Fatal(err)
	}
	got1, got2 := int(st1.Requests), int(st2.Requests)
	if got1+got2 != total {
		t.Fatalf("split served %d+%d of %d requests", got1, got2, total)
	}
	// Smooth WRR is exact up to rounding of the final incomplete cycle.
	if got1 < 890 || got1 > 910 {
		t.Errorf("v1 served %d of %d, want 900±10", got1, total)
	}

	// Pinned requests bypass the split.
	before := got2
	if _, err := reg.Infer(context.Background(), "m", "v2", input); err != nil {
		t.Fatal(err)
	}
	st2, err = reg.Stats("m", "v2")
	if err != nil {
		t.Fatal(err)
	}
	if int(st2.Requests) != before+1 {
		t.Errorf("pinned request did not land on v2: %d → %d", before, st2.Requests)
	}

	// Promote clears the split: routed traffic resolves through the split
	// before the alias, so a promotion that left it in place would move
	// nothing.
	if err := reg.Promote("m", "v1"); err != nil {
		t.Fatal(err)
	}
	st1, err = reg.Stats("m", "v1")
	if err != nil {
		t.Fatal(err)
	}
	v1Before := st1.Requests
	for i := 0; i < 10; i++ {
		if _, err := reg.Infer(context.Background(), "m", "", input); err != nil {
			t.Fatal(err)
		}
	}
	st1, err = reg.Stats("m", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if st1.Requests != v1Before+10 {
		t.Errorf("after promote, alias traffic still split: v1 saw %d of 10", st1.Requests-v1Before)
	}

	// Re-install the split, then clear it explicitly: the name returns to
	// latest-alias routing (v1, promoted above).
	if err := reg.SetWeights("m", map[string]float64{"v1": 0.9, "v2": 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetWeights("m", nil); err != nil {
		t.Fatal(err)
	}
	st1, err = reg.Stats("m", "v1")
	if err != nil {
		t.Fatal(err)
	}
	v1Before = st1.Requests
	for i := 0; i < 10; i++ {
		if _, err := reg.Infer(context.Background(), "m", "", input); err != nil {
			t.Fatal(err)
		}
	}
	st1, err = reg.Stats("m", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if st1.Requests != v1Before+10 {
		t.Errorf("after clearing split, alias traffic split: v1 saw %d of 10", st1.Requests-v1Before)
	}
}

// TestRetireDissolvesDegenerateSplit pins the hot-swap interaction with a
// live canary: Register(v3) + Retire(v1) during a v1/v2 split must leave
// routed traffic on the alias target (v3), not stranded on the split's
// one surviving arm.
func TestRetireDissolvesDegenerateSplit(t *testing.T) {
	reg := NewRegistry(registryOptions(0))
	defer reg.Close()
	for i, v := range []string{"v1", "v2"} {
		if err := reg.Register(registryModel(t, "m", v, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.SetWeights("m", map[string]float64{"v1": 0.9, "v2": 0.1}); err != nil {
		t.Fatal(err)
	}
	// The documented hot-swap: register the replacement, retire the old
	// primary. The split is left with only v2 — meaningless — so it must
	// dissolve and the alias (v3) must take the traffic.
	if err := reg.Register(registryModel(t, "m", "v3", 3)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Retire("m", "v1"); err != nil {
		t.Fatal(err)
	}
	input := make([]float64, 64)
	for i := 0; i < 10; i++ {
		if _, err := reg.Infer(context.Background(), "m", "", input); err != nil {
			t.Fatal(err)
		}
	}
	st3, err := reg.Stats("m", "v3")
	if err != nil {
		t.Fatal(err)
	}
	if st3.Requests != 10 {
		st2, _ := reg.Stats("m", "v2")
		t.Errorf("after swap, v3 served %d and v2 served %d of 10 routed requests; split not dissolved",
			st3.Requests, st2.Requests)
	}
}

// TestRegistryConcurrentLifecycle is the satellite's -race lifecycle test:
// clients hammer the alias while versions register, retire, promote and
// re-weight underneath them. Alias-addressed inference must never fail —
// the routed-retry contract — and pinned inference may only fail with
// ErrNotFound or ErrClosed.
func TestRegistryConcurrentLifecycle(t *testing.T) {
	reg := NewRegistry(registryOptions(16))
	defer reg.Close()
	if err := reg.Register(registryModel(t, "m", "v0", 100)); err != nil {
		t.Fatal(err)
	}

	const clients = 4
	var aliasErrs atomic.Int64
	var served atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	rng := rand.New(rand.NewSource(5))
	inputs := make([][]float64, 8)
	for i := range inputs {
		inputs[i] = make([]float64, 64)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
	}

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := reg.Infer(context.Background(), "m", "", inputs[(c+i)%len(inputs)]); err != nil {
					t.Errorf("alias infer failed mid-swap: %v", err)
					aliasErrs.Add(1)
					return
				}
				served.Add(1)
			}
		}(c)
	}
	// One goroutine reads listings and stats continuously.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, info := range reg.Models() {
				if info.Name != "m" {
					t.Errorf("foreign model %q in listing", info.Name)
				}
			}
			_, _ = reg.Stats("m", "")
		}
	}()

	// The swapper: register v(k), weight-split against the previous
	// version, then retire the previous version — a rolling hot swap.
	prev := "v0"
	for k := 1; k <= 8; k++ {
		version := fmt.Sprintf("v%d", k)
		if err := reg.Register(registryModel(t, "m", version, int64(100+k))); err != nil {
			t.Fatal(err)
		}
		if err := reg.SetWeights("m", map[string]float64{prev: 0.5, version: 0.5}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
		if err := reg.SetWeights("m", nil); err != nil {
			t.Fatal(err)
		}
		if err := reg.Retire("m", prev); err != nil {
			t.Fatal(err)
		}
		prev = version
	}
	close(stop)
	wg.Wait()

	if aliasErrs.Load() != 0 {
		t.Fatalf("%d alias-addressed requests failed during hot swaps", aliasErrs.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no requests served during the swap storm")
	}
	// Exactly one version must remain, holding the alias.
	infos := reg.Models()
	if len(infos) != 1 || infos[0].Version != prev || !infos[0].Latest {
		t.Fatalf("after swaps: %+v, want only %s as latest", infos, prev)
	}
}

// TestRegistryCloseSemantics: Close retires everything, is idempotent, and
// post-close registration and inference are ErrClosed.
func TestRegistryCloseSemantics(t *testing.T) {
	reg := NewRegistry(registryOptions(0))
	if err := reg.Register(registryModel(t, "m", "v1", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Infer(context.Background(), "m", "", make([]float64, 64)); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	reg.Close() // idempotent
	if _, err := reg.Infer(context.Background(), "m", "", make([]float64, 64)); !errors.Is(err, ErrClosed) {
		t.Errorf("infer after close: err=%v, want ErrClosed", err)
	}
	if err := reg.Register(registryModel(t, "m", "v2", 2)); !errors.Is(err, ErrClosed) {
		t.Errorf("register after close: err=%v, want ErrClosed", err)
	}
	if len(reg.Models()) != 0 {
		t.Error("closed registry still lists models")
	}
}

// TestRegistryDenseVsCirculantAB registers a circulant model and its dense
// baseline under one name and routes between them — the A/B pair the
// paper's compression claims are measured against.
func TestRegistryDenseVsCirculantAB(t *testing.T) {
	reg := NewRegistry(registryOptions(0))
	defer reg.Close()
	rng := rand.New(rand.NewSource(9))
	circ := nn.Arch1(rng)
	dense := nn.Arch1Dense(rng)
	mc, err := model.New("arch1", "circ", circ, program.CompileOptions{InShape: []int{256}})
	if err != nil {
		t.Fatal(err)
	}
	md, err := model.New("arch1", "dense", dense, program.CompileOptions{InShape: []int{256}})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(mc); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(md); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetWeights("arch1", map[string]float64{"circ": 0.5, "dense": 0.5}); err != nil {
		t.Fatal(err)
	}
	input := make([]float64, 256)
	for i := 0; i < 20; i++ {
		if _, err := reg.Infer(context.Background(), "arch1", "", input); err != nil {
			t.Fatal(err)
		}
	}
	stc, err := reg.Stats("arch1", "circ")
	if err != nil {
		t.Fatal(err)
	}
	std, err := reg.Stats("arch1", "dense")
	if err != nil {
		t.Fatal(err)
	}
	if stc.Requests != 10 || std.Requests != 10 {
		t.Errorf("50/50 split served %d/%d of 20", stc.Requests, std.Requests)
	}
}
