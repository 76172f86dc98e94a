package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circulant"
	"repro/internal/engine"
	"repro/internal/fft"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/vector"
)

// The ladder prices each layer on the request path: the same inputs are
// pushed serially (one outstanding) through each successive boundary —
// fft → circulant → Program.Run → Server.InferInto → Registry.InferInto →
// RPS2 to cmd/serve → the same through cmd/router → HTTP wire v1 → HTTP
// JSON — so a rung minus the rung below it is what the layer in between
// costs. Three saturated rungs and an open-loop rate ladder show what the
// serial numbers hide. The ladder is the same on every workload; rung
// lengths scale with -seconds.

const (
	rungShare = 0.03 // of -seconds, per serial rung
	satShare  = 0.10 // per saturated rung
	stepShare = 0.15 // per open-loop rate step
	stepWarm  = 300 * time.Millisecond
	satLanes  = 32 // in-process closed-loop callers of Server.InferInto
)

var ladderRates = []float64{3000, 6000, 9000, 12000}

// keepsUp is the share of an offered rate a step must complete to count as
// having no growing backlog (a 2 s Poisson window wanders by a few percent).
const keepsUp = 0.95

// serialRungs measures several calls side by side: it gives each in turn
// a ~10 ms slice, round robin, until every one has had about d, and
// returns each one's median per-call latency in ns. Interleaving exposes
// the rungs to the same noisy periods, so their difference (a self time)
// is steadier than if they ran one after the other. Calls are timed chunk
// at a time so the clock stays out of sub-microsecond calls, and the
// median drops the chunks a neighbour preempted.
func serialRungs(d time.Duration, chunk int, fs ...func() error) ([]float64, error) {
	const slice = 10 * time.Millisecond
	per := make([][]float64, len(fs))
	deadline := time.Now().Add(time.Duration(len(fs)) * d)
	for len(per[len(fs)-1]) < 5 || time.Now().Before(deadline) {
		for k, f := range fs {
			for turn := time.Now(); time.Since(turn) < slice; {
				start := time.Now()
				for i := 0; i < chunk; i++ {
					if err := f(); err != nil {
						return nil, err
					}
				}
				per[k] = append(per[k], float64(time.Since(start))/float64(chunk))
			}
		}
	}
	out := make([]float64, len(fs))
	for k := range per {
		out[k] = median(per[k])
	}
	return out, nil
}

// serialRung is serialRungs for one call.
func serialRung(d time.Duration, chunk int, f func() error) (float64, error) {
	out, err := serialRungs(d, chunk, f)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// mustRung is serialRung for calls that cannot fail.
func mustRung(d time.Duration, chunk int, f func()) float64 {
	v, _ := serialRung(d, chunk, func() error { f(); return nil })
	return v
}

// ladder carries the state shared by the rungs.
type ladder struct {
	e    *env
	logf func(string, ...any)
	out  map[string]float64
	rung time.Duration

	net       *nn.Network
	pool      [][]float64
	oracle    *oracle
	draw      func() int
	serveOpts serve.Options // cmd/serve's flag defaults
}

func (ld *ladder) set(name string, v float64, base string) {
	ld.out[name] = v
	unit := ""
	for _, s := range perLayer {
		if s.name == name {
			unit = s.unit
		}
	}
	if base != "" {
		ld.logf("ladder: %-34s %14.4f %-6s %s", name, v, unit, base)
		return
	}
	ld.logf("ladder: %-34s %14.4f %s", name, v, unit)
}

// self records a rung's self time: the rung minus the rung below it.
func (ld *ladder) self(name, rung, below string) {
	ld.set(name, ld.out[rung]-ld.out[below],
		fmt.Sprintf("= %s %.4f - base %s %.4f", rung, ld.out[rung], below, ld.out[below]))
}

func randomBatch(rng *rand.Rand, batch int, shape ...int) *tensor.Tensor {
	x := tensor.New(append([]int{batch}, shape...)...)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	return x
}

// kernelRungs measures the layers below the serving stack, in-process.
func (ld *ladder) kernelRungs() error {
	rng := rand.New(rand.NewSource(subSeed(ld.e.seed, purposePool, 1)))

	// fft: one real forward + inverse at Arch-1's block size.
	rp := fft.RealPlanFor(64)
	spec, z := fft.NewSplit(rp.SpecLen()), fft.NewSplit(rp.Size()/2)
	sig := randomBatch(rng, 1, 64).Data
	ld.set("fft.real_fwdinv_ns_n64", mustRung(ld.rung, 2000, func() {
		rp.ForwardSplit(spec, sig, z)
		rp.InverseSplit(sig, spec, z)
	}), "")

	// circulant: Arch-1's first layer, 256→128 in 64-blocks.
	w := ld.net.Layers[0].(*nn.CircDense).W
	for _, batch := range []int{1, 16} {
		x := randomBatch(rng, batch, w.Rows()).Data
		dst := make([]float64, batch*w.Cols())
		ws := circulant.NewBatchWorkspace()
		ld.set(fmt.Sprintf("circulant.mulbatch_us_b%d", batch), us(mustRung(ld.rung, 200, func() {
			w.TransMulBatchInto(dst, x, batch, ws)
		})), "")
	}

	// program: compile, then each backend at batch 1 and 16.
	var compiles []float64
	for i := 0; i < 15; i++ {
		start := time.Now()
		if _, err := program.Compile(ld.net, program.CompileOptions{InShape: []int{arch1Features}, BatchHint: 1}); err != nil {
			return err
		}
		compiles = append(compiles, float64(time.Since(start))/1e6)
	}
	ld.set("program.compile_ms", median(compiles), "")

	runRung := func(net *nn.Network, backend program.Backend, batch, chunk int, shape ...int) (float64, *program.Program, *tensor.Tensor, error) {
		prog, err := program.Compile(net, program.CompileOptions{InShape: shape, Backend: backend, BatchHint: batch})
		if err != nil {
			return 0, nil, nil, err
		}
		x := randomBatch(rng, batch, shape...)
		return mustRung(ld.rung, chunk, func() { prog.Run(x) }), prog, x, nil
	}
	for _, r := range []struct {
		name    string
		backend program.Backend
		batch   int
	}{
		{"program.float_run_us_b1", program.Float64Split(), 1},
		{"program.float_run_us_b16", program.Float64Split(), 16},
		{"program.fixed_run_us_b1", program.Int16Spectral(12, 12), 1},
		{"program.fixed_run_us_b16", program.Int16Spectral(12, 12), 16},
		{"program.dense_run_us_b16", program.DenseRef(), 16},
	} {
		ns, prog, x, err := runRung(ld.net, r.backend, r.batch, 20, arch1Features)
		if err != nil {
			return err
		}
		ld.set(r.name, us(ns), "")
		if r.name == "program.float_run_us_b1" {
			const runs = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				prog.Run(x)
			}
			runtime.ReadMemStats(&after)
			ld.set("program.allocs_per_run", float64(after.Mallocs-before.Mallocs)/runs, "")
		}
	}
	ld.set("program.fft_vs_dense_speedup_b16", ld.out["program.dense_run_us_b16"]/ld.out["program.float_run_us_b16"],
		fmt.Sprintf("= base program.dense_run_us_b16 %.4f / program.float_run_us_b16 %.4f", ld.out["program.dense_run_us_b16"], ld.out["program.float_run_us_b16"]))

	archRng := rand.New(rand.NewSource(modelSeed))
	ns, _, _, err := runRung(nn.Arch2(archRng), nil, 1, 20, 121)
	if err != nil {
		return err
	}
	ld.set("program.arch2_float_run_us_b1", us(ns), "")
	ns, _, _, err = runRung(nn.Arch3(archRng), nil, 1, 1, 32, 32, 3)
	if err != nil {
		return err
	}
	ld.set("program.arch3_float_run_ms_b1", ns/1e6, "")
	return nil
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// engineRungs measures the bundle: how long it takes to load, how big it
// is, and how big the uncompressed network would be (the storage claim).
func (ld *ladder) engineRungs(bundle string) (*engine.Engine, error) {
	var loads []float64
	var eng *engine.Engine
	for i := 0; i < 15; i++ {
		start := time.Now()
		e, err := loadBundle(bundle)
		if err != nil {
			return nil, err
		}
		loads = append(loads, float64(time.Since(start))/1e6)
		eng = e
	}
	ld.set("engine.bundle_load_ms", median(loads), "")
	var size int64
	for _, f := range []string{"arch.txt", "params.bin"} {
		st, err := os.Stat(filepath.Join(bundle, f))
		if err != nil {
			return nil, err
		}
		size += st.Size()
	}
	ld.set("engine.bundle_bytes_arch1", float64(size), "")
	var dense countWriter
	if err := engine.SaveParameters(&dense, nn.Arch1Dense(rand.New(rand.NewSource(modelSeed)))); err != nil {
		return nil, err
	}
	ld.set("engine.dense_equiv_bytes_arch1", float64(dense.n), "")
	cost := eng.InferenceCost()
	ld.set("program.ops_per_image_arch1",
		float64(cost.RealMul+cost.RealAdd+cost.CplxMul+cost.CplxAdd+cost.Special+cost.Compare), "")
	ld.set("program.bytes_per_image_arch1", float64(cost.MemRead+cost.MemWrite), "")
	return eng, nil
}

// serveDefaults reads cmd/serve's -batch, -deadline and -cache defaults
// from the built binary's own usage text, so the in-process rungs (and
// serve.batch_fill) price the configuration the spawned binaries run even
// after a default changes.
func serveDefaults(bin string) (serve.Options, error) {
	usage, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits non-zero; the text is the answer
	value := func(name string) (string, error) {
		m := regexp.MustCompile(`(?m)^\s+-` + name + ` \w+\n.*\(default ([^)]+)\)$`).FindSubmatch(usage)
		if m == nil {
			return "", fmt.Errorf("%s -h: no default listed for -%s", bin, name)
		}
		return string(m[1]), nil
	}
	var opts serve.Options
	for _, f := range []struct {
		name string
		set  func(string) (err error)
	}{
		{"batch", func(v string) (err error) { opts.MaxBatch, err = strconv.Atoi(v); return }},
		{"deadline", func(v string) (err error) { opts.MaxDelay, err = time.ParseDuration(v); return }},
		{"cache", func(v string) (err error) { opts.CacheSize, err = strconv.Atoi(v); return }},
	} {
		v, err := value(f.name)
		if err == nil {
			err = f.set(v)
		}
		if err != nil {
			return opts, fmt.Errorf("cmd/serve default -%s: %w", f.name, err)
		}
	}
	return opts, nil
}

// serverRungs measures Server.InferInto and Registry.InferInto in-process,
// interleaved, then saturates the server.
func (ld *ladder) serverRungs(eng *engine.Engine) error {
	ctx := context.Background()
	m, err := eng.Model(modelName, "v1")
	if err != nil {
		return err
	}
	srv, err := serve.NewModel(m, ld.serveOpts)
	if err != nil {
		return err
	}
	defer srv.Close()
	reg := serve.NewRegistry(ld.serveOpts)
	defer reg.Close()
	if m, err = eng.Model(modelName, "v1"); err != nil {
		return err
	}
	if err := reg.Register(m); err != nil {
		return err
	}
	var scores []float64
	checked := func(name string, infer func(input []float64) (serve.Result, error)) func() error {
		return func() error {
			idx := ld.draw()
			res, err := infer(ld.pool[idx])
			if err != nil {
				return err
			}
			scores = res.Scores
			if !ld.oracle.check(idx, res.Class, res.Scores, false) {
				return fmt.Errorf("%s: wrong class for input %d", name, idx)
			}
			return nil
		}
	}
	ns, err := serialRungs(ld.rung, 1,
		checked("Server.InferInto", func(in []float64) (serve.Result, error) { return srv.InferInto(ctx, in, scores) }),
		checked("Registry.InferInto", func(in []float64) (serve.Result, error) {
			return reg.InferInto(ctx, modelName, "", in, scores)
		}))
	if err != nil {
		return err
	}
	ld.set("serve.infer_serial_us", us(ns[0]), "")
	ld.self("serve.self_us", "serve.infer_serial_us", "program.float_run_us_b1")
	ld.set("registry.infer_serial_us", us(ns[1]), "")
	ld.self("registry.self_us", "registry.infer_serial_us", "serve.infer_serial_us")

	// Saturation: satLanes closed-loop callers of the one server.
	sat := time.Duration(ld.e.seconds * satShare * float64(time.Second))
	var done atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < satLanes; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			draw := uniformDraws(ld.e.seed, 1000+g, len(ld.pool))
			var scores []float64
			for time.Since(start) < sat {
				res, err := srv.InferInto(ctx, ld.pool[draw()], scores)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				scores = res.Scores
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}
	ld.set("serve.sat_rps", float64(done.Load())/elapsed.Seconds(), fmt.Sprintf("(%d in-process closed-loop callers)", satLanes))
	return nil
}

// vectorRungs measures the vector tier in-process on the collection the
// application workload uses: 4096 embeddings of width 128.
func (ld *ladder) vectorRungs(vecs [][]float32) error {
	ids := make([]string, len(vecs))
	for i := range ids {
		ids[i] = vectorID(i)
	}
	col, err := vector.NewStore().Ensure(appCollection, len(vecs[0]))
	if err != nil {
		return err
	}
	if _, _, err := col.Upsert(ids, vecs); err != nil {
		return err
	}
	var sc vector.Searcher
	dst := make([]vector.Result, 0, appSearchK)
	q := 0
	search := func(name string, opt vector.SearchOptions) error {
		ns, err := serialRung(ld.rung, 1, func() error {
			q = (q + 1) % len(vecs)
			dst, err = col.SearchInto(dst, &sc, vecs[q], appSearchK, opt)
			if err == nil && dst[0].ID != ids[q] {
				err = fmt.Errorf("%s: query %d did not find itself first", name, q)
			}
			return err
		})
		if err != nil {
			return err
		}
		ld.set(name, us(ns), "")
		return nil
	}
	if err := search("vector.search_brute_us", vector.SearchOptions{}); err != nil {
		return err
	}
	if err := search("vector.search_int8_us", vector.SearchOptions{Quantized: true}); err != nil {
		return err
	}
	// Upserts are measured before training, the state the application
	// workload runs in (an untrained collection has no lists to rebuild).
	at := 0
	ns, err := serialRung(ld.rung, 1, func() error {
		at = (at + upsertBatch) % (len(vecs) - upsertBatch)
		_, _, err := col.Upsert(ids[at:at+upsertBatch], vecs[at:at+upsertBatch])
		return err
	})
	if err != nil {
		return err
	}
	ld.set("vector.upsert_us_batch8", us(ns), "")
	if err := col.TrainANN(32, 1); err != nil {
		return err
	}
	ann := vector.SearchOptions{NProbe: 4}
	if err := search("vector.search_ann_us", ann); err != nil {
		return err
	}
	const queries = 64
	found := 0
	for i := 0; i < queries; i++ {
		query := vecs[i*len(vecs)/queries]
		exact, err := col.Search(query, appSearchK, vector.SearchOptions{})
		if err != nil {
			return err
		}
		approx, err := col.Search(query, appSearchK, ann)
		if err != nil {
			return err
		}
		want := make(map[string]bool, len(exact))
		for _, r := range exact {
			want[r.ID] = true
		}
		for _, r := range approx {
			if want[r.ID] {
				found++
			}
		}
	}
	ld.set("vector.recall_at_10_ann", float64(found)/float64(queries*appSearchK), "(k=32 lists, nprobe 4, base = exact top-10)")
	return nil
}

// topology is the ladder's set of real processes: serve0 (with -embed)
// and serve1 behind one router.
type topology struct {
	serves []*proc
	router *proc
}

func (t *topology) stop() {
	if t.router != nil {
		t.router.stop(stopGrace)
	}
	for _, p := range t.serves {
		p.stop(stopGrace)
	}
}

func (ld *ladder) startTopology(bundle string) (*topology, error) {
	t := &topology{}
	for i := 0; i < fleetBackends; i++ {
		p, err := startServe(ld.e, fmt.Sprintf("%s-ladder-serve%d", ld.e.workload, i), bundle, "-embed", modelName)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.serves = append(t.serves, p)
	}
	r, err := startRouter(ld.e, ld.e.workload+"-ladder-router", t.serves)
	if err != nil {
		t.stop()
		return nil, err
	}
	t.router = r
	return t, nil
}

// streamRung measures one serial RPS2 round trip to addr.
func (ld *ladder) streamRung(name, addr string) error {
	clients, err := dialClients(addr, 1)
	if err != nil {
		return err
	}
	defer closeClients(clients)
	ctx := context.Background()
	inputs := make([][]float64, 1)
	var out []serve.Result
	ns, err := serialRung(ld.rung, 1, func() error {
		idx := ld.draw()
		inputs[0] = ld.pool[idx]
		res, err := clients[0].DoInto(ctx, modelName, inputs, out[:0])
		if err != nil {
			return err
		}
		out = res
		if !ld.oracle.check(idx, res[0].Class, res[0].Scores, false) {
			return fmt.Errorf("%s: wrong class for input %d", name, idx)
		}
		return nil
	})
	if err != nil {
		return err
	}
	ld.set(name, us(ns), "")
	return nil
}

// loadRung runs the stream generator (closed loop, or open loop at rate)
// against the topology for one window of length d and returns it.
func (ld *ladder) loadRung(t *topology, target string, conns int, rate float64, d time.Duration) (*measurement, error) {
	clients, err := dialClients(target, conns)
	if err != nil {
		return nil, err
	}
	defer closeClients(clients)
	in := &streamInst{e: ld.e, open: rate > 0, rate: rate, pool: ld.pool, oracle: ld.oracle,
		serves: t.serves, router: t.router, clients: clients}
	// Saturated rungs scrape the servers at both edges of the window,
	// while the load is still on, so the gauges show the busy state.
	tl := &timeline{t0: time.Now().Add(stepWarm), winLen: d, n: 1, scrape: rate == 0}
	m, err := measure(in, tl, 5*time.Millisecond, ld.e.deadline)
	in.cancel()
	if err != nil {
		return nil, err
	}
	if _, failed := m.totals(); failed > 0 && rate == 0 {
		return nil, fmt.Errorf("saturated rung against %s: %d ops failed", target, failed)
	}
	return m, nil
}

// processRungs measures everything that crosses a process boundary.
// It returns the scrapes taken around the saturated rungs and the ops
// those rungs issued.
func (ld *ladder) processRungs(t *topology, app *appInst) (bounds [][]*metrics.Scrape, ops int64, err error) {
	serve0 := t.serves[0]
	if err := ld.streamRung("stream.rtt_serial_us", serve0.tcpAddr); err != nil {
		return nil, 0, err
	}
	ld.self("stream.self_us", "stream.rtt_serial_us", "registry.infer_serial_us")
	if err := ld.streamRung("router.hop_serial_us", t.router.tcpAddr); err != nil {
		return nil, 0, err
	}
	ld.self("router.self_us", "router.hop_serial_us", "stream.rtt_serial_us")

	// HTTP: the same single inference as a wire-v1 body and as JSON.
	ctx := context.Background()
	c, buf := newKeepAliveClient(), new(bytes.Buffer)
	defer c.CloseIdleConnections()
	var wireBody []byte
	var scratch serve.WireResultsScratch
	inputs := make([][]float64, 1)
	ns, err := serialRung(ld.rung, 1, func() error {
		idx := ld.draw()
		inputs[0] = ld.pool[idx]
		var err error
		if wireBody, err = serve.AppendWireRequest(wireBody[:0], inputs); err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, serve0.httpURL+pathInfer, bytes.NewReader(wireBody))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", serve.WireContentType)
		resp, err := c.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		buf.Reset()
		if _, err := io.Copy(buf, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("wire infer: status %d", resp.StatusCode)
		}
		res, err := serve.ParseWireResults(buf.Bytes(), &scratch)
		if err != nil {
			return err
		}
		if len(res) != 1 || !ld.oracle.check(idx, res[0].Class, res[0].Scores, false) {
			return fmt.Errorf("wire infer: wrong answer for input %d", idx)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	ld.set("http.infer_wire_serial_us", us(ns), "")
	ld.self("http.self_us", "http.infer_wire_serial_us", "registry.infer_serial_us")

	// The application pool is the first appPool inputs' worth of its own
	// seeded pool; JSON bodies are pre-rendered there.
	appDraw := uniformDraws(ld.e.seed, 2000, len(app.pool))
	ns, err = serialRung(ld.rung, 1, func() error {
		idx := appDraw()
		var res serve.Result
		if err := call(ctx, c, http.MethodPost, serve0.httpURL+pathInfer, app.bodies[idx], buf, &res); err != nil {
			return err
		}
		if !app.oracle.check(idx, res.Class, res.Scores, false) {
			return fmt.Errorf("json infer: wrong answer for input %d", idx)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	ld.set("http.infer_json_serial_us", us(ns), "")
	ld.self("http.json_self_us", "http.infer_json_serial_us", "http.infer_wire_serial_us")

	var emb embedAnswer
	ns, err = serialRung(ld.rung, 1, func() error {
		return call(ctx, c, http.MethodPost, serve0.httpURL+pathEmbed, app.bodies[appDraw()], buf, &emb)
	})
	if err != nil {
		return nil, 0, err
	}
	ld.set("embed.http_serial_us", us(ns), "")
	ld.set("embed.dim", float64(len(emb.Embedding)), "")

	var body []byte
	var hits searchAnswer
	ns, err = serialRung(ld.rung, 1, func() error {
		idx := appDraw()
		body = searchBody(body, app.vectors[idx])
		if err := call(ctx, c, http.MethodPost, serve0.httpURL+pathSearch, body, buf, &hits); err != nil {
			return err
		}
		if len(hits.Results) == 0 || hits.Results[0].ID != vectorID(idx) {
			return fmt.Errorf("http search: input %d did not find itself first", idx)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	ld.set("vector.http_search_us", us(ns), "")
	var up upsertAnswer
	ns, err = serialRung(ld.rung, 1, func() error {
		body = app.upsertBody(body, appDraw()%(len(app.pool)-upsertBatch), upsertBatch)
		return call(ctx, c, http.MethodPut, serve0.httpURL+pathUpsert, body, buf, &up)
	})
	if err != nil {
		return nil, 0, err
	}
	ld.set("vector.http_upsert_us", us(ns), "")

	// Saturated rungs, with the servers' own counters read around them.
	sat := time.Duration(ld.e.seconds * satShare * float64(time.Second))
	m, err := ld.loadRung(t, serve0.tcpAddr, 1, 0, sat)
	if err != nil {
		return nil, 0, err
	}
	ld.set("stream.sat_rps_1conn", m.throughput(0), fmt.Sprintf("(1 connection x %d closed-loop callers -> cmd/serve)", closedPerConn))
	ops += m.wins[0].ok.Load()
	bounds = append(bounds, m.bounds[0].scrape, m.bounds[1].scrape)
	m, err = ld.loadRung(t, t.router.tcpAddr, streamConns, 0, sat)
	if err != nil {
		return nil, 0, err
	}
	ld.set("router.sat_rps", m.throughput(0), fmt.Sprintf("(%d connections x %d closed-loop callers -> cmd/router -> %d x cmd/serve)", streamConns, closedPerConn, fleetBackends))
	ops += m.wins[0].ok.Load()
	bounds = append(bounds, m.bounds[0].scrape, m.bounds[1].scrape)

	// Open-loop rate ladder through the router: p95 from scheduled start
	// at each rate, and the highest rate that meets the latency limit.
	step := time.Duration(ld.e.seconds * stepShare * float64(time.Second))
	limit, _ := findWorkload("fleet_open")
	best, holding := 0.0, true
	for _, rate := range ladderRates {
		m, err := ld.loadRung(t, t.router.tcpAddr, streamConns, rate, step)
		if err != nil {
			return nil, 0, err
		}
		p95 := us(m.wins[0].lat.quantile(0.95))
		attempted, failed := m.totals()
		ld.set(fmt.Sprintf("client.p95_us_at_%d", int(rate)), p95,
			fmt.Sprintf("(open loop, %d of %d ops failed, lateness p99 %.0f us)", failed, attempted, us(m.late.quantile(0.99))))
		within := failed == 0 && p95 <= us(float64(limit.limit)) && m.throughput(0) >= keepsUp*rate
		if holding && within {
			best = rate
		} else {
			holding = false
		}
	}
	ld.set("client.max_rate_within_limit", best, fmt.Sprintf("(highest of %v req/s with p95 <= %v, nothing failed and no backlog)", ladderRates, limit.limit))
	return bounds, ops, nil
}

// minTraceOverheadRatio is the least traced ÷ untraced throughput a traced
// run may show: below it the spans distort what they describe.
const minTraceOverheadRatio = 0.9

// sanity checks the traced run's own validity: along each branch of the
// ladder — RPS2 (Program.Run → Server → Registry → stream → router) and
// HTTP (Registry → wire → JSON) — a rung may not be more than 5% cheaper
// than the rung below it, and tracing may not cost more than a tenth of
// the throughput. A run that fails either is not reported.
func (ld *ladder) sanity() error {
	branches := [][]string{
		{"program.float_run_us_b1", "serve.infer_serial_us", "registry.infer_serial_us", "stream.rtt_serial_us", "router.hop_serial_us"},
		{"registry.infer_serial_us", "http.infer_wire_serial_us", "http.infer_json_serial_us"},
	}
	var errs []error
	for _, br := range branches {
		for i := 1; i < len(br); i++ {
			if below, rung := ld.out[br[i-1]], ld.out[br[i]]; rung < 0.95*below {
				errs = append(errs, fmt.Errorf("ladder: %s %.2f us is below %s %.2f us", br[i], rung, br[i-1], below))
			}
		}
	}
	if r := ld.out["client.trace_overhead_ratio"]; r < minTraceOverheadRatio {
		errs = append(errs, fmt.Errorf("client.trace_overhead_ratio %.3f is below %.1f", r, minTraceOverheadRatio))
	}
	if len(errs) > 0 {
		return fmt.Errorf("invalid traced run: %w", errors.Join(errs...))
	}
	ld.logf("ladder sanity: serial rungs are non-decreasing along both branches (RPS2 and HTTP) within 5%%, tracing overhead within 10%%")
	return nil
}

// tracedMetrics produces every per-layer metric: the generator's audit of
// the traced run, the ladder, and the servers' scraped counters — from
// the workload's own system when it has servers, from the ladder's
// saturated rungs when it does not (the on-device workloads).
func tracedMetrics(e *env, m *measurement, logf func(string, ...any)) (map[string]float64, error) {
	ld := &ladder{e: e, logf: logf, out: map[string]float64{},
		rung: time.Duration(e.seconds * rungShare * float64(time.Second))}
	for name, v := range m.clientMetrics() {
		ld.set(name, v, "")
	}
	ld.net = newModel()
	ld.pool = newPool(e.seed, servingPool, arch1Features)
	ld.oracle = newOracle(ld.net, ld.pool, 0)
	ld.draw = uniformDraws(e.seed, 3000, len(ld.pool))
	bundle := filepath.Join(e.workDir, "ladder-model", modelName)
	if err := writeBundle(bundle, ld.net, []int{arch1Features}); err != nil {
		return nil, err
	}
	var err error
	if ld.serveOpts, err = serveDefaults(e.serveBin); err != nil {
		return nil, err
	}
	logf("ladder: in-process rungs use cmd/serve's own defaults: -batch %d -deadline %v -cache %d",
		ld.serveOpts.MaxBatch, ld.serveOpts.MaxDelay, ld.serveOpts.CacheSize)

	if err := ld.kernelRungs(); err != nil {
		return nil, err
	}
	eng, err := ld.engineRungs(bundle)
	if err != nil {
		return nil, err
	}
	if err := ld.serverRungs(eng); err != nil {
		return nil, err
	}

	appE := *e
	appE.corrupt = false
	ai, err := prepareApp(&appE)
	if err != nil {
		return nil, err
	}
	app := ai.(*appInst)
	t, err := ld.startTopology(bundle)
	if err != nil {
		return nil, err
	}
	defer t.stop()
	app.proc = t.serves[0]
	if err := app.preload(); err != nil {
		return nil, err
	}
	if err := ld.vectorRungs(app.vectors); err != nil {
		return nil, err
	}
	bounds, ops, err := ld.processRungs(t, app)
	if err != nil {
		return nil, err
	}

	source := "the ladder's saturated rungs (this workload has no server)"
	nServes := len(t.serves)
	if m.nServes > 0 {
		source = "the workload's own servers, first to last window"
		nServes = m.nServes
		bounds = bounds[:0]
		for _, b := range m.bounds {
			if b.scrape != nil {
				bounds = append(bounds, b.scrape)
			}
		}
		ops, _ = m.totals()
	}
	if err := ld.sanity(); err != nil && !e.lenient {
		return nil, err
	}
	logf("scraped counters come from %s", source)
	scraped := scrapeMetrics(bounds, nServes, ops, ld.serveOpts.MaxBatch)
	names := make([]string, 0, len(scraped))
	for name := range scraped {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ld.set(name, scraped[name], "")
	}
	return ld.out, nil
}
