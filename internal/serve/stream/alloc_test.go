package stream

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/serve"
)

// TestStreamInferZeroAlloc is the streaming-path allocation gate: at
// steady state — client call pool, per-handler scratch, connection free
// list, route intern table and the serve-side pools all warm — a DoInto
// round trip over a real TCP connection must allocate nothing anywhere in
// the process. AllocsPerRun counts every goroutine, so the gate covers
// the client writer, the server reader, the handler, the batch scheduler
// and the response demux together.
//
// The request carries no deadline: a latency budget costs one
// context.WithDeadline per frame by design (the documented price of
// SLO shedding), which would show up here as a fixed per-op allocation.
func TestStreamInferZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs without -race")
	}
	rng := rand.New(rand.NewSource(73))
	m, err := model.New("arch1", "v1", nn.Arch1(rng), program.CompileOptions{InShape: []int{256}})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.Options{Workers: 1, MaxBatch: 16})
	defer reg.Close()
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Options{Window: 32})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		cl.Close(ctx)
	}()

	inputs := [][]float64{make([]float64, 256)}
	for i := range inputs[0] {
		inputs[0][i] = rng.NormFloat64()
	}
	ctx := context.Background()
	var out []serve.Result

	// Warm every pool on the path: concurrent pipelined load exercises
	// batch assembly and grows the handler scratch, then sequential calls
	// settle the single-frame shape.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if _, err := cl.Do(ctx, "arch1", inputs); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for k := 0; k < 20; k++ {
		res, err := cl.DoInto(ctx, "arch1", inputs, out)
		if err != nil {
			t.Fatal(err)
		}
		out = res
	}

	allocs := testing.AllocsPerRun(50, func() {
		res, err := cl.DoInto(ctx, "arch1", inputs, out)
		if err != nil {
			t.Fatal(err)
		}
		out = res
	})
	if allocs > 0 {
		t.Errorf("steady-state streamed DoInto allocates %.0f/op; want 0", allocs)
	}
}
