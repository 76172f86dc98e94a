package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/serve"
	"repro/internal/serve/admission"
)

// TestStreamPerConnFairness pins the fairness satellite end to end: with
// Config.MaxPerConn set, a hot pipelined connection is shed with the
// typed "fairness" reason once its share is in flight, a second
// connection keeps being admitted, and the controller's /stats counters
// agree exactly with both the client-observed sheds and the /metrics
// series (same atomics on all three surfaces).
func TestStreamPerConnFairness(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m, err := model.New("mnist", "v1", nn.Arch2(rng), program.CompileOptions{InShape: []int{121}})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.Options{Workers: 4, MaxBatch: 1})
	if err := reg.Register(slowModel{Model: m, delay: 100 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	mx := metrics.NewRegistry()
	ctrl := admission.New(admission.Config{MaxPerConn: 1, RetryAfter: 5 * time.Millisecond})
	ctrl.RegisterMetrics(mx)
	srv := NewServer(reg, Options{Window: 16, Admission: ctrl})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	hot, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	polite, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hot.Close(ctx)
		polite.Close(ctx)
		srv.Close()
		<-serveDone
	})

	input := make([]float64, 121)
	ctx := context.Background()

	// The hot connection pipelines a burst; with a share of 1 and a
	// 100ms model, at most one request is in flight while the rest of
	// the burst is read, so the surplus sheds with the typed reason.
	const burst = 6
	var (
		wg        sync.WaitGroup
		succeeded atomic.Int64
		fairness  atomic.Int64
	)
	for g := 0; g < burst; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := hot.Do(ctx, "mnist", [][]float64{input})
			if err == nil {
				succeeded.Add(1)
				return
			}
			var oe *admission.OverloadError
			if !errors.As(err, &oe) {
				t.Errorf("hot connection got untyped error: %v", err)
				return
			}
			if oe.Reason != admission.ReasonFairness {
				t.Errorf("shed reason %q, want %q", oe.Reason, admission.ReasonFairness)
				return
			}
			if oe.RetryAfter != 5*time.Millisecond {
				t.Errorf("Retry-After hint lost over the wire: %v", oe.RetryAfter)
			}
			fairness.Add(1)
		}()
	}
	// The polite connection, one request at a time, is never shed even
	// while the hot burst is being rejected.
	politeDone := make(chan error, 1)
	go func() {
		for i := 0; i < 3; i++ {
			if _, err := polite.Do(ctx, "mnist", [][]float64{input}); err != nil {
				politeDone <- fmt.Errorf("polite request %d: %w", i, err)
				return
			}
		}
		politeDone <- nil
	}()
	wg.Wait()
	if err := <-politeDone; err != nil {
		t.Error(err)
	}
	if succeeded.Load() == 0 {
		t.Error("hot connection should have had its fair share admitted")
	}
	if fairness.Load() == 0 {
		t.Fatal("burst past the share produced no fairness sheds; test is vacuous")
	}

	// Parity: /stats counters, client observations and /metrics series
	// must all agree.
	st := ctrl.Stats()
	if st.ShedFairness != uint64(fairness.Load()) {
		t.Errorf("stats.ShedFairness = %d, clients observed %d", st.ShedFairness, fairness.Load())
	}
	want := fmt.Sprintf(`repro_admission_shed_total{reason="fairness"} %d`, st.ShedFairness)
	if exp := mx.Expose(); !strings.Contains(exp, want) {
		t.Errorf("/metrics missing %q\nscrape:\n%s", want, exp)
	}
}

// heldListener hands the server connections whose Write delivers its bytes
// and then stays open until afterWrite returns — what a server write looks
// like from the inside while the client, already holding the reply, acts
// on it.
type heldListener struct {
	net.Listener
	afterWrite func()
}

func (l *heldListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return heldConn{Conn: nc, afterWrite: l.afterWrite}, nil
}

type heldConn struct {
	net.Conn
	afterWrite func()
}

func (c heldConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.afterWrite()
	return n, err
}

// TestStreamSequentialClientKeepsItsShare pins the ordering behind the
// per-connection cap: a request's admission slot is free by the time its
// reply can be read, so a strictly sequential client with a share of one
// is never shed by its own previous request. Every reply's Write is held
// open until the server has ruled on the client's next frame — if the slot
// were released after the write, that ruling would be a "fairness" shed
// every time.
func TestStreamSequentialClientKeepsItsShare(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	m, err := model.New("mnist", "v1", nn.Arch2(rng), program.CompileOptions{InShape: []int{121}})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.Options{Workers: 1, MaxBatch: 1})
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctrl := admission.New(admission.Config{MaxPerConn: 1})
	srv := NewServer(reg, Options{Window: 4, Admission: ctrl})

	const rounds = 3
	var writes atomic.Int64
	stop := make(chan struct{})
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &heldListener{Listener: tcp, afterWrite: func() {
		k := writes.Add(1)
		// Reply k stays in Write until request k+1 has been admitted to
		// the window or shed; nothing follows the last reply.
		for k < rounds {
			if st := srv.Stats(); st.Frames+st.Shed > uint64(k) {
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
	}}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	cl, err := Dial(tcp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(stop)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		cl.Close(ctx)
		srv.Close()
		<-serveDone
	})

	input := make([]float64, 121)
	for i := 0; i < rounds; i++ {
		if _, err := cl.Do(context.Background(), "mnist", [][]float64{input}); err != nil {
			t.Fatalf("sequential request %d shed by its predecessor: %v", i, err)
		}
	}
	if st := ctrl.Stats(); st.ShedFairness != 0 {
		t.Errorf("ShedFairness = %d for a client that never exceeded its share", st.ShedFairness)
	}
}
