// Multimodel: one serving process, every deployment scenario of the paper.
//
// The paper deploys block-circulant networks per platform *and* per model
// size — FC networks for MNIST, a CONV network for CIFAR-10 — so a real
// deployment serves several of them at once. This example stands up a
// model registry holding the MNIST FC reproduction (Arch-1) and the
// CIFAR CONV reproduction (Arch-3) side by side, runs a dense-versus-
// circulant A/B split on the MNIST traffic, and hot-swaps a new MNIST
// version under load — the workflow `cmd/serve -model mnist=… -model
// cifar=…` exposes over HTTP.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/serve"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// 1. One registry, per-model batchers and caches.
	reg := serve.NewRegistry(serve.Options{
		Workers:   2,
		MaxBatch:  16,
		MaxDelay:  200 * time.Microsecond,
		CacheSize: 256,
	})
	defer reg.Close()

	// 2. Register the paper's two workload shapes under distinct names:
	// the 256-input FC MNIST network and the 32×32×3 CONV CIFAR network.
	mnist, err := model.New("mnist", "v1", nn.Arch1(rng), program.CompileOptions{InShape: []int{256}})
	if err != nil {
		log.Fatal(err)
	}
	cifar, err := model.New("cifar", "v1", nn.Arch3(rng), program.CompileOptions{InShape: []int{32, 32, 3}})
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range []model.Model{mnist, cifar} {
		if err := reg.Register(m); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("registered %-9s in=%v out=%d\n", serve.ModelID(m), m.InShape(), m.OutDim())
	}

	// 3. Both models answer concurrently from one process.
	mnistIn := make([]float64, 256)
	cifarIn := make([]float64, 32*32*3)
	for i := range mnistIn {
		mnistIn[i] = rng.Float64()
	}
	for i := range cifarIn {
		cifarIn[i] = rng.Float64()
	}
	rm, err := reg.Infer(context.Background(), "mnist", "", mnistIn)
	if err != nil {
		log.Fatal(err)
	}
	rc, err := reg.Infer(context.Background(), "cifar", "", cifarIn)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mnist class=%d  cifar class=%d (one process, two models)\n", rm.Class, rc.Class)

	// 4. A/B: route 80% of routed MNIST traffic to the circulant model,
	// 20% to its dense uncompressed baseline — the comparison the paper's
	// compression claims are measured against.
	dense, err := model.New("mnist", "dense", nn.Arch1Dense(rng), program.CompileOptions{InShape: []int{256}})
	if err != nil {
		log.Fatal(err)
	}
	if err := reg.Register(dense); err != nil {
		log.Fatal(err)
	}
	if err := reg.SetWeights("mnist", map[string]float64{"v1": 0.8, "dense": 0.2}); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := reg.Infer(context.Background(), "mnist", "", mnistIn); err != nil {
			log.Fatal(err)
		}
	}
	sc, _ := reg.Stats("mnist", "v1")
	sd, _ := reg.Stats("mnist", "dense")
	fmt.Printf("A/B after 50 routed requests: circulant=%d dense=%d\n", sc.Requests, sd.Requests)

	// 5. Hot-swap: register mnist@v2 and retire v1 while clients keep
	// inferring through the alias; routed traffic never sees an error.
	if err := reg.SetWeights("mnist", nil); err != nil {
		log.Fatal(err)
	}
	v2, err := model.New("mnist", "v2", nn.Arch1(rng), program.CompileOptions{InShape: []int{256}})
	if err != nil {
		log.Fatal(err)
	}
	if err := reg.Register(v2); err != nil {
		log.Fatal(err)
	}
	if err := reg.Retire("mnist", "v1"); err != nil {
		log.Fatal(err)
	}
	if _, err := reg.Infer(context.Background(), "mnist", "", mnistIn); err != nil {
		log.Fatal(err)
	}
	fmt.Println("hot-swapped mnist v1 → v2 with zero routed failures")
	for _, info := range reg.Models() {
		marker := " "
		if info.Latest {
			marker = "*"
		}
		fmt.Printf("%s %s@%s served %d requests\n", marker, info.Name, info.Version, info.Stats.Requests)
	}
}
