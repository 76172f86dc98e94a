// Command infer is the on-device half of the paper's flow (Fig. 4): it
// loads an architecture file, a trained-parameters file and IDX test inputs,
// runs the FFT-based inference engine, and reports predictions, accuracy and
// the modelled per-image latency on a chosen Table-I platform and runtime.
//
// Usage:
//
//	infer -bundle dir [-device "Huawei Honor 6X"] [-env cpp|java] [-battery]
//	infer -arch a.txt -params p.bin -images i.idx -labels l.idx [-channels 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/engine"
	"repro/internal/platform"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("infer: ")
	bundle := flag.String("bundle", "", "bundle directory from cmd/train (sets all file flags)")
	archPath := flag.String("arch", "", "architecture file (Fig. 4 module 1)")
	paramsPath := flag.String("params", "", "parameters file (module 2)")
	imagesPath := flag.String("images", "", "IDX image file (module 3)")
	labelsPath := flag.String("labels", "", "IDX label file (module 3)")
	channels := flag.Int("channels", 0, "image channels (default: infer from architecture)")
	device := flag.String("device", "Huawei Honor 6X", "Table-I platform to model")
	env := flag.String("env", "cpp", "runtime environment: cpp or java")
	battery := flag.Bool("battery", false, "model battery power instead of plugged in")
	show := flag.Int("show", 10, "print the first N predictions")
	batch := flag.Int("batch", 64, "samples per compiled forward pass")
	flag.Parse()

	if *bundle != "" {
		*archPath = filepath.Join(*bundle, "arch.txt")
		*paramsPath = filepath.Join(*bundle, "params.bin")
		*imagesPath = filepath.Join(*bundle, "test-images.idx")
		*labelsPath = filepath.Join(*bundle, "test-labels.idx")
	}
	if *archPath == "" || *paramsPath == "" || *imagesPath == "" || *labelsPath == "" {
		log.Fatal("need -bundle, or all of -arch/-params/-images/-labels")
	}

	// Module 1: architecture parser.
	af, err := os.Open(*archPath)
	if err != nil {
		log.Fatal(err)
	}
	e, err := engine.ParseArchitecture(af, rand.New(rand.NewSource(0)))
	af.Close()
	if err != nil {
		log.Fatal(err)
	}

	// Module 2: parameters parser.
	pf, err := os.Open(*paramsPath)
	if err != nil {
		log.Fatal(err)
	}
	err = e.LoadParameters(pf)
	pf.Close()
	if err != nil {
		log.Fatal(err)
	}

	// Module 3: inputs parser.
	if *channels == 0 {
		*channels = 1
		if len(e.InShape) == 3 {
			*channels = e.InShape[2]
		}
	}
	imf, err := os.Open(*imagesPath)
	if err != nil {
		log.Fatal(err)
	}
	lbf, err := os.Open(*labelsPath)
	if err != nil {
		log.Fatal(err)
	}
	data, err := e.LoadInputs(imf, lbf, *channels)
	imf.Close()
	lbf.Close()
	if err != nil {
		log.Fatal(err)
	}

	// Module 4: inference engine, through a compiled program — one
	// Compile, then allocation-free batched forward passes over the test
	// set.
	preds, err := e.PredictBatched(data, *batch)
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for i, p := range preds {
		if p == data.Labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(preds))

	spec, err := platform.ByName(*device)
	if err != nil {
		names := make([]string, 0, 3)
		for _, s := range platform.Platforms() {
			names = append(names, s.Name)
		}
		log.Fatalf("%v (available: %s)", err, strings.Join(names, ", "))
	}
	cfg := platform.Config{Spec: spec, Env: platform.EnvCPP, Battery: *battery}
	if strings.EqualFold(*env, "java") {
		cfg.Env = platform.EnvJava
	}

	n := *show
	if n > len(preds) {
		n = len(preds)
	}
	for i := 0; i < n; i++ {
		mark := " "
		if preds[i] != data.Labels[i] {
			mark = "x"
		}
		fmt.Printf("sample %3d: predicted %d, label %d %s\n", i, preds[i], data.Labels[i], mark)
	}
	fmt.Printf("\naccuracy: %.2f%% over %d samples\n", acc*100, data.Len())
	fmt.Printf("modelled core runtime on %s: %.1f µs/image\n", cfg, e.DeviceLatencyUS(cfg))
}
