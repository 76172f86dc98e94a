// On-device example: the complete Fig. 4 deployment flow through real files,
// exactly as cmd/train + cmd/infer do it, but in one program:
//
//	offline  — train Arch-2, write arch.txt / params.bin / IDX test data;
//	on-device — parse the architecture, load parameters and inputs from the
//	            files, run the inference engine, report accuracy and the
//	            modelled latency on every platform/runtime combination.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/platform"
)

func main() {
	dir, err := os.MkdirTemp("", "ondevice-bundle-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ---- Offline (data centre): train and export the bundle. ----
	cfg := experiments.QuickMNISTConfig()
	res := experiments.TrainMNISTArch(2, cfg)
	fmt.Printf("offline: trained Arch-2 to %.1f%% on synthetic digits\n", res.Accuracy*100)

	// Write beside the target, then rename over it: a reader that mapped
	// the previous file keeps its pages.
	write := func(name string, fn func(f *os.File) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path + ".tmp")
		if err != nil {
			log.Fatal(err)
		}
		if err := fn(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		if err := os.Rename(f.Name(), path); err != nil {
			log.Fatal(err)
		}
		return path
	}
	archPath := write("arch.txt", func(f *os.File) error {
		_, err := f.WriteString(engine.Arch2Text)
		return err
	})
	paramsPath := write("params.bin", func(f *os.File) error {
		return engine.SaveParameters(f, res.Net)
	})
	testset := dataset.Resize(dataset.SyntheticMNIST(200, 99), 11, 11)
	imgPath := write("test-images.idx", func(f *os.File) error {
		return dataset.WriteIDXImages(f, testset)
	})
	lblPath := write("test-labels.idx", func(f *os.File) error {
		return dataset.WriteIDXLabels(f, testset)
	})
	fmt.Printf("offline: bundle written to %s\n\n", dir)

	// ---- On-device (Fig. 4): four modules, from files only. ----
	af, err := os.Open(archPath)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := engine.ParseArchitecture(af, rand.New(rand.NewSource(0)))
	af.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("module 1 (architecture parser): network constructed")

	pf, err := os.Open(paramsPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.LoadParameters(pf); err != nil {
		log.Fatal(err)
	}
	pf.Close()
	fmt.Println("module 2 (parameters parser): trained weights installed")

	imf, _ := os.Open(imgPath)
	lbf, _ := os.Open(lblPath)
	data, err := eng.LoadInputs(imf, lbf, 1)
	imf.Close()
	lbf.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("module 3 (inputs parser): %d test images loaded\n", data.Len())

	acc, err := eng.Evaluate(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("module 4 (inference engine): accuracy %.1f%%\n\n", acc*100)

	fmt.Println("modelled core runtime per image:")
	for _, spec := range platform.Platforms() {
		for _, env := range []platform.Env{platform.EnvJava, platform.EnvCPP} {
			cfg := platform.Config{Spec: spec, Env: env}
			fmt.Printf("  %-16s %-5s %8.1f µs\n", spec.Name, env, eng.DeviceLatencyUS(cfg))
		}
	}
}
