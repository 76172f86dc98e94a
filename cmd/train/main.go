// Command train is the offline (data-centre) half of the paper's flow: it
// trains one of the evaluation architectures on the synthetic datasets and
// writes the deployment bundle the on-device engine consumes —
//
//	<out>/arch.txt      architecture description (Fig. 4, module 1)
//	<out>/params.bin    trained weights and biases (module 2)
//	<out>/test-images.idx, <out>/test-labels.idx  held-out data (module 3)
//
// Usage:
//
//	train -arch 1|2|3 [-out dir] [-quick]
//
// Arch 3 trains the scaled CIFAR variant (see DESIGN.md §1) whose
// architecture file is emitted to match.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")
	arch := flag.Int("arch", 1, "architecture to train (1, 2 or 3)")
	out := flag.String("out", "model", "output directory for the deployment bundle")
	quick := flag.Bool("quick", false, "use the cut-down training configuration")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	var (
		res      experiments.Result
		archText string
		testset  *dataset.Dataset
	)
	switch *arch {
	case 1, 2:
		cfg := experiments.DefaultMNISTConfig()
		if *quick {
			cfg = experiments.QuickMNISTConfig()
		}
		res = experiments.TrainMNISTArch(*arch, cfg)
		side := 16
		archText = engine.Arch1Text
		if *arch == 2 {
			side = 11
			archText = engine.Arch2Text
		}
		raw := dataset.SyntheticMNIST(cfg.TestSamples, cfg.Seed+1000)
		testset = dataset.Resize(raw, side, side)
	case 3:
		cfg := experiments.DefaultCIFARConfig()
		if *quick {
			cfg = experiments.QuickCIFARConfig()
		}
		res = experiments.TrainCIFAR(cfg)
		archText = experiments.Arch3ScaledText
		raw := dataset.SyntheticCIFAR(cfg.TestSamples, cfg.Seed+1000)
		testset = dataset.Resize(raw, 16, 16)
	default:
		log.Fatalf("unknown architecture %d (want 1, 2 or 3)", *arch)
	}

	// Each file is written beside its target and renamed over it, so a
	// server that maps the old params.bin keeps the old file's pages
	// instead of seeing it truncated under it.
	writeFile := func(name string, fn func(f *os.File) error) {
		path := filepath.Join(*out, name)
		f, err := os.Create(path + ".tmp")
		if err != nil {
			log.Fatal(err)
		}
		if err := fn(f); err != nil {
			f.Close()
			os.Remove(f.Name())
			log.Fatalf("writing %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		if err := os.Rename(f.Name(), path); err != nil {
			log.Fatal(err)
		}
	}

	writeFile("arch.txt", func(f *os.File) error {
		_, err := f.WriteString(archText)
		return err
	})
	writeFile("params.bin", func(f *os.File) error {
		return engine.SaveParameters(f, res.Net)
	})
	writeFile("test-images.idx", func(f *os.File) error {
		return dataset.WriteIDXImages(f, testset)
	})
	writeFile("test-labels.idx", func(f *os.File) error {
		return dataset.WriteIDXLabels(f, testset)
	})

	fmt.Printf("trained Arch-%d: test accuracy %.2f%% (synthetic data)\n", *arch, res.Accuracy*100)
	fmt.Printf("deployment bundle written to %s/ (arch.txt, params.bin, test-images.idx, test-labels.idx)\n", *out)
	fmt.Printf("run: go run ./cmd/infer -bundle %s\n", *out)
}
