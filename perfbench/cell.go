package main

import (
	"context"
	"fmt"
	"strings"

	"aos/internal/experiments"
	"aos/internal/sampling"
)

// runCell runs one sampled cell, "benchmark/scheme", through RunSpecFull
// twice: a cold pass that fills a checkpoint store, then a pass resumed
// from it (the fig14_sampled pattern). It prints each pass's wall time and
// the process's peak RSS, which reproduces the sampled-checkpoint faults
// the README lists without running a whole workload. (An exact cell is
// cmd/aossim's job.)
func runCell(cfg config, cell string, insts uint64) error {
	benchmark, scheme, ok := strings.Cut(cell, "/")
	if !ok {
		return fmt.Errorf("--cell wants benchmark/scheme, got %q", cell)
	}
	spec := experiments.SimSpec{Benchmark: benchmark, Scheme: scheme, Instructions: insts, Seed: cfg.seed,
		Sampling: &experiments.SamplingSpec{}}
	rc := experiments.RunConfig{Checkpoints: sampling.NewStore()}
	for _, pass := range []string{"cold", "resumed"} {
		t := now()
		res, _, err := experiments.RunSpecFull(context.Background(), spec, rc)
		if err != nil {
			return err
		}
		fmt.Printf("%s %s: %.2f s, %d cycles, %d exceptions, peak RSS %.0f MB\n",
			cell, pass, since(t).Seconds(), res.Cycles, res.Exceptions, peakRSSMB())
	}
	return nil
}
