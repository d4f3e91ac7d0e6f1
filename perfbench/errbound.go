package main

import (
	"fmt"
	"math"

	"aos/internal/experiments"
	"aos/internal/instrument"
	"aos/internal/sampling"
)

// sampledErrorBound is the stated accuracy of SMARTS sampling: each
// paper scheme's sampled Fig 14 geomean lies within 2% of full detail.
const sampledErrorBound = 0.02

// runErrorBound recomputes, from scratch, the sampled-vs-exact Fig 14
// geomean error for the paper's five schemes and checks it against the
// stated bound. It runs the matrix twice (exact and sampled), so it is a
// separate command rather than part of every workload run.
func runErrorBound(cfg config, insts uint64) error {
	o := experiments.Options{Instructions: insts, Seed: cfg.seed, Workers: cfg.workers}
	exact, err := experiments.RunMatrix(o)
	if err != nil {
		return fmt.Errorf("exact matrix: %w", err)
	}
	// No checkpoint store: one sampled pass needs none, and a store
	// holding the default schedule's 800 checkpoints would take gigabytes.
	o.Sampling = &sampling.Schedule{}
	sampled, err := experiments.RunMatrix(o)
	if err != nil {
		return fmt.Errorf("sampled matrix: %w", err)
	}
	fe, err := experiments.Fig14(exact)
	if err != nil {
		return err
	}
	fs, err := experiments.Fig14(sampled)
	if err != nil {
		return err
	}
	worst := 0.0
	for _, s := range instrument.Schemes() {
		if s == instrument.Baseline {
			continue
		}
		rel := math.Abs(fs.Geomean[s]-fe.Geomean[s]) / fe.Geomean[s]
		worst = math.Max(worst, rel)
		fmt.Printf("%-8s exact %.4f sampled %.4f error %.2f%%\n", s, fe.Geomean[s], fs.Geomean[s], 100*rel)
	}
	fmt.Printf("worst geomean error %.2f%% (bound %.0f%%)\n", 100*worst, 100*sampledErrorBound)
	if worst > sampledErrorBound {
		return fmt.Errorf("sampled Fig 14 geomean error %.2f%% exceeds the %.0f%% bound", 100*worst, 100*sampledErrorBound)
	}
	return nil
}
