package main

import (
	"fmt"
	"math"

	"aos/internal/experiments"
	"aos/internal/instrument"
)

// The AOS Fig 14 geomean must lie within this band around the paper's
// 8.4% overhead (§VIII): ±5 percentage points, wide enough for the
// reduced per-cell budgets and for sampling error, narrow enough that a
// timing-model change that halves or doubles the overhead fails.
const (
	paperAOSOverhead = 1.084
	aosBandLow       = paperAOSOverhead - 0.05
	aosBandHigh      = paperAOSOverhead + 0.05
)

// checker records named output checks. A check passes when none of its
// assertions failed; every failed assertion is kept as an error line.
type checker struct {
	order  []string
	failed map[string]bool
	errs   []string
}

// check asserts cond under the named check.
func (c *checker) check(name string, cond bool, format string, args ...any) {
	if c.failed == nil {
		c.failed = map[string]bool{}
	}
	if _, seen := c.failed[name]; !seen {
		c.order = append(c.order, name)
		c.failed[name] = false
	}
	if !cond {
		c.failed[name] = true
		if len(c.errs) < 50 {
			c.errs = append(c.errs, name+": "+fmt.Sprintf(format, args...))
		}
	}
}

func (c *checker) ok() bool { return len(c.errs) == 0 }

func (c *checker) passed() []string {
	var out []string
	for _, n := range c.order {
		if !c.failed[n] {
			out = append(out, n)
		}
	}
	return out
}

// metricSet checks that a run reports exactly the wanted metrics, each
// with its unit and a finite positive value.
func (c *checker) metricSet(got map[string]metric, want map[string]string) {
	for _, name := range sortedNames(want) {
		m, ok := got[name]
		c.check("metric_set", ok, "metric %s missing", name)
		if ok {
			c.check("metric_set", m.Unit == want[name], "metric %s unit %q, want %q", name, m.Unit, want[name])
			c.check("metric_set", m.Value > 0 && !math.IsInf(m.Value, 0) && !math.IsNaN(m.Value),
				"metric %s = %v, want a finite positive value", name, m.Value)
		}
	}
	for _, name := range sortedNames(got) {
		_, ok := want[name]
		c.check("metric_set", ok, "unexpected metric %s", name)
	}
}

// cellStats is the per-cell output the checks need, whichever entry point
// produced it.
type cellStats struct {
	benchmark  string
	scheme     instrument.Scheme
	allocs     uint64
	frees      uint64
	maxLive    uint64
	exceptions int
	cycles     uint64
}

// matrixCells flattens a Fig 14 matrix into cellStats in matrix order.
func matrixCells(m *experiments.Matrix) []cellStats {
	var out []cellStats
	for _, b := range m.Benchmarks {
		for _, s := range instrument.Schemes() {
			r, ok := m.Runs[b][s]
			if !ok {
				continue
			}
			out = append(out, cellStats{
				benchmark: b, scheme: s,
				allocs: r.Heap.Allocs, frees: r.Heap.Frees, maxLive: r.Heap.MaxLive,
				exceptions: r.Excs, cycles: r.CPU.Cycles,
			})
		}
	}
	return out
}

// checkCells applies the method's invariants to a set of cells: the
// workloads are legal programs, so any memory-safety exception is a false
// positive; and a scheme instruments a program without changing its
// allocation schedule, so heap allocs, frees and max-live agree across
// every scheme of a program.
func (c *checker) checkCells(cells []cellStats) {
	ref := map[string]cellStats{}
	for _, cell := range cells {
		c.check("no_exceptions", cell.exceptions == 0, "%s/%s raised %d memory-safety exceptions on a legal program",
			cell.benchmark, cell.scheme, cell.exceptions)
		c.check("nonzero_cycles", cell.cycles > 0, "%s/%s simulated zero cycles", cell.benchmark, cell.scheme)
		r, ok := ref[cell.benchmark]
		if !ok {
			ref[cell.benchmark] = cell
			continue
		}
		c.check("heap_schedule_scheme_independent",
			cell.allocs == r.allocs && cell.frees == r.frees && cell.maxLive == r.maxLive,
			"%s: %s heap allocs/frees/max-live %d/%d/%d differ from %s's %d/%d/%d",
			cell.benchmark, cell.scheme, cell.allocs, cell.frees, cell.maxLive,
			r.scheme, r.allocs, r.frees, r.maxLive)
	}
}

// checkNormalized checks a normalized-time table: Baseline is exactly 1,
// every protected scheme's geomean is at least 1, and (when aosBand is
// set) the AOS geomean lies in the band around the paper's figure.
func (c *checker) checkNormalized(rows []experiments.Fig14Row, geomean map[instrument.Scheme]float64, schemes []instrument.Scheme, aosBand bool) {
	for _, row := range rows {
		c.check("baseline_is_one", row.Normalized[instrument.Baseline] == 1,
			"%s: Baseline normalized time %v, want exactly 1", row.Name, row.Normalized[instrument.Baseline])
	}
	for _, s := range schemes {
		if s == instrument.Baseline {
			continue
		}
		g, ok := geomean[s]
		c.check("protected_geomean_at_least_one", ok && g >= 1, "%s geomean %v, want >= 1", s, g)
	}
	if aosBand {
		g := geomean[instrument.AOS]
		c.check("aos_geomean_in_paper_band", g >= aosBandLow && g <= aosBandHigh,
			"AOS geomean %.4f outside [%.3f, %.3f] around the paper's %.3f", g, aosBandLow, aosBandHigh, paperAOSOverhead)
	}
}
