package main

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"time"

	"aos/internal/experiments"
	"aos/internal/instrument"
	"aos/internal/sampling"
	"aos/internal/stats"
	"aos/internal/workload"
)

// batchSizes scales one batch workload.
type batchSizes struct {
	insts    uint64 // per-cell program-instruction budget
	windows  int    // sampled workloads: measurement windows per cell
	programs []*workload.Profile
	schemes  []instrument.Scheme
	// roundSeconds is one round's wall time on the reference host
	// (README); it sets how many rounds a run of --seconds makes.
	roundSeconds float64
}

func fig14Sizes(short, sampled bool) batchSizes {
	sz := batchSizes{insts: 100_000, programs: workload.SPEC(), schemes: instrument.Schemes(), roundSeconds: 7}
	if sampled {
		// Two windows, the fewest with a variance estimate, keep the
		// store at 160 checkpoints.
		sz.windows = 2
	}
	if short {
		sz.insts = 20_000
	}
	return sz
}

func realWorldSizes(short bool) batchSizes {
	sz := batchSizes{insts: 20_000, programs: workload.RealWorld(), schemes: instrument.AllSchemes(), roundSeconds: 22}
	if short {
		// apache and mysql under MTE take seconds whatever the budget
		// (their steady-state heaps are built before the first measured
		// instruction); the short mode keeps the small programs.
		sz.insts = 5_000
		sz.programs = sz.programs[:4]
	}
	return sz
}

// roundCount is how many measured rounds a run of seconds makes after its
// set-up round: a pure function of the workload and --seconds, so every
// run attempts the same operations however fast the host is.
func roundCount(seconds, roundSeconds float64) int {
	return max(1, int(seconds/roundSeconds))
}

// collect runs a garbage collection before a round, outside its timing,
// so every round starts from the same heap and the peak RSS is one
// round's footprint, not a GC-timing-dependent share of two (a sampled
// round's checkpoint store, a realworld round's MTE tag maps).
func collect() { runtime.GC() }

// parallel calls fn(g, i) for every i in [0, n) on workers goroutines (g
// numbers the goroutine) and returns once every call has.
func parallel(workers, n int, fn func(g, i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range next {
				fn(g, i)
			}
		}(g)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// roundTimes collects one workload's timings. Each slice feeds the
// end-to-end metric of the same name; the README's table says what each
// one holds on each workload.
type roundTimes struct {
	setup                    float64   // s
	wall, cpu, resumed, rate []float64 // per measured round
	cell, cold, warm         []float64 // per operation, ms
}

func (t *roundTimes) report(out *outcome) {
	out.roundWall = t.wall
	out.set("wall_s", "s", median(t.wall))
	out.set("cpu_s", "s", median(t.cpu))
	out.set("peak_rss_mb", "MB", peakRSSMB())
	out.set("setup_s", "s", t.setup)
	out.set("cell_p50_ms", "ms", median(t.cell))
	out.set("cold_p50_ms", "ms", median(t.cold))
	out.set("warm_p50_ms", "ms", median(t.warm))
	out.set("resumed_wall_s", "s", median(t.resumed))
	out.set("served_rps", "1/s", median(t.rate))
	out.extra["cell_samples"] = float64(len(t.cell))
	out.extra["cold_samples"] = float64(len(t.cold))
	out.extra["warm_samples"] = float64(len(t.warm))
}

// exactRound records one round of an exact batch workload. Round 0 is the
// set-up round, the first pass of a fresh process (what one aosbench
// invocation pays, Go heap growth and first-touch page faults included):
// its wall time is setup_s and its cells are the cold ones. The measured
// rounds after it feed the other metrics; their cells are the warm ones.
// There is no resumed pass, so resumed_wall_s is the round's wall time.
func (t *roundTimes) exactRound(i int, wall, cpuUsed time.Duration, cells []float64) {
	if i == 0 {
		t.setup = seconds(wall)
		t.cold = append(t.cold, cells...)
		return
	}
	t.wall = append(t.wall, seconds(wall))
	t.resumed = append(t.resumed, seconds(wall))
	t.cpu = append(t.cpu, seconds(cpuUsed))
	t.rate = append(t.rate, float64(len(cells))/seconds(wall))
	t.cell = append(t.cell, cells...)
	t.warm = append(t.warm, cells...)
}

// matrixWalls returns the matrix's per-cell wall times in ms.
func matrixWalls(m *experiments.Matrix) []float64 {
	var out []float64
	for _, b := range m.Benchmarks {
		for _, s := range instrument.Schemes() {
			if w, ok := m.Walls[b][s]; ok {
				out = append(out, millis(w))
			}
		}
	}
	return out
}

// fig14Round runs one Fig 14 matrix, checks it, and returns its figure.
func fig14Round(o experiments.Options, sz batchSizes, out *outcome) (*experiments.Matrix, string, time.Duration, time.Duration) {
	t0, c0 := now(), cpuTime()
	m, err := experiments.RunMatrix(o)
	wall, cpuUsed := since(t0), cpuTime()-c0
	out.attempted += int64(len(sz.programs) * len(sz.schemes))
	out.failed += int64(len(m.Errors))
	out.checks.check("cells_succeed", err == nil, "%v", err)
	out.checks.checkCells(matrixCells(m))
	f, err := experiments.Fig14(m)
	out.checks.check("fig14_composes", err == nil, "%v", err)
	if err != nil {
		return m, "", wall, cpuUsed
	}
	out.checks.checkNormalized(f.Rows, f.Geomean, sz.schemes, true)
	out.extra["aos_geomean"] = f.Geomean[instrument.AOS]
	return m, f.CSV(), wall, cpuUsed
}

// runFig14Exact: the paper's 16 SPEC x 5 schemes through RunMatrix with
// exact detailed timing. A round is one matrix.
func runFig14Exact(cfg config) (*outcome, error) {
	sz := fig14Sizes(cfg.short, false)
	if cfg.trace {
		return runTraced(cfg, tracedFig14Exact(sz))
	}
	out := newOutcome()
	var t roundTimes
	var first string
	o := experiments.Options{Instructions: sz.insts, Seed: cfg.seed, Workers: cfg.workers}
	out.rounds = 1 + roundCount(cfg.seconds, sz.roundSeconds)
	for i := 0; i < out.rounds; i++ {
		collect()
		m, csv, wall, cpuUsed := fig14Round(o, sz, out)
		if i == 0 {
			first = csv
		}
		out.checks.check("rounds_deterministic", csv == first, "round %d's Fig 14 differs from round 0's", i)
		t.exactRound(i, wall, cpuUsed, matrixWalls(m))
	}
	t.report(out)
	return out, nil
}

// runFig14Sampled: the same matrix under SMARTS sampling with one
// checkpoint store per round: a cold pass fills the store, then a resumed
// pass restores from it. Round 0 is the set-up round (both passes); its
// wall time is setup_s.
func runFig14Sampled(cfg config) (*outcome, error) {
	sz := fig14Sizes(cfg.short, true)
	if cfg.trace {
		return runTraced(cfg, tracedFig14Sampled(sz))
	}
	out := newOutcome()
	var t roundTimes
	var first string
	out.rounds = 1 + roundCount(cfg.seconds, sz.roundSeconds)
	for i := 0; i < out.rounds; i++ {
		collect()
		store := sampling.NewStore()
		o := experiments.Options{Instructions: sz.insts, Seed: cfg.seed, Workers: cfg.workers,
			Sampling: &sampling.Schedule{Windows: sz.windows}, Checkpoints: store}
		cold, coldCSV, wall, cpuUsed := fig14Round(o, sz, out)
		_, _, entries := store.Stats()
		resumed, resumedCSV, resumedWall, _ := fig14Round(o, sz, out)
		hits, _, _ := store.Stats()
		out.checks.check("resumed_equals_cold", reflect.DeepEqual(cold.Runs, resumed.Runs) && coldCSV == resumedCSV,
			"round %d: the resumed pass's results differ from the cold pass's", i)
		out.checks.check("resumed_pass_restores", hits == uint64(entries) && entries > 0,
			"round %d: %d checkpoint hits for %d stored checkpoints", i, hits, entries)
		if i == 0 {
			first = coldCSV
		}
		out.checks.check("rounds_deterministic", coldCSV == first, "round %d's Fig 14 differs from round 0's", i)
		out.extra["checkpoints"] = float64(entries)
		if i == 0 {
			t.setup = seconds(wall + resumedWall)
			continue
		}
		coldCells, resumedCells := matrixWalls(cold), matrixWalls(resumed)
		t.wall = append(t.wall, seconds(wall))
		t.cpu = append(t.cpu, seconds(cpuUsed))
		t.rate = append(t.rate, float64(len(coldCells))/seconds(wall))
		t.resumed = append(t.resumed, seconds(resumedWall))
		t.cold = append(t.cold, coldCells...)
		t.warm = append(t.warm, resumedCells...)
		t.cell = append(t.cell, coldCells...)
		t.cell = append(t.cell, resumedCells...)
	}
	t.report(out)
	return out, nil
}

// realWorldCell is one schemes_realworld cell's outcome.
type realWorldCell struct {
	spec  experiments.SimSpec
	res   *experiments.SimResult
	start time.Time
	wall  time.Duration
	err   error
}

// runCells runs specs through experiments.RunSpec on workers goroutines.
func runCells(specs []experiments.SimSpec, workers int) []realWorldCell {
	cells := make([]realWorldCell, len(specs))
	parallel(workers, len(specs), func(_, i int) {
		t := now()
		res, err := experiments.RunSpec(context.Background(), specs[i])
		cells[i] = realWorldCell{spec: specs[i], res: res, start: t, wall: since(t), err: err}
	})
	return cells
}

// realWorldFigure normalizes each program's cycles to its Baseline cell.
func realWorldFigure(cells []realWorldCell, sz batchSizes) ([]experiments.Fig14Row, map[instrument.Scheme]float64) {
	byCell := map[string]*experiments.SimResult{}
	for _, c := range cells {
		if c.res != nil {
			byCell[c.spec.Benchmark+"/"+c.spec.Scheme] = c.res
		}
	}
	var rows []experiments.Fig14Row
	series := map[instrument.Scheme][]float64{}
	for _, p := range sz.programs {
		base := byCell[p.Name+"/"+instrument.Baseline.String()]
		if base == nil || base.Cycles == 0 {
			continue
		}
		row := experiments.Fig14Row{Name: p.Name, Normalized: map[instrument.Scheme]float64{}}
		for _, s := range sz.schemes {
			if r := byCell[p.Name+"/"+s.String()]; r != nil {
				row.Normalized[s] = float64(r.Cycles) / float64(base.Cycles)
				series[s] = append(series[s], row.Normalized[s])
			}
		}
		rows = append(rows, row)
	}
	geomean := map[instrument.Scheme]float64{}
	for _, s := range sz.schemes {
		geomean[s] = stats.Geomean(series[s])
	}
	return rows, geomean
}

// runSchemesRealWorld: the six Table III programs under all seven
// schemes, exact, one RunSpec per cell. A round is the sweep's cells.
func runSchemesRealWorld(cfg config) (*outcome, error) {
	sz := realWorldSizes(cfg.short)
	if cfg.trace {
		return runTraced(cfg, tracedRealWorld(sz))
	}
	out := newOutcome()
	var t roundTimes
	var first []uint64
	out.rounds = 1 + roundCount(cfg.seconds, sz.roundSeconds)
	for i := 0; i < out.rounds; i++ {
		collect()
		cells, wall, cpuUsed := realWorldRound(cfg, sz, out)
		var walls []float64
		var cycles []uint64
		for _, c := range cells {
			if c.err == nil {
				walls = append(walls, millis(c.wall))
				cycles = append(cycles, c.res.Cycles)
			}
		}
		if i == 0 {
			first = cycles
		}
		out.checks.check("rounds_deterministic", reflect.DeepEqual(cycles, first), "round %d's cycles differ from round 0's", i)
		t.exactRound(i, wall, cpuUsed, walls)
	}
	t.report(out)
	return out, nil
}

// largeHeap is the Table III max-live (chunks) from which a program's
// steady-state heap makes its MTE cell take most of a round: apache's and
// mysql's.
const largeHeap = 1000

// realWorldSpecs lists the sweep's cells in two phases: the MTE cells of
// the large-heap programs, then the rest.
func realWorldSpecs(sz batchSizes, seed int64) (large, rest []experiments.SimSpec) {
	for _, p := range sz.programs {
		for _, s := range sz.schemes {
			spec := experiments.SimSpec{Benchmark: p.Name, Scheme: s.String(), Instructions: sz.insts, Seed: seed}
			if s == instrument.MTE && p.TableMaxLive >= largeHeap {
				large = append(large, spec)
			} else {
				rest = append(rest, spec)
			}
		}
	}
	return large, rest
}

// realWorldRound runs the sweep's cells once and checks them; it returns
// the cells with the round's wall and CPU time. The large-heap MTE cells
// run first, one at a time, each from a collected heap, and the other
// cells start after them. Alone, each such cell allocates the same
// sequence from the same heap every time, so the peak RSS is steady; side
// by side, whether the two tag maps' growth overlaps a garbage collection
// would split it between about 1.0 and 1.2 GB from run to run. Kept apart
// from the small cells, a small cell's time does not depend on how much
// of it overlaps a tag map's allocation and collection.
func realWorldRound(cfg config, sz batchSizes, out *outcome) ([]realWorldCell, time.Duration, time.Duration) {
	large, rest := realWorldSpecs(sz, cfg.seed)
	t0, c0 := now(), cpuTime()
	var cells []realWorldCell
	for _, spec := range large {
		cells = append(cells, runCells([]experiments.SimSpec{spec}, 1)...)
		collect()
	}
	cells = append(cells, runCells(rest, cfg.workers)...)
	wall, cpuUsed := since(t0), cpuTime()-c0
	out.attempted += int64(len(cells))
	var list []cellStats
	for _, c := range cells {
		out.checks.check("cells_succeed", c.err == nil, "%s/%s: %v", c.spec.Benchmark, c.spec.Scheme, c.err)
		if c.err != nil {
			out.failed++
			continue
		}
		scheme, _ := instrument.ParseScheme(c.spec.Scheme)
		list = append(list, cellStats{benchmark: c.spec.Benchmark, scheme: scheme,
			allocs: c.res.HeapAllocs, frees: c.res.HeapFrees, maxLive: c.res.HeapMaxLive,
			exceptions: c.res.Exceptions, cycles: c.res.Cycles})
	}
	out.checks.checkCells(list)
	rows, geomean := realWorldFigure(cells, sz)
	out.checks.checkNormalized(rows, geomean, sz.schemes, false)
	out.extra["mte_geomean"] = geomean[instrument.MTE]
	return cells, wall, cpuUsed
}

// splitMix is the benchmark's seeded generator (splitmix64): inputs and
// request mixes are pure functions of --seed.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitMix) intn(n int) int { return int(r.next() % uint64(n)) }
