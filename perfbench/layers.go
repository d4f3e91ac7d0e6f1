package main

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"aos/internal/bpred"
	"aos/internal/cache"
	"aos/internal/core"
	"aos/internal/cpu"
	"aos/internal/experiments"
	"aos/internal/hbt"
	"aos/internal/instrument"
	"aos/internal/isa"
	"aos/internal/kernel"
	"aos/internal/mcu"
	"aos/internal/mem"
	"aos/internal/pa"
	"aos/internal/sampling"
	"aos/internal/workload"
)

// tracedSpec is what one workload's traced run does: one round of the
// workload with a span around every cell or request, then the layer
// sweep on the workload's traced program.
type tracedSpec struct {
	round   func(cfg config, tr *tracer, parent int, out *outcome) error
	program string // profile the simulator layers are driven with
	insts   uint64 // its program-instruction budget
}

// schemeKey spells a scheme for a metric name (names admit no '+').
func schemeKey(s instrument.Scheme) string { return strings.ReplaceAll(s.String(), "+", "_") }

// perLayerMetrics names every metric a traced run reports, with its unit;
// BENCHMARK.json lists the same set.
func perLayerMetrics() map[string]string {
	m := map[string]string{
		"cpu.allocs_per_inst":         "allocs/inst",
		"cpu.ff_ns_per_inst":          "ns/inst",
		"cache.ns_per_access":         "ns",
		"mcu.bwb_ns_per_op":           "ns",
		"mcu.bwb_hit_ratio":           "ratio",
		"hbt.ns_per_lookup":           "ns",
		"bpred.ns_per_branch":         "ns",
		"sampling.snapshot_ms":        "ms",
		"sampling.restore_ms":         "ms",
		"sampling.checkpoint_mb":      "MB",
		"sampling.store_hit_ratio":    "ratio",
		"service.spec_hash_us":        "us",
		"service.cache_get_us.memory": "us",
		"service.cache_get_us.disk":   "us",
		"service.cache_put_us":        "us",
		"service.compose_ms":          "ms",
		"service.queue_wait_ms":       "ms",
		"service.cache_hit_ratio":     "ratio",
		"service.disk_hit_ratio":      "ratio",
	}
	for _, s := range instrument.AllSchemes() {
		k := schemeKey(s)
		m["core.ns_per_inst."+k] = "ns/inst"
		m["core.alloc_bytes_per_inst."+k] = "B/inst"
		m["core.insts."+k] = "count"
		m["cpu.ns_per_inst."+k] = "ns/inst"
	}
	return m
}

// runTraced runs a workload's traced round and the layer sweep, then
// writes and validates the span file.
func runTraced(cfg config, spec tracedSpec) (*outcome, error) {
	out := newOutcome()
	out.rounds = 1
	tr := newTracer()
	root := tr.start("perfbench."+cfg.workload, 0)
	var err error
	tr.timed("round", root, func(id int) { err = spec.round(cfg, tr, id, out) })
	if err != nil {
		return nil, err
	}

	p, ok := workload.ByName(spec.program)
	if !ok {
		return nil, fmt.Errorf("traced program %q unknown", spec.program)
	}
	if err := simLayers(cfg, tr, root, out, p, spec.insts); err != nil {
		return nil, err
	}
	if cfg.workload != "aosd_mixed" {
		// The aosd round already measured the service layers.
		id := tr.start("service", root)
		err := serviceLayers(cfg, aosdSizesFor(true), tr, id, out)
		tr.end(id, nil)
		if err != nil {
			return nil, err
		}
	}
	tr.end(root, nil)

	path := filepath.Join(cfg.out, fmt.Sprintf("perfbench-spans-%s-%d.json", cfg.workload, cfg.seed))
	st, err := tr.write(path, "perfbench "+cfg.workload)
	out.checks.check("span_file_valid", err == nil && st.Slices == len(tr.spans), "%v (%d slices for %d spans)", err, st.Slices, len(tr.spans))
	out.spanFile = path
	out.extra["spans"] = float64(len(tr.spans))
	return out, nil
}

// progressSpans turns the matrix pool's per-job completions into cell
// spans (each event carries the job's wall time).
func progressSpans(tr *tracer, parent int) func(experiments.Event) {
	return func(ev experiments.Event) {
		if ev.Total == 0 {
			return
		}
		end := now()
		tr.add("cell", parent, end.Add(-ev.Wall), end, map[string]any{"cell": ev.Label})
	}
}

func tracedFig14Exact(sz batchSizes) tracedSpec {
	return tracedSpec{program: "milc", insts: sz.insts, round: func(cfg config, tr *tracer, parent int, out *outcome) error {
		o := experiments.Options{Instructions: sz.insts, Seed: cfg.seed, Workers: cfg.workers, Progress: progressSpans(tr, parent)}
		_, _, wall, _ := fig14Round(o, sz, out)
		out.extra["traced_wall_s"] = wall.Seconds()
		return nil
	}}
}

func tracedFig14Sampled(sz batchSizes) tracedSpec {
	return tracedSpec{program: "milc", insts: sz.insts, round: func(cfg config, tr *tracer, parent int, out *outcome) error {
		store := sampling.NewStore()
		o := experiments.Options{Instructions: sz.insts, Seed: cfg.seed, Workers: cfg.workers,
			Sampling: &sampling.Schedule{Windows: sz.windows}, Checkpoints: store}
		for _, pass := range []string{"cold_pass", "resumed_pass"} {
			id := tr.start(pass, parent)
			o.Progress = progressSpans(tr, id)
			_, _, wall, _ := fig14Round(o, sz, out)
			tr.end(id, nil)
			out.extra["traced_"+pass+"_wall_s"] = wall.Seconds()
		}
		out.extra["traced_wall_s"] = out.extra["traced_cold_pass_wall_s"]
		return nil
	}}
}

func tracedRealWorld(sz batchSizes) tracedSpec {
	// pbzip2's heap keeps the MTE recording small enough to replay from
	// memory; apache and mysql's steady-state heaps would need gigabytes.
	return tracedSpec{program: "pbzip2", insts: sz.insts, round: func(cfg config, tr *tracer, parent int, out *outcome) error {
		cells, wall, _ := realWorldRound(cfg, sz, out)
		out.extra["traced_wall_s"] = wall.Seconds()
		for _, c := range cells {
			tr.add("cell", parent, c.start, c.start.Add(c.wall), map[string]any{"cell": c.spec.Benchmark + "/" + c.spec.Scheme})
		}
		return nil
	}}
}

func tracedAOSD(sz aosdSizes, insts uint64) tracedSpec {
	// The traced round is one round of the workload's own mix, which
	// also measures the service layers.
	return tracedSpec{program: "milc", insts: insts, round: func(cfg config, tr *tracer, parent int, out *outcome) error {
		err := serviceLayers(cfg, sz, tr, parent, out)
		out.extra["traced_wall_s"] = out.extra["service_round_wall_s"]
		return err
	}}
}

// recorder keeps an in-memory copy of an instruction stream.
type recorder struct{ insts []isa.Inst }

func (r *recorder) Emit(in *isa.Inst)          { r.insts = append(r.insts, *in) }
func (r *recorder) EmitBatch(batch []isa.Inst) { r.insts = append(r.insts, batch...) }

// replay feeds a recording to a timing core in emission-sized batches.
func replay(c *cpu.Core, insts []isa.Inst) {
	for i := 0; i < len(insts); i += core.EmitBatchSize {
		j := i + core.EmitBatchSize
		if j > len(insts) {
			j = len(insts)
		}
		c.EmitBatch(insts[i:j])
	}
}

// runProgram drives profile p under scheme s into sink through the
// batched emission path.
func runProgram(p *workload.Profile, s instrument.Scheme, insts uint64, seed int64, sink isa.Sink) error {
	m, err := core.New(core.Config{Scheme: s, CodeFootprint: p.CodeFootprint})
	if err != nil {
		return err
	}
	m.SetSink(sink)
	m.SetBatch(core.EmitBatchSize)
	prof := p.Clone()
	prof.Instructions = insts
	return prof.RunCtx(context.Background(), m, seed, 0, nil)
}

func nsPer(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// simLayers times the simulator's layers from outside, on one program:
// workload+core per scheme into a CountSink, the timing core replaying an
// in-memory recording of the same stream, the timing core's components
// replaying the recorded addresses, tags and branches, and machine
// checkpoints.
func simLayers(cfg config, tr *tracer, parent int, out *outcome, p *workload.Profile, insts uint64) error {
	runtime.GC()
	var aosRec []isa.Inst
	var cpuAllocs, cpuInsts uint64
	for _, s := range instrument.AllSchemes() {
		k := schemeKey(s)
		sid := tr.start("scheme."+k, parent)

		// workload + core: generator and rewriter into a CountSink.
		sink := &isa.CountSink{}
		b0, _ := allocCounters()
		var err error
		d := tr.timed("core.run", sid, func(int) { err = runProgram(p, s, insts, cfg.seed, sink) })
		if err != nil {
			return fmt.Errorf("core %s/%s: %w", p.Name, s, err)
		}
		b1, _ := allocCounters()
		n := sink.Total
		out.set("core.ns_per_inst."+k, "ns/inst", nsPer(d, n))
		out.set("core.alloc_bytes_per_inst."+k, "B/inst", float64(b1-b0)/float64(n))
		out.set("core.insts."+k, "count", float64(n))

		// In-line run with a recorder beside the timing core, then the
		// recording replayed into a fresh core: same cycles, exactly.
		rec := &recorder{insts: make([]isa.Inst, 0, n)}
		inline := cpu.New(cpu.DefaultConfig())
		tr.timed("core.record", sid, func(int) { err = runProgram(p, s, insts, cfg.seed, isa.MultiSink{rec, inline}) })
		if err != nil {
			return fmt.Errorf("record %s/%s: %w", p.Name, s, err)
		}
		// The allocation count includes the fresh core's construction, so
		// a zero-allocation hot path reads as a small positive ratio.
		_, m0 := allocCounters()
		fresh := cpu.New(cpu.DefaultConfig())
		d = tr.timed("cpu.replay", sid, func(int) { replay(fresh, rec.insts) })
		_, m1 := allocCounters()
		cpuAllocs += m1 - m0
		cpuInsts += uint64(len(rec.insts))
		out.set("cpu.ns_per_inst."+k, "ns/inst", nsPer(d, uint64(len(rec.insts))))
		a, b := inline.Finalize(), fresh.Finalize()
		out.checks.check("replay_reproduces_inline_cycles", uint64(len(rec.insts)) == n && reflect.DeepEqual(a, b),
			"%s/%s: in-line run %d cycles over %d insts, replay %d cycles over %d insts", p.Name, s, a.Cycles, n, b.Cycles, len(rec.insts))
		if s == instrument.AOS {
			aosRec = rec.insts
		}
		tr.end(sid, nil)
	}
	out.set("cpu.allocs_per_inst", "allocs/inst", float64(cpuAllocs)/float64(cpuInsts))

	cid := tr.start("components.AOS", parent)
	componentLayers(tr, cid, out, aosRec)
	tr.end(cid, nil)

	sid := tr.start("sampling", parent)
	defer tr.end(sid, nil)
	return samplingLayers(cfg, tr, sid, out, p, insts)
}

// componentLayers replays the AOS recording's addresses, bounds tags and
// branches into standalone instances of the timing core's components.
func componentLayers(tr *tracer, parent int, out *outcome, rec []isa.Inst) {
	ff := cpu.New(cpu.DefaultConfig())
	ff.SetMode(cpu.ModeFastForward)
	d := tr.timed("cpu.fastforward", parent, func(int) { replay(ff, rec) })
	out.set("cpu.ff_ns_per_inst", "ns/inst", nsPer(d, uint64(len(rec))))

	h, err := cache.NewHierarchy(cache.DefaultConfig())
	out.checks.check("components_build", err == nil, "cache hierarchy: %v", err)
	var accesses uint64
	if err == nil {
		d = tr.timed("cache.replay", parent, func(int) {
			for i := range rec {
				if op := rec[i].Op; op == isa.OpLoad || op == isa.OpStore {
					h.AccessData(pa.VA(rec[i].Addr), op == isa.OpStore)
					accesses++
				}
			}
		})
		out.set("cache.ns_per_access", "ns", nsPer(d, accesses))
	}

	bwb := mcu.NewBWB()
	var bwbOps uint64
	d = tr.timed("mcu.bwb_replay", parent, func(int) {
		for i := range rec {
			in := &rec[i]
			if !in.Signed || (in.Op != isa.OpLoad && in.Op != isa.OpStore) {
				continue
			}
			tag := mcu.BWBTag(pa.VA(in.Addr), in.AHC, in.PAC)
			bwb.Lookup(tag)
			bwbOps++
			if in.HomeWay >= 0 {
				bwb.Update(tag, int(in.HomeWay))
				bwbOps++
			}
		}
	})
	out.set("mcu.bwb_ns_per_op", "ns", nsPer(d, bwbOps))
	out.set("mcu.bwb_hit_ratio", "ratio", bwb.Stats().HitRate())

	assoc := 1
	for i := range rec {
		if a := int(rec[i].Assoc); a > assoc {
			assoc = a
		}
	}
	table, err := hbt.NewTable(mem.New(), kernel.HBTBase, assoc)
	out.checks.check("components_build", err == nil, "hbt table: %v", err)
	if err == nil {
		var lookups, found uint64
		d = tr.timed("hbt.replay", parent, func(int) {
			for i := range rec {
				in := &rec[i]
				switch {
				case in.Op == isa.OpBndstr:
					_, _ = table.Insert(in.PAC, pa.VA(in.Addr), uint64(in.Size)) // a full row only skips the entry
				case in.Op == isa.OpBndclr:
					table.Clear(in.PAC, pa.VA(in.Addr))
				case in.Signed && (in.Op == isa.OpLoad || in.Op == isa.OpStore):
					if _, ok := table.Lookup(in.PAC, pa.VA(in.Addr)); ok {
						found++
					}
					lookups++
				}
			}
		})
		out.set("hbt.ns_per_lookup", "ns", nsPer(d, lookups))
		out.extra["hbt_lookup_found_ratio"] = float64(found) / float64(lookups)
	}

	tage := bpred.NewTAGE()
	var branches uint64
	d = tr.timed("bpred.replay", parent, func(int) {
		for i := range rec {
			if rec[i].Op == isa.OpBranch {
				tage.Predict(rec[i].BranchID)
				tage.Update(rec[i].BranchID, rec[i].Taken)
				branches++
			}
		}
	})
	out.set("bpred.ns_per_branch", "ns", nsPer(d, branches))
}

// samplingLayers times machine checkpoints (snapshot and restore of the
// functional machine, the timing core and the workload runner) taken
// half-way through an AOS run, and the checkpoint store's hit ratio over a
// cold and a resumed sampled run of one cell.
func samplingLayers(cfg config, tr *tracer, parent int, out *outcome, p *workload.Profile, insts uint64) error {
	m, err := core.New(core.Config{Scheme: instrument.AOS, CodeFootprint: p.CodeFootprint})
	if err != nil {
		return err
	}
	c := cpu.New(cpu.DefaultConfig())
	m.SetSink(c)
	m.SetBatch(core.EmitBatchSize)
	prof := p.Clone()
	prof.Instructions = insts
	r, err := workload.NewRunner(prof, m, cfg.seed)
	if err != nil {
		return err
	}
	if err := r.RunTo(context.Background(), insts/2, insts); err != nil {
		return err
	}
	m.Flush()
	const reps = 5
	var snaps, restores, sizes []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		b0, _ := allocCounters()
		var cp sampling.Checkpoint
		d := tr.timed("sampling.snapshot", parent, func(int) {
			cp = sampling.Checkpoint{Machine: m.Snapshot(), Core: c.Snapshot(), Runner: r.State()}
		})
		b1, _ := allocCounters()
		snaps = append(snaps, millis(d))
		sizes = append(sizes, float64(b1-b0)/(1<<20))

		m2, err := core.New(core.Config{Scheme: instrument.AOS, CodeFootprint: p.CodeFootprint})
		if err != nil {
			return err
		}
		c2 := cpu.New(cpu.DefaultConfig())
		m2.SetSink(c2)
		d = tr.timed("sampling.restore", parent, func(int) {
			if err = m2.Restore(cp.Machine); err == nil {
				err = c2.Restore(cp.Core)
			}
			if err == nil {
				_, err = workload.NewRunnerFromState(prof, m2, cp.Runner)
			}
		})
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		restores = append(restores, millis(d))
	}
	out.set("sampling.snapshot_ms", "ms", median(snaps))
	out.set("sampling.restore_ms", "ms", median(restores))
	out.set("sampling.checkpoint_mb", "MB", median(sizes))

	// The sampled cell's budget fits the minimum two default windows.
	store := sampling.NewStore()
	spec := experiments.SimSpec{Benchmark: p.Name, Scheme: instrument.AOS.String(), Instructions: max(insts, 40_000), Seed: cfg.seed,
		Sampling: &experiments.SamplingSpec{Windows: 2}}
	var results [2][]byte
	for pass := range results {
		var res *experiments.SimResult
		tr.timed("sampling.cell", parent, func(int) {
			res, _, err = experiments.RunSpecFull(context.Background(), spec, experiments.RunConfig{Checkpoints: store})
		})
		if err != nil {
			return err
		}
		if results[pass], err = res.JSON(); err != nil {
			return err
		}
	}
	hits, misses, _ := store.Stats()
	out.set("sampling.store_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	out.checks.check("resumed_equals_cold", string(results[0]) == string(results[1]), "sampled %s/AOS: resumed result differs from cold", p.Name)
	return nil
}
