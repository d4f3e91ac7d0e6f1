package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"aos/internal/experiments"
	"aos/internal/instrument"
	"aos/internal/service"
)

// aosdSizes scales the aosd_mixed workload.
type aosdSizes struct {
	fillInsts      uint64 // budget of the cold Fig 14 composition set-up fills with
	coldInsts      uint64 // budget of the cold cells in the request mix
	cacheBytes     int64  // in-memory cache budget, smaller than the warm set
	attackPrograms int    // programs per cell of the attacks composition
	// One round of requests, shuffled by the seed, in the shares of
	// loadgen's "mixed" mix (aosload -mix mixed): 70% single cells
	// (/v1/results), 10% each fig14, fig18 and attacks compositions.
	// coldEvery-th single-cell request is a cold cell; the rest are warm.
	requests, coldEvery int
	roundSeconds        float64 // one round's wall time on the reference host
	setupReps           int
	verify              int // fill cells and cold cells checked against RunSpec
}

func aosdSizesFor(short bool) aosdSizes {
	if short {
		return aosdSizes{fillInsts: 2_000, coldInsts: 1_000, cacheBytes: 16 << 10, attackPrograms: 1,
			requests: 100, coldEvery: 35, roundSeconds: 1.2, setupReps: 2, verify: 2}
	}
	return aosdSizes{fillInsts: 10_000, coldInsts: 2_000, cacheBytes: 16 << 10, attackPrograms: 2,
		requests: 1000, coldEvery: 35, roundSeconds: 1.2, setupReps: 3, verify: 8}
}

// mixCounts splits a round into loadgen's mixed shares.
func (sz aosdSizes) mixCounts() (warm, cold, fig14, fig18, attacks int) {
	fig14 = sz.requests / 10
	fig18, attacks = fig14, fig14
	single := sz.requests - fig14 - fig18 - attacks
	cold = single / sz.coldEvery
	return single - cold, cold, fig14, fig18, attacks
}

// daemon is an in-process aosd: service.New behind a loopback listener.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	dir    string
	served chan error
}

// bootDaemon starts a daemon with a fresh spill directory.
func bootDaemon(cfg config, sz aosdSizes, tracing bool, n int) (*daemon, error) {
	dir := filepath.Join(cfg.out, fmt.Sprintf("aosd-spill-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{
		Workers:    cfg.workers,
		QueueDepth: 256,
		CacheBytes: sz.cacheBytes,
		CacheDir:   dir,
		Tracing:    tracing,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(context.Background())
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(),
		dir: dir, served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the listener and the service, waits for both, and removes
// the spill directory.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Close(ctx)
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// newClient returns a client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

// response is one request's outcome as the client saw it.
type response struct {
	start   time.Time
	status  int
	body    []byte
	header  http.Header
	latency time.Duration
}

func get(c *http.Client, u string) response {
	t := now()
	resp, err := c.Get(u)
	if err != nil {
		return response{start: t, latency: since(t)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := since(t)
	if err != nil {
		return response{start: t, latency: lat}
	}
	return response{start: t, status: resp.StatusCode, body: body, header: resp.Header, latency: lat}
}

// figDoc mirrors the composed-figure document aosd serves.
type figDoc struct {
	Instructions uint64             `json:"instructions"`
	Seed         int64              `json:"seed"`
	Cells        int                `json:"cells"`
	CachedCells  int                `json:"cached_cells"`
	Rows         []figRow           `json:"rows"`
	Geomean      map[string]float64 `json:"geomean"`
}

type figRow struct {
	Benchmark  string             `json:"benchmark"`
	Normalized map[string]float64 `json:"normalized"`
}

func (d *daemon) figURL(fig string, insts uint64, seed int64) string {
	return fmt.Sprintf("%s/v1/experiments/%s?insts=%d&seed=%d", d.base, fig, insts, seed)
}

func (d *daemon) resultURL(spec experiments.SimSpec) string {
	q := url.Values{}
	q.Set("benchmark", spec.Benchmark)
	q.Set("scheme", spec.Scheme)
	q.Set("insts", strconv.FormatUint(spec.Instructions, 10))
	q.Set("seed", strconv.FormatInt(spec.Seed, 10))
	return d.base + "/v1/results?" + q.Encode()
}

func (d *daemon) attacksURL(sz aosdSizes, seed int64) string {
	return fmt.Sprintf("%s/v1/experiments/attacks?programs=%d&seed=%d", d.base, sz.attackPrograms, seed)
}

// attacksDocument mirrors the attacks matrix aosd composes.
type attacksDocument struct {
	Cells       int                      `json:"cells"`
	CachedCells int                      `json:"cached_cells"`
	Rows        []experiments.AttackCell `json:"rows"`
}

// fill performs the compositions set-up makes, both cold: a Fig 14 over
// the whole 16x5 matrix at the fill budget, and the attacks matrix.
func (d *daemon) fill(c *http.Client, sz aosdSizes, seed int64) (*figDoc, *attacksDocument, error) {
	r := get(c, d.figURL("fig14", sz.fillInsts, seed))
	if r.status != http.StatusOK {
		return nil, nil, fmt.Errorf("cold fig14 fill: status %d: %s", r.status, r.body)
	}
	var doc figDoc
	if err := json.Unmarshal(r.body, &doc); err != nil {
		return nil, nil, fmt.Errorf("cold fig14 fill: %w", err)
	}
	if doc.CachedCells != 0 {
		return nil, nil, fmt.Errorf("cold fig14 fill: %d cells were already cached", doc.CachedCells)
	}
	r = get(c, d.attacksURL(sz, seed))
	if r.status != http.StatusOK {
		return nil, nil, fmt.Errorf("cold attacks fill: status %d: %s", r.status, r.body)
	}
	var att attacksDocument
	if err := json.Unmarshal(r.body, &att); err != nil {
		return nil, nil, fmt.Errorf("cold attacks fill: %w", err)
	}
	if att.CachedCells != 0 || att.Cells == 0 {
		return nil, nil, fmt.Errorf("cold attacks fill: %d of %d cells were already cached", att.CachedCells, att.Cells)
	}
	return &doc, &att, nil
}

// fillSpecs lists the 80 cells the fill cached, normalized, in matrix
// order.
func fillSpecs(sz aosdSizes, seed int64) ([]experiments.SimSpec, error) {
	var specs []experiments.SimSpec
	for _, b := range experiments.MatrixBenchmarks() {
		for _, s := range instrument.Schemes() {
			spec, err := experiments.SimSpec{Benchmark: b, Scheme: s.String(), Instructions: sz.fillInsts, Seed: seed}.Normalize()
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec)
		}
	}
	return specs, nil
}

// Request kinds of the mix.
const (
	opWarm = iota
	opCold
	opFig14
	opFig18
	opAttacks
	numOps
)

var opNames = [numOps]string{"warm", "cold", "fig14", "fig18", "attacks"}

// op is one request of a round.
type op struct {
	kind int
	spec experiments.SimSpec // warm and cold reads
	url  string
}

// sample is one completed request.
type sample struct {
	op
	response
}

// mixer generates the seeded request mix.
type mixer struct {
	sz    aosdSizes
	seed  int64
	rng   *splitMix
	warm  []experiments.SimSpec
	colds uint64
}

// round returns one round's requests, shuffled. Unlike loadgen, which
// draws each request's kind, a round holds exact counts, so every round
// attempts the same operations.
func (m *mixer) round(d *daemon) []op {
	var ops []op
	nWarm, nCold, nFig14, nFig18, nAttacks := m.sz.mixCounts()
	for i := 0; i < nWarm; i++ {
		spec := m.warm[m.rng.intn(len(m.warm))]
		ops = append(ops, op{kind: opWarm, spec: spec, url: d.resultURL(spec)})
	}
	for i := 0; i < nFig14; i++ {
		ops = append(ops, op{kind: opFig14, url: d.figURL("fig14", m.sz.fillInsts, m.seed)})
	}
	for i := 0; i < nFig18; i++ {
		ops = append(ops, op{kind: opFig18, url: d.figURL("fig18", m.sz.fillInsts, m.seed)})
	}
	for i := 0; i < nAttacks; i++ {
		ops = append(ops, op{kind: opAttacks, url: d.attacksURL(m.sz, m.seed)})
	}
	benchmarks := experiments.MatrixBenchmarks()
	schemes := instrument.Schemes()
	for i := 0; i < nCold; i++ {
		m.colds++
		// Every round simulates the same spread of programs and schemes,
		// so its cost does not depend on the seed; each cold cell is still
		// a spec no earlier request named, because its workload seed is
		// unique within the run.
		spec := experiments.SimSpec{
			Benchmark:    benchmarks[i*len(benchmarks)/nCold],
			Scheme:       schemes[i%len(schemes)].String(),
			Instructions: m.sz.coldInsts,
			Seed:         int64((uint64(m.seed)*1_000_003+m.colds)&(1<<40-1)) + 2,
		}
		ops = append(ops, op{kind: opCold, spec: spec, url: d.resultURL(spec)})
	}
	for i := len(ops) - 1; i > 0; i-- {
		j := m.rng.intn(i + 1)
		ops[i], ops[j] = ops[j], ops[i]
	}
	return ops
}

// drive sends ops from closed-loop clients: each client sends its next
// request only after the previous one completed. after, when non-nil,
// runs on the client's goroutine once a request completes, outside its
// timing.
func drive(clients []*http.Client, ops []op, after func(c *http.Client, s *sample)) []sample {
	out := make([]sample, len(ops))
	parallel(len(clients), len(ops), func(g, i int) {
		out[i] = sample{op: ops[i], response: get(clients[g], ops[i].url)}
		if after != nil {
			after(clients[g], &out[i])
		}
	})
	return out
}

// aosdRun holds one session's observations for the checks.
type aosdRun struct {
	fill    *figDoc
	attacks *attacksDocument
	specs   []experiments.SimSpec // fill cells, normalized
	ref     map[string][]byte     // fill cell -> bytes served after the fill
	fig18   *figDoc
	colds   []sample
}

// checkSamples checks a round's responses: every one is a 200, warm reads
// return the bytes served right after the fill, and composed figures
// equal the fill's (fig14, attacks) or the first fig18.
func (r *aosdRun) checkSamples(samples []sample, out *outcome) {
	for _, s := range samples {
		if s.status != http.StatusOK {
			out.failed++
			continue
		}
		switch s.kind {
		case opWarm:
			out.checks.check("warm_reads_match_fill", bytes.Equal(s.body, r.ref[s.spec.Hash()]),
				"%s/%s: warm read differs from the bytes served after the fill", s.spec.Benchmark, s.spec.Scheme)
		case opFig14, opFig18:
			var doc figDoc
			err := json.Unmarshal(s.body, &doc)
			want := r.fill
			if s.kind == opFig18 {
				if r.fig18 == nil && err == nil {
					r.fig18 = &doc
				}
				want = r.fig18
			}
			out.checks.check("warm_compositions_stable", err == nil && sameFigure(&doc, want, 0),
				"%s composition differs from the first one served (err %v)", opNames[s.kind], err)
			out.checks.check("warm_compositions_cached", err == nil && doc.CachedCells == doc.Cells,
				"%s composition simulated %d cells", opNames[s.kind], doc.Cells-doc.CachedCells)
		case opAttacks:
			var doc attacksDocument
			err := json.Unmarshal(s.body, &doc)
			out.checks.check("warm_compositions_stable", err == nil && reflect.DeepEqual(doc.Rows, r.attacks.Rows),
				"attacks composition differs from the fill's (err %v)", err)
			out.checks.check("warm_compositions_cached", err == nil && doc.CachedCells == doc.Cells,
				"attacks composition graded %d cells", doc.Cells-doc.CachedCells)
		case opCold:
			r.colds = append(r.colds, s)
		}
	}
}

// sameFigure compares two composed figures: rows exactly, geomeans within
// tol (relative).
func sameFigure(a, b *figDoc, tol float64) bool {
	if a == nil || b == nil || len(a.Rows) != len(b.Rows) || len(a.Geomean) != len(b.Geomean) {
		return false
	}
	for i := range a.Rows {
		if a.Rows[i].Benchmark != b.Rows[i].Benchmark || len(a.Rows[i].Normalized) != len(b.Rows[i].Normalized) {
			return false
		}
		for k, v := range a.Rows[i].Normalized { //aoslint:allow mapiter — order-free comparison
			if w, ok := b.Rows[i].Normalized[k]; !ok || w != v {
				return false
			}
		}
	}
	for k, v := range a.Geomean { //aoslint:allow mapiter — order-free comparison
		w, ok := b.Geomean[k]
		if !ok || math.Abs(v-w) > tol*math.Abs(w) {
			return false
		}
	}
	return true
}

// matrixFigure renders experiments' own Fig 14 or Fig 18 rows in the
// served document's shape.
func matrixFigure(rows []experiments.Fig14Row, geomean map[instrument.Scheme]float64) *figDoc {
	doc := &figDoc{Geomean: map[string]float64{}}
	for _, r := range rows {
		row := figRow{Benchmark: r.Name, Normalized: map[string]float64{}}
		for s, v := range r.Normalized { //aoslint:allow mapiter — copied into a map
			row.Normalized[s.String()] = v
		}
		doc.Rows = append(doc.Rows, row)
	}
	for s, v := range geomean { //aoslint:allow mapiter — copied into a map
		doc.Geomean[s.String()] = v
	}
	return doc
}

// verify checks served bytes against separate in-process computations:
// a seeded sample of fill and cold cells against experiments.RunSpec; the
// composed figures, plus every fill cell's cycles and heap schedule,
// against experiments.RunMatrix at the fill budget and seed; and the
// attacks matrix against experiments.AttackMatrix.
func (r *aosdRun) verify(cfg config, sz aosdSizes, out *outcome) {
	rng := newSplitMix(uint64(cfg.seed) ^ 0x5eed)
	specs := r.specs
	var check []sample
	for i := 0; i < sz.verify && len(specs) > 0; i++ {
		s := specs[rng.intn(len(specs))]
		check = append(check, sample{op: op{kind: opWarm, spec: s}, response: response{body: r.ref[s.Hash()]}})
	}
	for i := 0; i < sz.verify && len(r.colds) > 0; i++ {
		check = append(check, r.colds[rng.intn(len(r.colds))])
	}
	for _, s := range check {
		res, err := experiments.RunSpec(context.Background(), s.spec)
		var want []byte
		if err == nil {
			want, err = res.JSON()
		}
		out.checks.check("cached_cells_equal_runspec", err == nil && bytes.Equal(s.body, want),
			"%s/%s (seed %d): served bytes differ from experiments.RunSpec (err %v)", s.spec.Benchmark, s.spec.Scheme, s.spec.Seed, err)
	}

	m, err := experiments.RunMatrix(experiments.Options{Instructions: sz.fillInsts, Seed: cfg.seed, Workers: cfg.workers})
	out.checks.check("reference_matrix_runs", err == nil, "%v", err)
	if err != nil {
		return
	}
	f14, err14 := experiments.Fig14(m)
	f18, err18 := experiments.Fig18(m)
	out.checks.check("composed_fig14_equals_runmatrix", err14 == nil && sameFigure(r.fill, matrixFigure(f14.Rows, f14.Geomean), 1e-12),
		"served Fig 14 differs from experiments.Fig14 over RunMatrix (err %v)", err14)
	out.checks.check("composed_fig18_equals_runmatrix", err18 == nil && r.fig18 != nil && sameFigure(r.fig18, matrixFigure(f18.Rows, f18.Geomean), 1e-12),
		"served Fig 18 differs from experiments.Fig18 over RunMatrix (err %v)", err18)
	var cells []cellStats
	for _, spec := range specs {
		var res experiments.SimResult
		err := json.Unmarshal(r.ref[spec.Hash()], &res)
		scheme, _ := instrument.ParseScheme(spec.Scheme)
		run := m.Runs[spec.Benchmark][scheme]
		out.checks.check("fill_cells_equal_runmatrix", err == nil && res.Cycles == run.CPU.Cycles && res.HeapAllocs == run.Heap.Allocs,
			"%s/%s: served cycles %d, RunMatrix %d (err %v)", spec.Benchmark, spec.Scheme, res.Cycles, run.CPU.Cycles, err)
		cells = append(cells, cellStats{benchmark: spec.Benchmark, scheme: scheme, allocs: res.HeapAllocs,
			frees: res.HeapFrees, maxLive: res.HeapMaxLive, exceptions: res.Exceptions, cycles: res.Cycles})
	}
	out.checks.checkCells(cells)

	am, err := experiments.AttackMatrix(experiments.Options{Workers: cfg.workers}, sz.attackPrograms, uint64(cfg.seed))
	same := err == nil && len(am.Cells) == len(r.attacks.Rows)
	for i := 0; same && i < len(am.Cells); i++ {
		same = reflect.DeepEqual(*am.Cells[i], r.attacks.Rows[i])
	}
	out.checks.check("composed_attacks_equal_attackmatrix", same,
		"served attacks matrix differs from experiments.AttackMatrix (err %v)", err)
	for _, s := range r.colds {
		var res experiments.SimResult
		err := json.Unmarshal(s.body, &res)
		out.checks.check("no_exceptions", err == nil && res.Exceptions == 0, "cold %s/%s: %d exceptions (err %v)",
			s.spec.Benchmark, s.spec.Scheme, res.Exceptions, err)
	}
}

// session is one booted, filled daemon with its clients and mix.
type session struct {
	d       *daemon
	clients []*http.Client
	mix     *mixer
	run     *aosdRun
}

// openSession boots a daemon, fills it (the set-up), and reads back every
// fill cell once for the warm-read checks.
func openSession(cfg config, sz aosdSizes, tracing bool, n int) (*session, time.Duration, error) {
	t := now()
	d, err := bootDaemon(cfg, sz, tracing, n)
	if err != nil {
		return nil, 0, err
	}
	clients := make([]*http.Client, cfg.workers)
	for i := range clients {
		clients[i] = newClient()
	}
	doc, att, err := d.fill(clients[0], sz, cfg.seed)
	setup := since(t)
	if err != nil {
		d.close()
		return nil, 0, err
	}
	specs, err := fillSpecs(sz, cfg.seed)
	if err != nil {
		d.close()
		return nil, 0, err
	}
	s := &session{d: d, clients: clients, run: &aosdRun{fill: doc, attacks: att, specs: specs, ref: map[string][]byte{}},
		mix: &mixer{sz: sz, seed: cfg.seed, rng: newSplitMix(uint64(cfg.seed))}}
	for _, spec := range specs {
		r := get(clients[0], d.resultURL(spec))
		if r.status != http.StatusOK || r.header.Get("X-Cache") != "hit" {
			s.close()
			return nil, 0, fmt.Errorf("fill cell %s/%s: status %d, X-Cache %q", spec.Benchmark, spec.Scheme, r.status, r.header.Get("X-Cache"))
		}
		s.run.ref[spec.Hash()] = r.body
		s.mix.warm = append(s.mix.warm, spec)
	}
	return s, setup, nil
}

func (s *session) close() error {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	return s.d.close()
}

// runAOSDMixed: aosd on a loopback listener with a spill directory and a
// memory budget smaller than the warm set. Set-up boots it and fills it
// with cold Fig 14 and attacks compositions; the loop then runs nproc
// closed-loop clients over a fixed number of rounds of the seeded mix.
func runAOSDMixed(cfg config) (*outcome, error) {
	sz := aosdSizesFor(cfg.short)
	if cfg.trace {
		return runTraced(cfg, tracedAOSD(sz, fig14Sizes(cfg.short, false).insts))
	}
	out := newOutcome()
	var setups []float64
	var s *session
	for rep := 0; rep < sz.setupReps; rep++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		var setup time.Duration
		var err error
		if s, setup, err = openSession(cfg, sz, false, rep); err != nil {
			return nil, err
		}
		setups = append(setups, seconds(setup))
	}
	defer s.close()

	var t roundTimes
	var warmP99 []float64
	var clientTime [numOps]float64 // seconds the clients waited, by request kind
	var loopWall time.Duration
	var requests int
	t.setup = median(setups)
	out.rounds = roundCount(cfg.seconds, sz.roundSeconds)
	for i := 0; i < out.rounds; i++ {
		ops := s.mix.round(s.d)
		t0, c0 := now(), cpuTime()
		samples := drive(s.clients, ops, nil)
		wall, cpuUsed := since(t0), cpuTime()-c0
		loopWall += wall
		requests += len(samples)
		out.attempted += int64(len(samples))
		s.run.checkSamples(samples, out)
		t.wall = append(t.wall, seconds(wall))
		t.cpu = append(t.cpu, seconds(cpuUsed))
		roundWarm := len(t.warm)
		for _, x := range samples {
			ms := millis(x.latency)
			t.cell = append(t.cell, ms)
			switch x.kind {
			case opWarm:
				t.warm = append(t.warm, ms)
			case opCold:
				t.cold = append(t.cold, ms)
			default:
				t.resumed = append(t.resumed, x.latency.Seconds())
			}
		}
		warmP99 = append(warmP99, quantile(t.warm[roundWarm:], 0.99))
		for _, x := range samples {
			clientTime[x.kind] += x.latency.Seconds()
		}
	}
	var total float64
	for _, v := range clientTime {
		total += v
	}
	for k, v := range clientTime {
		out.extra["client_time_share."+opNames[k]] = v / total
	}
	st := s.d.srv.CacheStats()
	out.extra["cache_hit_ratio"] = st.HitRate()
	if st.Hits > 0 {
		out.extra["disk_hit_share"] = float64(st.DiskHits) / float64(st.Hits)
	}
	out.checks.check("warm_reads_from_memory_and_disk", st.DiskHits > 0 && st.DiskHits < st.Hits,
		"%d disk hits of %d hits: the memory budget does not split the warm set", st.DiskHits, st.Hits)
	s.run.verify(cfg, sz, out)

	t.rate = []float64{float64(requests) / loopWall.Seconds()}
	t.report(out)
	// The warm tail is reported, not gated: on a shared 2-vCPU host its
	// run-to-run spread exceeds any usable regression bound.
	out.extra["warm_p99_ms"] = median(warmP99)
	out.extra["warm_requests"] = float64(len(t.warm))
	out.extra["cold_requests"] = float64(len(t.cold))
	out.extra["composition_requests"] = float64(len(t.resumed))
	return out, nil
}

// traceID extracts the trace id from a traceparent response header.
func traceID(h http.Header) string {
	parts := strings.Split(h.Get("traceparent"), "-")
	if len(parts) != 4 {
		return ""
	}
	return parts[1]
}

// spanDurations fetches a Perfetto trace document from the daemon and
// returns the durations (ms) of its spans with the given name.
func (d *daemon) spanDurations(c *http.Client, path, name string) ([]float64, error) {
	r := get(c, d.base+path)
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("status %d", r.status)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(r.body, &doc); err != nil {
		return nil, err
	}
	var out []float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == name {
			out = append(out, ev.Dur/1000)
		}
	}
	return out, nil
}

// serviceLayers measures the service path from outside: a traced daemon
// is booted and filled, one round of the request mix runs with each cold
// request's queue wait and each composition's compose span read back from
// the daemon's traces, and service.Cache and SimSpec hashing are timed
// directly.
func serviceLayers(cfg config, sz aosdSizes, tr *tracer, parent int, out *outcome) error {
	var s *session
	var err error
	tr.timed("service.boot_fill", parent, func(int) { s, _, err = openSession(cfg, sz, true, 100) })
	if err != nil {
		return err
	}
	defer s.close()

	rid := tr.start("service.round", parent)
	var mu sync.Mutex
	var queue, compose []float64
	var traceErrs int
	var traceErr string
	after := func(c *http.Client, x *sample) {
		tr.add("request."+opNames[x.kind], rid, x.start, x.start.Add(x.latency), nil)
		// A cold request's trace is read through its job, which holds it
		// for good: the daemon's ring of recent traces turns over faster
		// than a cold cell simulates while the other client reads warm.
		span, path := "experiments_compose", "/v1/traces/"+traceID(x.header)
		switch x.kind {
		case opWarm, opAttacks:
			// aosd composes attacks with no compose span to read back.
			return
		case opCold:
			span, path = "service_queue_wait", "/v1/jobs/"+x.spec.Hash()+"/trace"
		}
		durs, err := s.d.spanDurations(c, path, span)
		mu.Lock()
		defer mu.Unlock()
		if err != nil || len(durs) == 0 {
			traceErrs++
			if traceErr == "" {
				traceErr = fmt.Sprintf("%s request %s: %s: %v, %d %s spans", opNames[x.kind], x.url, path, err, len(durs), span)
			}
			return
		}
		if x.kind == opCold {
			queue = append(queue, durs...)
		} else {
			compose = append(compose, durs...)
		}
	}
	t := now()
	samples := drive(s.clients, s.mix.round(s.d), after)
	out.extra["service_round_wall_s"] = since(t).Seconds()
	tr.end(rid, nil)
	out.attempted += int64(len(samples))
	s.run.checkSamples(samples, out)
	out.checks.check("request_traces_readable", traceErrs == 0, "%d cold or composition requests had no readable trace; first: %s", traceErrs, traceErr)
	out.set("service.queue_wait_ms", "ms", median(queue))
	out.set("service.compose_ms", "ms", median(compose))
	st := s.d.srv.CacheStats()
	out.set("service.cache_hit_ratio", "ratio", st.HitRate())
	out.set("service.disk_hit_ratio", "ratio", float64(st.DiskHits)/float64(st.Hits))
	if cfg.workload == "aosd_mixed" {
		vid := tr.start("service.verify", parent)
		s.run.verify(cfg, sz, out)
		tr.end(vid, nil)
	}

	cid := tr.start("service.cache_bench", parent)
	defer tr.end(cid, nil)
	return cacheLayers(cfg, s.run, out)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cacheLayers times SimSpec normalization and hashing, and service.Cache
// puts and gets from memory and from its spill directory, on the cells
// the session filled.
func cacheLayers(cfg config, run *aosdRun, out *outcome) error {
	var hash []float64
	for i := 0; i < 4000; i++ {
		spec := run.specs[i%len(run.specs)]
		t := now()
		n, err := spec.Normalize()
		if err != nil {
			return err
		}
		_ = n.Hash()
		hash = append(hash, micros(since(t)))
	}
	out.set("service.spec_hash_us", "us", median(hash))

	dir := filepath.Join(cfg.out, fmt.Sprintf("cache-bench-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	keys := make([]string, len(run.specs))
	for i, spec := range run.specs {
		keys[i] = spec.Hash()
	}
	// The memory budget holds eight entries: gets cycling over the
	// first half of the keys always miss memory and read the spill file.
	c, err := service.NewCache(int64(8*len(run.ref[keys[0]])), dir)
	if err != nil {
		return err
	}
	var put, memGet, diskGet []float64
	for pass := 0; pass < 2; pass++ {
		for _, k := range keys {
			t := now()
			c.Put(k, run.ref[k])
			put = append(put, micros(since(t)))
		}
	}
	last := keys[len(keys)-1]
	for i := 0; i < 2000; i++ {
		t := now()
		_, ok := c.Get(last)
		memGet = append(memGet, micros(since(t)))
		out.checks.check("cache_bench_hits", ok, "memory-resident key missed")
	}
	before := c.Stats().DiskHits
	half := len(keys) / 2
	for i := 0; i < 400; i++ {
		k := keys[i%half]
		t := now()
		b, ok := c.Get(k)
		diskGet = append(diskGet, micros(since(t)))
		out.checks.check("cache_bench_hits", ok && bytes.Equal(b, run.ref[k]), "spilled key missed or returned other bytes")
	}
	out.checks.check("cache_bench_disk_reads", c.Stats().DiskHits-before == 400, "%d of 400 gets read the spill directory", c.Stats().DiskHits-before)
	out.set("service.cache_put_us", "us", median(put))
	out.set("service.cache_get_us.memory", "us", median(memGet))
	out.set("service.cache_get_us.disk", "us", median(diskGet))
	return nil
}
