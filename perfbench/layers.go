package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nustencil"
	"nustencil/internal/affinity"
	"nustencil/internal/dist"
	"nustencil/internal/engine"
	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
	"nustencil/internal/stencil"
	"nustencil/internal/stream"
	"nustencil/internal/tiling"
	"nustencil/internal/tiling/naive"
	"nustencil/internal/tiling/nucats"
	"nustencil/internal/tiling/nucorals"
	"nustencil/internal/trace"
)

// layerProblem is one problem the per-layer probes measure; with several
// (the serve-mix job kinds, which weigh alike) the figures are their mean.
type layerProblem struct {
	cfg   nustencil.Config
	field func(pt []int) float64
}

// planSplit is one plan build's time by phase and its size.
type planSplit struct {
	tiles, deps, trav time.Duration
	nTiles, edges     int
	built             []*spacetime.Tile
	dag               [][]int
}

// llcHint is the library's default cache-size hint for the cache-aware
// schemes (Config.LLCBytesPerWorker).
const llcHint = 1 << 20

// schemeOf builds the tiling scheme a solver with cfg would use, at its
// default parameters.
func schemeOf(cfg nustencil.Config) (tiling.Scheme, error) {
	switch cfg.Scheme {
	case nustencil.NuCORALS:
		return &nucorals.Scheme{}, nil
	case nustencil.NuCATS:
		return &nucats.Scheme{}, nil
	case nustencil.Naive:
		return naive.New(), nil
	}
	return nil, fmt.Errorf("no plan probe for scheme %s", cfg.Scheme)
}

// buildPlan builds cfg's plan from outside the solver the way a cold
// Execute does — tiles, dependency graph, per-tile traversals — timing
// each phase.
func buildPlan(r *run, cfg nustencil.Config, parent int) (planSplit, error) {
	var ps planSplit
	sch, err := schemeOf(cfg)
	if err != nil {
		return ps, err
	}
	g := grid.New(cfg.Dims)
	var st *stencil.Stencil
	if cfg.Banded {
		st = stencil.NewBandedStar(len(cfg.Dims), cfg.Order)
	} else {
		st = stencil.NewStar(len(cfg.Dims), cfg.Order)
	}
	p := &tiling.Problem{
		Grid:              g,
		Stencil:           st,
		Timesteps:         cfg.Timesteps,
		Workers:           cfg.Workers,
		Topo:              affinity.Fixed{Cores: cfg.Workers, Nodes: 1},
		LLCBytesPerWorker: llcHint,
	}
	t0 := time.Now()
	r.sp.do("plan.tiles", 0, parent, func() {
		sch.Distribute(p)
		ps.built, err = sch.Tiles(p)
		spacetime.AssignIDs(ps.built)
	})
	ps.tiles = time.Since(t0)
	if err != nil {
		return ps, err
	}
	t0 = time.Now()
	r.sp.do("plan.deps", 0, parent, func() { ps.dag = engine.BuildDeps(ps.built, cfg.Order, nil) })
	ps.deps = time.Since(t0)
	t0 = time.Now()
	r.sp.do("plan.trav", 0, parent, func() {
		for _, t := range ps.built {
			tiling.TraverseOrDefault(sch, t, cfg.Order)
		}
	})
	ps.trav = time.Since(t0)
	ps.nTiles = len(ps.built)
	for _, d := range ps.dag {
		ps.edges += len(d)
	}
	return ps, nil
}

// schedNsPerTile runs the engine over a plan with a no-op Exec and returns
// the median scheduler cost per tile over a few runs.
func schedNsPerTile(r *run, ps planSplit, cfg nustencil.Config, parent int) (float64, error) {
	noop := func(int, *spacetime.Tile) int64 { return 0 }
	var per []float64
	for i := 0; i < 5; i++ {
		var err error
		t0 := time.Now()
		r.sp.do("sched.run", 0, parent, func() {
			_, err = engine.Run(ps.built, engine.Config{Workers: cfg.Workers, Order: cfg.Order, Deps: ps.dag, Exec: noop})
		})
		if err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(ps.nTiles))
	}
	return median(per), nil
}

// kernelProbe is one single-threaded ApplyBox measurement.
type kernelProbe struct {
	metric string
	dims   []int
	order  int
	banded bool
}

// kernelProbes measure the kernel paths the workloads lean on: the 3D
// 7-point fast path (large-3d), the generic order-s path in 2D (tiles-2d)
// and the banded variable-coefficient path (the mix's nuCATS jobs). Each
// grid is well beyond the 4 MiB L2.
var kernelProbes = []kernelProbe{
	{"kernel.gups.3d-s1", []int{130, 130, 130}, 1, false},
	{"kernel.gups.2d-s2", []int{1028, 1028}, 2, false},
	{"kernel.gups.3d-banded", []int{98, 98, 98}, 1, true},
}

// kernelSweeps is how long each kernel probe sweeps.
const kernelSweeps = 400 * time.Millisecond

// runKernelProbe sweeps ApplyBox over the interior on one thread and
// returns the median per-sweep rate in Gupdates/s.
func runKernelProbe(r *run, kp kernelProbe, parent int) float64 {
	g := grid.New(kp.dims)
	g.FillFunc(seededField(r.seed, len(kp.dims)))
	var op *stencil.Op
	if kp.banded {
		st := stencil.NewBandedStar(len(kp.dims), kp.order)
		op = stencil.NewBandedOp(st, g, stencil.NewCoefficients(st, g))
	} else {
		op = stencil.NewOp(stencil.NewStar(len(kp.dims), kp.order), g)
	}
	box := g.Interior(kp.order)
	var rates []float64
	start := time.Now()
	for t := 0; t < 3 || time.Since(start) < kernelSweeps; t++ {
		var n int64
		t0 := time.Now()
		r.sp.do("kernel.applybox", 0, parent, func() { n = op.ApplyBox(box, t) })
		rates = append(rates, float64(n)/time.Since(t0).Seconds()/1e9)
	}
	return median(rates)
}

// runLayerProbes measures every layer the workload exercises from outside
// the solver: grid fill, plan build, scheduler, kernels against the STREAM
// copy ceiling, the distributed runtime, and (for the solver workloads) a
// short batch through the job server.
func runLayerProbes(r *run, lps []layerProblem, distCfg nustencil.Config) error {
	pid := r.sp.begin("layers", 0, -1)
	defer r.sp.end(pid)

	var fillS, tilesS, depsS, travS, nTiles, edges float64
	var schedNs, schedTiles float64
	for _, lp := range lps {
		if _, ok := r.metrics["grid.fill_s"]; !ok {
			g := grid.New(lp.cfg.Dims)
			t0 := time.Now()
			r.sp.do("grid.fill", 0, pid, func() { g.FillFunc(lp.field) })
			fillS += time.Since(t0).Seconds()
		}
		ps, err := buildPlan(r, lp.cfg, pid)
		if err != nil {
			return err
		}
		tilesS += ps.tiles.Seconds()
		depsS += ps.deps.Seconds()
		travS += ps.trav.Seconds()
		nTiles += float64(ps.nTiles)
		edges += float64(ps.edges)
		ns, err := schedNsPerTile(r, ps, lp.cfg, pid)
		if err != nil {
			return err
		}
		schedNs += ns * float64(ps.nTiles)
		schedTiles += float64(ps.nTiles)
	}
	n := float64(len(lps))
	if fillS > 0 {
		r.set("grid.fill_s", fillS/n, "s")
	}
	r.set("plan.tiles_s", tilesS/n, "s")
	r.set("plan.deps_s", depsS/n, "s")
	r.set("plan.trav_s", travS/n, "s")
	r.set("plan.tiles", nTiles/n, "count")
	r.set("plan.dep_edges", edges/n, "count")
	r.set("sched.ns_per_tile", schedNs/schedTiles, "ns/tile")
	releaseMemory()

	for _, kp := range kernelProbes {
		r.set(kp.metric, runKernelProbe(r, kp, pid), "Gupdates/s")
		releaseMemory()
	}
	// Compulsory traffic of the 7-point sweep: one 8-byte read and one
	// 8-byte write per update, under ideal caching. Computed, not measured.
	r.set("kernel.gbs_computed", r.metrics["kernel.gups.3d-s1"].Value*16, "GB/s")
	var copyRes stream.Result
	r.sp.do("stream.copy", 0, pid, func() {
		copyRes = stream.Copy(stream.Config{Elements: 16 << 20, Workers: 1, Trials: 5})
	})
	r.set("mem.stream_copy_gbs", copyRes.GBps(), "GB/s")
	releaseMemory()

	if err := distProbe(r, distCfg, pid); err != nil {
		return err
	}
	releaseMemory()
	if _, ok := r.metrics["serve.queue_ms"]; !ok {
		return serveProbe(r)
	}
	return nil
}

// distProbe times the distributed runtime's scatter (dist.New) and run
// (Runtime.Run) separately and reports its traffic and barrier wait.
func distProbe(r *run, cfg nustencil.Config, parent int) error {
	g := grid.New(cfg.Dims)
	g.FillFunc(seededField(r.seed, len(cfg.Dims)))
	prob := dist.Problem{Grid: g, Stencil: stencil.NewStar(len(cfg.Dims), cfg.Order)}
	if cfg.Banded {
		return fmt.Errorf("dist probe: banded problems are not probed")
	}
	opts := dist.Options{Ranks: cfg.Ranks, ChareFactor: cfg.ChareFactor, WorkersPerRank: cfg.Workers / cfg.Ranks}
	var scatter, runT, barrier []float64
	var res dist.Result
	for i := 0; i < 3; i++ {
		var rt *dist.Runtime
		var err error
		t0 := time.Now()
		r.sp.do("dist.scatter", 0, parent, func() { rt, err = dist.New(prob, opts) })
		if err != nil {
			return err
		}
		scatter = append(scatter, time.Since(t0).Seconds())
		t0 = time.Now()
		r.sp.do("dist.run", 0, parent, func() { res, err = rt.Run(context.Background(), cfg.Timesteps) })
		if err != nil {
			return err
		}
		runT = append(runT, time.Since(t0).Seconds())
		barrier = append(barrier, float64(res.Net.BarrierWait.Mean().Nanoseconds())/1e3)
		prob.Base += cfg.Timesteps
	}
	r.set("dist.scatter_s", median(scatter), "s")
	r.set("dist.run_s", median(runT), "s")
	r.set("dist.halo_msgs", float64(res.Net.Msgs), "count")
	r.set("dist.halo_bytes", float64(res.Net.HaloBytes), "B")
	// The runtime's barrier-wait histogram buckets by powers of two and
	// holds one wait per rank here; the median over the runs of its exact
	// mean is the figure that can move by less than a factor of two.
	r.set("dist.barrier_wait_p50_us", median(barrier), "us")
	return nil
}

// writeExecTrace writes a traced Execute's Chrome trace next to the span
// file and validates it.
func writeExecTrace(r *run, out *nustencil.RunOutput) error {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.outDir, "perfbench-"+r.workload+".execute.trace.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := out.Trace.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return validateTrace(r, path)
}

// validateTrace checks a written trace file with trace.CheckChrome.
func validateTrace(r *run, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	st, err := trace.CheckChrome(data)
	if !r.op(err) {
		return nil
	}
	if st.Spans == 0 {
		r.op(fmt.Errorf("trace %s holds no spans", path))
		return nil
	}
	fmt.Printf("trace %s: %d spans, %d events, valid\n", path, st.Spans, st.Events)
	return nil
}
