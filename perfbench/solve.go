package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"nustencil"
)

// solverWorkload is one grid problem solved directly through the library:
// every variant builds its own solver on the same seeded initial state,
// runs it once (checked), then repeats warm Executes.
type solverWorkload struct {
	name string
	prob problem
	// large marks a grid too big to keep more than one solver resident:
	// the variants then take turns in largePasses passes of alternating
	// order, the first turn on the solver just set up and checked, the
	// later ones on a fresh solver started from the state the previous
	// turn left. Small grids keep every variant's solver and interleave
	// Executes round by round.
	large bool
}

// large3D is the paper's regime: the 3D 7-point constant stencil on 258³
// cells (two buffers of 137 MB each against a 4 MiB L2 per core), 16
// steps per Execute, so the kernel and memory traffic carry the time.
var large3D = solverWorkload{name: "large-3d", prob: problem{dims: []int{258, 258, 258}, order: 1, steps: 16}, large: true}

// tiles2D is a 2D order-2 (9-point) problem of 1028² cells over 64 steps:
// nuCORALS cuts it into thousands of tiles, so the plan build
// (engine.BuildDeps) dominates the cold solve, and the generic order-s
// kernel, not the 7-point fast path, does the warm work.
var tiles2D = solverWorkload{name: "tiles-2d", prob: problem{dims: []int{1028, 1028}, order: 2, steps: 64}}

// variant is one way of solving a workload's problem.
type variant struct {
	name string // metric suffix: gups.<name>
	cfg  nustencil.Config
}

// variants lists the solvers a workload builds, nuCORALS first so its first
// Execute is the cold solve. Parallel runs use the host's two cores; the
// serial baseline uses one; the distributed run puts one worker on each of
// two in-process ranks. Each chare of a distributed run sweeps plainly, so
// it is named NaiveSSE.
func variants(p problem) []variant {
	base := func(s nustencil.SchemeName, workers int) nustencil.Config {
		return nustencil.Config{Dims: p.dims, Order: p.order, Timesteps: p.steps, Scheme: s, Workers: workers}
	}
	dist := base(nustencil.Naive, 2)
	dist.Ranks = 2
	return []variant{
		{"nuCORALS", base(nustencil.NuCORALS, 2)},
		{"NaiveSSE", base(nustencil.Naive, 2)},
		{"nuCATS", base(nustencil.NuCATS, 2)},
		{"serial", base(nustencil.Naive, 1)},
		{"dist", dist},
	}
}

// minWarm is the fewest timed warm Executes a variant gets, however short
// the time budget.
const minWarm = 4

// coldSamples is how many fresh nuCORALS solvers a run times the first
// Execute of; cold_s is their median. A large workload gets one per pass.
const coldSamples = 3

// largePasses is how many turns each variant of a large workload gets.
const largePasses = 4

// seededField draws the initial field's wave numbers and phases from seed.
func seededField(seed int64, nd int) func(pt []int) float64 {
	rng := rand.New(rand.NewSource(seed))
	a := make([]float64, nd)
	phi := make([]float64, nd)
	for k := range a {
		a[k] = 0.05 + 0.2*rng.Float64()
		phi[k] = 2 * math.Pi * rng.Float64()
	}
	return initialField(a, phi)
}

// varState is one variant's solver (while resident) and its samples.
type varState struct {
	v      variant
	sol    *nustencil.Solver
	warm   []time.Duration
	inside []float64 // Report.Seconds, the library's own clock
	traced *nustencil.RunOutput
	// overhead holds traced/untraced - 1 for each traced pair.
	overhead []float64
}

// solverRun carries what the phases of a solver workload share.
type solverRun struct {
	r   *run
	p   problem
	ctx context.Context
	// field rebuilds solvers with SetInitial; the benchmark keeps no copy
	// of the initial state, so peak RSS counts only the solvers.
	field func(pt []int) float64
	colds []time.Duration
	// setups and fills time every solver set-up (NewSolver + SetInitial)
	// and its SetInitial part, wherever in the run it happens.
	setups, fills []time.Duration
	// carry is the state a retired large solver left, which the next
	// rebuild starts from; it is dropped before any Execute runs.
	carry []float64
}

// setUp builds a solver for cfg on the seeded field and times it.
func (sr *solverRun) setUp(cfg nustencil.Config, parent int) (*nustencil.Solver, error) {
	var sol *nustencil.Solver
	var err error
	t0 := time.Now()
	sr.r.sp.do("solver.new", 0, parent, func() { sol, err = nustencil.NewSolver(cfg) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Scheme, err)
	}
	t1 := time.Now()
	sr.r.sp.do("grid.fill", 0, parent, func() { sol.SetInitial(sr.field) })
	sr.setups = append(sr.setups, time.Since(t0))
	sr.fills = append(sr.fills, time.Since(t1))
	return sol, nil
}

// execute runs one Execute of p.steps inside a span and checks its
// update count.
func (sr *solverRun) execute(sol *nustencil.Solver, span, what string, parent int, trace bool) (*nustencil.RunOutput, time.Duration, error) {
	var out *nustencil.RunOutput
	var err error
	t0 := time.Now()
	sr.r.sp.do(span, 0, parent, func() {
		out, err = sol.Execute(sr.ctx, nustencil.RunSpec{Timesteps: sr.p.steps, Trace: trace})
	})
	d := time.Since(t0)
	if !sr.r.op(err) {
		return nil, d, fmt.Errorf("%s: %w", what, err)
	}
	sr.r.op(checkUpdates(what, out.Report.Updates, sr.p))
	return out, d, nil
}

// warmOnce times one warm Execute of st and, on a traced run, pairs it with
// a traced one. The pair's order alternates, since the second Execute of a
// pair finds the grid warm in cache.
func (sr *solverRun) warmOnce(st *varState, parent int) error {
	pair := sr.r.traced && st.v.cfg.Ranks <= 1
	var tout *nustencil.RunOutput
	var dt time.Duration
	var err error
	tracedFirst := pair && len(st.warm)%2 == 1
	if tracedFirst {
		if tout, dt, err = sr.execute(st.sol, "execute.traced", st.v.name+" traced Execute", parent, true); err != nil {
			return err
		}
	}
	out, d, err := sr.execute(st.sol, "execute.warm", st.v.name+" warm Execute", parent, false)
	if err != nil {
		return err
	}
	st.warm = append(st.warm, d)
	st.inside = append(st.inside, out.Report.Seconds)
	if !pair {
		return nil
	}
	if !tracedFirst {
		if tout, dt, err = sr.execute(st.sol, "execute.traced", st.v.name+" traced Execute", parent, true); err != nil {
			return err
		}
	}
	st.traced = tout
	st.overhead = append(st.overhead, dt.Seconds()/d.Seconds()-1)
	return nil
}

// warmTurn times warm Executes of st for d, and at least half of minWarm.
func (sr *solverRun) warmTurn(st *varState, d time.Duration, parent int) error {
	start := time.Now()
	for n := 0; n < (minWarm+1)/2 || time.Since(start) < d; n++ {
		if err := sr.warmOnce(st, parent); err != nil {
			return err
		}
	}
	return nil
}

// rebuild makes a fresh solver for st and runs its first Execute: a
// cold-solve sample when st is nuCORALS, a discarded warm-up otherwise.
// With a carried state the solver starts from it, which on a large grid
// is far cheaper than SetInitial, and is not a timed set-up.
func (sr *solverRun) rebuild(st *varState, parent int) error {
	var sol *nustencil.Solver
	var err error
	if sr.carry != nil {
		if sol, err = nustencil.NewSolver(st.v.cfg); err == nil {
			err = sol.Import(sr.carry)
		}
		sr.carry = nil
		releaseMemory()
	} else {
		sol, err = sr.setUp(st.v.cfg, parent)
	}
	if err != nil {
		return err
	}
	st.sol = sol
	_, d, err := sr.execute(sol, "execute.first", st.v.name+" first Execute", parent, false)
	if err != nil {
		return err
	}
	if st.v.name == "nuCORALS" {
		sr.colds = append(sr.colds, d)
	}
	return nil
}

// largeTurn is how long one warm turn of a large workload lasts: the
// budget shared by every variant's turns.
func largeTurn(r *run, vs []variant) time.Duration {
	return r.budget / time.Duration(largePasses*len(vs))
}

// retire drops st's solver and returns its memory, first keeping its state
// for the next rebuild when carry is set.
func (sr *solverRun) retire(st *varState, carry bool) {
	if carry {
		sr.carry = st.sol.Export(nil)
	}
	st.sol = nil
	releaseMemory()
}

// runSolverWorkload measures a grid workload end to end (untraced) or, on a
// traced run, records spans around every layer call and adds the per-layer
// probes.
func runSolverWorkload(r *run, w solverWorkload) error {
	if r.inject == "undone" {
		return fmt.Errorf("-inject undone applies to serve-mix only")
	}
	p := w.prob
	field := seededField(r.seed, len(p.dims))
	sr := &solverRun{r: r, p: p, ctx: context.Background(), field: field}

	var ref []float64
	var lo, hi float64
	r.sp.do("check.reference", 0, -1, func() {
		init := fill(p.dims, field)
		lo, hi = valueRange(init)
		ref = referenceJacobi(p, init)
	})
	scale := math.Max(math.Abs(lo), math.Abs(hi))

	// Set-up and the checked first Execute of every variant.
	vs := variants(p)
	states := make([]*varState, len(vs))
	var hashes []namedHash
	for vi, v := range vs {
		st := &varState{v: v}
		states[vi] = st
		vid := r.sp.begin("variant."+v.name, 0, -1)
		var err error
		if st.sol, err = sr.setUp(v.cfg, vid); err != nil {
			return err
		}

		var out *nustencil.RunOutput
		t0 := time.Now()
		r.sp.do("execute.first", 0, vid, func() {
			out, err = st.sol.Execute(sr.ctx, nustencil.RunSpec{Timesteps: p.steps})
		})
		first := time.Since(t0)
		if !r.op(err) {
			return fmt.Errorf("%s first Execute: %w", v.name, err)
		}
		if v.name == "nuCORALS" {
			sr.colds = append(sr.colds, first)
		}
		got := out.Report.Updates
		if r.inject == "updates" && vi == 0 {
			got++
		}
		r.op(checkUpdates(v.name+" first Execute", got, p))
		r.sp.do("check.state", 0, vid, func() {
			export := st.sol.Export(nil)
			if r.inject == "cell" && vi == 0 {
				export[len(export)/2] += 1e-6 * math.Max(scale, 1)
			}
			if vi == 0 {
				// The later variants are held to this one bit for bit, so
				// the reference is needed only once.
				r.op(checkAgainstReference(export, ref, scale))
				ref = nil
			}
			r.op(checkMaxPrinciple(export, lo, hi))
			hashes = append(hashes, namedHash{v.name, stateHash(export)})
		})
		if w.large {
			// The first warm turn, on the solver just checked.
			if err := sr.warmTurn(st, largeTurn(r, vs), vid); err != nil {
				return err
			}
			sr.retire(st, vi == len(vs)-1)
		}
		r.sp.end(vid)
	}
	r.op(checkSameState(hashes))

	// Timed warm Executes.
	wid := r.sp.begin("measure", 0, -1)
	if w.large {
		// The later passes, in alternating order, so each variant's
		// samples come from moments spread over the run and a slow or
		// fast stretch of the host weighs on all of them alike. Each turn
		// rebuilds the solver; nuCORALS rebuilds add cold-solve samples.
		for pass := 1; pass < largePasses; pass++ {
			for k := range states {
				st := states[k]
				if pass%2 == 1 {
					st = states[len(states)-1-k]
				}
				if err := sr.rebuild(st, wid); err != nil {
					return err
				}
				if err := sr.warmTurn(st, largeTurn(r, vs), wid); err != nil {
					return err
				}
				sr.retire(st, pass < largePasses-1 || k < len(states)-1)
			}
		}
	} else {
		// Round robin over the resident solvers, one Execute each per
		// round, and one more set-up per round (of each variant in turn,
		// dropped at once), so set-up samples spread over the run as the
		// Executes do; fresh nuCORALS solvers at a third and two thirds of
		// the budget add cold-solve samples.
		cold := &varState{v: vs[0]}
		start := time.Now()
		for round := 0; round < minWarm || time.Since(start) < r.budget; round++ {
			for _, st := range states {
				if err := sr.warmOnce(st, wid); err != nil {
					return err
				}
			}
			if _, err := sr.setUp(vs[round%len(vs)].cfg, wid); err != nil {
				return err
			}
			due := time.Duration(len(sr.colds)) * r.budget / coldSamples
			if len(sr.colds) < coldSamples && time.Since(start) >= due {
				if err := sr.rebuild(cold, wid); err != nil {
					return err
				}
				cold.sol = nil
			}
		}
		for len(sr.colds) < coldSamples {
			if err := sr.rebuild(cold, wid); err != nil {
				return err
			}
			cold.sol = nil
		}
		for _, st := range states {
			st.sol = nil
		}
	}
	r.sp.end(wid)
	releaseMemory()

	for _, st := range states {
		ws := seconds(st.warm)
		fmt.Printf("%-9s %d warm Executes: median %.3fs, min %.3fs, max %.3fs\n",
			st.v.name, len(ws), median(ws), sortedCopy(ws)[0], sortedCopy(ws)[len(ws)-1])
		r.set("gups."+st.v.name, float64(p.updates())/median(ws)/1e9, "Gupdates/s")
		// The rate by the library's own clock, printed beside the outside
		// one: on the distributed path it leaves out the chare scatter.
		r.set("gups."+st.v.name+".report", float64(p.updates())/median(st.inside)/1e9, "Gupdates/s")
	}
	r.set("cold_s", median(seconds(sr.colds)), "s")
	// The set-up of every solver the workload builds, taken as the median
	// single-solver set-up (over every set-up in the run) times the number
	// of solvers.
	r.set("setup_s", median(seconds(sr.setups))*float64(len(vs)), "s")
	// Warm nuCORALS Executes are this workload's requests: their rate and
	// latency are what a caller holding a warm solver sees.
	ws := seconds(states[0].warm)
	sum := 0.0
	for _, s := range ws {
		sum += s
	}
	r.set("serve.jobs_per_s", float64(len(ws))/sum, "1/s")
	r.set("serve.p50_ms", median(ws)*1e3, "ms")
	r.set("serve.p90_ms", percentile(ws, 0.9)*1e3, "ms")

	if !r.traced {
		return nil
	}
	r.set("grid.fill_s", median(seconds(sr.fills)), "s")
	r.set("trace.overhead_pct", 100*median(states[0].overhead), "%")
	for _, st := range states {
		if st.traced != nil {
			r.set("trace.util."+st.v.name, meanUtilization(st.traced.Trace.Summary()), "ratio")
		}
	}
	setSchedCounters(r, states[0].traced.Report)
	if err := writeExecTrace(r, states[0].traced); err != nil {
		return err
	}
	lp := layerProblem{cfg: vs[0].cfg, field: field}
	return runLayerProbes(r, []layerProblem{lp}, vs[len(vs)-1].cfg)
}

// setSchedCounters reports the scheduler's park and empty-poll counts and
// the busy-time imbalance of one traced Execute.
func setSchedCounters(r *run, rep nustencil.Report) {
	var parks, polls int64
	for _, c := range rep.Sched {
		parks += c.Parks
		polls += c.EmptyPolls
	}
	r.set("sched.parks", float64(parks), "count")
	r.set("sched.empty_polls", float64(polls), "count")
	r.set("sched.imbalance", rep.Imbalance, "ratio")
}

// meanUtilization is the workers' mean busy share of the trace span.
func meanUtilization(s nustencil.TraceSummary) float64 {
	if len(s.PerWorker) == 0 {
		return 0
	}
	u := 0.0
	for _, w := range s.PerWorker {
		u += w.Utilization
	}
	return u / float64(len(s.PerWorker))
}

// releaseMemory returns freed solver buffers to the OS before the next
// solver is built, so only one large solver is resident at a time.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
