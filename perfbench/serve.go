package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nustencil"
	"nustencil/server"
)

// jobKind is one kind of job in the serve-mix: a small problem run on a
// fresh solver by the server.
type jobKind struct {
	name string // metric suffix on serve-mix: gups.<name>
	prob problem
	cfg  nustencil.Config
}

// mixKinds is the serve-mix job mix. Every job takes roughly 10–60 ms, so a
// fresh solver per job puts the time into set-up, plan build, scheduling,
// halo exchange and the server's queue and HTTP layers rather than into
// large-grid bandwidth.
//
// Each job runs on one worker, the dist kind on one worker per rank. With
// two workers, a job fails now and then with a false engine.ErrCycle
// ("dependency cycle in tiling"): the engine's idle consensus misreads a
// worker that has been woken but not yet run, which happens when the
// server's and the clients' goroutines hold the host's two cores. One
// worker cannot be misread so.
//
// There is no record of real job traffic to weigh the kinds by, so every
// kind weighs alike (see drawJobs). The first five are the mix's subject;
// serial, the plain 7-point sweep, is there because every workload
// reports every end-to-end metric, gups.serial among them.
var mixKinds = func() []jobKind {
	k := func(name string, dims []int, order, steps int, cfg nustencil.Config) jobKind {
		cfg.Dims, cfg.Order, cfg.Timesteps = dims, order, steps
		cfg.Workers = max(1, cfg.Ranks)
		return jobKind{name: name, prob: problem{dims: dims, order: order, steps: steps}, cfg: cfg}
	}
	return []jobKind{
		k("nuCORALS", []int{66, 66, 66}, 1, 8, nustencil.Config{Scheme: nustencil.NuCORALS}),
		k("NaiveSSE", []int{50, 50, 50}, 2, 8, nustencil.Config{Scheme: nustencil.Naive}),
		k("nuCATS", []int{42, 42, 42}, 1, 8, nustencil.Config{Scheme: nustencil.NuCATS, Banded: true}),
		k("dist", []int{66, 66, 66}, 1, 8, nustencil.Config{Scheme: nustencil.Naive, Ranks: 2, ChareFactor: 16}),
		k("tiles", []int{258, 258}, 2, 32, nustencil.Config{Scheme: nustencil.NuCORALS}),
		k("serial", []int{50, 50, 50}, 1, 16, nustencil.Config{Scheme: nustencil.Naive}),
	}
}()

// serveTenants is the number of tenants jobs are billed to; tenants are
// drawn from a Zipf distribution, so tenant-0 dominates.
const serveTenants = 8

// pollPeriod is the client's result-polling interval. Latency is taken from
// the server's own submit-to-finish time, so it does not depend on this,
// and with two clients and one executor the executor never waits for a
// poll: the other client's job is already queued. A slower poll keeps the
// clients from taking cycles from the job's two workers.
const pollPeriod = 5 * time.Millisecond

// serveSetups is how many times an untraced run starts and warms up a
// server, each then serving an equal stretch of the measured load; the
// reported set-up time is their median.
const serveSetups = 9

// jobDraw is one pre-drawn job: its kind and tenant.
type jobDraw struct {
	kind   int
	tenant string
}

// drawJobs pre-draws n jobs from seed in rounds that each hold one job of
// every kind in a seeded order, so the kinds weigh alike in any stretch of
// the load; tenants are drawn by Zipf.
func drawJobs(seed int64, n int) []jobDraw {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.5, 1, serveTenants-1)
	out := make([]jobDraw, 0, n)
	for len(out) < n {
		for _, kind := range rng.Perm(len(mixKinds)) {
			if len(out) < n {
				out = append(out, jobDraw{kind: kind, tenant: "tenant-" + strconv.FormatUint(zipf.Uint64(), 10)})
			}
		}
	}
	return out
}

// jobResult is one finished job as the client saw it.
type jobResult struct {
	kind    int
	draw    int // index of the job's draw in the run's job sequence
	state   string
	err     string
	queue   float64 // server-reported seconds
	runSecs float64
	total   float64
	client  time.Duration // submit to observed completion
	retries int
	report  *nustencil.Report
	trace   *nustencil.TraceSummary
	// finished is when the server finished the job: the accepted POST's
	// send time plus the server-reported submit-to-finish seconds, so it
	// does not wait on the client's poll.
	finished time.Time
}

// jobDoc is the part of GET /jobs/{id} the benchmark reads.
type jobDoc struct {
	ID        string  `json:"id"`
	State     string  `json:"state"`
	Error     string  `json:"error"`
	QueueSecs float64 `json:"queue_seconds"`
	RunSecs   float64 `json:"run_seconds"`
	TotalSecs float64 `json:"total_seconds"`
	Result    *struct {
		Report       nustencil.Report        `json:"report"`
		TraceSummary *nustencil.TraceSummary `json:"trace_summary"`
	} `json:"result"`
}

// liveServer is the job server on a loopback listener inside this process.
type liveServer struct {
	srv    *server.Server
	http   *http.Server
	base   string
	client *http.Client
	done   chan struct{}
}

func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	// One executor: with the dist kind's two rank workers, busy threads
	// stay within the host's two cores.
	srv := server.New(server.Config{Executors: 1})
	ls := &liveServer{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		done:   make(chan struct{}),
	}
	go func() {
		defer close(ls.done)
		ls.http.Serve(ln)
	}()
	return ls, nil
}

// stop shuts the listener and the executor down and waits for both.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ls.http.Shutdown(ctx)
	<-ls.done
	ls.srv.Close()
	ls.client.CloseIdleConnections()
}

// drive submits one job and polls it to a terminal state.
func (ls *liveServer) drive(spec server.JobSpec, sp *spans, lane, parent int) (jobResult, error) {
	var res jobResult
	body, err := json.Marshal(spec)
	if err != nil {
		return res, err
	}
	start := time.Now()
	var id string
	var posted time.Time
	sid := sp.begin("serve.submit", lane, parent)
	for id == "" {
		posted = time.Now()
		resp, err := ls.client.Post(ls.base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			sp.end(sid)
			return res, fmt.Errorf("submit: %w", err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var ack struct {
				ID string `json:"id"`
			}
			err = json.NewDecoder(resp.Body).Decode(&ack)
			resp.Body.Close()
			if err != nil {
				sp.end(sid)
				return res, fmt.Errorf("submit: %w", err)
			}
			id = ack.ID
		case http.StatusTooManyRequests:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			res.retries++
			time.Sleep(pollPeriod)
		default:
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			sp.end(sid)
			return res, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		}
	}
	sp.end(sid)
	defer sp.end(sp.begin("serve.poll", lane, parent))
	for {
		resp, err := ls.client.Get(ls.base + "/jobs/" + id)
		if err != nil {
			return res, fmt.Errorf("poll %s: %w", id, err)
		}
		var doc jobDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			return res, fmt.Errorf("poll %s: %w", id, err)
		}
		if doc.State == string(server.Done) || doc.State == string(server.Failed) {
			res.client = time.Since(start)
			res.state, res.err = doc.State, doc.Error
			res.queue, res.runSecs, res.total = doc.QueueSecs, doc.RunSecs, doc.TotalSecs
			res.finished = posted.Add(time.Duration(doc.TotalSecs * float64(time.Second)))
			if doc.Result != nil {
				rep := doc.Result.Report
				res.report = &rep
				res.trace = doc.Result.TraceSummary
			}
			return res, nil
		}
		time.Sleep(pollPeriod)
	}
}

// specFor builds the wire spec of draw d.
func specFor(d jobDraw, traced bool) server.JobSpec {
	k := mixKinds[d.kind]
	return server.JobSpec{
		Tenant:  d.tenant,
		Problem: k.cfg,
		Run:     nustencil.RunSpec{Timesteps: k.prob.steps, Trace: traced},
	}
}

// checkJob verifies a finished job: it reached done, its report counts
// interior cells × steps updates, and it names the scheme the spec asked
// for.
func checkJob(res jobResult) error {
	k := mixKinds[res.kind]
	if res.state != string(server.Done) {
		return fmt.Errorf("job %s ended %q, not done: %s", k.name, res.state, res.err)
	}
	if res.report == nil {
		return fmt.Errorf("job %s: done without a report", k.name)
	}
	if err := checkUpdates("job "+k.name, res.report.Updates, k.prob); err != nil {
		return err
	}
	if res.report.Scheme != k.cfg.Scheme {
		return fmt.Errorf("job %s: report names scheme %q, spec %q", k.name, res.report.Scheme, k.cfg.Scheme)
	}
	return nil
}

// load runs a closed loop of two clients, each waiting for its job before
// sending the next, over the pre-drawn jobs starting at draws[0]. With
// traceOdd every other job runs with execution tracing on. It stops
// submitting when stop reports true and returns every finished job in
// completion order.
func (ls *liveServer) load(r *run, draws []jobDraw, traceOdd bool, stop func(started int) bool, injectUndone bool) ([]jobResult, time.Duration, error) {
	const clients = 2
	var next atomic.Int64
	var mu sync.Mutex
	var out []jobResult
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if stop(i) {
					return
				}
				spec := specFor(draws[i%len(draws)], traceOdd && i%2 == 1)
				if injectUndone && i == 0 {
					// A deadline no job can meet: the job fails, and the
					// done-check must catch it.
					spec.DeadlineMS = 1
				}
				jid := r.sp.begin("serve.job", lane, -1)
				res, err := ls.drive(spec, r.sp, lane, jid)
				r.sp.end(jid)
				res.kind = draws[i%len(draws)].kind
				res.draw = i
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				out = append(out, res)
				mu.Unlock()
			}
		}(1 + c)
	}
	wg.Wait()
	return out, time.Since(start), firstErr
}

// warmupBatch is the fixed, untimed batch run at set-up: one job of each
// kind.
func warmupBatch() []jobDraw {
	out := make([]jobDraw, len(mixKinds))
	for i := range out {
		out[i] = jobDraw{kind: i, tenant: "tenant-0"}
	}
	return out
}

// setUpServer starts the server and runs the warm-up batch through it
// twice, checking every warm-up job. The second round makes each set-up
// long enough (about 0.35 s) to time steadily.
func setUpServer(r *run) (*liveServer, time.Duration, error) {
	t0 := time.Now()
	ls, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	warm := append(warmupBatch(), warmupBatch()...)
	res, _, err := ls.load(r, warm, false, func(i int) bool { return i >= len(warm) }, false)
	if err != nil {
		ls.stop()
		return nil, 0, err
	}
	d := time.Since(t0)
	for _, j := range res {
		r.op(checkJob(j))
	}
	return ls, d, nil
}

// runServeMix measures the job server under the seeded closed-loop mix.
func runServeMix(r *run) error {
	if r.inject == "cell" {
		return errors.New("-inject cell applies to the solver workloads only")
	}
	draws := drawJobs(r.seed, 1<<14)
	budget := r.budget
	stretches := serveSetups
	if r.traced {
		// Half untraced (the server layer's figures and its retained heap,
		// on one server), half with every other job traced (the tracing
		// overhead).
		budget /= 2
		stretches = 1
	}
	// The set-ups are spread over the measured load, which runs in
	// stretches, each on a server just set up: a slow or fast stretch of
	// the host then weighs on set-up and load alike.
	var ls *liveServer
	var setups []time.Duration
	var res []jobResult
	var elapsed time.Duration
	var rounds []float64
	var heap0 runtime.MemStats
	for i := 0; i < stretches; i++ {
		if ls != nil {
			ls.stop()
		}
		var d time.Duration
		var err error
		r.sp.do("serve.setup", 0, -1, func() { ls, d, err = setUpServer(r) })
		if err != nil {
			return err
		}
		setups = append(setups, d)
		if r.traced {
			runtime.GC()
			runtime.ReadMemStats(&heap0)
		}
		part, e, err := ls.load(r, draws[len(res):], false, deadlineStop(budget/time.Duration(stretches)), r.inject == "undone" && i == 0)
		if err != nil {
			ls.stop()
			return err
		}
		for k := range part {
			part[k].draw += len(res)
		}
		rounds = append(rounds, roundSeconds(part)...)
		res = append(res, part...)
		elapsed += e
	}
	defer ls.stop()
	fmt.Printf("server set-ups (s): %.4f\n", seconds(setups))
	r.set("setup_s", median(seconds(setups)), "s")
	if r.traced {
		var heap1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&heap1)
		r.set("serve.heap_kb_per_job", (float64(heap1.HeapAlloc)-float64(heap0.HeapAlloc))/1e3/float64(len(res)), "KB/job")
	}
	if r.inject == "updates" && len(res) > 0 && res[0].report != nil {
		rep := *res[0].report
		rep.Updates++
		res[0].report = &rep
	}
	for _, j := range res {
		r.op(checkJob(j))
	}
	if !r.traced {
		setServeEndToEnd(r, res, elapsed, rounds)
		return nil
	}

	// Every draw twice in a row, led by one of each kind: with every other
	// job traced, each kind then runs traced and untraced alike.
	var paired []jobDraw
	for _, d := range append(warmupBatch(), draws[len(res):]...) {
		paired = append(paired, d, d)
	}
	deadline := deadlineStop(budget)
	atLeastOnePair := func(i int) bool { return deadline(i) && i >= 2*len(mixKinds) }
	tres, _, err := ls.load(r, paired, true, atLeastOnePair, false)
	if err != nil {
		return err
	}
	for _, j := range tres {
		r.op(checkJob(j))
	}
	setServeLayers(r, res)
	// Per kind, the traced jobs' median run time over the untraced ones',
	// averaged over the kinds.
	var over float64
	kinds := 0
	for ki, k := range mixKinds {
		var on, off, us []float64
		for _, j := range tres {
			if j.kind != ki {
				continue
			}
			if j.trace != nil {
				on = append(on, j.runSecs)
				us = append(us, meanUtilization(*j.trace))
			} else {
				off = append(off, j.runSecs)
			}
		}
		if len(on) == 0 || len(off) == 0 {
			continue
		}
		over += median(on)/median(off) - 1
		kinds++
		if k.cfg.Ranks <= 1 && k.name != "tiles" {
			r.set("trace.util."+k.name, median(us), "ratio")
		}
	}
	if kinds > 0 {
		r.set("trace.overhead_pct", 100*over/float64(kinds), "%")
	}
	var parks, polls, imb []float64
	for _, j := range res {
		if j.report == nil || j.report.Sched == nil {
			continue
		}
		var p, e int64
		for _, c := range j.report.Sched {
			p += c.Parks
			e += c.EmptyPolls
		}
		parks = append(parks, float64(p))
		polls = append(polls, float64(e))
		imb = append(imb, j.report.Imbalance)
	}
	r.set("sched.parks", mean(parks), "count")
	r.set("sched.empty_polls", mean(polls), "count")
	r.set("sched.imbalance", median(imb), "ratio")

	var lps []layerProblem
	var distCfg nustencil.Config
	for i, k := range mixKinds {
		if k.cfg.Ranks > 1 {
			distCfg = k.cfg
			continue
		}
		lps = append(lps, layerProblem{cfg: k.cfg, field: seededField(r.seed+int64(i), len(k.prob.dims))})
	}
	return runLayerProbes(r, lps, distCfg)
}

// deadlineStop stops submitting once d has passed since the first call.
func deadlineStop(d time.Duration) func(int) bool {
	var once sync.Once
	var end time.Time
	return func(int) bool {
		once.Do(func() { end = time.Now().Add(d) })
		return time.Now().After(end)
	}
}

// roundSeconds returns, for each round of the mix that res holds whole
// (one done job of every kind) and whose previous round it also holds
// whole, the time the server took to finish it: from the last finish of
// the previous round to its own last finish. The executor runs one job at
// a time and the next is always queued, so that is the time the server
// spends on one job of each kind, queueing and HTTP included.
func roundSeconds(res []jobResult) []float64 {
	type round struct {
		done int
		last time.Time
	}
	rounds := map[int]*round{}
	for _, j := range res {
		if j.state != string(server.Done) {
			continue
		}
		rd := rounds[j.draw/len(mixKinds)]
		if rd == nil {
			rd = &round{}
			rounds[j.draw/len(mixKinds)] = rd
		}
		rd.done++
		if j.finished.After(rd.last) {
			rd.last = j.finished
		}
	}
	var out []float64
	for id, rd := range rounds {
		prev := rounds[id-1]
		if rd.done == len(mixKinds) && prev != nil && prev.done == len(mixKinds) {
			out = append(out, rd.last.Sub(prev.last).Seconds())
		}
	}
	return out
}

// setServeEndToEnd reports the serve-mix's end-to-end metrics: throughput,
// server-reported latency, and per kind the job rate (interior updates per
// second of server run time, which covers the fresh solver's set-up, plan
// and Execute). The nuCORALS kind's median run time is the cold solve.
//
// Throughput is the mix's jobs per round over the median round time, so a
// stretch in which the host or the collector stalls the server weighs as
// one slow round, not in proportion to its length; serve.jobs_per_s.all,
// jobs done over the load's whole time, stands in when a run is too short
// to hold two whole rounds in a row.
func setServeEndToEnd(r *run, res []jobResult, elapsed time.Duration, rounds []float64) {
	done := 0
	for _, j := range res {
		if j.state == string(server.Done) {
			done++
		}
	}
	all := float64(done) / elapsed.Seconds()
	r.set("serve.jobs_per_s.all", all, "1/s")
	r.set("serve.rounds", float64(len(rounds)), "count")
	if len(rounds) > 0 {
		r.set("serve.jobs_per_s", float64(len(mixKinds))/median(rounds), "1/s")
	} else {
		r.set("serve.jobs_per_s", all, "1/s")
	}
	tot := totals(res)
	r.set("serve.p50_ms", median(tot)*1e3, "ms")
	r.set("serve.p90_ms", percentile(tot, 0.9)*1e3, "ms")
	r.set("serve.jobs", float64(len(res)), "count")
	for ki, k := range mixKinds {
		var rates, runs []float64
		for _, j := range res {
			if j.kind == ki && j.runSecs > 0 {
				rates = append(rates, float64(k.prob.updates())/j.runSecs/1e9)
				runs = append(runs, j.runSecs)
			}
		}
		if len(rates) == 0 {
			continue
		}
		r.set("gups."+k.name, median(rates), "Gupdates/s")
		if k.name == "nuCORALS" {
			r.set("cold_s", median(runs), "s")
		}
	}
}

// setServeLayers reports the server layer's split of a job's latency.
func setServeLayers(r *run, res []jobResult) {
	var queue, runs, client []float64
	retries := 0
	for _, j := range res {
		queue = append(queue, j.queue*1e3)
		runs = append(runs, j.runSecs*1e3)
		client = append(client, (j.client.Seconds()-j.total)*1e3)
		retries += j.retries
	}
	r.set("serve.queue_ms", median(queue), "ms")
	r.set("serve.run_ms", median(runs), "ms")
	r.set("serve.client_ms", median(client), "ms")
	r.set("serve.retries_429", float64(retries), "count")
}

func totals(res []jobResult) []float64 {
	out := make([]float64, len(res))
	for i, j := range res {
		out[i] = j.total
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// serveProbe runs a short fixed batch of the mix through a fresh server, so
// a solver workload's traced run reports the server layer too.
func serveProbe(r *run) error {
	ls, err := startServer()
	if err != nil {
		return err
	}
	defer ls.stop()
	draws := drawJobs(r.seed, 4*len(mixKinds))
	var heap0, heap1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heap0)
	res, _, err := ls.load(r, draws, false, func(i int) bool { return i >= len(draws) }, false)
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&heap1)
	for _, j := range res {
		r.op(checkJob(j))
	}
	setServeLayers(r, res)
	r.set("serve.heap_kb_per_job", (float64(heap1.HeapAlloc)-float64(heap0.HeapAlloc))/1e3/float64(len(res)), "KB/job")
	return nil
}
