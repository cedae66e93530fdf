package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"

	"dgr"
	"dgr/internal/lang"
	"dgr/internal/serve"
)

// The serve_mixed schedule comes in blocks of blockSize requests: one
// deadlocking program at the block's middle, hotPerBlock repeats from the
// hot set (memo hits) and fresh generated programs (memo misses) for the
// rest, in a seeded order. Blocks keep the shares exact and the deadlocks
// evenly spaced, so a run's tail does not depend on how many deadlocks a
// seed happens to draw or whether they bunch up. The shares the server
// sees are still measured.
const (
	serveTenants = 4
	hotPrograms  = 64
	freshPool    = 2700
	blockSize    = 50
	hotPerBlock  = 6

	// nominalRate is the offered load (requests/s) at which latency is
	// reported; p99Limit is the latency limit max_rate_rps must meet.
	nominalRate = 150.0
	p99Limit    = 100 * time.Millisecond
	// The max-rate search probes rates from ladderTop down, ladderStep
	// apart. A probe offers its rate for probeSeconds and at least
	// probeRequests requests (enough for minBeyond samples past p99), and
	// stops at its first refusal, which already fails it. A backlog that
	// grows too slowly to break the limit within a probe is not caught.
	ladderTop     = 10 * nominalRate
	ladderStep    = 1.05
	probeSeconds  = 3
	probeRequests = 1000

	// serveSegment is how many requests one segment of the nominal phase
	// holds for the segment medians: 100 beyond each segment's p90.
	serveSegment = 1000
)

// serveOptions are dgr-serve's flag defaults: 2 workers, 2 deterministic
// PEs per pooled machine, invariant checker on, interpreted engine,
// 256-deep queue, 1024-entry memo cache, 8 in flight per tenant.
func serveOptions() serve.Options {
	return serve.Options{
		Workers: 2, PEs: 2, Seed: 1, Capacity: 1 << 16, Check: true,
		Engine: dgr.EngineInterp, QueueDepth: 256, CacheEntries: 1024,
		DefaultLimits: serve.TenantLimits{MaxInflight: 8},
	}
}

// machineOptions are the options serve.Server gives each pooled machine
// under serveOptions.
func machineOptions() dgr.Options {
	o := serveOptions()
	return dgr.Options{PEs: o.PEs, Seed: o.Seed, Capacity: o.Capacity, Check: o.Check, Engine: o.Engine}
}

type reqKind int

const (
	kindFresh reqKind = iota
	kindHot
	kindDeadlock
)

func (k reqKind) String() string {
	return [...]string{"fresh", "hot", "deadlock"}[k]
}

// serveReq is one scheduled request and its reference outcome.
type serveReq struct {
	tenant string
	src    string
	kind   reqKind
	want   string // rendered reference value (fresh and hot)
}

type genProgram struct {
	src  string
	want string // lang.RefValue, rendered
}

// serveWorkload holds the seeded program sets the schedule draws from.
type serveWorkload struct {
	seed       int64
	hot, fresh []genProgram
}

// newServeMixed generates the hot set and the fresh pool. Generated
// programs repeat; a repeat would be a memo hit, not a fresh request, so
// both sets hold distinct programs and the pool shares none with the hot
// set.
func newServeMixed(seed int64) *serveWorkload {
	g := lang.NewGen(seed, lang.GenConfig{})
	w := &serveWorkload{seed: seed}
	seen := map[string]bool{}
	for len(w.hot) < hotPrograms || len(w.fresh) < freshPool {
		e, src, _ := g.Program()
		if seen[src] {
			continue
		}
		seen[src] = true
		want, ok := lang.RefValue(e, 400_000)
		if !ok {
			panic(fmt.Sprintf("generated program has no reference value: %s", src))
		}
		p := genProgram{src: src, want: strconv.FormatInt(want, 10)}
		if len(w.hot) < hotPrograms {
			w.hot = append(w.hot, p)
		} else {
			w.fresh = append(w.fresh, p)
		}
	}
	return w
}

// schedule returns phase's n requests, block by block. Hot programs and
// the order within a block are seeded draws; fresh programs are taken from
// the pool in order, each phase starting at its own offset; tenants take
// turns.
func (w *serveWorkload) schedule(phase, n int) []serveReq {
	rng := rand.New(rand.NewSource(w.seed*7_919 + int64(phase)))
	next := phase * 397
	out := make([]serveReq, 0, n+blockSize)
	for len(out) < n {
		kinds := make([]reqKind, blockSize-1)
		for i := 0; i < hotPerBlock; i++ {
			kinds[i] = kindHot
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		kinds = slices.Insert(kinds, blockSize/2, kindDeadlock)
		for _, k := range kinds {
			r := serveReq{tenant: fmt.Sprintf("tenant-%d", len(out)%serveTenants), kind: k}
			switch k {
			case kindDeadlock:
				r.src = fmt.Sprintf("let x = x + %d in x", 1+rng.Intn(1000))
			case kindHot:
				p := w.hot[rng.Intn(len(w.hot))]
				r.src, r.want = p.src, p.want
			default:
				p := w.fresh[next%len(w.fresh)]
				next++
				r.src, r.want = p.src, p.want
			}
			out = append(out, r)
		}
	}
	return out[:n]
}

// timing is one open-loop request's timing.
type timing struct {
	due     time.Time
	lag     time.Duration // how late the submission started
	submit  time.Duration // the submit call itself
	latency time.Duration // due time → completion
	err     error         // submit refused the request
}

// errStop, returned by an openLoop submit function, ends the loop before
// that request.
var errStop = errors.New("stop the open loop")

// openLoop issues n requests on a fixed schedule, one every interval,
// from the calling goroutine; one more goroutine waits for completions in
// submission order. submit(i) returns wait, which blocks until request i
// completes and returns the time it took after the submit call returned,
// as the server measured it. Latency is counted from the due time, so a
// stall in submitting delays every request due during it.
func openLoop(n int, interval time.Duration, submit func(i int) (wait func() time.Duration, err error)) []timing {
	type pending struct {
		i    int
		t    timing
		wait func() time.Duration
	}
	out := make([]timing, n)
	queue := make(chan pending, n) // one slot per request: sends never block
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range queue {
			p.t.latency += p.wait()
			out[p.i] = p.t
		}
	}()
	start := time.Now()
	sent := n
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		t0 := time.Now()
		wait, err := submit(i)
		t1 := time.Now()
		if errors.Is(err, errStop) {
			sent = i
			break
		}
		t := timing{due: due, lag: t0.Sub(due), submit: t1.Sub(t0), latency: t1.Sub(due), err: err}
		if err != nil {
			out[i] = t
			continue
		}
		queue <- pending{i: i, t: t, wait: wait}
	}
	close(queue)
	<-done
	return out[:sent]
}

// waitUntil returns at t. A timer wakes up late (by up to about a
// millisecond here), which would add that much to every request's
// latency, so it sleeps until spinWindow before t and yields the processor
// from there until t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

const spinWindow = 1200 * time.Microsecond

// reqResult is one request's timing and checked outcome.
type reqResult struct {
	timing
	kind     reqKind
	hit      bool
	rejected bool
	server   time.Duration // JobView elapsed
	outcome  error         // nil when the outcome matched the reference
}

// phaseResult is what one open-loop phase on a fresh server measured.
type phaseResult struct {
	reqs       []reqResult
	wall       time.Duration // first due time → last completion
	queueMax   int
	recycles   int64
	violations []string
	goDelta    goCounters
}

// runPhase starts a server at dgr-serve's defaults, fills the memo cache
// with the hot set (one request each, checked and tallied like any other),
// then runs reqs as an open loop at rate, stopping at the first refusal if
// stopOnRefusal is set. Outcomes are checked against their references;
// memo hits must be byte-identical to the first result.
func (w *serveWorkload) runPhase(reqs []serveReq, rate float64, t *tally, heap *heapPeak, tr *tracer, stopOnRefusal bool) (phaseResult, error) {
	s := serve.New(serveOptions())
	defer s.Close()
	first := map[string]string{}
	for _, p := range w.hot {
		r := serveReq{tenant: "warm", src: p.src, kind: kindHot, want: p.want}
		j, err := s.Submit(serve.Request{Tenant: r.tenant, Program: r.src})
		var out error
		if err != nil {
			out = err
		} else {
			v, werr := j.Wait(context.Background())
			if werr != nil {
				return phaseResult{}, werr
			}
			out = checkView(r, v, first)
		}
		t.record(fmt.Sprintf("warm program=%q", p.src), out)
	}

	res := phaseResult{}
	views := make([]serve.JobView, len(reqs))
	ids := make([]int, len(reqs))
	g0 := readGoCounters()
	interval := time.Duration(float64(time.Second) / rate)
	refused := false
	timings := openLoop(len(reqs), interval, func(i int) (func() time.Duration, error) {
		if refused && stopOnRefusal {
			return nil, errStop
		}
		ids[i] = tr.op()
		j, err := s.Submit(serve.Request{Tenant: reqs[i].tenant, Program: reqs[i].src})
		if err != nil {
			refused = true
			return nil, err
		}
		return func() time.Duration {
			// Runs on the waiter goroutine, so sampling here stays out of
			// the submit timing.
			<-j.Done()
			views[i] = j.View()
			heap.sample()
			if i%64 == 0 {
				res.queueMax = max(res.queueMax, s.Stats().Queued)
			}
			return time.Duration(views[i].ElapsedUs) * time.Microsecond
		}, nil
	})
	res.goDelta = readGoCounters().sub(g0)
	heap.sample()

	res.reqs = make([]reqResult, len(timings))
	var last time.Time
	for i, tm := range timings {
		r := reqResult{timing: tm, kind: reqs[i].kind}
		if tm.err != nil {
			var se *serve.Error
			r.rejected = errors.As(tm.err, &se) && se.IsRejection()
			r.outcome = fmt.Errorf("submit: %w", tm.err)
		} else {
			r.hit = views[i].CacheHit
			r.server = time.Duration(views[i].ElapsedUs) * time.Microsecond
			r.outcome = checkView(reqs[i], views[i], first)
		}
		if end := tm.due.Add(tm.latency); end.After(last) {
			last = end
		}
		t.record(fmt.Sprintf("request=%d tenant=%s kind=%s program=%q engine=%s", i, reqs[i].tenant, reqs[i].kind, reqs[i].src, dgr.EngineInterp), r.outcome)
		res.reqs[i] = r
		if tm.err == nil {
			start := tm.due.Add(tm.lag)
			tr.record(ids[i], "serve.Server.Submit", "request", reqs[i].kind.String(), start, start.Add(tm.submit))
			tr.record(ids[i], "Job.Wait", "request", reqs[i].kind.String(), start.Add(tm.submit), tm.due.Add(tm.latency))
			tr.record(ids[i], "request", "", reqs[i].kind.String(), tm.due, tm.due.Add(tm.latency))
		}
	}
	if len(timings) > 0 {
		res.wall = last.Sub(timings[0].due)
	}
	st := s.Stats()
	res.queueMax = max(res.queueMax, st.Queued)
	res.recycles = st.Recycles
	res.violations = s.Violations()
	return res, nil
}

// checkView compares a finished job with the request's reference outcome:
// generated programs must render lang.RefValue's value, the first result
// for a program fixes what every later (memo-hit) answer must repeat byte
// for byte, and deadlocking programs must get the deadlock verdict.
func checkView(r serveReq, v serve.JobView, first map[string]string) error {
	if r.kind == kindDeadlock {
		if v.Status == serve.StatusFailed && v.Err != nil && v.Err.Code == serve.CodeDeadlock {
			return nil
		}
		if v.Status == serve.StatusDone {
			return fmt.Errorf("%w: deadlocking program returned %q", errWrong, v.Result.Rendered)
		}
		return fmt.Errorf("status %s: %+v, want the deadlock verdict", v.Status, v.Err)
	}
	if v.Status != serve.StatusDone || v.Result == nil {
		// An error, a false deadlock verdict included, fails the request
		// without being a wrong value.
		return fmt.Errorf("status %s: %+v", v.Status, v.Err)
	}
	got := v.Result.Rendered
	if prev, ok := first[r.src]; ok && got != prev {
		return fmt.Errorf("%w: result %q differs from the first result %q (cache_hit=%v)", errWrong, got, prev, v.CacheHit)
	}
	first[r.src] = got
	if got != r.want {
		return fmt.Errorf("%w: got %q, want %q", errWrong, got, r.want)
	}
	return nil
}

// latencies returns request latencies in ms, with refused requests at
// refused: +Inf where it decides a limit, the phase's length where it is
// reported.
func latencies(reqs []reqResult, refused float64) []float64 {
	out := make([]float64, len(reqs))
	for i, r := range reqs {
		out[i] = ms(r.latency)
		if r.rejected {
			out[i] = refused
		}
	}
	return out
}

// passes reports whether a probe phase met the limit: no rejection, p99
// within p99Limit, and no growing queue (the last quarter's mean latency
// within twice the first quarter's plus 5 ms).
func (p phaseResult) passes() bool {
	lat := latencies(p.reqs, math.Inf(1))
	for _, r := range p.reqs {
		if r.rejected {
			return false
		}
	}
	p99, beyond := percentile(lat, 0.99)
	if beyond < minBeyond || p99 > ms(p99Limit) {
		return false
	}
	q := len(lat) / 4
	return mean(lat[len(lat)-q:]) <= 2*mean(lat[:q])+5
}

// maxRate walks a geometric ladder of rates down from top, step by step,
// and returns the first rate for which passes holds (0 if none down to
// floor does). Walking down, a probe that fails by chance below the true
// limit costs one step; a bisection would lose the whole upper half.
func maxRate(top, floor, step float64, passes func(rate float64) bool) float64 {
	for r := top; r >= floor; r /= step {
		if passes(r) {
			return r
		}
	}
	return 0
}

// serveProbe submits each request twice, one at a time, to a server at
// dgr-serve's defaults (a miss, then a memo hit) and sets the serve.*
// metrics from it: serve.submit_us over all submissions, serve.server_ms
// over misses. Eval workloads use it to price the serving path for their
// own programs.
func serveProbe(reqs []serveReq, tr *tracer, into layerSet) error {
	s := serve.New(serveOptions())
	defer s.Close()
	first := map[string]string{}
	var submit, server []float64
	for _, r := range append(reqs, reqs...) {
		id := tr.op()
		t0 := time.Now()
		j, err := s.Submit(serve.Request{Tenant: r.tenant, Program: r.src})
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("serve probe: submit %q: %w", r.src, err)
		}
		v, err := j.Wait(context.Background())
		t2 := time.Now()
		if err != nil {
			return err
		}
		if err := checkView(r, v, first); err != nil {
			return fmt.Errorf("serve probe %q: %w", r.src, err)
		}
		tr.record(id, "serve.Server.Submit", "request", "probe", t0, t1)
		tr.record(id, "Job.Wait", "request", "probe", t1, t2)
		submit = append(submit, us(t1.Sub(t0)))
		if !v.CacheHit {
			server = append(server, float64(v.ElapsedUs)/1e3)
		}
	}
	n := float64(len(submit))
	st := s.Stats()
	into["serve.submit_us"] = median(submit)
	into["serve.server_ms"] = median(server)
	into["serve.cache_hit_rate"] = ratio(float64(st.Cache.Hits), n)
	into["serve.queue_max"] = float64(st.Queued)
	into["serve.recycles_per_op"] = ratio(float64(st.Recycles), n)
	into["serve.check_violations"] = float64(st.Violations)
	if st.Violations > 0 {
		return fmt.Errorf("%w: serve probe: %d invariant violations: %v", errWrong, st.Violations, s.Violations())
	}
	return nil
}

// runServe runs serve_mixed: set-up (timed setupRepeats times), a warm-up
// phase, then the nominal-rate phase (2/3 of --seconds) and the max-rate
// search. The traced run measures an untraced and a traced nominal phase
// instead of searching, and probes machines with the pool's options.
func runServe(c config) (*report, error) {
	t := &tally{workload: c.workload, seed: c.seed}
	w, setup, err := timeSetup(c.setupRepeats(), func() (*serveWorkload, error) {
		w := newServeMixed(c.seed)
		serve.New(serveOptions()).Close()
		return w, nil
	})
	if err != nil {
		return nil, err
	}
	phase := 0
	runOpts := func(n int, rate float64, t *tally, tr *tracer, stopOnRefusal bool) (phaseResult, map[string]float64, error) {
		phase++
		heap := newHeapPeak()
		p, err := w.runPhase(w.schedule(phase, n), rate, t, heap, tr, stopOnRefusal)
		if err != nil {
			return p, nil, err
		}
		if len(p.violations) > 0 {
			t.wrong++
			fmt.Fprintf(os.Stderr, "FAIL workload=%s seed=%d check violations: %v\n", c.workload, c.seed, p.violations)
		}
		return p, serveMetrics(p, heap.peakMB(), setup), nil
	}
	run := func(n int, rate float64, t *tally, tr *tracer) (phaseResult, map[string]float64, error) {
		return runOpts(n, rate, t, tr, false)
	}
	probeAt := func(n int, rate float64, t *tally) (phaseResult, map[string]float64, error) {
		return runOpts(n, rate, t, nil, true)
	}
	nominal := int(nominalRate * c.seconds * 2 / 3)
	warm := int(nominalRate)
	if c.smoke {
		nominal, warm = 60, 10
	}
	if _, _, err := run(warm, nominalRate, t, nil); err != nil {
		return nil, err
	}

	if !c.trace {
		p, vals, err := run(nominal, nominalRate, t, nil)
		if err != nil {
			return nil, err
		}
		// Capacity probes are scored by pass/fail, not tallied; a wrong
		// outcome in one still makes the run incorrect.
		probes := &tally{workload: c.workload + "/max-rate-probe", seed: c.seed, quiet: true}
		maxRPS := 0.0
		if !c.smoke {
			maxRPS = maxRate(ladderTop, nominalRate/2, ladderStep, func(rate float64) bool {
				p, _, err := probeAt(max(probeRequests, int(rate*probeSeconds)), rate, probes)
				ok := err == nil && p.passes()
				fmt.Fprintf(os.Stderr, "max-rate probe %.1f req/s: pass=%v\n", rate, ok)
				return ok
			})
		}
		r := newReport(t, vals, endToEnd)
		r.Correct = r.Correct && probes.wrong == 0
		var lag []float64
		for _, q := range p.reqs {
			lag = append(lag, ms(q.lag))
		}
		lagP99, _ := tailPercentile(lag, 0.99)
		r.note("nominal rate %.0f req/s, %d requests in segments of %d; generator lag p50 %.3g ms p99 %.3g ms; %s",
			nominalRate, len(p.reqs), serveSegment, median(lag), lagP99, mix(p.reqs))
		r.latencyNote(vals, latencies(p.reqs, ms(p.wall)))
		r.note("not gated: max_rate_rps %.1f req/s, the highest ladder rate with p99 <= %v, no refusal and no growing queue", maxRPS, p99Limit)
		return r, nil
	}

	pu, untraced, err := run(nominal, nominalRate, t, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	p, traced, err := run(nominal, nominalRate, t, tr)
	if err != nil {
		return nil, err
	}
	layers := layerSet{}
	overheads(untraced, traced, layers)
	serveLayers(p, layers)
	layers["go.gc_cycles_per_op"] = traced["go.gc_cycles_per_op"]

	// Machine-level layers: the pool's machines are not reachable from
	// outside, so a probe runs a sample of the schedule's programs, and
	// deadlocking ones, on fresh machines built with the pool's options.
	var srcs []string
	var probe []machineRecord
	for _, r := range w.schedule(0, 64) {
		srcs = append(srcs, r.src)
		if r.kind == kindDeadlock {
			continue
		}
		v, rec, err := runMachine(tr.op(), withObs(machineOptions()), r.src, tr, r.kind.String())
		if err == nil && v.String() != r.want {
			err = fmt.Errorf("%w: got %v, want %s", errWrong, v, r.want)
		}
		if err != nil {
			return nil, fmt.Errorf("machine probe %q: %w", r.src, err)
		}
		probe = append(probe, rec)
	}
	dl, err := deadlockProbe(machineOptions(), []string{"let x = x + 7 in x", "let x = x + 11 in x", "let x = x + 13 in x", "let x = x + 17 in x"}, tr)
	if err != nil {
		return nil, err
	}
	machineLayers(probe, layers)
	phaseLayers(append(probe, dl...), layers)
	engines := perEngine(probe, layers)
	layers["core.deadlock_verdict_ms"] = median(evalTimes(dl))
	if err := frontEnd(srcs, tr, layers); err != nil {
		return nil, err
	}
	r := newReport(t, layers, perLayer)
	r.engineNotes(engines)
	r.note("untraced: %s", mix(pu.reqs))
	r.note("traced: %s", mix(p.reqs))
	return r, tr.write(c.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", c.workload, c.seed))
}

func withObs(o dgr.Options) dgr.Options {
	o.Obs = true
	return o
}

// mix describes the measured request mix of a phase.
func mix(reqs []reqResult) string {
	var hits, deadlocks, rejected, fresh int
	for _, r := range reqs {
		switch {
		case r.rejected:
			rejected++
		case r.kind == kindDeadlock:
			deadlocks++
		case r.hit:
			hits++
		default:
			fresh++
		}
	}
	n := float64(len(reqs))
	return fmt.Sprintf("measured shares: hit %.4f miss %.4f deadlock %.4f rejected %.4f (n=%d)",
		float64(hits)/n, float64(fresh)/n, float64(deadlocks)/n, float64(rejected)/n, len(reqs))
}

// serveMetrics derives the end-to-end metrics of an open-loop phase.
func serveMetrics(p phaseResult, heapPeakMB float64, setup float64) map[string]float64 {
	lat := latencies(p.reqs, ms(p.wall))
	var done []float64
	ok := 0
	for i, r := range p.reqs {
		if !r.rejected {
			done = append(done, lat[i])
		}
		if r.outcome == nil {
			ok++
		}
	}
	n := float64(len(p.reqs))
	// As on the closed loops, the timing metrics are medians over
	// segments, so a slow stretch of the host moves them less.
	p90 := segmentMedian(len(lat), serveSegment, func(lo, hi int) float64 {
		v, _ := percentile(lat[lo:hi], 0.9)
		return v
	})
	p50 := segmentMedian(len(lat), serveSegment, func(lo, hi int) float64 { return median(lat[lo:hi]) })
	geo := segmentMedian(len(done), serveSegment, func(lo, hi int) float64 { return geomean(done[lo:hi]) })
	return map[string]float64{
		"setup_s":             setup,
		"alloc_mb_per_op":     ratio(float64(p.goDelta.allocBytes)/1e6, n),
		"peak_heap_mb":        heapPeakMB,
		"eval_geomean_ms":     geo,
		"evals_per_s":         ratio(float64(ok), p.wall.Seconds()),
		"latency_p50_ms":      p50,
		"latency_p90_ms":      p90,
		"go.gc_cycles_per_op": ratio(float64(p.goDelta.gcCycles), n),
	}
}

// serveLayers sets the serve.* and bench.gen_lag_ms metrics of a phase.
func serveLayers(p phaseResult, into layerSet) {
	var submit, server, lag []float64
	var hits, deadlocks, rejected int
	var lagSum, latSum time.Duration
	for _, r := range p.reqs {
		lag = append(lag, ms(r.lag))
		lagSum += r.lag
		latSum += r.latency
		if r.rejected {
			rejected++
			continue
		}
		submit = append(submit, us(r.submit))
		if r.hit {
			hits++
		} else {
			server = append(server, ms(r.server))
		}
		if r.kind == kindDeadlock {
			deadlocks++
		}
	}
	n := float64(len(p.reqs))
	into["serve.submit_us"] = median(submit)
	into["serve.server_ms"] = median(server) // misses: requests a machine served
	into["serve.cache_hit_rate"] = ratio(float64(hits), n)
	into["serve.deadlock_share"] = ratio(float64(deadlocks), n)
	into["serve.queue_max"] = float64(p.queueMax)
	into["serve.recycles_per_op"] = ratio(float64(p.recycles), n)
	into["serve.rejected_share"] = ratio(float64(rejected), n)
	into["serve.check_violations"] = float64(len(p.violations))
	into["bench.gen_lag_ms"], _ = tailPercentile(lag, 0.99)
	// A request's spans are Submit and the Job wait; the only untimed part
	// of its latency is the generator's lag before submitting.
	into["bench.untimed_share"] = ratio(float64(lagSum), float64(latSum))
}
