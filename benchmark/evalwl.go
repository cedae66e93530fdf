package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dgr"
	"dgr/internal/graph"
	"dgr/internal/lang"
	"dgr/internal/workload"
)

// Bounds on one op. Eval keeps the machine's default 30 s Timeout; the
// harness only bounds its own wait on Close (a parallel machine whose PE
// is stuck never finishes Close) and, as a backstop, the whole op.
const (
	closeBound = 10 * time.Second
	opBound    = 90 * time.Second
)

// evalCell is one program a closed-loop eval op runs, with its reference.
type evalCell struct {
	label  string // "tak/compiled", "gen17/interp", ...
	src    string
	want   int64 // reference value: corpus Want or lang.RefValue
	engine string
}

// evalWorkload is a closed loop of fresh-machine evaluations: each op
// builds a machine, runs Machine.Eval, and closes it.
type evalWorkload struct {
	name    string
	opts    func(engine string) dgr.Options
	cells   []evalCell // one round
	seed    int64
	segment int // ops per segment for the timing medians
}

// deadlockSrc is the knot the deadlock probes evaluate.
const deadlockSrc = "let x = x + 1 in x"

// newEvalParallel: 2-PE parallel machines over {fib, tak, parfib, churn}
// × {interp, compiled}.
func newEvalParallel(seed int64) *evalWorkload {
	w := &evalWorkload{
		name:    "eval_parallel",
		seed:    seed,
		segment: 8, // one round: every cell once
		opts: func(engine string) dgr.Options {
			return dgr.Options{PEs: 2, Parallel: true, Engine: engine}
		},
	}
	for _, name := range []string{"fib", "tak", "parfib", "churn"} {
		p := workload.Programs[name]
		for _, eng := range []string{dgr.EngineInterp, dgr.EngineCompiled} {
			w.cells = append(w.cells, evalCell{label: name + "/" + eng, src: p.Src, want: p.Want, engine: eng})
		}
	}
	return w
}

// shortGenPrograms is how many generated programs one eval_short round
// holds besides the three corpus programs. The slowest 10% of ops set
// latency_p90_ms, so a round needs enough programs that these are many
// programs rather than the few a seed made slowest.
const shortGenPrograms = 509

// warmOps is how many ops of a warm-up round run before timing.
const warmOps = 128

// newEvalShort: deterministic machines at dgr-run's defaults (4 PEs,
// interpreted) over seeded generated programs plus fac, sumsquares and
// primes. Generated programs are checked against lang.RefValue.
func newEvalShort(seed int64) *evalWorkload {
	w := &evalWorkload{
		name:    "eval_short",
		seed:    seed,
		segment: 128, // 12 ops beyond each segment's p90
		opts: func(engine string) dgr.Options {
			return dgr.Options{PEs: 4, Seed: 1, Engine: engine}
		},
	}
	g := lang.NewGen(seed, lang.GenConfig{})
	for i := 0; i < shortGenPrograms; i++ {
		e, src, _ := g.Program()
		want, ok := lang.RefValue(e, 400_000)
		if !ok {
			// Program() validated e with the same interpreter, so this is a
			// generator bug, not a machine fault.
			panic(fmt.Sprintf("generated program has no reference value: %s", src))
		}
		w.cells = append(w.cells, evalCell{label: fmt.Sprintf("gen%d/interp", i), src: src, want: want, engine: dgr.EngineInterp})
	}
	for _, name := range []string{"fac", "sumsquares", "primes"} {
		p := workload.Programs[name]
		w.cells = append(w.cells, evalCell{label: name + "/interp", src: p.Src, want: p.Want, engine: dgr.EngineInterp})
	}
	return w
}

// round returns round i's cells in a seeded order: every cell once.
func (w *evalWorkload) round(i int) []evalCell {
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(i)))
	out := make([]evalCell, len(w.cells))
	for k, j := range rng.Perm(len(w.cells)) {
		out[k] = w.cells[j]
	}
	return out
}

// ops turns round i into harness ops. With tr non-nil each op records its
// spans and counters into recs.
func (w *evalWorkload) ops(i int, tr *tracer, recs *recordSink) []op {
	cells := w.round(i)
	out := make([]op, len(cells))
	for k, c := range cells {
		id := tr.op()
		out[k] = op{
			id:   id,
			cell: c.label,
			desc: fmt.Sprintf("round=%d cell=%s program=%q", i, c.label, c.src),
			run:  func() error { return w.evalOnce(id, c, tr, recs) },
		}
	}
	return out
}

// evalOnce is one op: New, Eval, Close on a fresh machine, with the
// outcome checked against the cell's reference.
func (w *evalWorkload) evalOnce(id int, c evalCell, tr *tracer, recs *recordSink) error {
	opts := w.opts(c.engine)
	if tr != nil {
		opts.Obs = true
	}
	v, rec, err := runMachine(id, opts, c.src, tr, c.label)
	recs.add(rec)
	if err != nil {
		return err
	}
	if v.Kind != graph.KindInt || v.Int != c.want {
		return fmt.Errorf("%w: got %v, want %d", errWrong, v, c.want)
	}
	return nil
}

// runMachine builds a machine with opts, evaluates src with Machine.Eval
// (never Compile + EvalNode, which would drop Eval's fence against a
// running collector) and closes it, waiting at most closeBound for Close.
// With tr non-nil it records the three calls as spans of one op and
// returns the counters read between Eval and Close.
func runMachine(id int, opts dgr.Options, src string, tr *tracer, cell string) (dgr.Value, machineRecord, error) {
	rec := machineRecord{id: id, cell: cell, engine: opts.Engine}
	t0 := time.Now()
	m := dgr.New(opts)
	t1 := time.Now()
	v, evalErr := m.Eval(src)
	t2 := time.Now()
	if tr != nil {
		rec.stats = m.Stats()
		rec.execs = m.ExecsPerPE()
		rec.used = m.TotalVertices() - m.FreeVertices()
	}
	t3 := time.Now()
	closeErr := runBounded(func() error { m.Close(); return nil }, closeBound)
	t4 := time.Now()
	if tr != nil && closeErr == nil {
		tr.record(id, "dgr.New", "op", cell, t0, t1)
		tr.record(id, "Machine.Eval", "op", cell, t1, t2)
		tr.record(id, "Machine.Close", "op", cell, t3, t4)
		tr.record(id, "op", "", cell, t0, t4)
		rec.newD, rec.evalD, rec.close = t1.Sub(t0), t2.Sub(t1), t4.Sub(t3)
		var perr error
		if rec.phases, perr = readPhases(m); perr != nil {
			return v, rec, perr
		}
	}
	switch {
	case evalErr != nil && closeErr != nil:
		return v, rec, fmt.Errorf("eval: %w; close: %w", evalErr, closeErr)
	case closeErr != nil:
		return v, rec, fmt.Errorf("close: %w", closeErr)
	case evalErr != nil:
		return v, rec, fmt.Errorf("eval: %w", evalErr)
	}
	rec.ok = true
	return v, rec, nil
}

// deadlockProbe evaluates deadlocking programs on machines built with
// opts; each must return the ErrDeadlock verdict. It returns the records
// (eval time = verdict time).
func deadlockProbe(opts dgr.Options, srcs []string, tr *tracer) ([]machineRecord, error) {
	opts.Obs = true
	var recs []machineRecord
	for _, src := range srcs {
		_, rec, err := runMachine(tr.op(), opts, src, tr, "deadlock-probe")
		if !errors.Is(err, dgr.ErrDeadlock) {
			return recs, fmt.Errorf("%w: %q on %+v: got %v, want the deadlock verdict", errWrong, src, opts, err)
		}
		rec.ok = true
		recs = append(recs, rec)
	}
	return recs, nil
}

// frontEnd times lang.Parse, lang.DigestString and lang.Lift on each
// program and sets the lang.* metrics (median µs per program).
func frontEnd(srcs []string, tr *tracer, into layerSet) error {
	var parse, digest, lift []float64
	for _, src := range srcs {
		id := tr.op()
		t0 := time.Now()
		e, err := lang.Parse(src)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("parse %q: %w", src, err)
		}
		if _, err := lang.DigestString(src); err != nil {
			return fmt.Errorf("digest %q: %w", src, err)
		}
		t2 := time.Now()
		if _, err := lang.Lift(e); err != nil {
			return fmt.Errorf("lift %q: %w", src, err)
		}
		t3 := time.Now()
		tr.record(id, "lang.Parse", "", "", t0, t1)
		tr.record(id, "lang.DigestString", "", "", t1, t2)
		tr.record(id, "lang.Lift", "", "", t2, t3)
		parse = append(parse, us(t1.Sub(t0)))
		digest = append(digest, us(t2.Sub(t1)))
		lift = append(lift, us(t3.Sub(t2)))
	}
	into["lang.parse_us"] = median(parse)
	into["lang.digest_us"] = median(digest)
	into["lang.lift_us"] = median(lift)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// distinctSrcs lists the workload's distinct program texts.
func (w *evalWorkload) distinctSrcs() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range w.cells {
		if !seen[c.src] {
			seen[c.src] = true
			out = append(out, c.src)
		}
	}
	return out
}

// setupRepeats is how many times a run sets up (once in a smoke run);
// setup_s is the median. The first set-up of a process runs about twice as
// long as the rest, and the rest vary by ±25% on a shared host, so the
// median needs this many.
func (c config) setupRepeats() int {
	if c.smoke {
		return 1
	}
	return 15
}

// runEval runs a closed-loop eval workload: set-up (timed setupRepeats
// times), warmOps untimed ops, then rounds until --seconds have passed.
// The traced run alternates untraced and traced rounds, and probes the
// layers the op loop does not reach.
func runEval(c config, build func(seed int64) *evalWorkload) (*report, error) {
	t := &tally{workload: c.workload, seed: c.seed}
	w, setup, err := timeSetup(c.setupRepeats(), func() (*evalWorkload, error) {
		w := build(c.seed)
		// One machine of the workload's kind, so lazy set-up shows here.
		_, _, err := runMachine(0, w.opts(dgr.EngineInterp), "1 + 2", nil, "setup")
		return w, err
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if c.smoke {
		w.cells = w.cells[:min(len(w.cells), 8)]
	}
	round := 0
	measure := func(d time.Duration, tr *tracer, recs *recordSink, into *closedPhase) {
		heap := newHeapPeak()
		samples, gaps := runRounds(func(int) []op {
			round++
			return w.ops(round, tr, recs)
		}, time.Now().Add(d), opBound, t, heap)
		into.samples = append(into.samples, samples...)
		into.gaps = append(into.gaps, gaps...)
		into.heap.samples = append(into.heap.samples, heap.samples...)
	}
	// Warm-up: the start of one round, checked and tallied, not timed.
	warm := w.ops(0, nil, nil)
	runRounds(func(int) []op { return warm[:min(len(warm), warmOps)] }, time.Now(), opBound, t, nil)

	if !c.trace {
		var p closedPhase
		measure(secondsDur(c.seconds), nil, nil, &p)
		vals := p.metrics(setup, w.segment)
		r := newReport(t, vals, endToEnd)
		r.note("ops=%d rounds=%d cells/round=%d segment=%d ops", len(p.samples), round, len(w.cells), w.segment)
		if t.hung > 0 {
			r.note("an op was abandoned, so the run stopped measuring there")
		}
		r.latencyNote(vals, okWalls(p.samples))
		return r, nil
	}

	// Untraced and traced rounds alternate, so drift in the host or the
	// heap affects both alike and the overhead ratios compare like with
	// like.
	tr, recs := newTracer(), &recordSink{}
	var pu, pt closedPhase
	for end := time.Now().Add(secondsDur(c.seconds)); time.Now().Before(end) && t.hung == 0; {
		measure(0, nil, nil, &pu)
		measure(0, tr, recs, &pt)
	}
	untraced, traced := pu.metrics(setup, w.segment), pt.metrics(setup, w.segment)
	layers := layerSet{}
	all := recs.all()
	machineLayers(all, layers)
	untimed, cerr := consistency(pt.samples, all)
	layers["bench.untimed_share"] = untimed
	var gapMs []float64
	for _, g := range pt.gaps {
		gapMs = append(gapMs, ms(g))
	}
	layers["bench.gen_lag_ms"], _ = tailPercentile(gapMs, 0.99)
	layers["go.gc_cycles_per_op"] = traced["go.gc_cycles_per_op"]
	overheads(untraced, traced, layers)

	if err := frontEnd(w.distinctSrcs(), tr, layers); err != nil {
		return nil, err
	}
	dl, err := deadlockProbe(w.opts(dgr.EngineInterp), []string{deadlockSrc, deadlockSrc, deadlockSrc}, tr)
	if err != nil {
		return nil, err
	}
	layers["core.deadlock_verdict_ms"] = median(evalTimes(dl))
	phaseLayers(append(all, dl...), layers)
	if err := serveProbe(w.probeRequests(), tr, layers); err != nil {
		return nil, err
	}

	engines := perEngine(all, layers)
	r := newReport(t, layers, perLayer)
	if cerr != nil {
		r.Correct = false
		r.note("consistency: %v", cerr)
	}
	r.engineNotes(engines)
	return r, tr.write(c.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", c.workload, c.seed))
}

// perEngine derives the machine-level metrics of each engine's ops, sets
// "<engine>.<metric>" in into for each of engineMetrics (0 for an engine
// the workload does not run), and returns every engine's full set.
func perEngine(recs []machineRecord, into layerSet) map[string]layerSet {
	out := map[string]layerSet{}
	for _, eng := range []string{dgr.EngineInterp, dgr.EngineCompiled} {
		var mine []machineRecord
		for _, rec := range recs {
			if rec.engine == eng {
				mine = append(mine, rec)
			}
		}
		l := layerSet{}
		machineLayers(mine, l)
		phaseLayers(mine, l)
		for _, k := range engineMetrics {
			into[eng+"."+k] = l[k]
		}
		out[eng] = l
	}
	return out
}

// engineNotes adds every machine-level metric of each engine that ran to
// the notes.
func (r *report) engineNotes(engines map[string]layerSet) {
	for _, eng := range sortedKeys(engines) {
		l := engines[eng]
		if len(l) == 0 {
			continue
		}
		var parts []string
		for _, k := range sortedKeys(l) {
			parts = append(parts, fmt.Sprintf("%s=%.4g", k, l[k]))
		}
		r.note("engine=%s %s", eng, strings.Join(parts, " "))
	}
}

func evalTimes(recs []machineRecord) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.evalD)
	}
	return out
}

// closedPhase accumulates what closed-loop rounds measured.
type closedPhase struct {
	samples []opSample
	gaps    []time.Duration // harness time before each op
	heap    heapPeak
}

// metrics derives the end-to-end metrics of a closed-loop phase. The
// host's speed drifts over seconds, so the timing metrics are medians over
// segments of seg consecutive ops rather than pooled: a slow stretch that
// covers less than half a run does not move them. latency_p90_ms is the
// median of each segment's nearest-rank p90 (on a segment of 8 ops, its
// slowest op). Allocation and GC cycles are per successful op: a failed
// op can run for its whole 30 s budget and allocate gigabytes.
func (p *closedPhase) metrics(setup float64, seg int) map[string]float64 {
	var g goCounters
	n := 0.0
	for _, s := range p.samples {
		if s.err == nil {
			g = g.add(s.g)
			n++
		}
	}
	geo := segmentMedian(len(p.samples), seg, func(lo, hi int) float64 {
		return geomean(okWalls(p.samples[lo:hi]))
	})
	rate := segmentMedian(len(p.samples), seg, func(lo, hi int) float64 {
		var wall time.Duration
		for i := lo; i < hi; i++ {
			wall += p.gaps[i] + p.samples[i].wall
		}
		return ratio(float64(len(okWalls(p.samples[lo:hi]))), wall.Seconds())
	})
	tail := segmentMedian(len(p.samples), seg, func(lo, hi int) float64 {
		v, _ := percentile(okWalls(p.samples[lo:hi]), 0.9)
		return v
	})
	return map[string]float64{
		"setup_s":             setup,
		"alloc_mb_per_op":     ratio(float64(g.allocBytes)/1e6, n),
		"peak_heap_mb":        p.heap.peakMB(),
		"eval_geomean_ms":     geo,
		"evals_per_s":         rate,
		"latency_p50_ms":      cellMedian(p.samples),
		"latency_p90_ms":      tail,
		"go.gc_cycles_per_op": ratio(float64(g.gcCycles), n),
	}
}

// probeRequests is what the serve probe submits for an eval workload: its
// distinct programs (at most 8), each with its reference value.
func (w *evalWorkload) probeRequests() []serveReq {
	seen := map[string]bool{}
	var out []serveReq
	for _, c := range w.cells {
		if seen[c.src] || len(out) == 8 {
			continue
		}
		seen[c.src] = true
		out = append(out, serveReq{tenant: "probe", src: c.src, kind: kindFresh, want: fmt.Sprint(c.want)})
	}
	return out
}
