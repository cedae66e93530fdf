package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// op is one unit of closed-loop work: a labelled call that reports whether
// its outcome matched the independent reference. A nil error is a correct
// outcome; errWrong marks a wrong value (as opposed to an error or a hang).
type op struct {
	id   int    // tracer op ID (0 when untraced)
	cell string // cell label used for per-cell statistics, e.g. "tak/compiled"
	desc string // program and engine, logged with the seed on failure
	run  func() error
}

// errWrong wraps outcomes that differ from the reference: they fail the
// op and also make the run incorrect.
var errWrong = errors.New("wrong outcome")

// errHung reports an op the harness stopped waiting for.
var errHung = errors.New("op did not finish within its bound; abandoned")

// opSample is the record of one finished (or abandoned) op.
type opSample struct {
	id   int
	cell string
	wall time.Duration
	g    goCounters // Go heap allocation and GC cycles while it ran
	err  error
}

// runBounded runs f and waits at most bound for it. On timeout the
// goroutine running f is abandoned: it may still be blocked (the known
// hang in a parallel machine's Close), and the caller must not reuse
// anything f owns.
func runBounded(f func() error, bound time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	t := time.NewTimer(bound)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return fmt.Errorf("%w (%v)", errHung, bound)
	}
}

// tally counts attempted and failed ops and whether any output was wrong.
// Every op outcome lands here exactly once; nothing is retried or dropped.
type tally struct {
	attempted, failed int
	wrong             int
	hung              int // ops abandoned: the run stops measuring after one
	workload          string
	seed              int64
	quiet             bool // log wrong outcomes only
}

// record accounts one outcome and logs a failure with its seed, program
// and engine.
func (t *tally) record(desc string, err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if errors.Is(err, errHung) {
		t.hung++
	}
	if errors.Is(err, errWrong) {
		t.wrong++
	} else if t.quiet {
		return
	}
	fmt.Fprintf(os.Stderr, "FAIL workload=%s seed=%d %s: %v\n", t.workload, t.seed, desc, err)
}

// runRounds runs rounds of ops in a closed loop with one caller. Each
// round is rounds(i); rounds keep starting until the deadline passes, and a
// started round always completes, so every cell of a round is measured
// equally often. Each op is bounded by bound. An op the harness abandons
// ends the loop at once: it still holds its machine's memory, and its
// stuck PE can keep a processor busy, so nothing measured after it would
// be comparable. It returns the samples and, for each op, the harness
// time since the previous op ended.
func runRounds(rounds func(i int) []op, deadline time.Time, bound time.Duration, t *tally, heap *heapPeak) (samples []opSample, gaps []time.Duration) {
	last := time.Now()
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		for _, o := range rounds(i) {
			heap.sample()
			g0 := readGoCounters()
			t0 := time.Now()
			gaps = append(gaps, t0.Sub(last))
			err := runBounded(o.run, bound)
			last = time.Now()
			t.record(o.desc, err)
			samples = append(samples, opSample{id: o.id, cell: o.cell, wall: last.Sub(t0), g: readGoCounters().sub(g0), err: err})
			if errors.Is(err, errHung) {
				return samples, gaps
			}
		}
	}
	heap.sample()
	return samples, gaps
}

// cellMedian is the median over cells of each cell's median op time (ms),
// taken between the two middle cells when the count is even. Closed-loop
// workloads mix cells whose times differ by up to 30×, so the plain median
// over ops falls in a gap between two cells' clusters and jumps with
// single ops; the median of cell medians does not.
func cellMedian(samples []opSample) float64 {
	byCell := map[string][]float64{}
	for _, s := range samples {
		if s.err == nil {
			byCell[s.cell] = append(byCell[s.cell], ms(s.wall))
		}
	}
	var meds []float64
	for _, xs := range byCell {
		meds = append(meds, median(xs))
	}
	sort.Float64s(meds)
	n := len(meds)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return meds[n/2]
	}
	return (meds[n/2-1] + meds[n/2]) / 2
}

// segmentMedian applies f to consecutive segments [lo, hi) of seg items
// out of n (dropping a partial last one, unless it is the only one) and
// returns the median.
func segmentMedian(n, seg int, f func(lo, hi int) float64) float64 {
	var vs []float64
	for lo := 0; lo+seg <= n; lo += seg {
		vs = append(vs, f(lo, lo+seg))
	}
	if len(vs) == 0 && n > 0 {
		vs = append(vs, f(0, n))
	}
	return median(vs)
}

// okWalls returns the wall times, in ms, of the ops that succeeded.
func okWalls(samples []opSample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.err == nil {
			out = append(out, ms(s.wall))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// geomean is the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// percentile returns the nearest-rank p-quantile of xs and how many
// samples lie above that rank. xs is not modified.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	k = max(0, min(k, len(s)-1))
	return s[k], len(s) - 1 - k
}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailPercentile is the percentile the harness reports as the tail: p
// itself when at least minBeyond samples lie beyond it, otherwise the
// highest percentile that still leaves minBeyond samples beyond it. It
// returns the value and the percentile used.
func tailPercentile(xs []float64, p float64) (v, used float64) {
	n := len(xs)
	if n <= minBeyond {
		v, _ = percentile(xs, 0.5)
		return v, 0.5
	}
	used = p
	if _, beyond := percentile(xs, p); beyond < minBeyond {
		used = float64(n-minBeyond) / float64(n)
	}
	v, _ = percentile(xs, used)
	return v, used
}

// heapPeak samples the live Go heap (as marked by the latest GC) at the
// points the harness chooses: op boundaries in closed loops, request
// completions in the open loop. Its peak is the 90th percentile of the
// samples: a GC cycle that straddles two short-lived machines counts both
// as live, and such cycles come and go with GC timing, so the single
// largest sample would measure that timing rather than the program.
type heapPeak struct {
	s       []metrics.Sample
	samples []float64
}

func newHeapPeak() *heapPeak {
	return &heapPeak{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapPeak) sample() {
	if h == nil {
		return
	}
	metrics.Read(h.s)
	h.samples = append(h.samples, float64(h.s[0].Value.Uint64()))
}

// peakMB is the 90th percentile of the samples, in MB.
func (h *heapPeak) peakMB() float64 {
	v, _ := percentile(h.samples, 0.9)
	return v / 1e6
}

// goCounters reads the Go runtime's cumulative allocation and GC counts.
type goCounters struct {
	allocBytes uint64
	gcCycles   uint64
}

func readGoCounters() goCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return goCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

func (c goCounters) sub(o goCounters) goCounters {
	return goCounters{allocBytes: c.allocBytes - o.allocBytes, gcCycles: c.gcCycles - o.gcCycles}
}

func (c goCounters) add(o goCounters) goCounters {
	return goCounters{allocBytes: c.allocBytes + o.allocBytes, gcCycles: c.gcCycles + o.gcCycles}
}

// timeSetup runs setup n times and returns the median duration in seconds
// with the result of the last run. Each run starts from a collected heap,
// so it does not pay for the previous run's garbage.
func timeSetup[T any](n int, setup func() (T, error)) (T, float64, error) {
	var out T
	var ds []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return out, 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		out = v
	}
	return out, median(ds), nil
}
