package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileLeavesTenBeyondP99(t *testing.T) {
	v, beyond := percentile(seq(1000), 0.99)
	if v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	// 1000 samples carry a p99 with ten beyond it; 999 do not, so the
	// reported tail moves down to the highest percentile that does.
	if _, used := tailPercentile(seq(1000), 0.99); used != 0.99 {
		t.Fatalf("1000 samples: used p%v, want p99", used*100)
	}
	for _, n := range []int{999, 500, 137, 11} {
		v, used := tailPercentile(seq(n), 0.99)
		if _, beyond := percentile(seq(n), used); beyond != minBeyond {
			t.Errorf("n=%d: tail p%.4g = %v leaves %d beyond, want %d", n, used*100, v, beyond, minBeyond)
		}
	}
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 100}, 10},
		{[]float64{2, 8}, 4},
		{[]float64{5}, 5},
		{nil, 0},
	} {
		if got := geomean(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("geomean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCellMedianIgnoresClusterGaps(t *testing.T) {
	var samples []opSample
	add := func(cell string, msec ...float64) {
		for _, m := range msec {
			samples = append(samples, opSample{cell: cell, wall: time.Duration(m * 1e6)})
		}
	}
	add("a", 10, 11, 12)
	add("b", 100, 101, 102)
	add("c", 1000, 1001, 1002)
	add("d", 5000, 5001, 5002)
	samples = append(samples, opSample{cell: "d", wall: time.Hour, err: errHung})
	if got := cellMedian(samples); got != (101+1001)/2.0 {
		t.Fatalf("cellMedian = %v, want %v", got, (101+1001)/2.0)
	}
}

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	const interval = 5 * time.Millisecond
	const stall = 40 * time.Millisecond
	timings := openLoop(6, interval, func(i int) (func() time.Duration, error) {
		if i == 0 {
			time.Sleep(stall) // the submission of request 0 stalls the generator
		}
		if i == 5 {
			return nil, errors.New("refused")
		}
		return func() time.Duration { return time.Millisecond }, nil
	})
	for i, tm := range timings[:5] {
		// Request i was due at i*interval but could not be sent before the
		// stall ended, so its latency counts the wait from its due time.
		min := stall - time.Duration(i)*interval + time.Millisecond
		if tm.latency < min || tm.err != nil {
			t.Errorf("request %d: latency %v err %v, want >= %v from its due time", i, tm.latency, tm.err, min)
		}
		if i > 0 && tm.lag < stall-time.Duration(i)*interval {
			t.Errorf("request %d: lag %v, want the generator's stall counted", i, tm.lag)
		}
	}
	if timings[5].err == nil {
		t.Error("refused request lost its error")
	}
}

func TestFailureAccounting(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ops := []op{
		{cell: "ok", desc: "ok", run: func() error { return nil }},
		{cell: "err", desc: "err", run: func() error { return errors.New("eval: budget") }},
		{cell: "wrong", desc: "wrong", run: func() error { return fmt.Errorf("%w: got 1, want 2", errWrong) }},
		{cell: "hang", desc: "hang", run: func() error { <-release; return nil }},
		{cell: "ok", desc: "after the hang", run: func() error { return nil }},
	}
	tl := &tally{workload: "test", quiet: true}
	start := time.Now()
	// The deadline is far off: only the abandoned op can end the loop.
	samples, _ := runRounds(func(int) []op { return ops }, time.Now().Add(time.Hour), 50*time.Millisecond, tl, nil)
	if time.Since(start) > 5*time.Second {
		t.Fatalf("a hung op stalled the loop for %v", time.Since(start))
	}
	if tl.attempted != 4 || tl.failed != 3 || tl.wrong != 1 || tl.hung != 1 {
		t.Fatalf("attempted=%d failed=%d wrong=%d hung=%d, want 4, 3, 1, 1: the abandoned op must end the run",
			tl.attempted, tl.failed, tl.wrong, tl.hung)
	}
	if !errors.Is(samples[3].err, errHung) {
		t.Fatalf("hung op recorded as %v, want errHung", samples[3].err)
	}
	if got := okWalls(samples); len(got) != 1 {
		t.Fatalf("%d successful walls, want 1", len(got))
	}
	r := newReport(tl, map[string]float64{}, endToEnd)
	if r.Correct || r.Metrics["success_rate"].Value != 0.25 {
		t.Fatalf("report correct=%v success_rate=%v, want false and 0.25", r.Correct, r.Metrics["success_rate"].Value)
	}
}

func TestAllocationIsPerSuccessfulOp(t *testing.T) {
	p := closedPhase{
		samples: []opSample{
			{cell: "a", wall: time.Millisecond, g: goCounters{allocBytes: 2e6, gcCycles: 1}},
			{cell: "a", wall: 40 * time.Second, g: goCounters{allocBytes: 4e9, gcCycles: 900}, err: errHung},
		},
		gaps: make([]time.Duration, 2),
	}
	m := p.metrics(0, 8)
	if m["alloc_mb_per_op"] != 2 || m["go.gc_cycles_per_op"] != 1 {
		t.Fatalf("alloc_mb_per_op=%v go.gc_cycles_per_op=%v, want 2 and 1: a failed op's allocation counted",
			m["alloc_mb_per_op"], m["go.gc_cycles_per_op"])
	}
}

func TestSameSeedSameOps(t *testing.T) {
	labels := func(w *evalWorkload, round int) (out []string) {
		for _, c := range w.round(round) {
			out = append(out, c.label+"|"+c.src)
		}
		return out
	}
	for name, build := range map[string]func(int64) *evalWorkload{"eval_parallel": newEvalParallel, "eval_short": newEvalShort} {
		a, b, c := build(7), build(7), build(8)
		if !reflect.DeepEqual(labels(a, 3), labels(b, 3)) {
			t.Errorf("%s: seed 7 gave two op sequences", name)
		}
		if reflect.DeepEqual(labels(a, 3), labels(c, 3)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", name)
		}
	}
	a, b, c := newServeMixed(7).schedule(2, 500), newServeMixed(7).schedule(2, 500), newServeMixed(8).schedule(2, 500)
	if !reflect.DeepEqual(a, b) {
		t.Error("serve_mixed: seed 7 gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("serve_mixed: seeds 7 and 8 gave the same schedule")
	}
	deadlocks := 0
	for _, r := range a {
		if r.kind == kindDeadlock {
			deadlocks++
		}
	}
	if deadlocks != 500/blockSize {
		t.Errorf("serve_mixed: %d deadlocking requests in 500, want %d", deadlocks, 500/blockSize)
	}
}

func TestMaxRateSearch(t *testing.T) {
	for _, knee := range []float64{437, 90} {
		var tried []float64
		got := maxRate(1000, 50, 1.05, func(r float64) bool {
			tried = append(tried, r)
			return r <= knee
		})
		if got > knee || got*1.05 <= knee {
			t.Errorf("knee %v: maxRate = %v, want the last ladder step at or below it", knee, got)
		}
		if tried[0] != 1000 {
			t.Errorf("knee %v: ladder started at %v, want 1000", knee, tried[0])
		}
	}
	// A chance failure just below the knee costs one step, not half the range.
	got := maxRate(1000, 50, 1.05, func(r float64) bool { return r <= 437 && (r > 420 || r < 410) })
	if got < 437/1.05/1.05 {
		t.Errorf("one flaky step: maxRate = %v, want within two steps of 437", got)
	}
	if got := maxRate(1000, 50, 1.05, func(float64) bool { return false }); got != 0 {
		t.Errorf("nothing passes: maxRate = %v, want 0", got)
	}
}

func TestOpenLoopStops(t *testing.T) {
	timings := openLoop(100, time.Millisecond, func(i int) (func() time.Duration, error) {
		if i == 7 {
			return nil, errStop
		}
		return func() time.Duration { return 0 }, nil
	})
	if len(timings) != 7 {
		t.Fatalf("%d timings, want the 7 before the stop", len(timings))
	}
}

// TestMetricsMatchBenchmarkJSON checks that the metrics the program
// reports are the ones BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, through the
// real machine and server, and checks that every outcome was correct and
// every metric was reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real workloads")
	}
	for _, name := range []string{"eval_parallel", "eval_short", "serve_mixed"} {
		for _, trace := range []bool{false, true} {
			r, err := workloads[name](config{workload: name, seed: 3, seconds: 0.2, trace: trace, smoke: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !r.Correct || r.Attempted == 0 || len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: correct=%v attempted=%d metrics=%d, want true, >0, %d",
					name, trace, r.Correct, r.Attempted, len(r.Metrics), len(want))
			}
			for _, m := range want {
				if v := r.Metrics[m.name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: %s = %v", name, trace, m.name, v)
				}
			}
		}
	}
}
