package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dgr"
)

// span is one timed call the benchmark made into a layer's public
// function. Spans of one op (or request) share OpID; Parent names the
// enclosing span ("" for the op's own envelope).
type span struct {
	OpID   int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends. A nil
// *tracer records nothing, so untraced runs pass nil. It is locked because
// ops record from their own goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	next  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op allocates a fresh op ID.
func (t *tracer) op() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) record(id int, name, parent, cell string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{OpID: id, Name: name, Parent: parent, Cell: cell,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// write dumps the spans as JSON Lines into dir/name.
func (t *tracer) write(dir, name string) error {
	if t == nil || dir == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// machineRecord is what a traced call sequence New → Eval → Close leaves
// behind: the three call durations, the counters read between Eval and
// Close, and the collector phase spans the machine's own Options.Obs
// export reported.
type machineRecord struct {
	id                 int
	cell, engine       string
	newD, evalD, close time.Duration
	stats              dgr.Stats
	execs              []uint64
	used               int // TotalVertices - FreeVertices after Eval
	phases             phaseTimes
	ok                 bool
}

// phaseTimes sums collector phase spans by name.
type phaseTimes map[string]phaseSum

type phaseSum struct {
	n   int
	dur time.Duration
}

// readPhases parses a machine's span export and sums the collector phases
// (M_R, M_T, sweep). Spans of other kinds are ignored.
func readPhases(m *dgr.Machine) (phaseTimes, error) {
	var buf bytes.Buffer
	if err := m.WriteSpansJSONL(&buf); err != nil {
		return nil, err
	}
	out := phaseTimes{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var s struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Dur  float64 `json:"dur"` // µs
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("span export: %w", err)
		}
		if s.Cat != "collector" {
			continue
		}
		p := out[s.Name]
		p.n++
		p.dur += time.Duration(s.Dur * 1e3)
		out[s.Name] = p
	}
	return out, sc.Err()
}

// layerSet accumulates per-layer metric values by name.
type layerSet map[string]float64

// recordSink collects machine records from op goroutines. An abandoned op
// may still add its record late, so adds are locked.
type recordSink struct {
	mu   sync.Mutex
	recs []machineRecord
}

func (s *recordSink) add(r machineRecord) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
}

func (s *recordSink) all() []machineRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]machineRecord(nil), s.recs...)
}

// machineLayers derives the dgr, graph, sched, reduce and core metrics
// from machine records. Per-op values are means over the records.
func machineLayers(recs []machineRecord, into layerSet) {
	var news, evals, closes []float64
	var st dgr.Stats
	var evalTime time.Duration
	var balance []float64
	var peakUsed int
	n := 0
	for _, r := range recs {
		if !r.ok {
			continue
		}
		n++
		news = append(news, ms(r.newD))
		evals = append(evals, ms(r.evalD))
		closes = append(closes, ms(r.close))
		st = st.Add(r.stats)
		evalTime += r.evalD
		if b := execBalance(r.execs); b > 0 {
			balance = append(balance, b)
		}
		peakUsed = max(peakUsed, r.used)
	}
	if n == 0 {
		return
	}
	per := func(x int64) float64 { return float64(x) / float64(n) }
	into["dgr.new_ms"] = median(news)
	into["dgr.eval_ms"] = median(evals)
	into["dgr.close_ms"] = median(closes)
	into["graph.allocs_per_op"] = per(st.Allocations)
	into["graph.reclaimed_per_op"] = per(st.Reclaimed)
	into["graph.peak_used_vertices"] = float64(peakUsed)
	into["sched.tasks_per_op"] = per(st.TasksExecuted)
	into["sched.tasks_per_s"] = ratio(float64(st.TasksExecuted), evalTime.Seconds())
	into["sched.steals_per_op"] = per(st.Steals)
	into["sched.stolen_per_steal"] = ratio(float64(st.StolenTasks), float64(st.Steals))
	into["sched.idle_polls_per_op"] = per(st.IdlePolls)
	into["sched.exec_balance"] = mean(balance)
	into["sched.remote_share"] = ratio(float64(st.RemoteMessages), float64(st.RemoteMessages+st.LocalMessages))
	into["reduce.rewrites_per_op"] = per(st.Rewrites)
	into["reduce.tasks_per_rewrite"] = ratio(float64(st.ReductionTasks), float64(st.Rewrites))
	into["core.cycles_per_op"] = per(st.Cycles)
	into["core.mt_runs_per_op"] = per(st.MTRuns)
	into["core.mark_share"] = ratio(float64(st.MarkTasks+st.ReturnTasks), float64(st.TasksExecuted))
	into["core.reclaimed_per_cycle"] = ratio(float64(st.Reclaimed), float64(st.Cycles))
	into["core.expunged_per_op"] = per(st.Expunged)
	into["core.retracted_share"] = ratio(float64(st.DeadlockRetracted), float64(st.DeadlockRetracted+st.DeadlockedFound))
}

// phaseLayers sets the mean duration of one M_R, M_T and sweep phase over
// every phase span the records' machines exported.
func phaseLayers(recs []machineRecord, into layerSet) {
	phases := phaseTimes{}
	for _, r := range recs {
		for k, p := range r.phases {
			q := phases[k]
			q.n += p.n
			q.dur += p.dur
			phases[k] = q
		}
	}
	for name, key := range map[string]string{"M_R": "core.mr_ms", "M_T": "core.mt_ms", "sweep": "core.sweep_ms"} {
		if p := phases[name]; p.n > 0 {
			into[key] = ms(p.dur) / float64(p.n)
		}
	}
}

// execBalance is mean/max of per-PE executions: 1 when every PE did the
// same work, 1/PEs when one PE did all of it. 0 when nothing ran.
func execBalance(execs []uint64) float64 {
	var sum, top uint64
	for _, e := range execs {
		sum += e
		top = max(top, e)
	}
	if top == 0 {
		return 0
	}
	return float64(sum) / float64(len(execs)) / float64(top)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// consistency checks, for every traced op, that the timed child calls
// (New, Eval, Close) plus untimed harness time account for the op's wall
// time as the harness measured it: the children must fit inside it. It
// returns the share of wall time no child span covers.
func consistency(samples []opSample, recs []machineRecord) (untimed float64, err error) {
	byID := make(map[int]machineRecord, len(recs))
	for _, r := range recs {
		byID[r.id] = r
	}
	var wall, children time.Duration
	for _, s := range samples {
		r, ok := byID[s.id]
		if s.err != nil || !ok {
			continue
		}
		c := r.newD + r.evalD + r.close
		if c > s.wall {
			return 0, fmt.Errorf("op %d (%s): child spans %v exceed op wall %v", s.id, s.cell, c, s.wall)
		}
		wall += s.wall
		children += c
	}
	if wall == 0 {
		return 0, fmt.Errorf("no traced op to check")
	}
	return ratio(float64(wall-children), float64(wall)), nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
