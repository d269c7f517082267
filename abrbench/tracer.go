package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanSampleEvery is the inverse sampling rate of full spans: one session
// or request in this many of the first traced iteration keeps every span;
// all others only feed the aggregated counts and durations.
const spanSampleEvery = 64

// span is one recorded interval. ID is the per-session or per-request
// identifier shared by a session's spans; Parent names the enclosing span
// ("" for a root).
type span struct {
	Name    string `json:"name"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans from the benchmark's own wrappers around calls into
// the program. Spans are kept in memory and written out at exit.
//
// Wrapped sessions are folded into per-scheme totals after every traced
// iteration and full spans are kept only until the first fold, so after
// one iteration the tracer grows only by the durations kept for
// percentiles, and does not shift the GC pacing of later iterations.
type tracer struct {
	seed  int64
	epoch time.Time
	// folded is set by the first fold; sampled reports false after it.
	folded atomic.Bool

	mu        sync.Mutex
	nextID    int
	sessions  []*sessionSpans
	spans     []span
	aggs      map[string]*agg
	perScheme map[string]*schemeTotals
	observed  callClock
	predicted callClock
}

// agg is the aggregated record of every call of one span name.
type agg struct {
	Count   int64   `json:"count"`
	TotalNS int64   `json:"total_ns"`
	durs    []int64 // kept only for names whose percentiles are reported
}

func newTracer(seed int64) *tracer {
	return &tracer{seed: seed, epoch: time.Now(), aggs: make(map[string]*agg), perScheme: make(map[string]*schemeTotals)}
}

// sampled reports whether the session or request with this id keeps full
// spans: a seeded hash of the id, so the sample differs across seeds,
// repeats for one, and every layer that sees the id agrees on it.
func (t *tracer) sampled(id string) bool {
	if t.folded.Load() {
		return false
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", t.seed, id)
	return h.Sum64()%spanSampleEvery == 0
}

// sessionSpans collects the calls of one wrapped session (one algorithm or
// predictor instance). Its fields are written by the goroutine running the
// session and folded into the tracer after the run. It holds the call
// clocks itself, not the wrappers, so the wrapped algorithm or predictor
// is freed when the run that used it drops it.
type sessionSpans struct {
	t       *tracer
	id      string
	scheme  string
	keep    bool
	isAlgo  bool
	isPred  bool
	newNS   int64
	sel     callClock
	observe callClock
	predict callClock
	spans   []span
	startNS int64
	endNS   int64
}

// newSession registers a wrapped session under a sequential id. Sessions
// are constructed concurrently, so the id orders constructor calls, not
// fleet session ids.
func (t *tracer) newSession(scheme string) *sessionSpans {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := fmt.Sprintf("s%d", t.nextID)
	t.nextID++
	s := &sessionSpans{t: t, id: id, scheme: scheme, keep: t.sampled(id)}
	t.sessions = append(t.sessions, s)
	return s
}

func (s *sessionSpans) record(name string, start, end time.Time) {
	if !s.keep {
		return
	}
	a, b := int64(start.Sub(s.t.epoch)), int64(end.Sub(s.t.epoch))
	if s.startNS == 0 {
		s.startNS = a
	}
	s.endNS = b
	s.spans = append(s.spans, span{Name: name, ID: s.id, Parent: s.id, StartNS: a, EndNS: b})
}

// observe records one call of name that lasted from start to end, under a
// per-request id; keep selects full-span retention; withDurs keeps the
// duration for percentile reporting.
func (t *tracer) observe(name, id, parent string, start, end time.Time, keep, withDurs bool) {
	d := int64(end.Sub(start))
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg(name)
	a.Count++
	a.TotalNS += d
	if withDurs {
		a.durs = append(a.durs, d)
	}
	if keep {
		t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
			StartNS: int64(start.Sub(t.epoch)), EndNS: int64(end.Sub(t.epoch))})
	}
}

func (t *tracer) agg(name string) *agg {
	a := t.aggs[name]
	if a == nil {
		a = &agg{}
		t.aggs[name] = a
	}
	return a
}

// schemeTotals is the folded per-scheme record of the wrapped sessions.
type schemeTotals struct {
	sessions, selectCalls, selectNS, newNS int64
}

// fold moves every registered session's counters into the per-scheme
// totals and the aggregates, and its sampled spans into the span list, then
// forgets the sessions and stops keeping full spans. Call after each run
// that used the tracer has returned.
func (t *tracer) fold() {
	t.folded.Store(true)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.sessions {
		if s.isAlgo {
			st := t.perScheme[s.scheme]
			if st == nil {
				st = &schemeTotals{}
				t.perScheme[s.scheme] = st
			}
			st.sessions++
			st.selectCalls += s.sel.calls
			st.selectNS += s.sel.ns
			st.newNS += s.newNS
			t.addAgg("abr.select", s.sel)
			t.addAgg("abr.new", callClock{calls: 1, ns: s.newNS})
		}
		if s.isPred {
			t.observed.calls += s.observe.calls
			t.observed.ns += s.observe.ns
			t.predicted.calls += s.predict.calls
			t.predicted.ns += s.predict.ns
			t.addAgg("bandwidth.observe", s.observe)
			t.addAgg("bandwidth.predict", s.predict)
		}
		if s.keep && len(s.spans) > 0 {
			t.spans = append(t.spans, span{Name: "session", ID: s.id, StartNS: s.startNS, EndNS: s.endNS})
			t.spans = append(t.spans, s.spans...)
		}
	}
	t.sessions = nil
}

func (t *tracer) addAgg(name string, c callClock) {
	a := t.agg(name)
	a.Count += c.calls
	a.TotalNS += c.ns
}

// durations returns the recorded durations of name in nanoseconds.
func (t *tracer) durations(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.aggs[name]; a != nil {
		return append([]int64(nil), a.durs...)
	}
	return nil
}

// write stores the sampled spans (JSON lines, time-ordered) and the
// aggregates of every call under dir.
func (t *tracer) write(dir, stem string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].StartNS < t.spans[j].StartNS })
	path := filepath.Join(dir, stem+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	raw, err := json.MarshalIndent(t.aggs, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".aggregates.json"), append(raw, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
