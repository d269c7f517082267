// Command abrbench is the repository benchmark. One invocation runs one
// seeded workload in this process and prints, as its last line, a JSON
// object with the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run, --trace 1). Every run checks the program's outputs
// against recorded digests and fails on a mismatch.
//
//	go run . --workload fleet-live --seed 3 --seconds 15 --trace 0
//
// See README.md for the workloads, the metrics and what each layer metric
// should move.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

//go:embed digests.json
var recordedDigests []byte

// A run builds its inputs at least setupMinRepeats times and for at least
// setupMinSec before the first timed iteration, and again for at least
// setupStepSec (once at the least) after every timed iteration; setup_s is
// the median build time. Builds take from about a millisecond (the sweep)
// to tens of milliseconds (the edge). Spreading the builds over the whole
// measured window lets host drift move setup_s no more than it moves the
// throughput figures, and a collection before each build keeps the garbage
// of the iteration before it out of the build's time.
const (
	setupMinRepeats = 5
	setupMinSec     = 0.3
	setupStepSec    = 0.01
)

// minIters is the fewest timed iterations a run reports, however long they
// take.
const minIters = 3

// iterResult is one timed iteration of a workload: its wall time, the work
// it completed and the digest of its outputs.
type iterResult struct {
	wall      time.Duration
	events    int64 // chunks delivered: chunk steps, or segment responses at the edge
	sessions  int64 // streaming sessions completed
	requests  int64 // calls a user makes into the system
	attempted int64 // ops attempted (sessions, or requests at the edge)
	failed    int64 // ops that failed
	// latencies holds per-request times where requests are finer than the
	// iteration (the edge); otherwise the iteration wall is the latency.
	latencies []time.Duration
	// workerNS is the time the program's workers had for the iteration:
	// worker count × wall of the parallel phase.
	workerNS int64
	digest   string
}

// workload is one seeded benchmark workload.
type workload interface {
	// run executes one iteration; tr is nil in untraced runs.
	run(tr *tracer) (iterResult, error)
	// reference computes the expected digest for seed without timing it:
	// the canary check and digest recording use it.
	reference(seed int64) (string, error)
	// layers adds the workload's own per-layer metrics after traced
	// iterations.
	layers(tr *tracer, traced int, m metricSet) error
	close()
}

type spec struct {
	name string
	// primary names the throughput metric that measures the tracing
	// overhead and the op behind runtime.alloc_bytes_per_op.
	primary string
	// build makes the workload's inputs and long-lived servers; traced
	// builds add the benchmark's timing wrappers where they must be
	// installed at construction.
	build func(seed int64, traced bool) (workload, error)
}

var specs = []spec{
	{"fleet-live", "events_per_s", newFleetLive},
	{"fleet-restart", "events_per_s", newFleetRestart},
	{"sweep-lookahead", "sessions_per_s", newSweep},
	{"edge-mixed", "requests_per_s", newEdgeMixed},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 15, "measured seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer variant")
		record  = flag.Int("record", 0, "record reference digests for seeds 0..n-1 into -digests")
		digests = flag.String("digests", "abrbench/"+digestFile, "digest table written by -record, relative to the directory the command runs in")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *record, *digests); err != nil {
		fmt.Fprintln(os.Stderr, "abrbench:", err)
		os.Exit(1)
	}
}

func lookupSpec(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func run(name string, seed int64, seconds float64, traced bool, record int, digestsPath string) error {
	sp, err := lookupSpec(name)
	if err != nil {
		return err
	}
	var table digestTable
	if err := json.Unmarshal(recordedDigests, &table); err != nil {
		return fmt.Errorf("parse embedded digests: %w", err)
	}
	if record > 0 {
		return recordDigests(sp, record, digestsPath)
	}
	fmt.Printf("env: %s GOMAXPROCS=%d NumCPU=%d workload=%s seed=%d seconds=%g trace=%v\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), name, seed, seconds, traced)

	check := newDigestCheck(table, name, seed)
	var res result
	if traced {
		res, err = runTraced(sp, seed, seconds, check)
	} else {
		res, err = runUntraced(sp, seed, seconds, check)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("outputs do not match the recorded digests")
	}
	return nil
}

// recordDigests computes and stores the reference digest of seeds 0..n-1.
func recordDigests(sp spec, n int, path string) error {
	table, err := loadDigests(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		table = make(digestTable)
	case err != nil:
		return err
	}
	w, err := sp.build(0, false)
	if err != nil {
		return err
	}
	defer w.close()
	for s := int64(0); s < int64(n); s++ {
		d, err := w.reference(s)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		table.set(sp.name, s, d)
		fmt.Printf("%s seed %d: %s\n", sp.name, s, d)
	}
	return table.save(path)
}

// digestCheck compares iteration digests against the recorded one for the
// run's seed. Seeds without a record must agree across iterations, and the
// run then also checks the canary seed against its record.
type digestCheck struct {
	table    digestTable
	workload string
	want     string
	recorded bool
	first    string
	failures int
}

func newDigestCheck(t digestTable, workload string, seed int64) *digestCheck {
	want, ok := t.lookup(workload, seed)
	return &digestCheck{table: t, workload: workload, want: want, recorded: ok}
}

func (c *digestCheck) iteration(d string) {
	if c.first == "" {
		c.first = d
	}
	exp := c.want
	if !c.recorded {
		exp = c.first
	}
	if d != exp {
		c.failures++
		fmt.Fprintf(os.Stderr, "abrbench: %s digest %s, want %s\n", c.workload, d, exp)
	}
}

// finish runs the canary comparison when the run's seed has no record.
func (c *digestCheck) finish(w workload) error {
	if c.recorded {
		return nil
	}
	want, ok := c.table.lookup(c.workload, canarySeed)
	if !ok {
		return fmt.Errorf("no recorded digest for %s canary seed %d", c.workload, canarySeed)
	}
	got, err := w.reference(canarySeed)
	if err != nil {
		return err
	}
	if got != want {
		c.failures++
		fmt.Fprintf(os.Stderr, "abrbench: %s canary seed %d digest %s, want %s\n", c.workload, canarySeed, got, want)
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// setUp builds the workload, then times more builds until there have been
// setupMinRepeats and setupMinSec, and returns the first build with the
// build times.
func setUp(sp spec, seed int64) (workload, []float64, error) {
	runtime.GC()
	start := time.Now()
	w, err := sp.build(seed, false)
	if err != nil {
		return nil, nil, err
	}
	times := []float64{time.Since(start).Seconds()}
	if times, err = rebuild(sp, seed, times, setupMinRepeats-1, setupMinSec-times[0]); err != nil {
		w.close()
		return nil, nil, err
	}
	return w, times, nil
}

// rebuild times more builds of the workload's inputs, discarding each,
// until there have been at least n and minSec has passed, and appends their
// times to times.
func rebuild(sp spec, seed int64, times []float64, n int, minSec float64) ([]float64, error) {
	for i, total := 0, 0.0; i < n || total < minSec; i, total = i+1, total+times[len(times)-1] {
		runtime.GC()
		start := time.Now()
		w, err := sp.build(seed, false)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		w.close()
	}
	return times, nil
}

func runUntraced(sp spec, seed int64, seconds float64, check *digestCheck) (result, error) {
	w, setupTimes, err := setUp(sp, seed)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	warm, err := w.run(nil)
	if err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	check.iteration(warm.digest)

	var iters []iterResult
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(iters) < minIters || time.Now().Before(deadline) {
		r, err := w.run(nil)
		if err != nil {
			return result{}, err
		}
		check.iteration(r.digest)
		iters = append(iters, r)
		if setupTimes, err = rebuild(sp, seed, setupTimes, 1, setupStepSec); err != nil {
			return result{}, err
		}
	}
	setupSec := median(setupTimes)
	if err := check.finish(w); err != nil {
		return result{}, err
	}

	var evs, sess, reqs, walls []float64
	var lats []time.Duration
	var attempted, failed int64
	for _, r := range iters {
		s := r.wall.Seconds()
		evs = append(evs, float64(r.events)/s)
		sess = append(sess, float64(r.sessions)/s)
		reqs = append(reqs, float64(r.requests)/s)
		walls = append(walls, s*1e3)
		lats = append(lats, r.latencies...)
		attempted += r.attempted
		failed += r.failed
	}
	latMS := walls
	if len(lats) > 0 {
		latMS = make([]float64, len(lats))
		for i, d := range lats {
			latMS[i] = float64(d) / 1e6
		}
	}
	p50, p99 := percentile(latMS, 50), percentile(latMS, 99)
	correct := check.failures == 0
	if !correct {
		failed = attempted
	}
	m := metricSet{}
	m.set("setup_s", setupSec, "s")
	m.set("events_per_s", median(evs), "1/s")
	m.set("sessions_per_s", median(sess), "1/s")
	m.set("requests_per_s", median(reqs), "1/s")
	m.set("latency_p50_ms", p50, "ms")
	m.set("latency_p99_ms", p99, "ms")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	perIter := make([]string, len(iters))
	for i, r := range iters {
		perIter[i] = fmt.Sprintf("%.4g", float64(primaryOps(sp.primary, r))/r.wall.Seconds())
	}
	fmt.Printf("%s per iteration: %s\n", sp.primary, strings.Join(perIter, " "))
	fmt.Printf("%s: %d timed iterations, %d latency samples, %d builds, error_rate %g (%d/%d)\n",
		sp.name, len(iters), len(latMS), len(setupTimes), ratio(failed, attempted), failed, attempted)
	return result{Correct: correct && failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// perLayerNames is every per-layer metric; a workload that does not reach
// a layer reports it as 0.
func perLayerNames() map[string]string {
	names := map[string]string{
		"abr.select.share":                  "ratio",
		"player.residual.share":             "ratio",
		"runtime.alloc_bytes_per_op":        "B",
		"runtime.gc_cycles":                 "count",
		"runtime.gc_cpu_fraction":           "ratio",
		"trace.download.ns_per_call":        "ns",
		"bandwidth.observe.ns_per_call":     "ns",
		"bandwidth.predict.ns_per_call":     "ns",
		"fleet.new_s":                       "s",
		"fleet.checkpoint.write_s":          "s",
		"fleet.checkpoint.bytes":            "B",
		"fleet.checkpoint.periodic":         "count",
		"fleet.interrupt.events":            "count",
		"fleet.resume_s":                    "s",
		"edge.origin.fetches":               "count",
		"edge.origin.fetch_ms_p50":          "ms",
		"edge.origin.fetch_ms_p99":          "ms",
		"edge.origin.bytes":                 "B",
		"dash.origin.handler_us_p50":        "us",
		"edge.cache.hit_ratio":              "ratio",
		"edge.cache.coalesced":              "count",
		"edge.cache.evictions":              "count",
		"edge.hit.latency_us_p50":           "us",
		"bench.trace_overhead.share":        "ratio",
		"bench.traced_minus_untraced.per_s": "1/s",
	}
	for _, s := range benchSchemes {
		names["abr.select.ns_per_call."+s] = "ns"
		names["abr.select.calls."+s] = "count"
		names["abr.new.ns_per_call."+s] = "ns"
	}
	return names
}

// benchSchemes are the schemes the workloads run, in report order.
var benchSchemes = []string{"cava", "bolae-avg", "mpc", "robustmpc", "panda-max-sum", "panda-max-min"}

func runTraced(sp spec, seed int64, seconds float64, check *digestCheck) (result, error) {
	w, err := sp.build(seed, true)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	warm, err := w.run(nil)
	if err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	check.iteration(warm.digest)

	tr := newTracer(seed)
	var plain, traced []iterResult
	var rt runtimeDelta
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(traced) < minIters || time.Now().Before(deadline) {
		before := readRuntime()
		r, err := w.run(nil)
		if err != nil {
			return result{}, err
		}
		rt.add(before, readRuntime())
		check.iteration(r.digest)
		plain = append(plain, r)

		r, err = w.run(tr)
		if err != nil {
			return result{}, fmt.Errorf("traced iteration: %w", err)
		}
		tr.fold()
		check.iteration(r.digest)
		traced = append(traced, r)
	}
	if err := check.finish(w); err != nil {
		return result{}, err
	}

	m := metricSet{}
	units := perLayerNames()
	for n, u := range units {
		m.set(n, 0, u)
	}
	var workerNS, childNS int64
	var attempted, failed, plainOps int64
	for _, r := range traced {
		workerNS += r.workerNS
		attempted += r.attempted
		failed += r.failed
	}
	n := float64(len(traced))
	var selectNS int64
	for _, s := range benchSchemes {
		st := tr.perScheme[s]
		if st == nil {
			continue
		}
		selectNS += st.selectNS
		childNS += st.selectNS + st.newNS
		m.set("abr.select.ns_per_call."+s, perCall(st.selectNS, st.selectCalls), "ns")
		m.set("abr.select.calls."+s, float64(st.selectCalls)/n, "count")
		m.set("abr.new.ns_per_call."+s, perCall(st.newNS, st.sessions), "ns")
	}
	childNS += tr.observed.ns + tr.predicted.ns
	m.set("bandwidth.observe.ns_per_call", perCall(tr.observed.ns, tr.observed.calls), "ns")
	m.set("bandwidth.predict.ns_per_call", perCall(tr.predicted.ns, tr.predicted.calls), "ns")
	if workerNS > 0 {
		m.set("abr.select.share", float64(selectNS)/float64(workerNS), "ratio")
		m.set("player.residual.share", float64(workerNS-childNS)/float64(workerNS), "ratio")
	}

	primary := func(rs []iterResult) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, float64(primaryOps(sp.primary, r))/r.wall.Seconds())
		}
		return median(xs)
	}
	for _, r := range plain {
		plainOps += primaryOps(sp.primary, r)
	}
	untracedRate, tracedRate := primary(plain), primary(traced)
	m.set("bench.trace_overhead.share", 1-tracedRate/untracedRate, "ratio")
	m.set("bench.traced_minus_untraced.per_s", tracedRate-untracedRate, "1/s")
	m.set("runtime.alloc_bytes_per_op", rt.allocBytes/float64(plainOps), "B")
	m.set("runtime.gc_cycles", rt.gcCycles/float64(len(plain)), "count")
	if rt.cpuTotal > 0 {
		m.set("runtime.gc_cpu_fraction", rt.cpuGC/rt.cpuTotal, "ratio")
	}
	if err := w.layers(tr, len(traced), m); err != nil {
		return result{}, err
	}
	for name := range m {
		if _, ok := units[name]; !ok {
			return result{}, fmt.Errorf("workload reported undeclared metric %q", name)
		}
	}
	path, err := tr.write(outDir, fmt.Sprintf("%s-seed%d", sp.name, seed))
	if err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("%s traced: %d traced + %d untraced iterations, spans in %s\n", sp.name, len(traced), len(plain), path)
	fmt.Printf("%s traced: %s %.6g untraced, %.6g traced (overhead share %.4f)\n",
		sp.name, sp.primary, untracedRate, tracedRate, 1-tracedRate/untracedRate)
	if sp.name == "sweep-lookahead" {
		fmt.Println("note: the traced sweep sets PredictorFor, which makes the request non-fingerprintable, so it skips the result encode/decode step the untraced sweep runs; part of the overhead figure is that skipped step")
	}
	correct := check.failures == 0
	if !correct {
		failed = attempted
	}
	return result{Correct: correct && failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func primaryOps(metric string, r iterResult) int64 {
	switch metric {
	case "events_per_s":
		return r.events
	case "sessions_per_s":
		return r.sessions
	default:
		return r.requests
	}
}

func perCall(ns, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(ns) / float64(calls)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the linear-interpolation percentile (0–100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
