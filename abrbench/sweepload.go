package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cava/internal/abr"
	"cava/internal/cache"
	"cava/internal/cliutil"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/sim"
	"cava/internal/telemetry"
	"cava/internal/trace"
	"cava/internal/video"
)

const (
	// sweepTraces is the number of seeded LTE traces in one sweep.
	sweepTraces = 10
	// sweepTraceSpace bounds the LTE generator indexes the seed draws from.
	sweepTraceSpace = 10000
	// sweepReplaySessions is how many sweep sessions the traced run
	// replays through trace.DownloadTime.
	sweepReplaySessions = 4
)

// fig8Schemes is the Fig. 8 comparison set.
var fig8Schemes = []string{"cava", "mpc", "robustmpc", "panda-max-sum", "panda-max-min"}

// sweepWorkload is sweep-lookahead: a cold sim.Run of the Fig. 8 set on
// ED-ffmpeg-h264 over seeded LTE traces.
type sweepWorkload struct {
	seed    int64
	video   *video.Video
	traces  []*trace.Trace
	schemes []abr.Scheme
}

func newSweep(seed int64, _ bool) (workload, error) {
	var schemes []abr.Scheme
	for _, n := range fig8Schemes {
		f, err := cliutil.SchemeByName(n)
		if err != nil {
			return nil, err
		}
		schemes = append(schemes, abr.Scheme{Name: n, New: f})
	}
	return &sweepWorkload{
		seed:    seed,
		video:   video.FFmpegVideo(video.OpenTitles[0], video.H264),
		traces:  sweepTracesFor(seed),
		schemes: schemes,
	}, nil
}

// sweepTracesFor draws sweepTraces distinct LTE trace indexes from seed.
func sweepTracesFor(seed int64) []*trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int]bool, sweepTraces)
	out := make([]*trace.Trace, 0, sweepTraces)
	for len(out) < sweepTraces {
		i := rng.Intn(sweepTraceSpace)
		if !seen[i] {
			seen[i] = true
			out = append(out, trace.GenLTE(i))
		}
	}
	return out
}

// request builds a cold sweep: a fresh in-memory cache, so no run replays
// an earlier one, and a per-run registry to count the sessions executed.
func (w *sweepWorkload) request(traces []*trace.Trace, tr *tracer) (sim.Request, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	req := sim.Request{
		Videos:  []*video.Video{w.video},
		Traces:  traces,
		Schemes: w.schemes,
		Metric:  quality.VMAFPhone,
		Workers: runtime.GOMAXPROCS(0),
		Metrics: reg,
		Cache:   cache.New(),
	}
	if tr != nil {
		req.Schemes = make([]abr.Scheme, len(w.schemes))
		for i, sc := range w.schemes {
			req.Schemes[i] = wrapScheme(sc, tr)
		}
		req.PredictorFor = predictorFor(req.Config, tr)
	}
	return req, reg
}

func (w *sweepWorkload) sweep(traces []*trace.Trace, tr *tracer) (*sim.Results, time.Duration, error) {
	req, reg := w.request(traces, tr)
	start := time.Now()
	res, err := sim.Run(req)
	end := time.Now()
	wall := end.Sub(start)
	if tr != nil {
		tr.observe("sim.run", "", "", start, end, true, false)
	}
	if err != nil {
		return nil, 0, err
	}
	want := uint64(len(req.Videos) * len(req.Traces) * len(req.Schemes))
	if got := reg.Counter("sim_sessions_total", "").Value(); got != want {
		return nil, 0, fmt.Errorf("sweep executed %d sessions, want %d: the run was not cold", got, want)
	}
	return res, wall, nil
}

func (w *sweepWorkload) run(tr *tracer) (iterResult, error) {
	res, wall, err := w.sweep(w.traces, tr)
	if err != nil {
		return iterResult{}, err
	}
	var sessions, chunks int64
	for _, ss := range res.Cells {
		for _, s := range ss {
			sessions++
			chunks += int64(len(s.ChunkQualities))
		}
	}
	return iterResult{
		wall:      wall,
		events:    chunks,
		sessions:  sessions,
		requests:  1,
		attempted: sessions,
		workerNS:  int64(runtime.GOMAXPROCS(0)) * int64(wall),
		digest:    sweepDigest(res),
	}, nil
}

func (w *sweepWorkload) reference(seed int64) (string, error) {
	res, _, err := w.sweep(sweepTracesFor(seed), nil)
	if err != nil {
		return "", err
	}
	return sweepDigest(res), nil
}

// layers replays the downloads of a seeded sample of sweep sessions (trace
// offset 0), each re-simulated with player.Simulate and checked to
// reproduce its recorded download times.
func (w *sweepWorkload) layers(tr *tracer, traced int, m metricSet) error {
	rng := rand.New(rand.NewSource(w.seed))
	var pairs []dlPair
	for i := 0; i < sweepReplaySessions; i++ {
		trc := w.traces[rng.Intn(len(w.traces))]
		sc := w.schemes[rng.Intn(len(w.schemes))]
		res, err := player.Simulate(w.video, trc, sc.New(w.video), player.Config{})
		if err != nil {
			return err
		}
		for _, c := range res.Chunks {
			if got := trc.DownloadTime(c.StartTime, c.SizeBits); got != c.DownloadSec {
				return fmt.Errorf("download replay: %s on %s chunk %d takes %v, recorded %v", sc.Name, trc.ID, c.Index, got, c.DownloadSec)
			}
			pairs = append(pairs, dlPair{tr: trc, start: c.StartTime, bits: c.SizeBits})
		}
	}
	m.set("trace.download.ns_per_call", replayDownloads(pairs), "ns")
	return nil
}

func (w *sweepWorkload) close() {}
