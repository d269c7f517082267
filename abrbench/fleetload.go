package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"cava/internal/abr"
	"cava/internal/cliutil"
	"cava/internal/fleet"
	"cava/internal/telemetry"
	"cava/internal/trace"
	"cava/internal/video"
)

const (
	// fleetSessions is the fleet size of both fleet workloads.
	fleetSessions = 6000
	// fleetCorpus is the trace corpus both fleet workloads draw from.
	fleetCorpus = "lte:100,fcc:100"
	// restartArrivalPerSec spreads fleet-restart's arrivals over about
	// twice a session's length, so sessions join and leave the live set
	// throughout the run.
	restartArrivalPerSec = 5
	// restartCheckpointEverySec is fleet-restart's periodic checkpoint
	// interval in wall seconds, short enough that one to three periodic
	// checkpoints precede the cut on a 2-CPU host. The count follows host
	// speed; the traced run reports it (fleet.checkpoint.periodic).
	restartCheckpointEverySec = 0.05
	// replaySessions is how many sessions the traced run replays through
	// trace.DownloadTime.
	replaySessions = 16
)

// outDir holds fleet-restart's checkpoint directories and the traced run's
// span files, inside the checkout the benchmark runs from.
const outDir = ".bench_build/abrbench"

// fleetWorkload is fleet-live (cava, every session live at t=0) or
// fleet-restart (bolae-avg, Poisson arrivals, checkpoint, cut, resume).
type fleetWorkload struct {
	restart bool
	seed    int64
	scheme  abr.Scheme
	videos  []*video.Video
	traces  []*trace.Trace

	// Layer timings summed over traced iterations.
	newNS, ckptWriteNS, resumeNS int64
	ckptBytes, interruptEvents   int64
	// periodic counts the periodic checkpoints of each traced iteration.
	// They fire on wall time, so their number per iteration depends on
	// host speed; a step in fleet-restart throughput can be matched to it.
	periodic []int64
}

func newFleetLive(seed int64, _ bool) (workload, error)    { return newFleet(seed, false) }
func newFleetRestart(seed int64, _ bool) (workload, error) { return newFleet(seed, true) }

func newFleet(seed int64, restart bool) (workload, error) {
	name := "cava"
	if restart {
		name = "bolae-avg"
	}
	f, err := cliutil.SchemeByName(name)
	if err != nil {
		return nil, err
	}
	traces, err := cliutil.ParseCorpus(fleetCorpus)
	if err != nil {
		return nil, err
	}
	videos := []*video.Video{video.YouTubeVideo(video.OpenTitles[0]), video.YouTubeVideo(video.OpenTitles[1])}
	return &fleetWorkload{
		restart: restart, seed: seed,
		scheme: abr.Scheme{Name: name, New: f},
		videos: videos, traces: traces,
	}, nil
}

func (w *fleetWorkload) config(seed int64, tr *tracer) fleet.Config {
	sc := w.scheme
	if tr != nil {
		sc = wrapScheme(sc, tr)
	}
	cfg := fleet.Config{
		Videos: w.videos, Traces: w.traces, Scheme: sc,
		Sessions: fleetSessions, Workers: runtime.GOMAXPROCS(0),
		RandomTraceOffsets: true, Seed: seed,
	}
	if w.restart {
		cfg.ArrivalRatePerSec = restartArrivalPerSec
	}
	return cfg
}

func (w *fleetWorkload) shards() int64 { return int64(min(runtime.GOMAXPROCS(0), fleetSessions)) }

func (w *fleetWorkload) run(tr *tracer) (iterResult, error) {
	if w.restart {
		return w.runRestart(tr)
	}
	cfg := w.config(w.seed, tr)
	start := time.Now()
	e, err := fleet.New(cfg)
	if err != nil {
		return iterResult{}, err
	}
	built := time.Now()
	res, err := e.Run()
	if err != nil {
		return iterResult{}, err
	}
	end := time.Now()
	if tr != nil {
		w.newNS += int64(built.Sub(start))
		tr.observe("fleet.new", "", "", start, built, true, false)
		tr.observe("fleet.run", "", "", built, end, true, false)
	}
	return w.result(res, end.Sub(start), w.shards()*int64(end.Sub(built))), nil
}

// runRestart runs the fleet under RunContext with periodic checkpoints,
// cancels it from CrashHook when a chosen session reaches a chosen chunk,
// resumes from the checkpoint and runs the rest.
func (w *fleetWorkload) runRestart(tr *tracer) (iterResult, error) {
	cfg := w.config(w.seed, tr)
	// The cut: the middle session by id (it arrives mid-run) at half its
	// chunk budget, so about half the run's events precede it.
	target := int32(cfg.Sessions / 2)
	targetChunk := minChunks(w.videos) / 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cutNS atomic.Int64
	cfg.CrashHook = func(id int32, chunk int) {
		if id == target && chunk == targetChunk {
			cutNS.CompareAndSwap(0, time.Now().UnixNano())
			cancel()
		}
	}
	// A registry makes every event an atomic counter update, so only the
	// traced iterations count checkpoints.
	var ckpts *telemetry.Counter
	if tr != nil {
		cfg.Metrics = telemetry.NewRegistry()
		ckpts = cfg.Metrics.Counter("fleet_checkpoints_written_total", "")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return iterResult{}, err
	}
	dir, err := os.MkdirTemp(outDir, "ckpt-")
	if err != nil {
		return iterResult{}, err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	e, err := fleet.New(cfg)
	if err != nil {
		return iterResult{}, err
	}
	built := time.Now()
	partial, err := e.RunContext(ctx, fleet.RunOptions{CheckpointDir: dir, CheckpointEverySec: restartCheckpointEverySec})
	interrupted := time.Now()
	if !errors.Is(err, fleet.ErrInterrupted) {
		return iterResult{}, fmt.Errorf("fleet-restart: cut at session %d chunk %d did not interrupt the run (err %v)", target, targetChunk, err)
	}
	st, err := os.Stat(fleet.CheckpointPath(dir))
	if err != nil {
		return iterResult{}, fmt.Errorf("fleet-restart: no checkpoint after the cut: %w", err)
	}
	if partial.Events <= 0 || partial.Events >= partial.ExpectedEvents {
		return iterResult{}, fmt.Errorf("fleet-restart: cut after %d of %d events, want strictly between", partial.Events, partial.ExpectedEvents)
	}
	cfg.CrashHook = nil
	cfg.Metrics = nil
	e, err = fleet.Resume(cfg, dir)
	if err != nil {
		return iterResult{}, err
	}
	resumed := time.Now()
	res, err := e.Run()
	if err != nil {
		return iterResult{}, err
	}
	end := time.Now()
	if tr != nil {
		cut := time.Unix(0, cutNS.Load())
		w.newNS += int64(built.Sub(start))
		w.ckptWriteNS += int64(interrupted.Sub(cut))
		w.resumeNS += int64(resumed.Sub(interrupted))
		w.ckptBytes += st.Size()
		w.interruptEvents += partial.Events
		// Every write counts, the final one after the cut too.
		w.periodic = append(w.periodic, int64(ckpts.Value())-1)
		tr.observe("fleet.new", "", "", start, built, true, false)
		tr.observe("fleet.run_context", "", "", built, interrupted, true, false)
		tr.observe("fleet.checkpoint.write", "", "fleet.run_context", cut, interrupted, true, false)
		tr.observe("fleet.resume", "", "", interrupted, resumed, true, false)
		tr.observe("fleet.run", "", "", resumed, end, true, false)
	}
	// Resume replays in-flight sessions on one goroutine; the shard
	// passes before and after it use every worker.
	workerNS := w.shards()*int64(interrupted.Sub(built)+end.Sub(resumed)) + int64(resumed.Sub(interrupted))
	return w.result(res, end.Sub(start), workerNS), nil
}

func (w *fleetWorkload) result(res *fleet.Result, wall time.Duration, workerNS int64) iterResult {
	return iterResult{
		wall:      wall,
		events:    res.Events,
		sessions:  int64(res.Completed),
		requests:  1,
		attempted: int64(res.Sessions),
		failed:    int64(len(res.Quarantined)),
		workerNS:  workerNS,
		digest:    fleetDigest(res),
	}
}

// reference is the uninterrupted fleet run for seed; fleet-restart's
// resumed result must match it.
func (w *fleetWorkload) reference(seed int64) (string, error) {
	res, err := fleet.Run(w.config(seed, nil))
	if err != nil {
		return "", err
	}
	return fleetDigest(res), nil
}

func (w *fleetWorkload) layers(tr *tracer, traced int, m metricSet) error {
	n := float64(traced)
	m.set("fleet.new_s", float64(w.newNS)/n/1e9, "s")
	if w.restart {
		m.set("fleet.checkpoint.write_s", float64(w.ckptWriteNS)/n/1e9, "s")
		m.set("fleet.checkpoint.bytes", float64(w.ckptBytes)/n, "B")
		m.set("fleet.interrupt.events", float64(w.interruptEvents)/n, "count")
		m.set("fleet.resume_s", float64(w.resumeNS)/n/1e9, "s")
		var sum int64
		for _, c := range w.periodic {
			sum += c
		}
		m.set("fleet.checkpoint.periodic", float64(sum)/n, "count")
		fmt.Printf("fleet-restart traced: periodic checkpoints per iteration %v\n", w.periodic)
	}
	pairs, err := w.downloadPairs()
	if err != nil {
		return err
	}
	m.set("trace.download.ns_per_call", replayDownloads(pairs), "ns")
	return nil
}

// downloadPairs collects the (trace, offset + StartTime, SizeBits) of every
// chunk of the fleet's first replaySessions sessions. Session draws are
// sequential in id, so these are the same sessions the full fleet runs.
// The fleet does not expose trace offsets, so they are re-drawn here in
// fleet.New's order, and every pair is checked to reproduce the recorded
// download time bit for bit.
func (w *fleetWorkload) downloadPairs() ([]dlPair, error) {
	cfg := w.config(w.seed, nil)
	cfg.Sessions = replaySessions
	cfg.Collect = true
	res, err := fleet.Run(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var pairs []dlPair
	for i := 0; i < cfg.Sessions; i++ {
		v := cfg.Videos[rng.Intn(len(cfg.Videos))]
		tr := cfg.Traces[rng.Intn(len(cfg.Traces))]
		off := rng.Float64() * tr.Duration()
		if cfg.ArrivalRatePerSec > 0 && i > 0 {
			rng.ExpFloat64()
		}
		r := res.Results[i]
		if r.VideoID != v.ID() || r.TraceID != tr.ID {
			return nil, fmt.Errorf("download replay: session %d is (%s, %s), re-drawn (%s, %s)", i, r.VideoID, r.TraceID, v.ID(), tr.ID)
		}
		for _, c := range r.Chunks {
			p := dlPair{tr: tr, start: off + c.StartTime, bits: c.SizeBits}
			if got := tr.DownloadTime(p.start, p.bits); got != c.DownloadSec {
				return nil, fmt.Errorf("download replay: session %d chunk %d takes %v, recorded %v", i, c.Index, got, c.DownloadSec)
			}
			pairs = append(pairs, p)
		}
	}
	return pairs, nil
}

func (w *fleetWorkload) close() {}

func minChunks(vs []*video.Video) int {
	n := vs[0].NumChunks()
	for _, v := range vs[1:] {
		n = min(n, v.NumChunks())
	}
	return n
}

// dlPair is one replayed download: trace, absolute start, size.
type dlPair struct {
	tr    *trace.Trace
	start float64
	bits  float64
}

// dlSink keeps the replayed results live.
var dlSink float64

// replayDownloads times trace.DownloadTime over pairs, repeating the set
// until at least 50 ms have passed, and returns ns per call.
func replayDownloads(pairs []dlPair) float64 {
	if len(pairs) == 0 {
		return 0
	}
	var calls int64
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for _, p := range pairs {
			dlSink += p.tr.DownloadTime(p.start, p.bits)
		}
		calls += int64(len(pairs))
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}
