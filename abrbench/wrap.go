package main

import (
	"time"

	"cava/internal/abr"
	"cava/internal/bandwidth"
	"cava/internal/player"
	"cava/internal/telemetry"
	"cava/internal/trace"
	"cava/internal/video"
)

// callClock accumulates one instance's call count and busy time. Every
// wrapped algorithm or predictor serves a single session, so its clocks (in
// its sessionSpans) are written by one goroutine at a time and read only
// after the run that used it has returned.
type callClock struct {
	calls int64
	ns    int64
}

func (c *callClock) add(start time.Time) time.Time {
	end := time.Now()
	c.calls++
	c.ns += int64(end.Sub(start))
	return end
}

// timedAlgo times Select on one session's algorithm and forwards Name.
// Optional interfaces are kept by the outer wrapper types below, because
// player.StepState detects abr.Delayer and abr.Traced by type assertion.
type timedAlgo struct {
	inner abr.Algorithm
	sess  *sessionSpans
}

func (a *timedAlgo) Name() string { return a.inner.Name() }

func (a *timedAlgo) Select(st abr.State) int {
	start := time.Now()
	level := a.inner.Select(st)
	end := a.sess.sel.add(start)
	a.sess.record("abr.select", start, end)
	return level
}

type timedDelayer struct {
	*timedAlgo
	d abr.Delayer
}

func (a timedDelayer) Delay(st abr.State) float64 { return a.d.Delay(st) }

type timedTraced struct {
	*timedAlgo
	t abr.Traced
}

func (a timedTraced) SetRecorder(rec telemetry.Recorder, session string) {
	a.t.SetRecorder(rec, session)
}

type timedDelayerTraced struct {
	*timedAlgo
	d abr.Delayer
	t abr.Traced
}

func (a timedDelayerTraced) Delay(st abr.State) float64 { return a.d.Delay(st) }

func (a timedDelayerTraced) SetRecorder(rec telemetry.Recorder, session string) {
	a.t.SetRecorder(rec, session)
}

// wrapAlgo returns an Algorithm that times Select on inner and implements
// exactly the optional interfaces inner implements.
func wrapAlgo(inner abr.Algorithm, sess *sessionSpans) abr.Algorithm {
	ta := &timedAlgo{inner: inner, sess: sess}
	d, isDelayer := inner.(abr.Delayer)
	t, isTraced := inner.(abr.Traced)
	switch {
	case isDelayer && isTraced:
		return timedDelayerTraced{ta, d, t}
	case isDelayer:
		return timedDelayer{ta, d}
	case isTraced:
		return timedTraced{ta, t}
	default:
		return ta
	}
}

// wrapScheme returns sc with a factory that times each constructor call and
// wraps the algorithm it builds. Name and Key are kept, so sweep
// fingerprints and fleet checkpoint fingerprints are unchanged.
func wrapScheme(sc abr.Scheme, tr *tracer) abr.Scheme {
	inner := sc.New
	name := sc.Name
	sc.New = func(v *video.Video) abr.Algorithm {
		sess := tr.newSession(name)
		start := time.Now()
		algo := inner(v)
		end := time.Now()
		sess.newNS = int64(end.Sub(start))
		sess.isAlgo = true
		sess.record("abr.new", start, end)
		return wrapAlgo(algo, sess)
	}
	return sc
}

// timedPredictor times one session's bandwidth predictor.
type timedPredictor struct {
	inner bandwidth.Predictor
	sess  *sessionSpans
}

func (p *timedPredictor) ObserveDownload(bits, seconds float64) {
	start := time.Now()
	p.inner.ObserveDownload(bits, seconds)
	p.sess.record("bandwidth.observe", start, p.sess.observe.add(start))
}

func (p *timedPredictor) Predict(now float64) float64 {
	start := time.Now()
	est := p.inner.Predict(now)
	p.sess.record("bandwidth.predict", start, p.sess.predict.add(start))
	return est
}

func (p *timedPredictor) Reset() { p.inner.Reset() }

// predictorFor returns a sim.Request.PredictorFor that gives every session
// the player's default predictor, wrapped for timing.
func predictorFor(base player.Config, tr *tracer) func(*video.Video, *trace.Trace) player.Config {
	return func(*video.Video, *trace.Trace) player.Config {
		cfg := base
		sess := tr.newSession("predictor")
		sess.isPred = true
		cfg.Predictor = &timedPredictor{inner: bandwidth.NewHarmonicMean(bandwidth.DefaultWindow), sess: sess}
		return cfg
	}
}
