package main

import (
	"testing"

	"cava/internal/abr"
	"cava/internal/cache"
	"cava/internal/fleet"
	"cava/internal/quality"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

func smallCorpus() ([]*video.Video, []*trace.Trace) {
	videos := []*video.Video{video.YouTubeVideo(video.OpenTitles[0]), video.YouTubeVideo(video.OpenTitles[1])}
	return videos, append(trace.GenLTESet(2), trace.GenFCCSet(2)...)
}

func smallFleet(t *testing.T, sc abr.Scheme) string {
	t.Helper()
	videos, traces := smallCorpus()
	res, err := fleet.Run(fleet.Config{
		Videos: videos, Traces: traces, Scheme: sc,
		Sessions: 6, Workers: 2, RandomTraceOffsets: true, ArrivalRatePerSec: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fleetDigest(res)
}

func smallSweep(t *testing.T, schemes []abr.Scheme, tr *tracer) string {
	t.Helper()
	videos, traces := smallCorpus()
	req := sim.Request{Videos: videos, Traces: traces, Schemes: schemes, Metric: quality.VMAFPhone, Workers: 2, Cache: cache.New()}
	if tr != nil {
		req.PredictorFor = predictorFor(req.Config, tr)
	}
	res, err := sim.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	return sweepDigest(res)
}

// TestWrappedSchemesKeepBehaviour runs every registry scheme bare and
// wrapped for timing, as a fleet and as a sweep with the timed predictor,
// and requires identical output digests.
func TestWrappedSchemesKeepBehaviour(t *testing.T) {
	videos, _ := smallCorpus()
	var bare, wrapped []abr.Scheme
	tr := newTracer(1)
	for _, sc := range sim.SchemeAll() {
		w := wrapScheme(sc, tr)
		bare = append(bare, sc)
		wrapped = append(wrapped, w)

		a, b := sc.New(videos[0]), w.New(videos[0])
		if a.Name() != b.Name() {
			t.Errorf("%s: wrapped Name %q, bare %q", sc.Name, b.Name(), a.Name())
		}
		_, ad := a.(abr.Delayer)
		_, bd := b.(abr.Delayer)
		_, at := a.(abr.Traced)
		_, bt := b.(abr.Traced)
		if ad != bd || at != bt {
			t.Errorf("%s: wrapped Delayer/Traced = %v/%v, bare %v/%v", sc.Name, bd, bt, ad, at)
		}
		if got, want := smallFleet(t, w), smallFleet(t, sc); got != want {
			t.Errorf("%s: wrapped fleet digest %s, bare %s", sc.Name, got, want)
		}
	}
	if got, want := smallSweep(t, wrapped, tr), smallSweep(t, bare, nil); got != want {
		t.Errorf("wrapped sweep digest %s, bare %s", got, want)
	}
	tr.fold()
	if len(tr.perScheme) != len(bare) || tr.observed.calls == 0 || tr.predicted.calls == 0 {
		t.Errorf("tracer saw %d schemes, %d observe and %d predict calls", len(tr.perScheme), tr.observed.calls, tr.predicted.calls)
	}
}

// plainEmbed is the wrapper shape the scheme wrapper must avoid: embedding
// only abr.Algorithm hides every optional interface.
type plainEmbed struct{ abr.Algorithm }

// TestPlainEmbedIsCaught shows the digest comparison above detects a
// wrapper that drops BOLA-E's Delay.
func TestPlainEmbedIsCaught(t *testing.T) {
	for _, sc := range sim.SchemeAll() {
		if sc.Name != "bolae-avg" {
			continue
		}
		inner := sc.New
		hidden := abr.Scheme{Name: sc.Name, New: func(v *video.Video) abr.Algorithm { return plainEmbed{inner(v)} }}
		if smallFleet(t, hidden) == smallFleet(t, sc) {
			t.Fatal("hiding Delay left the fleet digest unchanged; the wrapper test would not catch it")
		}
		return
	}
	t.Fatal("bolae-avg not in the scheme registry")
}
