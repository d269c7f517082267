package oracle

import (
	"testing"

	"cava/internal/abr"
	"cava/internal/core"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/scene"
	"cava/internal/trace"
	"cava/internal/video"
)

func testSetup() (*video.Video, *quality.Table) {
	v := video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi})
	return v, quality.NewTable(v, quality.VMAFPhone)
}

func TestOracleFeasibleOnAmpleLink(t *testing.T) {
	v, qt := testSetup()
	tr := trace.Constant("fast", 50e6, 1200, 1)
	// LambdaSwitch < 0 means pure quality maximization (see Config): with
	// no switch penalty and 10x the top track's bitrate, the oracle must
	// sit at the top track after startup.
	plan, err := Compute(v, tr, qt, Config{LambdaSwitch: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("50 Mbps link infeasible?")
	}
	// The bandwidth never binds, so every chunk must sit at its
	// per-chunk quality argmax. (That is usually the top track, but
	// complex chunks can cross over to 720p: at 1080p the same bits
	// spread over 2.25x the pixels — the per-title-encoding effect.)
	for i := 10; i < v.NumChunks(); i++ {
		got := qt.At(plan.Levels[i], i)
		for l := 0; l < v.NumTracks(); l++ {
			if qt.At(l, i) > got+1e-9 {
				t.Fatalf("chunk %d at level %d (%.2f) but level %d scores %.2f",
					i, plan.Levels[i], got, l, qt.At(l, i))
			}
		}
	}
}

func TestOracleZeroStallWhenFeasible(t *testing.T) {
	v, qt := testSetup()
	for i := 0; i < 4; i++ {
		tr := trace.GenLTE(i)
		plan, err := Compute(v, tr, qt, Config{TimeQuantum: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Feasible {
			continue
		}
		res, err := Replay(v, tr, plan, player.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// The planner's no-stall guarantee must survive the independent
		// player replay (small slack for the startup-phase definition).
		if res.TotalRebufferSec > 1.0 {
			t.Errorf("trace %d: oracle plan stalled %.2fs in replay", i, res.TotalRebufferSec)
		}
	}
}

func TestOracleBeatsOnlineSchemes(t *testing.T) {
	v, qt := testSetup()
	cfg := player.DefaultConfig()
	lambda := 1.0
	score := func(res *player.Result) float64 {
		total := 0.0
		prev := 0.0
		for i, c := range res.Chunks {
			q := qt.At(c.Level, c.Index)
			total += q
			if i > 0 {
				d := q - prev
				if d < 0 {
					d = -d
				}
				total -= lambda * d
			}
			prev = q
		}
		return total
	}
	for i := 0; i < 3; i++ {
		tr := trace.GenLTE(i)
		plan, err := Compute(v, tr, qt, Config{LambdaSwitch: lambda, TimeQuantum: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Feasible {
			continue
		}
		cava := mustSimulate(t, v, tr, core.New(v), cfg)
		// The oracle optimizes its objective with perfect knowledge; an
		// online scheme must not beat it by more than the time-quantization
		// slack.
		if sc, so := score(cava), plan.Objective; sc > so*1.02+10 {
			t.Errorf("trace %d: CAVA objective %.0f above oracle %.0f", i, sc, so)
		}
	}
}

func TestOracleInfeasibleFallsBack(t *testing.T) {
	v, qt := testSetup()
	tr := trace.Constant("starved", 5e4, 4000, 1) // below even track 0
	plan, err := Compute(v, tr, qt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible {
		t.Error("starved link reported feasible")
	}
	for _, l := range plan.Levels {
		if l != 0 {
			t.Fatal("fallback plan not all-lowest")
		}
	}
}

func TestOracleValidatesInputs(t *testing.T) {
	v, qt := testSetup()
	if _, err := Compute(v, &trace.Trace{IntervalSec: 0}, qt, Config{}); err == nil {
		t.Error("bad trace accepted")
	}
	bad := &video.Video{Name: v.Name, ChunkDurSec: v.ChunkDurSec, Complexity: v.Complexity}
	if _, err := Compute(bad, trace.GenLTE(0), qt, Config{}); err == nil {
		t.Error("bad video accepted")
	}
}

func TestOracleQ4Headroom(t *testing.T) {
	// The oracle with quality knowledge should deliver Q4 quality at least
	// matching CAVA's on feasible traces (sanity of the headroom framing).
	v, qt := testSetup()
	cats := scene.ClassifyDefault(v)
	cfg := player.DefaultConfig()
	var oq4, cq4 float64
	n := 0
	for i := 0; i < 3; i++ {
		tr := trace.GenLTE(i)
		plan, err := Compute(v, tr, qt, Config{TimeQuantum: 0.5})
		if err != nil || !plan.Feasible {
			continue
		}
		ores, err := Replay(v, tr, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cres := mustSimulate(t, v, tr, core.New(v), cfg)
		oq4 += metrics.Summarize(ores, qt, cats).AvgQuality
		cq4 += metrics.Summarize(cres, qt, cats).AvgQuality
		n++
	}
	if n > 0 && oq4 < cq4*0.97 {
		t.Errorf("oracle avg quality %.1f below CAVA %.1f", oq4/float64(n), cq4/float64(n))
	}
}

// mustSimulate fails the test on a simulation error; oracle comparison
// fixtures are valid by construction.
func mustSimulate(tb testing.TB, v *video.Video, tr *trace.Trace, algo abr.Algorithm, cfg player.Config) *player.Result {
	tb.Helper()
	res, err := player.Simulate(v, tr, algo, cfg)
	if err != nil {
		tb.Fatalf("Simulate: %v", err)
	}
	return res
}
