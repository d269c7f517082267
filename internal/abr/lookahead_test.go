package abr

import (
	"math"
	"math/rand"
	"testing"

	"cava/internal/quality"
	"cava/internal/video"
)

// twinTrack is the ED track the twin video duplicates.
const twinTrack = 2

// twinVideo returns ED (YouTube) with track twinTrack copied byte for byte
// as track twinTrack+1. The mirror image of a sequence (every twin swapped
// for the other) has the same sizes and qualities, so whenever the best
// first track is a twin the other twin ties it, and only the tie rule
// decides.
func twinVideo() *video.Video {
	src := testVideo()
	return &video.Video{
		Name: src.Name, Genre: src.Genre, Codec: src.Codec, Source: src.Source,
		ChunkDurSec: src.ChunkDurSec, Cap: src.Cap, FPS: src.FPS, Complexity: src.Complexity,
		Tracks: append(append([]video.Track(nil), src.Tracks[:twinTrack+1]...), src.Tracks[twinTrack:]...),
	}
}

// twinTable is the metric's table of ED (YouTube) with the twin's row
// duplicated the same way.
func twinTable(m quality.Metric) *quality.Table {
	q := quality.NewTable(testVideo(), m)
	rows := append(append([][]float64(nil), q.Values[:twinTrack+1]...), q.Values[twinTrack:]...)
	return &quality.Table{Metric: m, Values: rows}
}

// lookaheadPair is a scheme under test and its brute-force reference.
type lookaheadPair struct {
	name     string
	got, ref Algorithm
}

// lookaheadPairs builds MPC, RobustMPC and both PANDA/CQ modes over v with
// quality table q, each paired with its reference.
func lookaheadPairs(v *video.Video, q *quality.Table) []lookaheadPair {
	out := []lookaheadPair{
		{name: "mpc", got: NewMPC(v, false)},
		{name: "robustmpc", got: NewMPC(v, true)},
		{name: "panda-max-sum", got: NewPANDACQ(v, q, MaxSum)},
		{name: "panda-max-min", got: NewPANDACQ(v, q, MaxMin)},
	}
	for i := range out {
		out[i].ref = NewReference(out[i].got)
	}
	return out
}

// setHorizonParams gives a pair one horizon, PANDA budget factor and MPC
// penalty setting, the same on both sides.
func setHorizonParams(p lookaheadPair, horizon int, budget, lambda, mu float64) {
	switch g := p.got.(type) {
	case *MPC:
		r := p.ref.(*refMPC)
		g.Horizon, g.LambdaSwitch, g.MuRebuf = horizon, lambda, mu
		r.Horizon, r.LambdaSwitch, r.MuRebuf = horizon, lambda, mu
	case *PANDACQ:
		r := p.ref.(*refPANDACQ)
		g.Horizon, g.BudgetFactor = horizon, budget
		r.Horizon, r.BudgetFactor = horizon, budget
	}
}

// randomHorizon draws a horizon in 1..7, mostly the paper's 5; 6 and 7 are
// rare because the reference's cost grows sixfold per chunk.
func randomHorizon(rng *rand.Rand) int {
	switch x := rng.Float64(); {
	case x < 0.003:
		return 7
	case x < 0.03:
		return 6
	case x < 0.45:
		return 1 + rng.Intn(4)
	}
	return 5
}

// randomLookaheadState draws a decision state biased toward the edges: no
// previous track, the last chunks where the horizon is clipped, an empty or
// full buffer, and absurd, infinite, NaN, zero or negative estimates.
func randomLookaheadState(rng *rand.Rand, v *video.Video, horizon int) State {
	n, tracks := v.NumChunks(), v.NumTracks()
	st := State{ChunkIndex: rng.Intn(n), PrevLevel: rng.Intn(tracks), Playing: rng.Intn(4) > 0}
	if rng.Intn(4) == 0 {
		st.ChunkIndex = n - 1 - rng.Intn(horizon+1)
		if st.ChunkIndex < 0 {
			st.ChunkIndex = 0
		}
	}
	if rng.Intn(5) == 0 {
		st.PrevLevel = -1
	}
	switch x := rng.Intn(20); {
	case x < 3:
		st.Buffer = 0
	case x < 6:
		st.Buffer = 100
	case x < 7:
		st.Buffer = 100 + 50*rng.Float64()
	default:
		st.Buffer = 100 * rng.Float64()
	}
	logUniform := func(lo, hi float64) float64 {
		return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
	}
	switch x := rng.Intn(20); {
	case x < 2:
		st.Est = []float64{1e-3, 1, 100}[rng.Intn(3)]
	case x < 3:
		st.Est = []float64{1e12, 1e15, math.Inf(1), math.NaN()}[rng.Intn(4)]
	case x < 4:
		st.Est = []float64{0, -1e6}[rng.Intn(2)]
	default:
		st.Est = logUniform(1e5, 3e7)
	}
	if rng.Intn(5) > 0 {
		st.LastThroughputBps = logUniform(1e5, 3e7)
	}
	st.Now = float64(st.ChunkIndex) * v.ChunkDurSec
	return st
}

// TestLookaheadMatchesBruteForce compares the pruned search with the
// brute-force reference on random states, for both ED encodes and the twin
// video, with PSNR and VMAF quality tables, horizons 1–7, several PANDA
// budget factors and MPC penalty settings (a negative one disables the
// bound). The twin video must hit full ties, so the tie rule is exercised.
func TestLookaheadMatchesBruteForce(t *testing.T) {
	states := 56000
	if testing.Short() {
		states = 5600
	}
	yt, ff, twin := testVideo(), video.FFmpegVideo(video.OpenTitles[0], video.H264), twinVideo()
	cases := []struct {
		name string
		v    *video.Video
		q    *quality.Table
	}{
		{"ED-youtube/psnr", yt, quality.NewTable(yt, quality.PSNR)},
		{"ED-youtube/vmaf-phone", yt, quality.NewTable(yt, quality.VMAFPhone)},
		{"ED-ffmpeg-h264/psnr", ff, quality.NewTable(ff, quality.PSNR)},
		{"ED-ffmpeg-h264/vmaf-tv", ff, quality.NewTable(ff, quality.VMAFTV)},
		{"twin/psnr", twin, twinTable(quality.PSNR)},
		{"twin/vmaf-phone", twin, twinTable(quality.VMAFPhone)},
	}
	budgets := []float64{0.5, 0.8, 1, 1.25, 2}
	penalties := [][2]float64{{1, 6}, {1, 6}, {1, 6}, {0, 0}, {2.5, 1}, {-1, 6}}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			isTwin := c.v == twin
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			pairs := lookaheadPairs(c.v, c.q)
			var compared, ties int
			horizon := 5
			for s := 0; s < states/len(cases); s++ {
				p := pairs[s%len(pairs)]
				if s%len(pairs) == 0 {
					horizon = randomHorizon(rng)
					pen := penalties[rng.Intn(len(penalties))]
					budget := budgets[rng.Intn(len(budgets))]
					for _, pp := range pairs {
						setHorizonParams(pp, horizon, budget, pen[0], pen[1])
					}
				}
				st := randomLookaheadState(rng, c.v, horizon)
				got, want := p.got.Select(st), p.ref.Select(st)
				compared++
				if got != want {
					t.Fatalf("%s: pruned search chose %d, brute force %d, for %+v (horizon %d)", p.name, got, want, st, horizon)
				}
				// PANDA counts a switch by track index, so the mirror of a
				// sequence ties it only when the previous track is no twin.
				mirrorTies := p.name == "mpc" || p.name == "robustmpc" ||
					(st.PrevLevel != twinTrack && st.PrevLevel != twinTrack+1)
				if isTwin && want == twinTrack && mirrorTies && st.Est > 0 {
					ties++
				}
			}
			t.Logf("%d decisions identical", compared)
			if isTwin && ties < compared/100 {
				t.Errorf("only %d of %d decisions hit a full tie on the twin video", ties, compared)
			}
		})
	}
}

// TestLookaheadSelectAllocatesNothing pins the steady-state Select of every
// lookahead scheme at zero allocations.
func TestLookaheadSelectAllocatesNothing(t *testing.T) {
	v := testVideo()
	rng := rand.New(rand.NewSource(7))
	states := make([]State, 64)
	for i := range states {
		states[i] = randomLookaheadState(rng, v, 5)
	}
	warm := State{ChunkIndex: 40, Buffer: 30, PrevLevel: 2, Est: 2e6, LastThroughputBps: 2e6}
	for _, p := range lookaheadPairs(v, quality.NewTable(v, quality.PSNR)) {
		p.got.Select(warm) // sizes the search buffers for the full horizon
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			p.got.Select(states[i%len(states)])
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: Select allocates %v times per call, want 0", p.name, allocs)
		}
	}
}
