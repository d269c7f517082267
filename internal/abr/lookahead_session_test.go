package abr_test

import (
	"testing"

	"cava/internal/abr"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/trace"
	"cava/internal/video"
)

// crossCheck plays the scheme under test and asks its brute-force
// reference for every decision too, failing on the first difference.
type crossCheck struct {
	t        *testing.T
	got, ref abr.Algorithm
	n        int
}

func (c *crossCheck) Name() string { return c.got.Name() }

func (c *crossCheck) Select(st abr.State) int {
	got, want := c.got.Select(st), c.ref.Select(st)
	if got != want {
		c.t.Fatalf("%s: pruned search chose %d, brute force %d, at %+v", c.got.Name(), got, want, st)
	}
	c.n++
	return got
}

// TestLookaheadMatchesBruteForceInSessions compares every decision of full
// player.Simulate sessions over LTE and FCC traces, for both ED encodes and
// every lookahead scheme, with the brute-force reference.
func TestLookaheadMatchesBruteForceInSessions(t *testing.T) {
	traces := 3
	if testing.Short() {
		traces = 1
	}
	videos := []*video.Video{
		video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi}),
		video.FFmpegVideo(video.OpenTitles[0], video.H264),
	}
	for _, v := range videos {
		qt := quality.NewTable(v, quality.VMAFPhone)
		schemes := []func() abr.Algorithm{
			func() abr.Algorithm { return abr.NewMPC(v, false) },
			func() abr.Algorithm { return abr.NewMPC(v, true) },
			func() abr.Algorithm { return abr.NewPANDACQ(v, qt, abr.MaxSum) },
			func() abr.Algorithm { return abr.NewPANDACQ(v, qt, abr.MaxMin) },
		}
		for i := 0; i < traces; i++ {
			for _, tr := range []*trace.Trace{trace.GenLTE(i), trace.GenFCC(i)} {
				for _, mk := range schemes {
					got := mk()
					c := &crossCheck{t: t, got: got, ref: abr.NewReference(got)}
					if _, err := player.Simulate(v, tr, c, player.DefaultConfig()); err != nil {
						t.Fatal(err)
					}
					if c.n != v.NumChunks() {
						t.Fatalf("%s on %s: %d decisions compared, want %d", got.Name(), tr.ID, c.n, v.NumChunks())
					}
				}
			}
		}
	}
}
