package player_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cava/internal/cliutil"
	"cava/internal/player"
	"cava/internal/trace"
	"cava/internal/video"
)

// Differential tests: SimulateLive and SimulateShared are StepState
// frontends; each must reproduce the self-contained loop it replaced
// (SimulateLiveRef, SimulateSharedRef) on every registered scheme.

func refVideos() []*video.Video {
	return []*video.Video{
		video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi}),
		video.YouTubeVideo(video.Title{Name: "BBB", Genre: video.Animation}),
	}
}

func refConfigs() []player.Config {
	return []player.Config{
		player.DefaultConfig(),
		{StartupSec: 6, MaxBufferSec: 24},
	}
}

func schemeNames() []string {
	var names []string
	for name := range cliutil.Schemes() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func TestSimulateLiveMatchesReference(t *testing.T) {
	schemes := cliutil.Schemes()
	traces := []*trace.Trace{trace.GenLTE(0), trace.GenLTE(3), trace.GenLTE(7)}
	for _, name := range schemeNames() {
		f := schemes[name]
		t.Run(name, func(t *testing.T) {
			for _, v := range refVideos() {
				for _, tr := range traces {
					for ci, cfg := range refConfigs() {
						for _, delay := range []float64{-1, 0, 3} {
							lcfg := player.LiveConfig{EncoderDelaySec: delay}
							want, err := player.SimulateLiveRef(v, tr, f(v), cfg, lcfg)
							if err != nil {
								t.Fatal(err)
							}
							got, err := player.SimulateLive(v, tr, f(v), cfg, lcfg)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s/%s config %d delay %v: SimulateLive diverges from the reference loop",
									v.ID(), tr.ID, ci, delay)
							}
						}
					}
				}
			}
		})
	}
}

// withoutChunkRebuffer copies results with every ChunkRecord.RebufferSec
// zeroed: the reference loop under-charges per-chunk stalls (see
// TestSharedStallConservation), so that one field is compared separately.
func withoutChunkRebuffer(rs []*player.Result) []player.Result {
	out := make([]player.Result, len(rs))
	for i, r := range rs {
		out[i] = *r
		out[i].Chunks = append([]player.ChunkRecord(nil), r.Chunks...)
		for j := range out[i].Chunks {
			out[i].Chunks[j].RebufferSec = 0
		}
	}
	return out
}

func TestSimulateSharedMatchesReference(t *testing.T) {
	schemes := cliutil.Schemes()
	names := schemeNames()
	videos := refVideos()
	configs := refConfigs()
	traces := []*trace.Trace{trace.GenLTE(1).Scale(3), trace.GenLTE(4).Scale(3), trace.GenLTE(9).Scale(2)}
	for gi := range names {
		// Three mixed-scheme clients per group, rotating through the
		// registry so every scheme appears in every client position.
		group := []string{names[gi], names[(gi+5)%len(names)], names[(gi+11)%len(names)]}
		t.Run(fmt.Sprint(group), func(t *testing.T) {
			for ti, tr := range traces {
				mk := func() []player.SharedClient {
					cs := make([]player.SharedClient, len(group))
					for c, name := range group {
						v := videos[(gi+c)%len(videos)]
						cs[c] = player.SharedClient{
							Video:        v,
							Algo:         schemes[name](v),
							Config:       configs[(ti+c)%len(configs)],
							JoinDelaySec: float64(c) * 23.5,
						}
					}
					return cs
				}
				want, err := player.SimulateSharedRef(tr, mk())
				if err != nil {
					t.Fatal(err)
				}
				got, err := player.SimulateShared(tr, mk())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(withoutChunkRebuffer(got), withoutChunkRebuffer(want)) {
					t.Fatalf("%s: SimulateShared diverges from the reference loop", tr.ID)
				}
			}
		})
	}
}
