package player

import (
	"fmt"
	"math"

	"cava/internal/abr"
	"cava/internal/bandwidth"
	"cava/internal/trace"
)

// simulateSharedRef is the self-contained shared-link loop SimulateShared
// used before it became a StepState frontend, kept verbatim as the slow
// reference for the differential test in reference_test.go. It charges a
// stall to the in-flight chunk only while bits remain after the solver
// step, so the stall of the step that completes a download is missing from
// that chunk's RebufferSec (the totals are unaffected).
func simulateSharedRef(tr *trace.Trace, clients []SharedClient) ([]*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("player: no clients")
	}

	type cstate struct {
		sc   SharedClient
		res  *Result
		pred bandwidth.Predictor

		chunk     int     // next chunk index to request
		remaining float64 // bits left of the in-flight download (0 = none)
		inflight  ChunkRecord
		wakeAt    float64 // waiting (full buffer / scheme delay) until this time
		buffer    float64
		playing   bool
		prevLevel int
		lastTput  float64
		done      bool
	}

	states := make([]*cstate, len(clients))
	for i, sc := range clients {
		if err := sc.Video.Validate(); err != nil {
			return nil, fmt.Errorf("player: client %d: %w", i, err)
		}
		cfg := sc.Config
		if cfg.StartupSec <= 0 {
			cfg.StartupSec = 10
		}
		if cfg.MaxBufferSec <= 0 {
			cfg.MaxBufferSec = 100
		}
		pred := cfg.Predictor
		if pred == nil {
			pred = bandwidth.NewHarmonicMean(bandwidth.DefaultWindow)
		}
		pred.Reset()
		sc.Config = cfg
		states[i] = &cstate{
			sc:        sc,
			res:       &Result{VideoID: sc.Video.ID(), TraceID: tr.ID, Scheme: sc.Algo.Name()},
			pred:      pred,
			prevLevel: -1,
			wakeAt:    sc.JoinDelaySec,
		}
	}

	now := 0.0
	const eps = 1e-9

	// decide prompts a client for its next action at time `now`; it either
	// starts a download (remaining > 0) or sets a wake time.
	decide := func(st *cstate) {
		v := st.sc.Video
		if st.chunk >= v.NumChunks() {
			st.done = true
			st.res.SessionSec = now
			return
		}
		s := abr.State{
			ChunkIndex:        st.chunk,
			Now:               now,
			Buffer:            st.buffer,
			Playing:           st.playing,
			PrevLevel:         st.prevLevel,
			Est:               st.pred.Predict(now),
			LastThroughputBps: st.lastTput,
		}
		if d, ok := st.sc.Algo.(abr.Delayer); ok {
			if w := d.Delay(s); w > 0 {
				st.wakeAt = now + w
				return
			}
		}
		if st.playing && st.buffer+v.ChunkDurSec > st.sc.Config.MaxBufferSec {
			st.wakeAt = now + (st.buffer + v.ChunkDurSec - st.sc.Config.MaxBufferSec)
			return
		}
		level := st2level(st.sc.Algo, s, v.NumTracks())
		st.inflight = ChunkRecord{
			Index:        st.chunk,
			Level:        level,
			SizeBits:     v.ChunkSize(level, st.chunk),
			StartTime:    now,
			BufferBefore: st.buffer,
		}
		st.remaining = st.inflight.SizeBits
		st.wakeAt = 0
	}

	for _, st := range states {
		if st.wakeAt <= 0 {
			decide(st)
		}
	}

	for {
		// Collect active downloaders and the next wake/boundary events.
		var active []*cstate
		next := math.Inf(1)
		allDone := true
		for _, st := range states {
			if st.done {
				continue
			}
			allDone = false
			if st.remaining > 0 {
				active = append(active, st)
			} else if st.wakeAt > now && st.wakeAt < next {
				next = st.wakeAt
			} else if st.wakeAt <= now {
				// Ready to decide again right now.
				next = now
			}
		}
		if allDone {
			break
		}
		// Trace boundary bounds the constant-rate span.
		boundary := (math.Floor(now/tr.IntervalSec) + 1) * tr.IntervalSec
		if boundary < next {
			next = boundary
		}
		share := 0.0
		if len(active) > 0 {
			share = tr.BandwidthAt(now) / float64(len(active))
			for _, st := range active {
				if fin := now + st.remaining/math.Max(share, eps); fin < next {
					next = fin
				}
			}
		}
		if math.IsInf(next, 1) {
			return nil, fmt.Errorf("player: shared simulation wedged at t=%.1f", now)
		}
		if next < now+eps {
			next = now + eps
		}
		dt := next - now

		// Advance downloads and playback.
		for _, st := range states {
			if st.done {
				continue
			}
			if st.remaining > 0 && share > 0 {
				st.remaining -= share * dt
			}
			if st.playing {
				if st.buffer >= dt {
					st.buffer -= dt
				} else {
					stall := dt - st.buffer
					st.buffer = 0
					st.res.TotalRebufferSec += stall
					if st.remaining > 0 {
						st.inflight.RebufferSec += stall
					}
				}
			}
		}
		now = next

		// Complete downloads and re-decide.
		for _, st := range states {
			if st.done {
				continue
			}
			v := st.sc.Video
			if st.remaining > 0 && st.remaining <= eps*10 {
				st.remaining = 0
			}
			if st.inflight.SizeBits > 0 && st.remaining <= 0 {
				rec := st.inflight
				rec.DownloadSec = now - rec.StartTime
				if rec.DownloadSec > 0 {
					rec.ThroughputBps = rec.SizeBits / rec.DownloadSec
				}
				st.buffer += v.ChunkDurSec
				rec.BufferAfter = st.buffer
				st.pred.ObserveDownload(rec.SizeBits, rec.DownloadSec)
				st.lastTput = rec.ThroughputBps
				st.prevLevel = rec.Level
				st.res.Chunks = append(st.res.Chunks, rec)
				st.res.TotalBits += rec.SizeBits
				st.inflight = ChunkRecord{}
				st.chunk++
				if !st.playing && (st.buffer >= st.sc.Config.StartupSec || st.chunk == v.NumChunks()) {
					st.playing = true
					st.res.StartupDelaySec = now
				}
				decide(st)
			} else if st.remaining <= 0 && st.wakeAt <= now {
				decide(st)
			}
		}
	}

	out := make([]*Result, len(states))
	for i, st := range states {
		out[i] = st.res
	}
	return out, nil
}
