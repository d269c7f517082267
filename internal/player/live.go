package player

import (
	"cava/internal/abr"
	"cava/internal/trace"
	"cava/internal/video"
)

// Live streaming simulation (the paper's §8 future-work setting). In live
// ABR the encoder produces chunks in real time: chunk i only becomes
// available at its encode time, the client can never buffer past the live
// edge, and every stall permanently increases the end-to-end latency. The
// scheme sees chunk sizes only up to the live edge (pair with
// core.Live(k) to bound the algorithm's lookahead accordingly).

// LiveConfig extends Config with the live-edge parameters.
type LiveConfig struct {
	// EncoderDelaySec is the encode+packaging delay: chunk i becomes
	// downloadable at i·Δ + EncoderDelaySec (one chunk duration when
	// negative; 0 means the chunk is ready the instant its content ends).
	EncoderDelaySec float64
}

// LiveResult augments Result with latency accounting.
type LiveResult struct {
	Result
	// AvgLatencySec and MaxLatencySec track the playhead's lag behind the
	// live edge while playing (startup excluded).
	AvgLatencySec, MaxLatencySec float64
	// AvailabilityWaitSec is total time spent waiting for chunks that the
	// encoder had not produced yet (the client caught up to the edge).
	AvailabilityWaitSec float64
}

// SimulateLive runs one live streaming session. Wall time 0 is the moment
// chunk 0 becomes available; the client joins then.
//
// SimulateLive is a StepState frontend: it inserts the encoder-availability
// wait between BeginChunk and the rest of the chunk step, and reads the
// latency off the core's startup and stall totals.
func SimulateLive(v *video.Video, tr *trace.Trace, algo abr.Algorithm, cfg Config, lcfg LiveConfig) (*LiveResult, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	if lcfg.EncoderDelaySec < 0 {
		lcfg.EncoderDelaySec = v.ChunkDurSec
	}
	var s StepState
	s.Init(v, v.ID(), tr.ID, algo, cfg, true)

	var availWait, latSum, latN, latMax float64
	for !s.Done() {
		st := s.BeginChunk()
		// Wait for the encoder when the client has caught up to the edge:
		// chunk i's content ends at (i+1)Δ relative to chunk 0's content
		// end at 0, so it is downloadable at iΔ plus the encode delay.
		if a := float64(s.Chunk)*v.ChunkDurSec + lcfg.EncoderDelaySec; s.NowSec < a {
			wait := a - s.NowSec
			s.NoteWait(wait)
			availWait += wait
			s.AddStall(s.drainFor(wait))
			// The scheme sees the state after the wait; step's Refresh
			// emits the chunk's one wait event.
			st.Now, st.Buffer, st.Est = s.NowSec, s.BufferSec, s.pred.Predict(s.NowSec)
		}
		s.step(st, tr, 0)

		// Latency is the playhead's lag behind the live edge: the content
		// produced so far (the encoder is at "now") minus the content
		// played out.
		if s.Playing {
			played := s.NowSec - s.res.StartupDelaySec - s.res.TotalRebufferSec
			lat := s.NowSec + lcfg.EncoderDelaySec - played
			latSum += lat
			latN++
			if lat > latMax {
				latMax = lat
			}
		}
	}
	res := &LiveResult{Result: *s.Take(), MaxLatencySec: latMax, AvailabilityWaitSec: availWait}
	if latN > 0 {
		res.AvgLatencySec = latSum / latN
	}
	return res, nil
}
