package player

import (
	"cava/internal/abr"
	"cava/internal/bandwidth"
	"cava/internal/trace"
	"cava/internal/video"
)

// simulateLiveRef is the self-contained live-streaming loop SimulateLive
// used before it became a StepState frontend, kept verbatim as the slow
// reference for the differential test in reference_test.go.
func simulateLiveRef(v *video.Video, tr *trace.Trace, algo abr.Algorithm, cfg Config, lcfg LiveConfig) (*LiveResult, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	if cfg.StartupSec <= 0 {
		cfg.StartupSec = 10
	}
	if cfg.MaxBufferSec <= 0 {
		cfg.MaxBufferSec = 100
	}
	if lcfg.EncoderDelaySec < 0 {
		lcfg.EncoderDelaySec = v.ChunkDurSec
	}
	pred := cfg.Predictor
	if pred == nil {
		pred = bandwidth.NewHarmonicMean(bandwidth.DefaultWindow)
	}
	pred.Reset()

	res := &LiveResult{}
	res.VideoID, res.TraceID, res.Scheme = v.ID(), tr.ID, algo.Name()
	delayer, canDelay := algo.(abr.Delayer)

	now := 0.0
	buffer := 0.0
	playing := false
	playStart := 0.0
	stalls := 0.0
	prevLevel := -1
	lastThroughput := 0.0
	n := v.NumChunks()

	// avail is when chunk i becomes downloadable: its content ends at
	// (i+1)Δ relative to chunk 0's content end at 0, plus encode delay.
	avail := func(i int) float64 {
		return float64(i)*v.ChunkDurSec + lcfg.EncoderDelaySec
	}
	drain := func(dt float64) float64 {
		now += dt
		if !playing {
			return 0
		}
		if buffer >= dt {
			buffer -= dt
			return 0
		}
		stall := dt - buffer
		buffer = 0
		return stall
	}
	// latency is the playhead's lag behind the live edge: the content time
	// produced so far minus the content time played out.
	var latSum, latN, latMax float64
	observeLatency := func() {
		if !playing {
			return
		}
		played := now - playStart - stalls
		edge := now + lcfg.EncoderDelaySec // content exists up to "now" at the encoder
		lat := edge - played
		latSum += lat
		latN++
		if lat > latMax {
			latMax = lat
		}
	}

	for i := 0; i < n; i++ {
		rec := ChunkRecord{Index: i, BufferBefore: buffer}

		// Wait for the encoder when the client has caught up to the edge.
		if a := avail(i); now < a {
			wait := a - now
			rec.WaitSec += wait
			res.AvailabilityWaitSec += wait
			st := drain(wait)
			res.TotalRebufferSec += st
			stalls += st
			rec.RebufferSec += st
		}

		st := abr.State{
			ChunkIndex:        i,
			Now:               now,
			Buffer:            buffer,
			Playing:           playing,
			PrevLevel:         prevLevel,
			Est:               pred.Predict(now),
			LastThroughputBps: lastThroughput,
		}
		if canDelay {
			if d := delayer.Delay(st); d > 0 {
				rec.WaitSec += d
				s := drain(d)
				res.TotalRebufferSec += s
				stalls += s
				rec.RebufferSec += s
			}
		}
		if playing && buffer+v.ChunkDurSec > cfg.MaxBufferSec {
			wait := buffer + v.ChunkDurSec - cfg.MaxBufferSec
			rec.WaitSec += wait
			drain(wait)
		}

		st.Now, st.Buffer, st.Est = now, buffer, pred.Predict(now)
		level := st2level(algo, st, v.NumTracks())
		size := v.ChunkSize(level, i)
		dl := tr.DownloadTime(now, size)

		rec.Level = level
		rec.SizeBits = size
		rec.StartTime = now
		rec.DownloadSec = dl
		if dl > 0 {
			rec.ThroughputBps = size / dl
		}
		s := drain(dl)
		res.TotalRebufferSec += s
		stalls += s
		rec.RebufferSec += s
		buffer += v.ChunkDurSec
		rec.BufferAfter = buffer

		pred.ObserveDownload(size, dl)
		lastThroughput = rec.ThroughputBps
		prevLevel = level
		res.Chunks = append(res.Chunks, rec)
		res.TotalBits += size

		if !playing && (buffer >= cfg.StartupSec || i == n-1) {
			playing = true
			playStart = now
			res.StartupDelaySec = now
		}
		observeLatency()
	}
	res.SessionSec = now
	if latN > 0 {
		res.AvgLatencySec = latSum / latN
	}
	res.MaxLatencySec = latMax
	return res, nil
}
