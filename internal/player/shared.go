package player

import (
	"fmt"
	"math"

	"cava/internal/abr"
	"cava/internal/trace"
	"cava/internal/video"
)

// Multi-client simulation: several players share one bottleneck link whose
// capacity follows a trace and is split equally among clients with an
// active download (the TCP-fair idealization used throughout the ABR
// fairness literature, e.g. FESTIVE). Clients that are not downloading
// (full buffer, scheme pause, done) consume nothing, so the remaining
// clients speed up — which is exactly the coupling that causes bitrate
// oscillation and unfairness among competing players.

// SharedClient is one participant in a shared-link session.
type SharedClient struct {
	// Video is the content this client streams.
	Video *video.Video
	// Algo is the client's adaptation logic (fresh instance).
	Algo abr.Algorithm
	// Config is the client's player configuration; zero values take the
	// §6.1 defaults.
	Config Config
	// JoinDelaySec staggers this client's session start: it issues no
	// requests before this time. Staggered joins are what break the
	// lockstep of identical clients and expose (un)fairness.
	JoinDelaySec float64
}

// SimulateShared runs all clients to completion over the shared link and
// returns one Result per client, in input order.
//
// Each client is a StepState driven through the same phase API as the
// testbed client; this function only solves the link: it moves every
// client's clock to the next event (a download finishing, a client waking,
// a trace-interval boundary) and splits the capacity among active
// downloads.
func SimulateShared(tr *trace.Trace, clients []SharedClient) ([]*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("player: no clients")
	}

	type cstate struct {
		s         StepState
		est       float64 // estimate the in-flight decision saw
		remaining float64 // bits left of the in-flight download (0 = none)
		wakeAt    float64 // waiting (join, full buffer, scheme delay) until this time
	}

	states := make([]cstate, len(clients))
	for i, sc := range clients {
		if err := sc.Video.Validate(); err != nil {
			return nil, fmt.Errorf("player: client %d: %w", i, err)
		}
		states[i].s.Init(sc.Video, sc.Video.ID(), tr.ID, sc.Algo, sc.Config, true)
		states[i].wakeAt = sc.JoinDelaySec
	}

	now := 0.0
	const eps = 1e-9

	// decide prompts a client for its next action at time now; it either
	// starts a download (remaining > 0) or sets a wake time. A woken client
	// begins the chunk afresh, so the scheme's pause is re-queried.
	decide := func(c *cstate) {
		s := &c.s
		if s.Done() {
			return
		}
		st := s.BeginChunk()
		if w := s.WantDelay(st); w > 0 {
			c.wakeAt = now + w
			return
		}
		if w := s.FullBufferWait(); w > 0 {
			c.wakeAt = now + w
			return
		}
		s.Rec.Level = s.Decide(st)
		s.Rec.SizeBits = s.v.ChunkSize(s.Rec.Level, s.Chunk)
		s.Rec.StartTime = now
		c.est = st.Est
		c.remaining = s.Rec.SizeBits
	}

	for i := range states {
		if states[i].wakeAt <= 0 {
			decide(&states[i])
		}
	}

	for {
		// Count active downloaders and find the next wake event (now for
		// a client ready to decide again). A client not yet done is one
		// or the other, so finding neither means every client is done.
		active := 0
		next := math.Inf(1)
		for i := range states {
			c := &states[i]
			if c.s.Done() {
				continue
			}
			if c.remaining > 0 {
				active++
			} else {
				next = math.Min(next, math.Max(c.wakeAt, now))
			}
		}
		if active == 0 && math.IsInf(next, 1) {
			break
		}
		// Trace boundary bounds the constant-rate span.
		next = math.Min(next, (math.Floor(now/tr.IntervalSec)+1)*tr.IntervalSec)
		share := 0.0
		if active > 0 {
			share = tr.BandwidthAt(now) / float64(active)
			for i := range states {
				if r := states[i].remaining; r > 0 {
					next = math.Min(next, now+r/math.Max(share, eps))
				}
			}
		}
		if next < now+eps {
			next = now + eps
		}
		dt := next - now
		now = next

		// Advance downloads and playback, then complete downloads and
		// re-decide. Clients only interact through share, so one pass
		// per client suffices.
		for i := range states {
			c := &states[i]
			s := &c.s
			if s.Done() {
				continue
			}
			downloading := c.remaining > 0
			if downloading && share > 0 {
				c.remaining -= share * dt
			}
			s.AddStall(s.ElapseTo(now))
			if downloading && c.remaining <= eps*10 {
				c.remaining = 0
				s.Rec.DownloadSec = now - s.Rec.StartTime
				if s.Rec.DownloadSec > 0 {
					s.Rec.ThroughputBps = s.Rec.SizeBits / s.Rec.DownloadSec
				}
				s.FinishDownload(c.est)
				s.MaybeStartup(now)
				s.NextChunk()
				decide(c)
			} else if !downloading && c.wakeAt <= now {
				decide(c)
			}
		}
	}

	out := make([]*Result, len(states))
	for i := range states {
		out[i] = states[i].s.Take()
	}
	return out, nil
}

// JainIndex computes Jain's fairness index over per-client values
// (1 = perfectly fair, 1/n = maximally unfair).
func JainIndex(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, v := range values {
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(values)) * sumSq)
}
