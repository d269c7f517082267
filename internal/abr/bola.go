package abr

import (
	"math"

	"cava/internal/video"
)

// BOLAVariant selects how BOLA-E interprets track bitrates for VBR content,
// mirroring the three versions evaluated in §6.8.
type BOLAVariant int

// The three declared-bitrate variants.
const (
	// BOLAPeak uses each track's peak bitrate as its declared bitrate —
	// the most conservative treatment (overestimates every chunk).
	BOLAPeak BOLAVariant = iota
	// BOLAAvg uses each track's average bitrate — the most aggressive.
	BOLAAvg
	// BOLASeg uses the actual per-chunk size, as the BOLA paper suggests
	// for VBR encodings — in between, but with more quality changes.
	BOLASeg
)

// String returns the variant label used in the paper's tables.
func (v BOLAVariant) String() string {
	switch v {
	case BOLAPeak:
		return "peak"
	case BOLAAvg:
		return "avg"
	case BOLASeg:
		return "seg"
	default:
		return "?"
	}
}

// Name returns the display name of BOLA (enhanced false) or BOLA-E
// (enhanced true) under this variant, e.g. "BOLA-E (avg)".
func (v BOLAVariant) Name(enhanced bool) string {
	if enhanced {
		return "BOLA-E (" + v.String() + ")"
	}
	return "BOLA (" + v.String() + ")"
}

// BOLAE implements BOLA (Spiteri et al., INFOCOM'16) and its production
// BOLA-E refinement (MMSys'18): a Lyapunov-utility scheme that maximizes
// (V·(υ_l + γp) − Q)/S_l over tracks l, pausing when no track has positive
// utility (Q above the derived target). The enhanced mode adds the two
// dash.js behaviours the paper calls out in §6.8: a placeholder buffer for
// fast startup, and bitrate capping on upward switches to avoid
// oscillations. The variant controls the S_l a VBR deployment would use.
type BOLAE struct {
	v *video.Video
	// Variant selects the declared-bitrate interpretation.
	Variant BOLAVariant
	// Enhanced enables the BOLA-E placeholder and oscillation guards;
	// when false the scheme is plain BOLA.
	Enhanced bool
	// TargetBuffer is the buffer level (seconds) BOLA steers toward.
	TargetBuffer float64
	// GammaP is the γp smoothing weight in seconds.
	GammaP float64

	vParam      float64
	placeholder float64
	fastStarted bool
}

// NewBOLAE returns a BOLA-E instance with a 25-second buffer target, in
// line with dash.js's stable buffer target; BOLA therefore pauses once the
// buffer exceeds its derived ceiling, which is the source of its lower
// data usage in §6.8.
func NewBOLAE(v *video.Video, variant BOLAVariant, enhanced bool) *BOLAE {
	b := &BOLAE{
		v:            v,
		Variant:      variant,
		Enhanced:     enhanced,
		TargetBuffer: 25,
		GammaP:       5,
	}
	b.calibrate()
	return b
}

// calibrate derives the Lyapunov V from the buffer target so the highest
// track is chosen as the buffer approaches the target.
func (b *BOLAE) calibrate() {
	n := b.v.NumTracks()
	utilMax := math.Log(b.declaredBitrate(n-1) / b.declaredBitrate(0))
	b.vParam = (b.TargetBuffer - b.v.ChunkDurSec) / (utilMax + b.GammaP)
}

// declaredBitrate returns the variant-level bitrate used for calibration
// (per-chunk sizes still apply at decision time for the seg variant).
func (b *BOLAE) declaredBitrate(l int) float64 {
	switch b.Variant {
	case BOLAPeak:
		return b.v.Tracks[l].PeakBitrateBps
	default:
		return b.v.Tracks[l].AvgBitrateBps
	}
}

// size returns the decision size in bits of chunk i at level l under the
// configured variant.
func (b *BOLAE) size(l, i int) float64 {
	switch b.Variant {
	case BOLAPeak:
		return b.v.Tracks[l].PeakBitrateBps * b.v.ChunkDurSec
	case BOLAAvg:
		return b.v.Tracks[l].AvgBitrateBps * b.v.ChunkDurSec
	default:
		return b.v.ChunkSize(l, i)
	}
}

// Name implements Algorithm.
func (b *BOLAE) Name() string { return b.Variant.Name(b.Enhanced) }

// utility returns υ_l for chunk i.
func (b *BOLAE) utility(l, i int) float64 {
	return math.Log(b.size(l, i) / b.size(0, i))
}

// Select implements Algorithm.
func (b *BOLAE) Select(st State) int {
	v := b.v
	i := st.ChunkIndex

	// BOLA-E fast start: once the first throughput sample arrives, seed
	// the placeholder so the utility rule starts near the sustainable
	// level instead of crawling up from the bottom. The placeholder only
	// lifts the utility operating point; the insufficient-buffer rule
	// below still protects the (real) near-empty buffer.
	if b.Enhanced && !b.fastStarted && st.Est > 0 {
		lt := b.throughputLevel(st.Est, i)
		q := b.vParam * (b.utility(lt, i) + b.GammaP)
		if ph := 0.8*q - st.Buffer; ph > 0 {
			b.placeholder = ph
		}
		b.fastStarted = true
	}

	qe := st.Buffer + b.placeholder
	best, bestScore := 0, math.Inf(-1)
	for l := 0; l < v.NumTracks(); l++ {
		s := b.size(l, i)
		score := (b.vParam*(b.utility(l, i)+b.GammaP) - qe) / s
		if score > bestScore {
			best, bestScore = l, score
		}
	}

	if b.Enhanced && st.PrevLevel >= 0 && best > st.PrevLevel && st.Est > 0 {
		// Oscillation compensation: cap upward switches at the highest
		// level sustainable by the estimated throughput, without forcing
		// a downswitch.
		lt := b.throughputLevel(st.Est, i)
		if best > lt {
			capped := lt
			if capped < st.PrevLevel {
				capped = st.PrevLevel
			}
			// Absorb the skipped utility into the placeholder as BOLA-E
			// does, keeping the Lyapunov accounting consistent.
			b.placeholder += b.vParam * (b.utility(best, i) - b.utility(capped, i))
			best = capped
		}
	}
	if b.Enhanced && st.Est > 0 && st.Buffer < 2*b.v.ChunkDurSec {
		// Insufficient-buffer rule: with almost nothing buffered, never
		// request more than a conservative fraction of the estimated
		// throughput regardless of what the utility (inflated by the
		// placeholder) suggests.
		if lt := b.throughputLevel(0.5*st.Est, i); best > lt {
			best = lt
		}
	}
	return best
}

// throughputLevel returns the highest level whose decision bitrate fits the
// estimate.
func (b *BOLAE) throughputLevel(est float64, i int) int {
	lt := 0
	for l := 0; l < b.v.NumTracks(); l++ {
		if b.size(l, i)/b.v.ChunkDurSec <= est {
			lt = l
		}
	}
	return lt
}

// Delay implements Delayer: BOLA pauses when every track's utility is
// negative, i.e. the (effective) buffer exceeds the derived ceiling. The
// enhanced variant drains the placeholder before pausing for real, so only
// genuine oversupply causes an idle period (the paper observes these pauses
// as BOLA-E's lower data usage).
func (b *BOLAE) Delay(st State) float64 {
	i := st.ChunkIndex
	ceiling := 0.0
	for l := 0; l < b.v.NumTracks(); l++ {
		if q := b.vParam * (b.utility(l, i) + b.GammaP); q > ceiling {
			ceiling = q
		}
	}
	over := st.Buffer + b.placeholder - ceiling
	if over <= 0 {
		return 0
	}
	if b.Enhanced && b.placeholder > 0 {
		drain := math.Min(b.placeholder, over)
		b.placeholder -= drain
		over -= drain
	}
	if over < 0 {
		over = 0
	}
	return over
}
