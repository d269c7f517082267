// Package scene provides scene-complexity tooling for VBR streaming: the
// chunk-size-quartile classifier the paper proposes (§3.1.1), synthetic
// SI/TI (spatial/temporal information, ITU-T P.910) derived from the latent
// complexity, and cross-track consistency checks.
//
// The classifier is the practical pathway the paper identifies: relative
// chunk size within a reference track is an accurate, manifest-available
// proxy for scene complexity, so the ABR logic can favor complex scenes
// without any content-level analysis.
package scene

import (
	"math"
	"math/rand"
	"sort"

	"cava/internal/video"
)

// Category is a scene-complexity class derived from chunk-size quantiles.
// With the default four classes, Q1 holds the smallest (simplest) chunks
// and Q4 the largest (most complex).
type Category int

// The four quartile categories.
const (
	Q1 Category = 1 + iota
	Q2
	Q3
	Q4
)

// DefaultNumClasses is the paper's quartile-based classification.
const DefaultNumClasses = 4

// DefaultReferenceTrack picks the middle track of a ladder, per §3.1.1.
func DefaultReferenceTrack(numTracks int) int { return numTracks / 2 }

// Classify assigns each chunk position a category 1..nClasses based on the
// size distribution of the reference track refLevel, using quantile
// boundaries. Chunks at the same playback position receive the same
// category regardless of track, which is sound because relative chunk sizes
// are strongly correlated across tracks (verified by CategoryCorrelation).
func Classify(v *video.Video, refLevel, nClasses int) []Category {
	sizes := v.Tracks[refLevel].ChunkSizesBits
	return ClassifySizes(sizes, nClasses)
}

// defaultKey keys a video's memoized default classification.
type defaultKey struct{}

// ClassifyDefault classifies with the middle reference track and four
// classes. The classification is computed once per video; the returned
// slice is shared by every caller and must not be modified.
func ClassifyDefault(v *video.Video) []Category {
	return v.Memo(defaultKey{}, func() any {
		return Classify(v, DefaultReferenceTrack(v.NumTracks()), DefaultNumClasses)
	}).([]Category)
}

// ClassifySizes assigns quantile categories 1..nClasses to a raw size
// series. Ties at a boundary go to the lower class, matching how quartile
// membership is usually counted.
func ClassifySizes(sizes []float64, nClasses int) []Category {
	if nClasses < 2 {
		nClasses = 2
	}
	n := len(sizes)
	out := make([]Category, n)
	if n == 0 {
		return out
	}
	sorted := append([]float64(nil), sizes...)
	sort.Float64s(sorted)
	// Quantile boundaries: the k/nClasses-th order statistics.
	bounds := make([]float64, nClasses-1)
	for k := 1; k < nClasses; k++ {
		idx := k*n/nClasses - 1
		if idx < 0 {
			idx = 0
		}
		bounds[k-1] = sorted[idx]
	}
	for i, s := range sizes {
		c := Category(1)
		for _, b := range bounds {
			if s > b {
				c++
			}
		}
		out[i] = c
	}
	return out
}

// IsComplex reports whether a category denotes a complex scene under the
// paper's Q4 vs non-Q4 split.
func IsComplex(c Category) bool { return c == Q4 }

// CategoryCorrelation computes the Pearson correlation between the category
// sequences obtained independently from two tracks. The paper verifies
// these are all close to 1 (Property 2 in §3.1.1).
func CategoryCorrelation(v *video.Video, levelA, levelB, nClasses int) float64 {
	a := ClassifySizes(v.Tracks[levelA].ChunkSizesBits, nClasses)
	b := ClassifySizes(v.Tracks[levelB].ChunkSizesBits, nClasses)
	return pearsonCategories(a, b)
}

func pearsonCategories(a, b []Category) float64 {
	n := len(a)
	if n == 0 || len(b) != n {
		return 0
	}
	var ma, mb float64
	for i := 0; i < n; i++ {
		ma += float64(a[i])
		mb += float64(b[i])
	}
	ma /= float64(n)
	mb /= float64(n)
	var num, va, vb float64
	for i := 0; i < n; i++ {
		da, db := float64(a[i])-ma, float64(b[i])-mb
		num += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 1 // constant sequences: identical categorization
	}
	return num / math.Sqrt(va*vb)
}

// SITI holds the spatial and temporal information of one chunk.
type SITI struct {
	SI float64 // spatial detail, roughly 0..100
	TI float64 // temporal motion, roughly 0..60
}

// ComputeSITI derives per-chunk SI/TI from the video's latent complexity,
// standing in for ITU-T P.910 analysis of the raw footage. SI and TI grow
// monotonically with scene complexity with realistic scatter, so chunk-size
// quartiles separate in SI/TI space as in the paper's Fig. 2.
func ComputeSITI(v *video.Video) []SITI {
	rng := rand.New(rand.NewSource(sitiSeed(v)))
	out := make([]SITI, v.NumChunks())
	for i, c := range v.Complexity {
		// Shared per-scene measurement component plus independent scatter,
		// calibrated so the SI>25 ∧ TI>7 region captures most Q4 chunks but
		// only a small tail of Q1/Q2 chunks (Fig. 2).
		shared := rng.NormFloat64()
		si := 14 + 24*c + 6.5*(0.6*shared+0.8*rng.NormFloat64())
		ti := 2 + 11*c + 3.5*(0.6*shared+0.8*rng.NormFloat64())
		out[i] = SITI{SI: clamp(si, 0, 100), TI: clamp(ti, 0, 60)}
	}
	return out
}

func sitiSeed(v *video.Video) int64 {
	var s int64 = 0x5171
	for _, r := range v.ID() {
		s = s*131 + int64(r)
	}
	return s
}

// FractionAbove returns, per category, the fraction of that category's
// chunks whose SI and TI both exceed the given thresholds. The paper uses
// SI>25, TI>7 to show Q4 chunks dominate the high-complexity region.
func FractionAbove(cats []Category, siti []SITI, siThresh, tiThresh float64, nClasses int) map[Category]float64 {
	counts := make(map[Category]int)
	above := make(map[Category]int)
	for i, c := range cats {
		counts[c]++
		if siti[i].SI > siThresh && siti[i].TI > tiThresh {
			above[c]++
		}
	}
	out := make(map[Category]float64, nClasses)
	for c := Category(1); c <= Category(nClasses); c++ {
		if counts[c] > 0 {
			out[c] = float64(above[c]) / float64(counts[c])
		}
	}
	return out
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
