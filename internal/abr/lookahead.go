package abr

import "cava/internal/video"

// Lookahead search shared by MPC/RobustMPC and PANDA/CQ. Both schemes score
// every track sequence over a horizon of chunks and play the first track of
// the best one. Instead of enumerating all tracks^horizon sequences, the
// search below scores the constant-track sequences, then walks the sequence
// tree depth first, highest track first, so a strong incumbent appears
// early, and cuts every branch none of whose sequences can beat the
// incumbent. The result is exactly what the full enumeration in ascending
// order returns (see DESIGN.md, "Lookahead search").

// horizonTree is one scheme's lookahead problem. Node d is the state after
// tracks were chosen for the first d chunks of the window; node 0 is the
// decision state, and the nodes at depth horizon are the leaves, one per
// track sequence. The tree also holds the incumbent: the best leaf so far.
type horizonTree interface {
	// extend sets node d+1 to node d followed by track l and compares the
	// best leaf still reachable from node d+1 with the incumbent: +1 when
	// some leaf may beat it, 0 when none can do better than tie it, -1 when
	// none can reach it. The bound behind it need only be optimistic; at a
	// leaf the comparison is exact.
	extend(d, l int) int
	// keep makes the leaf (node horizon) the incumbent.
	keep()
}

// searchHorizon returns the first track of the best leaf of t: among the
// leaves that beat t's initial incumbent and that no other leaf beats, the
// one with the smallest first track; 0 when no leaf beats the initial
// incumbent. Node 0 must be set and the incumbent initialised. The
// constant-track leaves go first: they are cheap and usually near the best.
func searchHorizon(t horizonTree, horizon, tracks int) int {
	best := 0
	for l := tracks - 1; l >= 0; l-- {
		c := 0
		for d := 0; d < horizon; d++ {
			c = t.extend(d, l)
		}
		if c > 0 || c == 0 && l < best {
			t.keep()
			best = l
		}
	}
	descend(t, 0, 0, horizon, tracks, &best)
	return best
}

// descend searches the children of node d, whose path starts with track
// first (unset at d == 0), and records in *best the first track of every
// leaf it keeps. A full tie goes to the smaller first track, so a branch
// that can at most tie the incumbent is cut only when its first track is
// not smaller.
func descend(t horizonTree, d, first, horizon, tracks int, best *int) {
	for l := tracks - 1; l >= 0; l-- {
		if d == 0 {
			first = l
		}
		if c := t.extend(d, l); c < 0 || c == 0 && first >= *best {
			continue
		}
		if d+1 == horizon {
			t.keep()
			*best = first
			continue
		}
		descend(t, d+1, first, horizon, tracks, best)
	}
}

// prefer is the three-way outcome of a comparison that already found a
// difference: +1 when the candidate wins it, -1 when it loses.
func prefer(wins bool) int {
	if wins {
		return 1
	}
	return -1
}

// window is one decision's view of the next horizon chunks: sizes and
// qualities indexed [depth*tracks+track], and per depth the highest quality
// and the smallest size, which the bounds add up.
type window struct {
	horizon, tracks int
	sizeBits, qual  []float64
	maxQual         []float64
	minSizeBits     []float64
}

// load reads chunks i0 .. i0+horizon-1 of v, with qual(l, i) the quality
// of chunk i at track l. Buffers grow once and are then reused.
func (w *window) load(v *video.Video, i0, horizon int, qual func(l, i int) float64) {
	w.horizon, w.tracks = horizon, v.NumTracks()
	n := horizon * w.tracks
	w.sizeBits, w.qual = resize(w.sizeBits, n), resize(w.qual, n)
	w.maxQual, w.minSizeBits = resize(w.maxQual, horizon), resize(w.minSizeBits, horizon)
	for d := 0; d < horizon; d++ {
		row := d * w.tracks
		for l := 0; l < w.tracks; l++ {
			s, q := v.ChunkSize(l, i0+d), qual(l, i0+d)
			w.sizeBits[row+l], w.qual[row+l] = s, q
			if l == 0 || q > w.maxQual[d] {
				w.maxQual[d] = q
			}
			if l == 0 || s < w.minSizeBits[d] {
				w.minSizeBits[d] = s
			}
		}
	}
}

// sumBound returns acc plus the highest quality of every depth from d on.
// It adds them one at a time in depth order, as a leaf's running sum adds
// its own qualities, and rounding is monotone, so the result is never
// below the sum of any leaf below a node at depth d whose sum is acc.
func (w *window) sumBound(acc float64, d int) float64 {
	for ; d < w.horizon; d++ {
		acc += w.maxQual[d]
	}
	return acc
}

// bitsBound is sumBound for data: bits plus the smallest size of every
// depth from d on, a lower bound on the total bits of any leaf below.
func (w *window) bitsBound(bits float64, d int) float64 {
	for ; d < w.horizon; d++ {
		bits += w.minSizeBits[d]
	}
	return bits
}

// minBound returns the smallest of m and the highest quality of every
// depth from d on: no leaf below has a higher minimum quality.
func (w *window) minBound(m float64, d int) float64 {
	for ; d < w.horizon; d++ {
		if w.maxQual[d] < m {
			m = w.maxQual[d]
		}
	}
	return m
}

// resize returns s with length n, reallocating only when it is too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
