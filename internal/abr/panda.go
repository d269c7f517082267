package abr

import (
	"math"

	"cava/internal/quality"
	"cava/internal/video"
)

// PANDAMode selects the PANDA/CQ objective over the look-ahead window.
type PANDAMode int

// The two PANDA/CQ variants the paper evaluates (§6.1).
const (
	// MaxSum maximizes the sum of the qualities of the next N chunks.
	MaxSum PANDAMode = iota
	// MaxMin maximizes the minimum quality among the next N chunks.
	MaxMin
)

// PANDACQ implements the consistent-quality window optimization of Li et
// al. (MMSys'14) as characterized in the paper: it is the only baseline
// that consumes per-chunk video-quality values (information not available
// in today's DASH/HLS manifests). Over a window of N future chunks it
// searches track sequences within the window's data budget — the predicted
// bandwidth × window playback time, scaled by BudgetFactor — and picks the
// first track of the sequence optimizing the selected quality objective,
// breaking ties toward fewer track switches and then lower data usage.
// The rate budget is what makes the objectives meaningful: without it,
// max-sum would degenerately select the top track for every chunk. The
// scheme equalizes quality rather than regulating the buffer, so sustained
// over-prediction drains the buffer into stalls — the §6.3/§6.7 behaviour
// the paper reports. When no sequence fits the budget it picks the lowest
// track.
type PANDACQ struct {
	v *video.Video
	q *quality.Table
	// Mode is the quality objective.
	Mode PANDAMode
	// Horizon is the look-ahead window in chunks (5 as in CAVA's N).
	Horizon int
	// BudgetFactor scales the window's data budget relative to the
	// predicted bandwidth (1 keeps the buffer level on average).
	BudgetFactor float64

	tree pandaTree
}

// NewPANDACQ returns a PANDA/CQ instance over the given quality table.
func NewPANDACQ(v *video.Video, q *quality.Table, mode PANDAMode) *PANDACQ {
	return &PANDACQ{v: v, q: q, Mode: mode, Horizon: 5, BudgetFactor: 1}
}

// Name implements Algorithm.
func (p *PANDACQ) Name() string {
	if p.Mode == MaxMin {
		return "PANDA/CQ max-min"
	}
	return "PANDA/CQ max-sum"
}

// Select implements Algorithm.
func (p *PANDACQ) Select(st State) int {
	v := p.v
	pred := st.Est
	if pred <= 0 {
		return 0
	}
	horizon := p.Horizon
	if rem := v.NumChunks() - st.ChunkIndex; rem < horizon {
		horizon = rem
	}
	if horizon <= 0 {
		return clampLevel(st.PrevLevel, v.NumTracks())
	}

	t := &p.tree
	t.mode = p.Mode
	t.budget = p.BudgetFactor * pred * float64(horizon) * v.ChunkDurSec
	t.w.load(v, st.ChunkIndex, horizon, p.q.At)
	t.nodes = resize(t.nodes, horizon+1)
	t.nodes[0] = pandaNode{prev: st.PrevLevel}
	if p.Mode == MaxMin {
		t.nodes[0].obj = math.Inf(1)
	}
	t.found = false
	return searchHorizon(t, horizon, v.NumTracks())
}

// pandaNode is a node of PANDA/CQ's lookahead: the quality objective so far
// (sum or minimum), the bits, the track switches and the previous track.
type pandaNode struct {
	obj, bits      float64
	switches, prev int
}

// pandaOutcome is what PANDA/CQ compares between track sequences that fit
// the window's data budget.
type pandaOutcome struct {
	obj      float64 // quality objective (higher better)
	switches int
	bits     float64
}

// cmp orders outcomes: +1 when a beats b, 0 on a full tie, -1 otherwise.
// The higher objective wins, then fewer switches, then less data.
func (a pandaOutcome) cmp(b pandaOutcome) int {
	switch {
	//lint:allow floateq exact tie-break between candidate objectives
	case a.obj != b.obj:
		return prefer(a.obj > b.obj)
	case a.switches != b.switches:
		return prefer(a.switches < b.switches)
	//lint:allow floateq exact tie-break between candidate byte sums
	case a.bits != b.bits:
		return prefer(a.bits < b.bits)
	}
	return 0
}

// pandaTree is PANDA/CQ's horizonTree. Only sequences within the budget
// compete. A node none of whose sequences fits, even with the smallest
// remaining chunks, is cut; otherwise its bound is the objective bound, the
// switches so far and the fewest bits any completion can use, an outcome
// at least as good as every sequence below it.
type pandaTree struct {
	mode   PANDAMode
	budget float64
	w      window
	nodes  []pandaNode
	found  bool // best holds a sequence within the budget
	best   pandaOutcome
}

func (t *pandaTree) extend(d, l int) int {
	n := &t.nodes[d]
	k := d*t.w.tracks + l
	q := t.w.qual[k]
	obj := n.obj + q
	if t.mode == MaxMin {
		obj = n.obj
		if q < obj {
			obj = q
		}
	}
	sw := n.switches
	if n.prev >= 0 && l != n.prev {
		sw++
	}
	bits := n.bits + t.w.sizeBits[k]
	t.nodes[d+1] = pandaNode{obj: obj, bits: bits, switches: sw, prev: l}
	if d++; d < t.w.horizon {
		if t.mode == MaxMin {
			obj = t.w.minBound(obj, d)
		} else {
			obj = t.w.sumBound(obj, d)
		}
		bits = t.w.bitsBound(bits, d)
	}
	switch {
	case !(bits <= t.budget): // negated so a NaN budget admits nothing
		return -1
	case !t.found:
		return 1
	}
	return pandaOutcome{obj: obj, switches: sw, bits: bits}.cmp(t.best)
}

func (t *pandaTree) keep() {
	n := &t.nodes[t.w.horizon]
	t.found, t.best = true, pandaOutcome{obj: n.obj, switches: n.switches, bits: n.bits}
}
