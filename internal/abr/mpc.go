package abr

import (
	"math"

	"cava/internal/video"
)

// MPC implements the model-predictive-control scheme of Yin et al.
// (SIGCOMM'15) with the paper's recommended VBR adaptation: actual chunk
// sizes drive the predicted buffer evolution. At each decision it searches
// all track sequences over a finite horizon (pruned exactly, see
// lookahead.go), simulates the buffer under the predicted bandwidth, and
// picks the first track of the sequence maximizing
//
//	QoE = Σ q_k − λ Σ |q_k − q_{k−1}| − μ Σ rebuffer_k
//
// where q_k is the chunk bitrate in Mbps. RobustMPC divides the bandwidth
// prediction by (1 + max recent relative prediction error), trading some
// quality for much less rebuffering under volatile bandwidth.
type MPC struct {
	v *video.Video
	// Horizon is the look-ahead length in chunks (5 in the paper).
	Horizon int
	// LambdaSwitch weighs the quality-change penalty.
	LambdaSwitch float64
	// MuRebuf weighs the rebuffering penalty (quality units per second).
	MuRebuf float64
	// BufferCap bounds the predicted buffer (the player's max buffer).
	BufferCap float64
	// Robust enables the RobustMPC error-discounted prediction.
	Robust bool

	// errs is a ring of the last len(errs) relative prediction errors;
	// unfilled slots are 0, which the max over the ring ignores.
	errs     [5]float64
	errNext  int
	lastPred float64
	tree     mpcTree
}

// NewMPC returns an MPC instance with the paper-aligned defaults
// (horizon 5, λ=1, μ=6 quality-units/s, 100 s buffer cap).
func NewMPC(v *video.Video, robust bool) *MPC {
	return &MPC{
		v:            v,
		Horizon:      5,
		LambdaSwitch: 1,
		MuRebuf:      6,
		BufferCap:    100,
		Robust:       robust,
	}
}

// Name implements Algorithm.
func (m *MPC) Name() string {
	if m.Robust {
		return "RobustMPC"
	}
	return "MPC"
}

// qual returns the MPC quality of chunk i at level l: its bitrate in Mbps.
func (m *MPC) qual(l, i int) float64 {
	return m.v.ChunkBitrate(l, i) / 1e6
}

// Select implements Algorithm.
func (m *MPC) Select(st State) int {
	v := m.v
	// Track prediction error for the robust discount.
	if m.lastPred > 0 && st.LastThroughputBps > 0 {
		m.errs[m.errNext] = math.Abs(m.lastPred-st.LastThroughputBps) / m.lastPred
		m.errNext = (m.errNext + 1) % len(m.errs)
	}
	pred := st.Est
	m.lastPred = pred
	if pred <= 0 {
		return 0
	}
	if m.Robust {
		maxErr := 0.0
		for _, e := range m.errs {
			if e > maxErr {
				maxErr = e
			}
		}
		pred /= 1 + maxErr
	}

	horizon := m.Horizon
	if rem := v.NumChunks() - st.ChunkIndex; rem < horizon {
		horizon = rem
	}
	if horizon <= 0 {
		return clampLevel(st.PrevLevel, v.NumTracks())
	}

	prevQ := 0.0
	havePrev := st.PrevLevel >= 0
	if havePrev {
		if pi := st.ChunkIndex - 1; pi >= 0 {
			prevQ = m.qual(st.PrevLevel, pi)
		}
	}

	t := &m.tree
	t.m = m
	t.w.load(v, st.ChunkIndex, horizon, m.qual)
	t.dlSec = resize(t.dlSec, len(t.w.sizeBits))
	for k, size := range t.w.sizeBits {
		t.dlSec[k] = size / pred
	}
	t.nodes = resize(t.nodes, horizon+1)
	t.nodes[0] = mpcNode{buf: st.Buffer, prevQ: prevQ, hasPrev: havePrev}
	t.best = math.Inf(-1)
	// The bound adds no penalty, so it is sound only while penalties are
	// non-negative; otherwise every branch is searched.
	t.bounded = m.MuRebuf >= 0 && m.LambdaSwitch >= 0
	return searchHorizon(t, horizon, v.NumTracks())
}

// mpcNode is a node of MPC's lookahead: the predicted buffer, the QoE
// accumulated so far and the quality of the previous chunk.
type mpcNode struct {
	buf, acc, prevQ float64
	hasPrev         bool
}

// mpcTree is MPC's horizonTree. A leaf's score is its QoE; the bound of a
// node adds the highest quality of each remaining chunk to its QoE, which
// no leaf below can exceed while both penalties are non-negative.
type mpcTree struct {
	m       *MPC
	w       window
	dlSec   []float64 // predicted download time of each window chunk
	nodes   []mpcNode
	best    float64
	bounded bool
}

func (t *mpcTree) extend(d, l int) int {
	n, m := &t.nodes[d], t.m
	k := d*t.w.tracks + l
	q := t.w.qual[k]
	b := n.buf - t.dlSec[k]
	rebuf := 0.0
	if b < 0 {
		rebuf = -b
		b = 0
	}
	b += m.v.ChunkDurSec
	if b > m.BufferCap {
		b = m.BufferCap
	}
	a := n.acc + q - m.MuRebuf*rebuf
	if n.hasPrev {
		a -= m.LambdaSwitch * math.Abs(q-n.prevQ)
	}
	t.nodes[d+1] = mpcNode{buf: b, acc: a, prevQ: q, hasPrev: true}
	score := a
	if d+1 < t.w.horizon {
		if !t.bounded {
			return 1
		}
		score = t.w.sumBound(score, d+1)
	}
	//lint:allow floateq exact tie between a score and the incumbent's
	if score != t.best {
		return prefer(score > t.best)
	}
	return 0
}

func (t *mpcTree) keep() { t.best = t.nodes[t.w.horizon].acc }
