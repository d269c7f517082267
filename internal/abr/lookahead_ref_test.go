package abr

import (
	"math"

	"cava/internal/quality"
	"cava/internal/video"
)

// The brute-force lookahead searches MPC and PANDA/CQ ran before the shared
// pruned search (lookahead.go), kept unchanged as the reference the
// differential tests compare every decision against: each enumerates all
// tracks^horizon sequences in ascending order through a recursive closure.

// NewReference returns the brute-force reference of an *MPC or *PANDACQ,
// with the same parameters. Package abr_test reaches it through this export.
func NewReference(a Algorithm) Algorithm {
	switch a := a.(type) {
	case *MPC:
		r := newRefMPC(a.v, a.Robust)
		r.Horizon, r.LambdaSwitch, r.MuRebuf, r.BufferCap = a.Horizon, a.LambdaSwitch, a.MuRebuf, a.BufferCap
		return r
	case *PANDACQ:
		r := newRefPANDACQ(a.v, a.q, a.Mode)
		r.Horizon, r.BudgetFactor = a.Horizon, a.BudgetFactor
		return r
	}
	return nil
}

func (m *refMPC) Name() string     { return "reference " + (&MPC{Robust: m.Robust}).Name() }
func (p *refPANDACQ) Name() string { return "reference " + (&PANDACQ{Mode: p.Mode}).Name() }

// refMPC is MPC/RobustMPC with its brute-force search.
type refMPC struct {
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

	errWindow []float64
	lastPred  float64
}

// newRefMPC returns a reference MPC instance with the paper-aligned defaults
// (horizon 5, λ=1, μ=6 quality-units/s, 100 s buffer cap).
func newRefMPC(v *video.Video, robust bool) *refMPC {
	return &refMPC{
		v:            v,
		Horizon:      5,
		LambdaSwitch: 1,
		MuRebuf:      6,
		BufferCap:    100,
		Robust:       robust,
	}
}

// qual returns the MPC quality of chunk i at level l: its bitrate in Mbps.
func (m *refMPC) qual(l, i int) float64 {
	return m.v.ChunkBitrate(l, i) / 1e6
}

// Select implements Algorithm.
func (m *refMPC) Select(st State) int {
	v := m.v
	// Track prediction error for the robust discount.
	if m.lastPred > 0 && st.LastThroughputBps > 0 {
		e := math.Abs(m.lastPred-st.LastThroughputBps) / m.lastPred
		m.errWindow = append(m.errWindow, e)
		if len(m.errWindow) > 5 {
			m.errWindow = m.errWindow[len(m.errWindow)-5:]
		}
	}
	pred := st.Est
	m.lastPred = pred
	if pred <= 0 {
		return 0
	}
	if m.Robust {
		maxErr := 0.0
		for _, e := range m.errWindow {
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

	best := math.Inf(-1)
	bestFirst := 0
	var dfs func(depth int, buf, prevQ, acc float64, first int, hasPrev bool)
	dfs = func(depth int, buf, prevQ, acc float64, first int, hasPrev bool) {
		if depth == horizon {
			if acc > best {
				best = acc
				bestFirst = first
			}
			return
		}
		i := st.ChunkIndex + depth
		for l := 0; l < v.NumTracks(); l++ {
			dl := v.ChunkSize(l, i) / pred
			b := buf - dl
			rebuf := 0.0
			if b < 0 {
				rebuf = -b
				b = 0
			}
			b += v.ChunkDurSec
			if b > m.BufferCap {
				b = m.BufferCap
			}
			q := m.qual(l, i)
			a := acc + q - m.MuRebuf*rebuf
			if hasPrev {
				a -= m.LambdaSwitch * math.Abs(q-prevQ)
			}
			f := first
			if depth == 0 {
				f = l
			}
			dfs(depth+1, b, q, a, f, true)
		}
	}
	dfs(0, st.Buffer, prevQ, 0, 0, havePrev)
	return bestFirst
}

// refPANDACQ is PANDA/CQ with its brute-force search.
type refPANDACQ struct {
	v *video.Video
	q *quality.Table
	// Mode is the quality objective.
	Mode PANDAMode
	// Horizon is the look-ahead window in chunks (5 as in CAVA's N).
	Horizon int
	// BufferCap bounds the predicted buffer.
	BufferCap float64
	// BudgetFactor scales the window's data budget relative to the
	// predicted bandwidth (1 keeps the buffer level on average).
	BudgetFactor float64
}

// newRefPANDACQ returns a PANDA/CQ instance over the given quality table.
func newRefPANDACQ(v *video.Video, q *quality.Table, mode PANDAMode) *refPANDACQ {
	return &refPANDACQ{v: v, q: q, Mode: mode, Horizon: 5, BufferCap: 100, BudgetFactor: 1}
}

// Select implements Algorithm.
func (p *refPANDACQ) Select(st State) int {
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

	type cand struct {
		feasible bool
		obj      float64 // quality objective (higher better)
		rebuf    float64
		switches int
		bits     float64
		first    int
	}
	best := cand{feasible: false, obj: math.Inf(-1), rebuf: math.Inf(1)}
	better := func(a, b cand) bool {
		if a.feasible != b.feasible {
			return a.feasible
		}
		if !a.feasible {
			// Nothing fits the budget: less data wins.
			//lint:allow floateq exact tie-break between candidate byte sums
			if a.bits != b.bits {
				return a.bits < b.bits
			}
			return a.obj > b.obj
		}
		//lint:allow floateq exact tie-break between candidate objectives
		if a.obj != b.obj {
			return a.obj > b.obj
		}
		if a.switches != b.switches {
			return a.switches < b.switches
		}
		return a.bits < b.bits
	}

	budget := p.BudgetFactor * pred * float64(horizon) * v.ChunkDurSec

	var dfs func(depth int, buf float64, prevL int, sum, min, rebuf, bits float64, switches, first int)
	dfs = func(depth int, buf float64, prevL int, sum, min, rebuf, bits float64, switches, first int) {
		if depth == horizon {
			obj := sum
			if p.Mode == MaxMin {
				obj = min
			}
			c := cand{feasible: bits <= budget, obj: obj, rebuf: rebuf,
				switches: switches, bits: bits, first: first}
			if better(c, best) {
				best = c
			}
			return
		}
		i := st.ChunkIndex + depth
		for l := 0; l < v.NumTracks(); l++ {
			size := v.ChunkSize(l, i)
			dl := size / pred
			b := buf - dl
			rb := rebuf
			if b < 0 {
				rb += -b
				b = 0
			}
			b += v.ChunkDurSec
			if b > p.BufferCap {
				b = p.BufferCap
			}
			q := p.q.At(l, i)
			mn := min
			if q < mn {
				mn = q
			}
			sw := switches
			if prevL >= 0 && l != prevL {
				sw++
			}
			f := first
			if depth == 0 {
				f = l
			}
			dfs(depth+1, b, l, sum+q, mn, rb, bits+size, sw, f)
		}
	}
	dfs(0, st.Buffer, st.PrevLevel, 0, math.Inf(1), 0, 0, 0, 0)
	return best.first
}
