package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"

	"cava/internal/fleet"
	"cava/internal/metrics"
	"cava/internal/sim"
)

// digestFile holds the recorded expected output digests, per workload and
// seed, in the benchmark's directory; the binary embeds it.
const digestFile = "digests.json"

// canarySeed is checked on every run whose own seed has no recorded
// digest, so the program's outputs are always compared against a record.
const canarySeed = 1

// hasher folds values into a SHA-256 digest; floats go in as bit patterns.
type hasher struct{ b []byte }

func (h *hasher) u64(v uint64) *hasher {
	h.b = binary.LittleEndian.AppendUint64(h.b, v)
	return h
}
func (h *hasher) i64(v int64) *hasher   { return h.u64(uint64(v)) }
func (h *hasher) f64(v float64) *hasher { return h.u64(math.Float64bits(v)) }
func (h *hasher) str(s string) *hasher  { h.i64(int64(len(s))); h.b = append(h.b, s...); return h }
func (h *hasher) f64s(xs []float64) *hasher {
	h.i64(int64(len(xs)))
	for _, x := range xs {
		h.f64(x)
	}
	return h
}

// sum returns the first 16 hex digits of the SHA-256 of everything folded.
func (h *hasher) sum() string {
	s := sha256.Sum256(h.b)
	return hex.EncodeToString(s[:8])
}

// fleetDigest covers a fleet Result: event and session accounting, the
// quarantine count and every distribution as float bit patterns.
func fleetDigest(r *fleet.Result) string {
	h := &hasher{}
	h.i64(int64(r.Sessions)).i64(r.Events).i64(r.ExpectedEvents).i64(r.LostEvents)
	h.i64(int64(r.Completed)).i64(int64(len(r.Quarantined))).f64(r.VirtualSec)
	for _, d := range []metrics.Sorted{
		r.RebufferSec, r.StartupDelaySec, r.CompletionSec, r.SessionLenSec,
		r.AvgQuality, r.QualityChange, r.AvgLevel, r.Switches, r.DataMB,
	} {
		h.f64s(d.CDF().X)
	}
	return h.sum()
}

// sweepDigest covers every per-session summary of a sweep, in cell order
// (scheme, then video) and trace order within a cell.
func sweepDigest(r *sim.Results) string {
	keys := make([]sim.CellKey, 0, len(r.Cells))
	for k := range r.Cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Scheme != keys[j].Scheme {
			return keys[i].Scheme < keys[j].Scheme
		}
		return keys[i].Video < keys[j].Video
	})
	h := &hasher{}
	for _, k := range keys {
		h.str(k.Scheme).str(k.Video)
		for _, s := range r.Cells[k] {
			h.str(s.Scheme).str(s.VideoID).str(s.TraceID)
			for _, x := range []float64{
				s.Q4Quality, s.Q4MedianQuality, s.Q13Quality, s.AvgQuality,
				s.LowQualityPct, s.GoodQ4Pct, s.RebufferSec, s.QualityChange,
				s.DataMB, s.StartupDelaySec, s.WastedMB,
			} {
				h.f64(x)
			}
			h.f64s(s.ChunkQualities)
			h.i64(int64(len(s.Categories)))
			for _, c := range s.Categories {
				h.i64(int64(c))
			}
			h.i64(int64(s.Retries)).i64(int64(s.Truncations)).i64(int64(s.Abandonments)).i64(int64(s.SkippedChunks))
		}
	}
	return h.sum()
}

// sizesDigest covers per-path body sizes and request counts, in path order.
func sizesDigest(sizes map[string]pathTally) string {
	paths := make([]string, 0, len(sizes))
	for p := range sizes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := &hasher{}
	for _, p := range paths {
		h.str(p).i64(sizes[p].size).i64(sizes[p].count)
	}
	return h.sum()
}

// digestTable maps workload → seed → expected digest.
type digestTable map[string]map[string]string

func loadDigests(path string) (digestTable, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read recorded digests: %w", err)
	}
	var t digestTable
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return t, nil
}

func (t digestTable) lookup(workload string, seed int64) (string, bool) {
	d, ok := t[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

func (t digestTable) set(workload string, seed int64, d string) {
	if t[workload] == nil {
		t[workload] = make(map[string]string)
	}
	t[workload][strconv.FormatInt(seed, 10)] = d
}

func (t digestTable) save(path string) error {
	raw, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
