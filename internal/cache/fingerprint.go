package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sync"

	"cava/internal/trace"
	"cava/internal/video"
)

// A Hasher accumulates the deterministic inputs of a computation into a
// content fingerprint. Every write is length- or tag-delimited so distinct
// input sequences cannot collide by concatenation, and floats are hashed by
// their IEEE-754 bit pattern so the fingerprint is exact, not
// formatting-dependent.
type Hasher struct {
	h   hash.Hash
	buf [8]byte
}

// NewHasher returns a Hasher seeded with the given tag parts (typically a
// format-version string, so changing a serialization invalidates old
// fingerprints).
func NewHasher(parts ...string) *Hasher {
	h := &Hasher{h: sha256.New()}
	for _, p := range parts {
		h.Str(p)
	}
	return h
}

// Str hashes a length-prefixed string.
func (h *Hasher) Str(s string) *Hasher {
	h.I64(int64(len(s)))
	h.h.Write([]byte(s))
	return h
}

// I64 hashes one integer.
func (h *Hasher) I64(v int64) *Hasher {
	binary.LittleEndian.PutUint64(h.buf[:], uint64(v))
	h.h.Write(h.buf[:])
	return h
}

// F64 hashes one float by bit pattern.
func (h *Hasher) F64(v float64) *Hasher {
	binary.LittleEndian.PutUint64(h.buf[:], bitsOf(v))
	h.h.Write(h.buf[:])
	return h
}

// F64s hashes a length-prefixed float slice.
func (h *Hasher) F64s(vs []float64) *Hasher {
	h.I64(int64(len(vs)))
	for _, v := range vs {
		h.F64(v)
	}
	return h
}

// Sum returns the hex fingerprint.
func (h *Hasher) Sum() string {
	return hex.EncodeToString(h.h.Sum(nil))
}

func bitsOf(v float64) uint64 { return math.Float64bits(v) }

// traceFPs memoizes trace fingerprints per pointer. Content-identical
// traces at different addresses still agree (the fingerprint hashes
// content); the pointer map is only a fast path for the common case of one
// generated instance reused across requests.
var traceFPs sync.Map // *trace.Trace -> string

// fingerprintKey keys a video's memoized content fingerprint.
type fingerprintKey struct{}

// VideoFingerprint returns a content fingerprint of a video: identity
// fields, the latent complexity series and every track's chunk sizes, so
// any change to the generator invalidates dependent cache entries. It is
// computed once per video and kept in the video's memo.
func VideoFingerprint(v *video.Video) string {
	return v.Memo(fingerprintKey{}, func() any {
		h := NewHasher("video-v1")
		h.Str(v.Name).I64(int64(v.Genre)).I64(int64(v.Codec)).I64(int64(v.Source))
		h.F64(v.ChunkDurSec).F64(v.Cap).F64(v.FPS)
		h.F64s(v.Complexity)
		h.I64(int64(len(v.Tracks)))
		for _, t := range v.Tracks {
			h.I64(int64(t.ID)).Str(t.Res.Name)
			h.F64(t.AvgBitrateBps).F64(t.PeakBitrateBps).F64(t.DeclaredBitrateBps)
			h.F64s(t.ChunkSizesBits)
		}
		return h.Sum()
	}).(string)
}

// TraceFingerprint returns a content fingerprint of a bandwidth trace.
func TraceFingerprint(tr *trace.Trace) string {
	if fp, ok := traceFPs.Load(tr); ok {
		return fp.(string)
	}
	h := NewHasher("trace-v1")
	h.Str(tr.ID).F64(tr.IntervalSec).F64s(tr.Samples)
	fp := h.Sum()
	traceFPs.Store(tr, fp)
	return fp
}

// GenConfigKey fingerprints a video generator configuration — the full
// deterministic input of video.Generate.
func GenConfigKey(cfg video.GenConfig) string {
	h := NewHasher("genconfig-v1")
	h.Str(cfg.Name).I64(int64(cfg.Genre)).I64(int64(cfg.Codec)).I64(int64(cfg.Source))
	h.F64(cfg.ChunkDurSec).F64(cfg.Cap).F64(cfg.DurationSec).F64(cfg.FPS).I64(cfg.Seed)
	return h.Sum()
}
