package cava_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"cava/internal/fleet"
	"cava/internal/quality"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

// update rewrites testdata/golden.json from the current code instead of
// checking against it: go test -run TestGolden -update .
// Every rewrite changes recorded outputs and must be explained in
// CHANGES.md.
var update = flag.Bool("update", false, "rewrite the golden output digests")

const goldenPath = "testdata/golden.json"

// digestValue returns the SHA-256 of a value's full content, walked by
// reflection: floats by IEEE-754 bit pattern, strings and slices length
// prefixed, maps in sorted key order, unexported fields included. Any
// change to any output field changes the digest.
func digestValue(x any) string {
	h := sha256.New()
	hashValue(h, reflect.ValueOf(x))
	return hex.EncodeToString(h.Sum(nil))
}

func hashU64(h hash.Hash, u uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], u)
	h.Write(b[:])
}

func hashValue(h hash.Hash, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			hashU64(h, 1)
		} else {
			hashU64(h, 0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		hashU64(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		hashU64(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		hashU64(h, math.Float64bits(v.Float()))
	case reflect.String:
		hashU64(h, uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			hashU64(h, math.MaxUint64)
			return
		}
		hashU64(h, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			hashU64(h, math.MaxUint64)
			return
		}
		hashU64(h, 1)
		hashValue(h, v.Elem())
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool {
			return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j])
		})
		hashU64(h, uint64(len(keys)))
		for _, k := range keys {
			hashValue(h, k)
			hashValue(h, v.MapIndex(k))
		}
	default:
		panic(fmt.Sprintf("digestValue: unsupported kind %s", v.Kind()))
	}
}

// goldenCorpus is the small seeded input every golden run shares: two
// videos with distinct IDs and chunk durations, and a mixed LTE/FCC corpus.
func goldenCorpus() ([]*video.Video, []*trace.Trace) {
	videos := []*video.Video{
		video.YouTubeVideo(video.OpenTitles[0]),
		video.FFmpegVideo(video.OpenTitles[1], video.H265),
	}
	traces := append(trace.GenLTESet(2), trace.GenFCCSet(1)...)
	return videos, traces
}

// goldenDigests computes every recorded digest: one seeded fleet Result
// per registry scheme (staggered arrivals, random offsets, collected
// per-chunk results) and one sim.Run over all registry schemes.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	videos, traces := goldenCorpus()
	out := make(map[string]string)
	for _, sc := range sim.SchemeAll() {
		res, err := fleet.Run(fleet.Config{
			Videos: videos, Traces: traces, Scheme: sc,
			Sessions: 12, Workers: 2, Seed: 11,
			ArrivalRatePerSec: 0.5, RandomTraceOffsets: true,
			Metric: quality.VMAFPhone, Collect: true,
		})
		if err != nil {
			t.Fatalf("fleet %s: %v", sc.Name, err)
		}
		out["fleet/"+sc.Name] = digestValue(res)
	}
	res, err := sim.Run(sim.Request{
		Videos: videos, Traces: traces, Schemes: sim.SchemeAll(),
		Metric: quality.VMAFPhone, Workers: 2,
	})
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	out["sim/all"] = digestValue(res)
	return out
}

// TestGolden pins the fleet and sweep outputs of every registry scheme to
// digests recorded in testdata/golden.json. A refactor or speedup must
// leave them unchanged; an intentional output change reruns with -update
// and explains why in CHANGES.md.
func TestGolden(t *testing.T) {
	got := goldenDigests(t)
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(got))
	for k := range got {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if want[k] != got[k] {
			t.Errorf("%s: digest %s, recorded %s", k, got[k], want[k])
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: recorded but no longer computed", k)
		}
	}
}
