package core

import (
	"sync"
	"testing"

	"cava/internal/abr"
	"cava/internal/quality"
	"cava/internal/scene"
)

var allocSink abr.Algorithm

// TestNewAllocs gates per-session construction cost: once a video's
// per-video state exists, a CAVA session is one allocation (the instance)
// and an auto-tuning one two (the wrapper and the instance).
func TestNewAllocs(t *testing.T) {
	v := testVideo()
	allocSink = New(v)
	if n := testing.AllocsPerRun(100, func() { allocSink = New(v) }); n != 1 {
		t.Errorf("New makes %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { allocSink = NewAuto(v) }); n != 2 {
		t.Errorf("NewAuto makes %v allocations, want 2", n)
	}
}

// TestPerVideoArtifactsShared races many first callers on one fresh video:
// every caller must receive the same quality table, the same
// classification slice, and CAVA sessions pointing at one shared state.
func TestPerVideoArtifactsShared(t *testing.T) {
	v := testVideo()
	const n = 16
	tables := make([]*quality.Table, n)
	cats := make([][]scene.Category, n)
	sessions := make([]*CAVA, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				sessions[i] = New(v)
				tables[i] = quality.TableOf(v, quality.PSNR)
				cats[i] = scene.ClassifyDefault(v)
			case 1:
				cats[i] = scene.ClassifyDefault(v)
				sessions[i] = New(v)
				tables[i] = quality.TableOf(v, quality.PSNR)
			default:
				tables[i] = quality.TableOf(v, quality.PSNR)
				cats[i] = scene.ClassifyDefault(v)
				sessions[i] = New(v)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if tables[i] != tables[0] {
			t.Fatalf("caller %d got a different quality table", i)
		}
		if &cats[i][0] != &cats[0][0] {
			t.Fatalf("caller %d got a different classification slice", i)
		}
		if sessions[i].videoState != sessions[0].videoState {
			t.Fatalf("session %d got a different per-video state", i)
		}
	}
	if &sessions[0].Categories()[0] != &cats[0][0] {
		t.Error("CAVA classification is not the shared default classification")
	}
	if quality.TableOf(v, quality.VMAFTV) == tables[0] {
		t.Error("tables of different metrics share one entry")
	}
}
