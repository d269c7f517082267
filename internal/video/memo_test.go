package video

import (
	"sync"
	"sync/atomic"
	"testing"
)

type testKey int

// TestMemoComputesOncePerKey races first requests for one key: compute
// runs once and every caller gets its result. A nested request for another
// key from inside compute must not deadlock.
func TestMemoComputesOncePerKey(t *testing.T) {
	v := YouTubeVideo(OpenTitles[0])
	var calls atomic.Int32
	const n = 32
	got := make([]*int, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			got[i] = v.Memo(testKey(1), func() any {
				calls.Add(1)
				inner := v.Memo(testKey(2), func() any { return new(int) }).(*int)
				*inner = 7
				x := 42
				return &x
			}).(*int)
		}(i)
	}
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("compute ran %d times, want 1", c)
	}
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different artifact", i)
		}
	}
	if *got[0] != 42 {
		t.Errorf("artifact = %d, want 42", *got[0])
	}
	if inner := v.Memo(testKey(2), func() any { return new(int) }).(*int); *inner != 7 {
		t.Errorf("nested artifact = %d, want the one built inside compute", *inner)
	}
	// Another video has its own memo.
	if other := YouTubeVideo(OpenTitles[0]).Memo(testKey(1), func() any { return new(int) }).(*int); other == got[0] {
		t.Error("two videos share one memo entry")
	}
}
