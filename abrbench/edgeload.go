package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cava/internal/abr"
	"cava/internal/cliutil"
	"cava/internal/dash"
	"cava/internal/edge"
	"cava/internal/player"
	"cava/internal/trace"
	"cava/internal/video"
)

const (
	edgeOrigins = 3
	// edgeViewers is the number of viewer sessions in one iteration; each
	// fetches one manifest and then the first edgeViewChunks chunks of its
	// video (one minute of the 2 s-chunk FFmpeg encodes), about 10^4
	// requests in all. The session length bounds the working set (about
	// 100 MB of distinct segments), which keeps the edge cache and the
	// process small; whole 300-chunk sessions would need over 1 GB.
	edgeViewers    = 330
	edgeViewChunks = 30
	// edgeTraces is the LTE corpus the viewers' sessions are simulated on,
	// the same lte:100 the fleet workloads use.
	edgeTraces = 100
	// edgeZipfS is the Zipf exponent of video popularity. It is a modelling
	// choice, not a measured value: over three videos it sends 187, 87 and
	// 56 of the 330 viewers to the first, second and third.
	edgeZipfS = 1.1
)

// edgeWorkload is edge-mixed: closed-loop clients call the edge handler in
// process; behind it, loopback origins serve three FFmpeg videos.
type edgeWorkload struct {
	videos  map[string]*video.Video
	ids     []string
	origins []*origin
	edge    *edge.Edge
	handler http.Handler
	cava    func(*video.Video) abr.Algorithm
	plan    []viewer

	// Traced runs only: the tracer of the iteration in flight (nil between
	// traced iterations), and what it saw.
	active       atomic.Pointer[tracer]
	tmu          sync.Mutex
	fetchParents map[string]bool
	hitUS        []float64
	fetchBytes   int64
	cacheHits    uint64
	cacheMisses  uint64
	coalesced    uint64
	evictions    uint64
	tracedIters  int64
}

// viewer is one viewer session: its requests in order.
type viewer struct{ reqs []planned }

type planned struct {
	req  *http.Request
	path string
	// want is the segment's encoded size in bytes, -1 for a manifest.
	want int64
}

// origin is one loopback origin server.
type origin struct {
	srv  *http.Server
	done chan struct{}
}

func (o *origin) close() {
	o.srv.Close()
	<-o.done
}

func newEdgeMixed(seed int64, traced bool) (workload, error) {
	cava, err := cliutil.SchemeByName("cava")
	if err != nil {
		return nil, err
	}
	w := &edgeWorkload{videos: make(map[string]*video.Video), cava: cava}
	var list []*video.Video
	for _, t := range video.OpenTitles[:3] {
		v := video.FFmpegVideo(t, video.H264)
		list = append(list, v)
		w.videos[v.ID()] = v
		w.ids = append(w.ids, v.ID())
	}
	for i := 0; i < edgeOrigins; i++ {
		servers := make([]*dash.Server, len(list))
		for j, v := range list {
			servers[j] = dash.NewServer(v)
		}
		mux, err := dash.NewVideoMux(servers...)
		if err != nil {
			w.close()
			return nil, err
		}
		h := mux.Handler()
		if traced {
			h = w.timedOrigin(h)
		}
		o, err := serveLoopback(h)
		if err != nil {
			w.close()
			return nil, err
		}
		w.origins = append(w.origins, o)
	}
	if w.plan, err = w.planFor(seed); err != nil {
		w.close()
		return nil, err
	}
	cfg := edge.Config{
		Origins:    make([]string, len(w.origins)),
		VideoID:    w.ids[0],
		CacheBytes: workingSet(w.plan) / 2,
		JitterSeed: seed,
	}
	for i, o := range w.origins {
		cfg.Origins[i] = "http://" + o.srv.Addr
	}
	if traced {
		cfg.HTTPClient = &http.Client{Transport: &timedTransport{w: w, base: defaultOriginTransport()}}
	}
	e, err := edge.New(cfg)
	if err != nil {
		w.close()
		return nil, err
	}
	w.edge = e
	w.handler = e.Handler()
	return w, nil
}

func serveLoopback(h http.Handler) (*origin, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := dash.NewHTTPServer(h)
	srv.Addr = ln.Addr().String()
	o := &origin{srv: srv, done: make(chan struct{})}
	go func() {
		defer close(o.done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return o, nil
}

// defaultOriginTransport mirrors the transport edge.New builds when
// Config.HTTPClient is nil, so the traced edge keeps the same timeouts.
func defaultOriginTransport() *http.Transport {
	return &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		ResponseHeaderTimeout: 30 * time.Second,
		MaxIdleConnsPerHost:   16,
	}
}

// planFor makes edgeViewers viewer sessions in an order drawn from seed.
// The viewers themselves are fixed: videos get viewers in proportion to
// their Zipf popularity, viewer n plays LTE trace n mod edgeTraces from an
// offset at golden-ratio steps over the trace, and the seed shuffles their
// arrival order. Drawing the traces and offsets from the seed as well moved
// the origin bytes of an iteration by a quarter between seeds: with the
// cache at half the working set, a small change in which tracks the
// viewers' sessions pick moves many segments between hit and miss. Each
// viewer's requests are the manifest
// followed by the segments a simulated CAVA session of its video on its
// trace downloads, in playback order and at the track CAVA chose for each
// chunk. The session runs on the player's own core (player.StepState, as
// player.Simulate does), cut after edgeViewChunks chunks as the DASH
// testbed's MaxChunks cuts a session.
func (w *edgeWorkload) planFor(seed int64) ([]viewer, error) {
	var videoOf []int
	for i, c := range zipfCounts(edgeViewers, len(w.ids), edgeZipfS) {
		for ; c > 0; c-- {
			videoOf = append(videoOf, i)
		}
	}
	plan := make([]viewer, edgeViewers)
	for n := range plan {
		id := w.ids[videoOf[n]]
		v := w.videos[id]
		tr := trace.GenLTE(n % edgeTraces)
		if err := tr.Validate(); err != nil {
			return nil, err
		}
		// Start offsets spread evenly over the trace (golden-ratio steps),
		// so viewers on one trace do not replay one session.
		_, frac := math.Modf(float64(n) * 0.6180339887498949)
		off := frac * tr.Duration()
		var st player.StepState
		st.Init(v, id, tr.ID, w.cava(v), player.DefaultConfig(), true)
		st.LimitChunks(edgeViewChunks)
		for !st.Done() {
			st.Advance(tr, off)
		}
		res := st.Take()
		add := func(path string, want int64) {
			req, _ := http.NewRequest(http.MethodGet, "http://edge"+path, nil) // path is well-formed
			plan[n].reqs = append(plan[n].reqs, planned{req: req, path: path, want: want})
		}
		add("/v/"+id+"/manifest.json", -1)
		for _, c := range res.Chunks {
			// The origin serves ceil(ChunkSize bits / 8) bytes.
			want := int64(int(v.ChunkSize(c.Level, c.Index)+7) / 8)
			add("/v/"+id+dash.SegmentURL(c.Level, c.Index), want)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan, nil
}

// zipfCounts splits n over k ranks in proportion to the Zipf weights
// (1+i)^-s that rand.NewZipf(r, s, 1, k-1) draws from, rounding the
// cumulative shares so the counts add up to n.
func zipfCounts(n, k int, s float64) []int {
	cum := make([]float64, k)
	var sum float64
	for i := range cum {
		sum += math.Pow(float64(1+i), -s)
		cum[i] = sum
	}
	counts := make([]int, k)
	prev := 0
	for i, c := range cum {
		upto := int(math.Round(float64(n) * c / sum))
		counts[i] = upto - prev
		prev = upto
	}
	return counts
}

// workingSet is the total size of the distinct segments a plan requests.
func workingSet(plan []viewer) int64 {
	seen := make(map[string]bool)
	var total int64
	for _, v := range plan {
		for _, p := range v.reqs {
			if p.want >= 0 && !seen[p.path] {
				seen[p.path] = true
				total += p.want
			}
		}
	}
	return total
}

// pathTally is how often a path was served and its body size; a path
// served with differing sizes keeps size -1.
type pathTally struct{ size, count int64 }

func (p pathTally) add(size int64) pathTally {
	if p.count > 0 && p.size != size {
		size = -1
	}
	return pathTally{size: size, count: p.count + 1}
}

func mergeSizes(dst, src map[string]pathTally) {
	for path, t := range src {
		d := dst[path]
		if d.count > 0 && d.size != t.size {
			t.size = -1
		}
		dst[path] = pathTally{size: t.size, count: d.count + t.count}
	}
}

// countingWriter is a non-buffering http.ResponseWriter: it keeps the
// status and counts body bytes.
type countingWriter struct {
	h      http.Header
	status int
	n      int64
}

func (c *countingWriter) Header() http.Header { return c.h }

func (c *countingWriter) WriteHeader(status int) {
	if c.status == 0 {
		c.status = status
	}
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	c.n += int64(len(p))
	return len(p), nil
}

func (c *countingWriter) reset() {
	clear(c.h)
	c.status, c.n = 0, 0
}

// clientTally is one closed-loop client's view of an iteration.
type clientTally struct {
	lats     []time.Duration
	sizes    map[string]pathTally
	reqs     int64
	segments int64
	failed   int64
	reqDurs  map[string]time.Duration
	err      error
}

// drive runs plan through the edge with one closed-loop client per CPU.
func (w *edgeWorkload) drive(plan []viewer, tr *tracer, iter int64) ([]*clientTally, time.Duration) {
	clients := runtime.GOMAXPROCS(0)
	tallies := make([]*clientTally, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := range tallies {
		t := &clientTally{sizes: make(map[string]pathTally)}
		if tr != nil {
			t.reqDurs = make(map[string]time.Duration)
		}
		tallies[c] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.client(plan, &next, t, tr, iter)
		}()
	}
	wg.Wait()
	return tallies, time.Since(start)
}

func (w *edgeWorkload) client(plan []viewer, next *atomic.Int64, t *clientTally, tr *tracer, iter int64) {
	cw := &countingWriter{h: make(http.Header)}
	for {
		i := next.Add(1) - 1
		if i >= int64(len(plan)) {
			return
		}
		for k, p := range plan[i].reqs {
			req := p.req
			var id string
			if tr != nil {
				// The session header travels with the edge's origin fetches,
				// which lets their spans name this request as parent.
				id = fmt.Sprintf("r%d.%d.%d", iter, i, k)
				req = req.Clone(req.Context())
				req.Header.Set(dash.SessionIDHeader, id)
			}
			cw.reset()
			start := time.Now()
			w.handler.ServeHTTP(cw, req)
			end := time.Now()
			t.lats = append(t.lats, end.Sub(start))
			t.reqs++
			if p.want >= 0 {
				t.segments++
			}
			if tr != nil {
				t.reqDurs[id] = end.Sub(start)
				tr.observe("edge.request", id, "", start, end, tr.sampled(id), false)
			}
			cl, err := strconv.ParseInt(cw.h.Get("Content-Length"), 10, 64)
			switch {
			case cw.status != http.StatusOK:
				t.failed++
			case err != nil || cl != cw.n:
				t.failed++
				t.err = fmt.Errorf("%s: body %d bytes, Content-Length %q", p.path, cw.n, cw.h.Get("Content-Length"))
			case p.want >= 0 && cw.n != p.want:
				t.failed++
				t.err = fmt.Errorf("%s: body %d bytes, segment encodes to %d", p.path, cw.n, p.want)
			}
			t.sizes[p.path] = t.sizes[p.path].add(cw.n)
		}
	}
}

func (w *edgeWorkload) run(tr *tracer) (iterResult, error) {
	var before edge.Stats
	var iter int64
	if tr != nil {
		before = w.edge.Stats()
		w.tracedIters++
		iter = w.tracedIters
		w.active.Store(tr)
		defer w.active.Store(nil)
	}
	tallies, wall := w.drive(w.plan, tr, iter)
	r := iterResult{wall: wall, sessions: int64(len(w.plan))}
	sizes := make(map[string]pathTally)
	for _, t := range tallies {
		if t.err != nil {
			fmt.Printf("edge-mixed: %v\n", t.err)
		}
		r.latencies = append(r.latencies, t.lats...)
		r.requests += t.reqs
		r.events += t.segments
		r.failed += t.failed
		mergeSizes(sizes, t.sizes)
	}
	r.attempted = r.requests
	r.digest = sizesDigest(sizes)
	if tr != nil {
		after := w.edge.Stats()
		w.tmu.Lock()
		w.cacheHits += after.Hits - before.Hits
		w.cacheMisses += after.Misses - before.Misses
		w.coalesced += after.Coalesced - before.Coalesced
		w.evictions += after.Evictions - before.Evictions
		// A request with no origin fetch of its own was served from the
		// cache (or waited on another request's fetch, which edge.Stats
		// counts as coalesced).
		for _, t := range tallies {
			for id, d := range t.reqDurs {
				if !w.fetchParents[id] {
					w.hitUS = append(w.hitUS, float64(d)/1e3)
				}
			}
		}
		clear(w.fetchParents)
		w.tmu.Unlock()
	}
	return r, nil
}

// reference runs seed's plan through the edge and digests the per-path body
// sizes and counts, which do not depend on what the cache holds.
func (w *edgeWorkload) reference(seed int64) (string, error) {
	plan, err := w.planFor(seed)
	if err != nil {
		return "", err
	}
	tallies, _ := w.drive(plan, nil, 0)
	sizes := make(map[string]pathTally)
	for _, t := range tallies {
		if t.failed > 0 {
			return "", fmt.Errorf("edge reference for seed %d: %d failed requests (%v)", seed, t.failed, t.err)
		}
		mergeSizes(sizes, t.sizes)
	}
	return sizesDigest(sizes), nil
}

func (w *edgeWorkload) layers(tr *tracer, traced int, m metricSet) error {
	n := float64(traced)
	w.tmu.Lock()
	defer w.tmu.Unlock()
	fetchMS := nsTo(tr.durations("edge.origin.fetch"), 1e6)
	m.set("edge.origin.fetches", float64(len(fetchMS))/n, "count")
	m.set("edge.origin.bytes", float64(w.fetchBytes)/n, "B")
	m.set("edge.origin.fetch_ms_p50", percentile(fetchMS, 50), "ms")
	m.set("edge.origin.fetch_ms_p99", percentile(fetchMS, 99), "ms")
	m.set("dash.origin.handler_us_p50", percentile(nsTo(tr.durations("dash.origin.handler"), 1e3), 50), "us")
	if total := w.cacheHits + w.cacheMisses; total > 0 {
		m.set("edge.cache.hit_ratio", float64(w.cacheHits)/float64(total), "ratio")
	}
	m.set("edge.cache.coalesced", float64(w.coalesced)/n, "count")
	m.set("edge.cache.evictions", float64(w.evictions)/n, "count")
	m.set("edge.hit.latency_us_p50", percentile(w.hitUS, 50), "us")
	fmt.Printf("edge-mixed traced: cache hit ratio %.4f (%d hits, %d misses)\n", m["edge.cache.hit_ratio"].Value, w.cacheHits, w.cacheMisses)
	return nil
}

func nsTo(ns []int64, unit float64) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / unit
	}
	return out
}

func (w *edgeWorkload) close() {
	if w.edge != nil {
		w.edge.Close()
	}
	for _, o := range w.origins {
		o.close()
	}
}

// timedOrigin wraps an origin handler to time each request while a traced
// iteration runs.
func (w *edgeWorkload) timedOrigin(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr := w.active.Load()
		if tr == nil {
			h.ServeHTTP(rw, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(rw, r)
		id := r.Header.Get(dash.SessionIDHeader)
		tr.observe("dash.origin.handler", id+"/origin", id, start, time.Now(), tr.sampled(id), true)
	})
}

// timedTransport times the edge's origin fetches, from sending the request
// to closing the response body, while a traced iteration runs.
type timedTransport struct {
	w    *edgeWorkload
	base http.RoundTripper
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.w.active.Load()
	if tr == nil {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, t: t, tr: tr, parent: req.Header.Get(dash.SessionIDHeader), start: start}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	t      *timedTransport
	tr     *tracer
	parent string
	start  time.Time
	n      int64
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	end := time.Now()
	w := b.t.w
	w.tmu.Lock()
	w.fetchBytes += b.n
	if w.fetchParents == nil {
		w.fetchParents = make(map[string]bool)
	}
	w.fetchParents[b.parent] = true
	w.tmu.Unlock()
	b.tr.observe("edge.origin.fetch", b.parent+"/fetch", b.parent, b.start, end, b.tr.sampled(b.parent), true)
	return err
}
