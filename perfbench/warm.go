package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamsched/internal/plancache"
	"streamsched/internal/sdf"
	"streamsched/internal/server"
)

// serve-warm: a closed loop of one client per CPU re-posting pre-warmed
// /v1/plan and /v1/profile requests. Half the requests resend the exact
// bytes that warmed the cache, which the daemon answers from its raw-body
// memo; the other half are re-encoded equivalents (reordered fields,
// indentation, explicit defaults, an unsorted capacity list) made unique
// by a leading whitespace pattern, so each one takes the full parse →
// normalise → digest → cache lookup path. Nothing is computed: the
// request path of internal/server and the plan cache's reads do all the
// work.

const (
	warmCacheBytes = 256 << 20 // streamschedd's default -cachebytes
	warmGetBatch   = 64        // Gets per timed probe batch
)

var warmMs = []int64{256, 512}

// warmKey is one pre-warmed request and its reference response.
type warmKey struct {
	path      string
	canonical []byte   // the bytes that warmed the cache
	variants  [][]byte // equivalent re-encodings
	ref       []byte   // the response every later hit must equal
	key       plancache.Key
}

// warmKeys generates the warm set from the seed: a plan and a profile
// request for every family, so every seed warms the same mix of graph
// sizes and the same pre-warm work. The seed varies state scale, plan
// schedulers and capacity lists.
func warmKeys(seed uint64, tiny bool) ([]*warmKey, error) {
	rng := rand.New(rand.NewPCG(seed, 0x3a3a))
	fams := families
	if tiny {
		fams = []string{"fft"}
	}
	off := rng.IntN(len(schedulers))
	var keys []*warmKey
	for k, profile := range []bool{false, true} {
		for i, fam := range fams {
			m := warmMs[(i+k)%len(warmMs)]
			state := m/4*3/4 + rng.Int64N(m/16+1) // at most m/4: see coldInputs
			g, err := familyGraph(fam, state)
			if err != nil {
				return nil, err
			}
			// Profiles use the default scheduler, so the pre-warm's
			// compute cost does not depend on the seed.
			sched := server.DefaultScheduler
			var caps []int64
			if profile && rng.IntN(2) == 1 {
				for c := int64(coldBlock); c <= 2*m; c *= 4 {
					caps = append(caps, c)
				}
			}
			if !profile {
				sched = schedulers[(off+i)%len(schedulers)]
			}
			wk, err := newWarmKey(g, m, sched, profile, caps)
			if err != nil {
				return nil, err
			}
			keys = append(keys, wk)
		}
	}
	return keys, nil
}

// wireNodeAlt and wireEdgeAlt encode a graph's nodes and edges with
// their fields in another order than the interchange format's.
type wireNodeAlt struct {
	State int64  `json:"state"`
	Name  string `json:"name"`
}
type wireEdgeAlt struct {
	In   int64 `json:"in"`
	Out  int64 `json:"out"`
	To   int   `json:"to"`
	From int   `json:"from"`
}

// reorderedGraph re-encodes g with every object's fields in another
// order.
func reorderedGraph(g *sdf.Graph) ([]byte, error) {
	var w struct {
		Edges []wireEdgeAlt `json:"edges"`
		Nodes []wireNodeAlt `json:"nodes"`
		Name  string        `json:"name"`
	}
	w.Name = g.Name()
	for v := 0; v < g.NumNodes(); v++ {
		n := g.Node(sdf.NodeID(v))
		w.Nodes = append(w.Nodes, wireNodeAlt{n.State, n.Name})
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(sdf.EdgeID(e))
		w.Edges = append(w.Edges, wireEdgeAlt{ed.In, ed.Out, int(ed.To), int(ed.From)})
	}
	return json.MarshalIndent(w, "", "\t")
}

// newWarmKey builds a request's canonical body and its re-encodings.
func newWarmKey(g *sdf.Graph, m int64, sched string, profile bool, caps []int64) (*warmKey, error) {
	graph, err := g.MarshalJSON()
	if err != nil {
		return nil, err
	}
	alt, err := reorderedGraph(g)
	if err != nil {
		return nil, err
	}
	wk := &warmKey{path: "/v1/plan"}
	type plain struct {
		Graph     json.RawMessage `json:"graph"`
		M         int64           `json:"m"`
		Scheduler string          `json:"scheduler"`
		Caps      []int64         `json:"caps,omitempty"`
	}
	// Explicit defaults, fields reversed, the reordered graph.
	type explicit struct {
		Caps      []int64         `json:"caps,omitempty"`
		Measure   int64           `json:"measure,omitempty"`
		Warm      int64           `json:"warm,omitempty"`
		Scale     int64           `json:"scale"`
		Scheduler string          `json:"scheduler"`
		B         int64           `json:"b"`
		M         int64           `json:"m"`
		Graph     json.RawMessage `json:"graph"`
	}
	ex := explicit{Scale: server.DefaultScale, Scheduler: sched, B: server.DefaultBlock, M: m, Graph: alt}
	var shuffled []int64
	if profile {
		wk.path = "/v1/profile"
		ex.Warm, ex.Measure = server.DefaultWarm, server.DefaultMeasure
		// Capacities unsorted, repeated and off-block: the daemon
		// canonicalises them to the same grid.
		for i := len(caps) - 1; i >= 0; i-- {
			shuffled = append(shuffled, caps[i]+1, caps[i])
		}
		ex.Caps = shuffled
	}
	if wk.canonical, err = json.Marshal(plain{graph, m, sched, caps}); err != nil {
		return nil, err
	}
	exBody, err := json.Marshal(ex)
	if err != nil {
		return nil, err
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, wk.canonical, "", "    "); err != nil {
		return nil, err
	}
	var exIndented bytes.Buffer
	if err := json.Indent(&exIndented, exBody, " ", "  "); err != nil {
		return nil, err
	}
	wk.variants = [][]byte{exBody, indented.Bytes(), exIndented.Bytes()}
	return wk, nil
}

// uniqueBody prefixes a re-encoded body with a whitespace pattern that
// spells n in base 4, so no two requests of a run share bytes and the
// raw-body memo never answers one.
func uniqueBody(variant []byte, n int64) []byte {
	const digits = 11 // 4^11 requests
	ws := [4]byte{' ', '\t', '\n', '\r'}
	out := make([]byte, digits, digits+len(variant))
	for i := range out {
		out[i] = ws[n&3]
		n >>= 2
	}
	return append(out, variant...)
}

// warmSetup is a booted daemon with its warm set in the cache.
type warmSetup struct {
	d    *daemon
	keys []*warmKey
}

func newWarmSetup(cfg config, traced bool) (*warmSetup, float64, error) {
	repeats := 3
	if cfg.tiny {
		repeats = 1
	}
	return timeSetups(repeats, func() (*warmSetup, error) {
		d, err := startDaemon(warmCacheBytes, traced)
		if err != nil {
			return nil, err
		}
		keys, err := warmKeys(cfg.seed, cfg.tiny)
		if err == nil {
			err = prewarm(d, keys)
		}
		if err != nil {
			d.close()
			return nil, err
		}
		return &warmSetup{d, keys}, nil
	}, func(s *warmSetup) { s.d.close() })
}

// prewarm posts every canonical body once, on one worker per CPU, and
// keeps each response as the reference for its later hits.
func prewarm(d *daemon, keys []*warmKey) error {
	errs := make([]error, len(keys))
	parallelFor(len(keys), func(i int) {
		wk := keys[i]
		r, err := d.post(wk.path, wk.canonical, false)
		switch {
		case err != nil:
			errs[i] = err
		case r.status != 200 || r.cache != "miss":
			errs[i] = fmt.Errorf("pre-warm %s: status %d, cache %q: %s", wk.path, r.status, r.cache, bytes.TrimSpace(r.body))
		default:
			wk.ref = r.body
			if n, err := hex.Decode(wk.key[:], []byte(r.key)); err != nil || n != len(wk.key) {
				errs[i] = fmt.Errorf("pre-warm %s: bad key header %q", wk.path, r.key)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parallelFor runs fn(0..n-1) on one worker per CPU and waits.
func parallelFor(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// warmStats is one warm loop's outcome.
type warmStats struct {
	lat                []float64 // seconds, completed requests
	attempted, failed  int64
	wall               time.Duration
	requests, fastpath int64 // daemon counter deltas
	hits, misses       int64
	reencoded          int64
}

// warmLoop re-posts the warm set with one closed-loop client per CPU
// until budget has passed and at least minOps requests completed. Every
// response is checked against its reference after its latency is taken.
// With led set, the daemon must be traced; each request's handler span
// is committed to led.
func warmLoop(cfg config, s *warmSetup, budget time.Duration, minOps int64, led *ledger) *warmStats {
	clients := runtime.GOMAXPROCS(0)
	traced := led != nil
	var completed, unique atomic.Int64
	st := &warmStats{}
	var mu sync.Mutex
	snap0 := s.d.reg.Snapshot()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(cfg.seed, uint64(0x3a3b+c)))
			var lat []float64
			var attempted, failed, reencoded int64
			for time.Since(start) < budget || completed.Load() < minOps {
				wk := s.keys[rng.IntN(len(s.keys))]
				body := wk.canonical
				again := rng.IntN(2) == 0
				if !again {
					body = uniqueBody(wk.variants[rng.IntN(len(wk.variants))], unique.Add(1))
					reencoded++
				}
				r, err := s.d.post(wk.path, body, traced)
				n := completed.Add(1) - 1
				attempted++
				got := r.body
				if cfg.tampered("warm.body", int(n)) && len(got) > 0 {
					got = append([]byte(nil), got...)
					got[0] ^= 1
				}
				if err != nil || r.status != 200 || r.cache != "hit" || !bytes.Equal(got, wk.ref) {
					failed++
					if failed <= 3 {
						fmt.Fprintf(cfg.out, "  FAIL serve-warm %s request: err %v, status %d, cache %q, body matches reference: %v\n",
							wk.path, err, r.status, r.cache, bytes.Equal(got, wk.ref))
					}
					continue
				}
				lat = append(lat, r.latency.Seconds())
				if traced && r.traced {
					name := "server.fastpath"
					if !again {
						name = "server.reparse_hit"
					}
					led.commit(r.latency, spans{name: r.handler})
				}
			}
			mu.Lock()
			st.lat = append(st.lat, lat...)
			st.attempted += attempted
			st.failed += failed
			st.reencoded += reencoded
			mu.Unlock()
		}()
	}
	wg.Wait()
	st.wall = time.Since(start)
	snap := s.d.reg.Snapshot()
	st.requests = snap.CounterDelta(snap0, "server.requests")
	st.fastpath = snap.CounterDelta(snap0, "server.fastpath.hits")
	st.hits = snap.CounterDelta(snap0, "cache.hits")
	st.misses = snap.CounterDelta(snap0, "cache.misses")
	return st
}

// warmProperties prints the input properties of a warm run.
func warmProperties(cfg config, s *warmSetup, st *warmStats) {
	var reqBytes, respBytes []float64
	for _, wk := range s.keys {
		reqBytes = append(reqBytes, float64(len(wk.canonical)))
		respBytes = append(respBytes, float64(len(wk.ref)))
	}
	fmt.Fprintf(cfg.out, "  inputs: %d warm keys (%d plan, %d profile), 100%% of requests repeat earlier work, %.1f%% re-encoded; request %.0f B, response %.0f B median\n",
		len(s.keys), len(s.keys)/2, len(s.keys)-len(s.keys)/2,
		100*float64(st.reencoded)/float64(max(st.attempted, 1)), median(reqBytes), median(respBytes))
}

// runWarm is the untraced serve-warm run.
func runWarm(cfg config) (*result, error) {
	s, setup, err := newWarmSetup(cfg, false)
	if err != nil {
		return nil, err
	}
	defer s.d.close()
	minOps := int64(1000)
	if cfg.tiny {
		minOps = 50
	}
	st := warmLoop(cfg, s, secondsDur(cfg.seconds), minOps, nil)
	rss := peakRSSMB()
	rps := float64(st.attempted) / st.wall.Seconds()
	p50, p99 := median(st.lat)*1e6, quantile(st.lat, 0.99)*1e6
	fmt.Fprintf(cfg.out, "serve-warm: %d warm requests over %.2fs from %d closed-loop clients; %.1f%% raw-body fast-path hits\n",
		st.attempted, st.wall.Seconds(), runtime.GOMAXPROCS(0), 100*float64(st.fastpath)/float64(max(st.requests, 1)))
	warmProperties(cfg, s, st)
	printMetric(cfg.out, "setup_s", setup, "s")
	printMetric(cfg.out, "peak_rss_mb", rss, "MB")
	printMetric(cfg.out, "warm_rps", rps, "1/s")
	printMetric(cfg.out, "warm_p50_us", p50, "us")
	printMetric(cfg.out, "warm_p99_us", p99, "us")
	printErrorFrac(cfg.out, st.failed, st.attempted)
	return &result{
		attempted: st.attempted,
		failed:    st.failed,
		metrics:   e2e(setup, rss, rps, p50/1e3, p99/1e3),
	}, nil
}

// cacheGetNs times the plan cache's Get on the warm keys, in batches,
// and returns the median nanoseconds per Get.
func cacheGetNs(s *warmSetup, batches int) float64 {
	c := s.d.srv.Cache()
	var per []float64
	for b := 0; b < batches; b++ {
		k := s.keys[b%len(s.keys)].key
		start := time.Now()
		for i := 0; i < warmGetBatch; i++ {
			c.Get(k)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/warmGetBatch)
	}
	return median(per)
}
