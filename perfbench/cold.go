package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/obs"
	"streamsched/internal/plancache"
	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
	"streamsched/internal/server"
	"streamsched/internal/trace"
)

// serve-cold: a closed loop of one client per CPU posting /v1/profile
// requests that are all distinct cache misses, at the daemon's default
// warm/measure window. Requests cycle through every (family, M,
// scheduler) combination in a seeded order, each with a seeded state
// scale and capacity grid, so every run sees the same mix of request
// costs. The cache budget is far below the run's response bytes, so the
// plan cache inserts and evicts throughout.

const (
	coldBlock      = 16       // the daemon's default block size
	coldCacheBytes = 64 << 10 // ~55 responses: well below a run's total
	coldInputCount = 2000     // more requests than any run completes
	coldMinOps     = 100      // p90 needs ten samples beyond it
	coldChecks     = 6        // requests re-checked pointwise against cachesim
	curveSpill     = 1 << 30  // MeasureCurve's in-memory trace bound
)

var coldMs = []int64{256, 512}

// coldInput is one generated /v1/profile request.
type coldInput struct {
	family, sched string
	m, state      int64
	caps          []int64 // nil: the daemon's default grid
	body          []byte
}

// coldInputs generates n distinct requests from the seed.
func coldInputs(seed uint64, n int, tiny bool) ([]coldInput, error) {
	rng := rand.New(rand.NewPCG(seed, 0xc01d))
	fams, ms, scheds := families, coldMs, schedulers
	if tiny {
		fams, ms, scheds = []string{"fft", "des"}, []int64{128}, []string{"partitioned", "flat"}
	}
	type combo struct {
		family string
		m      int64
		rot    int // scheduler rotation offset
	}
	var combos []combo
	for _, f := range fams {
		for _, m := range ms {
			combos = append(combos, combo{f, m, rng.IntN(len(scheds))})
		}
	}
	// Each cycle visits every (family, M) pair once in a seeded order;
	// the pair's scheduler rotates from cycle to cycle, so any run of a
	// few cycles has the same mix of request costs whatever the seed.
	seen := make(map[string]bool, n)
	var out []coldInput
	for cycle := 0; len(out) < n; cycle++ {
		rng.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
		for _, c := range combos {
			if len(out) == n {
				break
			}
			for {
				in := coldInput{family: c.family, sched: scheds[(c.rot+cycle)%len(scheds)], m: c.m}
				// State scale: the module-state size workloads.Suite uses
				// at this M, or up to 25% less. (More would make mp3's
				// largest module exceed M, which no partition can place.)
				base := c.m / 4
				in.state = base*3/4 + rng.Int64N(base/4+1)
				if rng.IntN(2) == 1 {
					lines := 4 * c.m / coldBlock
					set := make(map[int64]bool)
					for k := 3 + rng.IntN(4); len(set) < k; {
						set[coldBlock*(1+rng.Int64N(lines))] = true
					}
					for cp := range set {
						in.caps = append(in.caps, cp)
					}
					sort.Slice(in.caps, func(i, j int) bool { return in.caps[i] < in.caps[j] })
				}
				id := fmt.Sprint(in.family, in.sched, in.m, in.state, in.caps)
				if seen[id] {
					continue
				}
				seen[id] = true
				g, err := familyGraph(in.family, in.state)
				if err != nil {
					return nil, err
				}
				graph, err := g.MarshalJSON()
				if err != nil {
					return nil, err
				}
				in.body, err = json.Marshal(struct {
					Graph     json.RawMessage `json:"graph"`
					M         int64           `json:"m"`
					Scheduler string          `json:"scheduler"`
					Caps      []int64         `json:"caps,omitempty"`
				}{graph, in.m, in.sched, in.caps})
				if err != nil {
					return nil, err
				}
				out = append(out, in)
				break
			}
		}
	}
	return out, nil
}

// coldSetup is a booted daemon plus its generated request list.
type coldSetup struct {
	d      *daemon
	inputs []coldInput
}

func newColdSetup(cfg config, traced bool) (*coldSetup, float64, error) {
	n, repeats := coldInputCount, 5
	if cfg.tiny {
		n, repeats = 40, 2
	}
	budget := int64(coldCacheBytes)
	if cfg.tiny {
		budget = 4 << 10
	}
	return timeSetups(repeats, func() (*coldSetup, error) {
		d, err := startDaemon(budget, traced)
		if err != nil {
			return nil, err
		}
		inputs, err := coldInputs(cfg.seed, n, cfg.tiny)
		if err != nil {
			d.close()
			return nil, err
		}
		return &coldSetup{d, inputs}, nil
	}, func(s *coldSetup) { s.d.close() })
}

// coldDone is one completed request.
type coldDone struct {
	idx   int
	reply reply
	err   error
}

// coldLoop serves the request list from its start with one closed-loop
// client per CPU until budget has passed and at least minOps requests
// have completed.
func coldLoop(s *coldSetup, budget time.Duration, minOps int, traced bool) ([]coldDone, time.Duration) {
	clients := runtime.GOMAXPROCS(0)
	var next, completed atomic.Int64
	var mu sync.Mutex
	var done []coldDone
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if time.Since(start) >= budget && completed.Load() >= int64(minOps) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(s.inputs) {
					return
				}
				r, err := s.d.post("/v1/profile", s.inputs[i].body, traced)
				completed.Add(1)
				mu.Lock()
				done = append(done, coldDone{idx: i, reply: r, err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(done, func(i, j int) bool { return done[i].idx < done[j].idx })
	return done, wall
}

// profileReplay recomputes a /v1/profile response through direct calls
// into each layer — the steps the daemon's cold path takes — and records
// a span around each call. key is the content address the daemon
// reported; cache, when set, receives the body as the daemon's cache
// does. The result must be byte-identical to the served body.
func profileReplay(body []byte, engine, key string, cache *plancache.Cache, reg *obs.Registry, sp spans) ([]byte, error) {
	var req server.ProfileRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("replay: request: %w", err)
	}
	t := time.Now()
	g, err := sdf.ReadJSON(bytes.NewReader(req.Graph))
	sp["sdf.read_json"] = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("replay: graph: %w", err)
	}
	normalizeProfile(&req)
	sched, err := schedulerFor(req.Scheduler, g, req.Scale)
	if err != nil {
		return nil, err
	}
	env := schedule.Env{M: req.M, B: req.B, Metrics: reg, ProfileJobs: 1, DecodeJobs: 1}

	t = time.Now()
	plan, err := sched.Prepare(g, env)
	sp["schedule.prepare"] = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("replay: prepare: %w", err)
	}

	t = time.Now()
	log := trace.NewLog()
	defer log.Close()
	log.SetMetrics(reg)
	log.SetSpillThreshold(curveSpill)
	run, err := record(g, plan, req.B, req.Warm, req.Measure, log)
	sp["exec.record"] = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("replay: record: %w", err)
	}

	t = time.Now()
	profiles, err := trace.ProfileOrgsJobs(log, []trace.OrgSpec{{Sets: 1}}, 1, 1)
	sp["trace.profile"] = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("replay: profile: %w", err)
	}
	curve := profiles[0].LRU.Full()

	t = time.Now()
	caps := req.Caps
	if len(caps) == 0 {
		caps = defaultGrid(req.B, curve.SaturationLines())
	}
	resp := &server.ProfileResponse{
		Engine:          engine,
		Key:             key,
		Graph:           g.Name(),
		Scheduler:       sched.Name(),
		M:               req.M,
		B:               req.B,
		Warm:            req.Warm,
		Measure:         req.Measure,
		SourceFired:     run.sourceFired,
		InputItems:      run.inputItems,
		Accesses:        curve.Accesses,
		WorkingSetLines: curve.SaturationLines(),
		BufferWords:     run.bufferWords,
		Points:          make([]server.CurvePoint, 0, len(caps)),
	}
	for _, c := range caps {
		resp.Points = append(resp.Points, server.CurvePoint{
			Capacity:      c,
			Misses:        curve.MissesAtCapacity(c, req.B),
			MissesPerItem: curve.MissesPerItem(c, req.B, run.inputItems),
		})
	}
	out, err := json.Marshal(resp)
	out = append(out, '\n')
	sp["server.marshal"] = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("replay: marshal: %w", err)
	}

	if cache != nil {
		var k plancache.Key
		if n, err := hex.Decode(k[:], []byte(key)); err != nil || n != len(k) {
			return nil, fmt.Errorf("replay: bad key header %q", key)
		}
		t = time.Now()
		cache.Put(k, out)
		sp["plancache.put"] = time.Since(t)
	}
	return out, nil
}

// normalizeProfile applies the daemon's request defaults. Generated
// requests carry capacity lists that are already canonical (block
// multiples, sorted, distinct), so the daemon's canonicalisation leaves
// them as they are.
func normalizeProfile(r *server.ProfileRequest) {
	if r.B == 0 {
		r.B = server.DefaultBlock
	}
	if r.Scheduler == "" {
		r.Scheduler = server.DefaultScheduler
	}
	if r.Scale == 0 {
		r.Scale = server.DefaultScale
	}
	if r.Warm == 0 {
		r.Warm = server.DefaultWarm
	}
	if r.Measure == 0 {
		r.Measure = server.DefaultMeasure
	}
}

// defaultGrid is the daemon's capacity grid for a request that names
// none: powers of two in whole blocks, one block to just past the
// working set.
func defaultGrid(block, workingSetLines int64) []int64 {
	maxWords := workingSetLines * block
	var caps []int64
	for c := block; ; c *= 2 {
		caps = append(caps, c)
		if c >= 2*maxWords {
			break
		}
	}
	return caps
}

// recorded summarises one recording's measured window.
type recorded struct {
	sourceFired, inputItems, bufferWords int64
}

// record executes plan on a fresh machine, warm source firings and then
// the measured window, with every block access recorded into log — the
// record step of schedule.MeasureCurve.
func record(g *sdf.Graph, plan *schedule.Plan, block, warm, measure int64, log *trace.Log) (recorded, error) {
	m, err := exec.NewMachine(g, exec.Config{
		Cache:        cachesim.Config{Capacity: layoutWords(g, plan, block), Block: block},
		Caps:         plan.Caps,
		TrackLatency: g.Source() != g.Sink(),
		Recorder:     log,
	})
	if err != nil {
		return recorded{}, err
	}
	if warm > 0 {
		if err := plan.Runner.Run(m, warm); err != nil {
			return recorded{}, err
		}
	}
	log.MarkWindow()
	m.ResetLatency()
	fired0, items0 := m.SourceFirings(), m.InputItems()
	if err := plan.Runner.Run(m, fired0+measure); err != nil {
		return recorded{}, err
	}
	if err := m.CheckConservation(); err != nil {
		return recorded{}, err
	}
	r := recorded{sourceFired: m.SourceFirings() - fired0, inputItems: m.InputItems() - items0}
	for _, c := range plan.Caps {
		r.bufferWords += c
	}
	return r, nil
}

// layoutWords sizes the recording machine's cache to hold the whole
// layout (every module state and buffer, block-aligned), as the curve
// harnesses do; the recorded stream does not depend on it.
func layoutWords(g *sdf.Graph, plan *schedule.Plan, block int64) int64 {
	roundUp := func(w int64) int64 { return (w + block - 1) / block * block }
	total := block
	for v := 0; v < g.NumNodes(); v++ {
		total += roundUp(g.Node(sdf.NodeID(v)).State)
	}
	for _, c := range plan.Caps {
		total += roundUp(c)
	}
	return total
}

// verifyCold checks every completed request: status 200, a cache miss,
// and a body byte-identical to its direct-call replay; then re-checks a
// seeded sample of curve points against the pointwise cache simulator.
// The replays run on one worker per CPU, as the daemon ran the requests.
// With led set, each replay's spans are committed to led against the
// request's served latency, and each replayed body is put into
// replayCache as the daemon put it into its own. It returns the number
// of failed requests.
func verifyCold(cfg config, s *coldSetup, done []coldDone, led *ledger, replayCache *plancache.Cache) int64 {
	replays := make([][]byte, len(done))
	rerrs := make([]error, len(done))
	parallelFor(len(done), func(i int) {
		cd := done[i]
		if cd.err != nil {
			return
		}
		sp := spans{}
		replays[i], rerrs[i] = profileReplay(s.inputs[cd.idx].body, s.d.srv.Engine(), cd.reply.key, replayCache, obs.NewRegistry(), sp)
		if led != nil && rerrs[i] == nil {
			if cd.reply.traced {
				sp["server.handler"] = cd.reply.handler
			}
			led.commit(cd.reply.latency, sp)
		}
	})

	failed := make([]bool, len(done))
	fail := func(i int, format string, args ...any) {
		if !failed[i] {
			fmt.Fprintf(cfg.out, "  FAIL serve-cold request %d: %s\n", done[i].idx, fmt.Sprintf(format, args...))
		}
		failed[i] = true
	}
	for i, cd := range done {
		body := cd.reply.body
		if cfg.tampered("cold.body", i) && len(body) > 0 {
			body = append([]byte(nil), body...)
			body[len(body)/2] ^= 1
		}
		switch {
		case cd.err != nil:
			fail(i, "%v", cd.err)
		case cd.reply.status != 200:
			fail(i, "status %d: %s", cd.reply.status, bytes.TrimSpace(body))
		case cd.reply.cache != "miss":
			fail(i, "cache %q, want a miss", cd.reply.cache)
		case rerrs[i] != nil:
			fail(i, "%v", rerrs[i])
		case !bytes.Equal(body, replays[i]):
			fail(i, "served body differs from the direct-call replay")
		}
	}

	// Pointwise: a seeded sample of (request, capacity) points must equal
	// schedule.Measure against cachesim at that capacity.
	rng := rand.New(rand.NewPCG(cfg.seed, 0x9017))
	checks := coldChecks
	if cfg.tiny {
		checks = 1
	}
	for k := 0; k < checks && len(done) > 0; k++ {
		i := rng.IntN(len(done))
		if failed[i] {
			continue
		}
		if err := coldPointCheck(s.inputs[done[i].idx], done[i].reply.body, rng); err != nil {
			fail(i, "%v", err)
		}
	}
	n := int64(0)
	for _, f := range failed {
		if f {
			n++
		}
	}
	return n
}

// coldPointCheck re-measures one seeded point of a served curve with the
// pointwise simulator.
func coldPointCheck(in coldInput, body []byte, rng *rand.Rand) error {
	var resp server.ProfileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Points) == 0 {
		return errors.New("response has no points")
	}
	p := resp.Points[rng.IntN(len(resp.Points))]
	g, err := familyGraph(in.family, in.state)
	if err != nil {
		return err
	}
	sched, err := schedulerFor(in.sched, g, server.DefaultScale)
	if err != nil {
		return err
	}
	env := schedule.Env{M: in.m, B: coldBlock}
	res, err := schedule.Measure(g, sched, env, cachesim.Config{Capacity: p.Capacity, Block: coldBlock},
		server.DefaultWarm, server.DefaultMeasure)
	if err != nil {
		return err
	}
	if res.Stats.Misses != p.Misses || res.InputItems != resp.InputItems {
		return fmt.Errorf("capacity %d: served %d misses over %d items, cachesim %d over %d",
			p.Capacity, p.Misses, resp.InputItems, res.Stats.Misses, res.InputItems)
	}
	return nil
}

// coldProperties prints the input properties of the requests a run
// completed: repeated work, trace length, and working set relative to
// the modelled capacities.
func coldProperties(cfg config, done []coldDone) {
	var accesses, wsRatio []float64
	for _, cd := range done {
		var resp server.ProfileResponse
		if cd.err != nil || json.Unmarshal(cd.reply.body, &resp) != nil || resp.M == 0 {
			continue
		}
		accesses = append(accesses, float64(resp.Accesses))
		wsRatio = append(wsRatio, float64(resp.WorkingSetLines)/float64(resp.M/resp.B))
	}
	if len(accesses) == 0 {
		return
	}
	fmt.Fprintf(cfg.out, "  inputs: %d distinct requests (0%% repeat earlier work), measured trace %.3g accesses median (%.3g-%.3g), working set %.2fx the design capacity M/B median (%.2f-%.2f)\n",
		len(done), median(accesses), quantile(accesses, 0), quantile(accesses, 1),
		median(wsRatio), quantile(wsRatio, 0), quantile(wsRatio, 1))
}

// runCold is the untraced serve-cold run.
func runCold(cfg config) (*result, error) {
	s, setup, err := newColdSetup(cfg, false)
	if err != nil {
		return nil, err
	}
	defer s.d.close()
	minOps := coldMinOps
	if cfg.tiny {
		minOps = 6
	}
	ev0 := s.d.counter("cache.evictions")
	done, wall := coldLoop(s, secondsDur(cfg.seconds), minOps, false)
	evictions := s.d.counter("cache.evictions") - ev0
	rss := peakRSSMB()
	var lat []float64
	for _, cd := range done {
		if cd.err == nil {
			lat = append(lat, cd.reply.latency.Seconds()*1e3)
		}
	}
	failed := verifyCold(cfg, s, done, nil, nil)
	rps := float64(len(done)) / wall.Seconds()
	p50, p90 := median(lat), quantile(lat, 0.9)
	fmt.Fprintf(cfg.out, "serve-cold: %d cold /v1/profile requests over %.2fs from %d closed-loop clients; %d plan-cache evictions\n",
		len(done), wall.Seconds(), runtime.GOMAXPROCS(0), evictions)
	coldProperties(cfg, done)
	printMetric(cfg.out, "setup_s", setup, "s")
	printMetric(cfg.out, "peak_rss_mb", rss, "MB")
	printMetric(cfg.out, "cold_rps", rps, "1/s")
	printMetric(cfg.out, "cold_p50_ms", p50, "ms")
	printMetric(cfg.out, "cold_p90_ms", p90, "ms")
	printErrorFrac(cfg.out, failed, int64(len(done)))
	return &result{
		attempted: int64(len(done)),
		failed:    failed,
		metrics:   e2e(setup, rss, rps, p50, p90),
	}, nil
}
