package main

import (
	"encoding/json"
	"fmt"
	"math"

	"streamsched/internal/obs"
	"streamsched/internal/plancache"
)

// The traced run. Spans are recorded from the benchmark's own files,
// around its calls into each layer's public functions; nothing inside
// the program is instrumented for it. Every traced run prints the whole
// ledger: the named workload is traced for --seconds (after an untraced
// pass of the same inputs, whose end-to-end time the tracing overhead
// is measured against), and the other two workloads are traced on a
// short fixed pass.

// section is one workload's part of the ledger.
type section struct {
	attempted, failed int64
	metrics           []metric
	// overhead is the traced end-to-end median minus the untraced one,
	// over the untraced one; NaN on a short pass.
	overhead float64
}

func runLedger(cfg config) (*result, error) {
	order := []string{cfg.workload}
	for _, w := range workloadNames {
		if w != cfg.workload {
			order = append(order, w)
		}
	}
	res := &result{}
	overhead := math.NaN()
	for _, w := range order {
		named := w == cfg.workload
		var sec *section
		var err error
		switch w {
		case "serve-cold":
			sec, err = coldSection(cfg, named)
		case "serve-warm":
			sec, err = warmSection(cfg, named)
		default:
			sec, err = gridSection(cfg, named)
		}
		if err != nil {
			return nil, fmt.Errorf("%s ledger: %w", w, err)
		}
		res.attempted += sec.attempted
		res.failed += sec.failed
		res.metrics = append(res.metrics, sec.metrics...)
		if named {
			overhead = sec.overhead
		}
	}
	fmt.Fprintf(cfg.out, "tracing overhead on %s: %+.2f%% of the untraced end-to-end median\n", cfg.workload, 100*overhead)
	printErrorFrac(cfg.out, res.failed, res.attempted)
	res.metrics = append(res.metrics, metric{"trace.overhead_share", overhead, "ratio"})
	return res, nil
}

// relOverhead is (traced - untraced) / untraced.
func relOverhead(traced, untraced float64) float64 { return (traced - untraced) / untraced }

// coldSection traces serve-cold: the loop serves requests exactly as the
// untraced run does (on a daemon whose handler is timed), and afterwards
// every request is replayed through direct calls with a span per layer,
// on one worker per CPU as the daemon ran them. The served latency is the
// operation's end-to-end time; the remainder is what the daemon adds
// around the layers (HTTP, request decoding and keying, queueing on the
// Jobs semaphore, single-flight).
func coldSection(cfg config, named bool) (*section, error) {
	sec := &section{overhead: math.NaN()}
	budget, minOps := 0.0, 4
	if cfg.tiny {
		minOps = 3
	}
	untraced := map[int]float64{}
	if named {
		budget = cfg.seconds * 2 / 3
		minOps = max(minOps, 10)
		u, _, err := newColdSetup(cfg, false)
		if err != nil {
			return nil, err
		}
		done, _ := coldLoop(u, secondsDur(cfg.seconds/3), minOps, false)
		sec.attempted += int64(len(done))
		sec.failed += verifyCold(cfg, u, done, nil, nil)
		u.d.close()
		for _, cd := range done {
			untraced[cd.idx] = cd.reply.latency.Seconds()
		}
	}
	s, _, err := newColdSetup(cfg, true)
	if err != nil {
		return nil, err
	}
	defer s.d.close()
	led := newLedger("serve-cold", "cold.", "served /v1/profile requests, replayed through direct calls", "ms", "serve.unattributed",
		layer{name: "sdf.read_json", unit: "ms"},
		layer{name: "schedule.prepare", unit: "ms"},
		layer{name: "exec.record", unit: "ms"},
		layer{name: "trace.profile", unit: "ms"},
		layer{name: "server.marshal", unit: "ms"},
		layer{name: "plancache.put", unit: "us"},
		// The daemon's handler span covers the layers plus queueing; the
		// rest of the served latency is HTTP transport.
		layer{name: "server.handler", unit: "ms", aside: true},
	)
	ev0 := s.d.counter("cache.evictions")
	done, _ := coldLoop(s, secondsDur(budget), minOps, true)
	evictions := s.d.counter("cache.evictions") - ev0
	replayCache := plancache.New(plancache.Config{Budget: s.d.srv.Cache().Budget(), Version: s.d.srv.Engine(), Metrics: obs.NewRegistry()})
	sec.attempted += int64(len(done))
	sec.failed += verifyCold(cfg, s, done, led, replayCache)
	var pairedU, pairedT []float64
	for _, cd := range done {
		if u, ok := untraced[cd.idx]; ok && cd.err == nil {
			pairedU = append(pairedU, u)
			pairedT = append(pairedT, cd.reply.latency.Seconds())
		}
	}
	led.addExtra("exec.accesses", median(coldAccesses(done)), "count", "block accesses per request, measured window, median")
	led.addExtra("plancache.evictions", float64(evictions), "count", "daemon plan-cache evictions during the traced loop")
	sec.metrics = led.report(cfg.out)
	if named && len(pairedU) > 0 {
		sec.overhead = relOverhead(median(pairedT), median(pairedU))
		fmt.Fprintf(cfg.out, "  served latency on the same %d requests: untraced %.4g ms, traced %.4g ms median\n",
			len(pairedU), median(pairedU)*1e3, median(pairedT)*1e3)
	}
	return sec, nil
}

// coldAccesses returns the measured-window access counts of the
// completed requests.
func coldAccesses(done []coldDone) []float64 {
	var out []float64
	for _, cd := range done {
		var resp struct {
			Accesses int64 `json:"accesses"`
		}
		if cd.err == nil && json.Unmarshal(cd.reply.body, &resp) == nil {
			out = append(out, float64(resp.Accesses))
		}
	}
	return out
}

// warmSection traces serve-warm: the daemon's handler is wrapped in a
// span, so each request splits into the handler's time (raw-body fast
// path or full re-parse) and the transport remainder; plan-cache Get is
// timed on its own in batches after the loop.
func warmSection(cfg config, named bool) (*section, error) {
	sec := &section{overhead: math.NaN()}
	budget, minOps := 0.0, int64(2000)
	if cfg.tiny {
		minOps = 50
	}
	var untraced float64
	if named {
		budget = cfg.seconds * 2 / 3
		u, _, err := newWarmSetup(cfg, false)
		if err != nil {
			return nil, err
		}
		st := warmLoop(cfg, u, secondsDur(cfg.seconds/3), minOps, nil)
		u.d.close()
		sec.attempted += st.attempted
		sec.failed += st.failed
		untraced = median(st.lat)
	}
	s, _, err := newWarmSetup(cfg, true)
	if err != nil {
		return nil, err
	}
	defer s.d.close()
	led := newLedger("serve-warm", "warm.", "warm requests", "us", "http.transport",
		layer{name: "server.fastpath", unit: "us"},
		layer{name: "server.reparse_hit", unit: "us"},
	)
	st := warmLoop(cfg, s, secondsDur(budget), minOps, led)
	sec.attempted += st.attempted
	sec.failed += st.failed
	batches := 4000
	if cfg.tiny {
		batches = 100
	}
	getNs := cacheGetNs(s, batches)
	gets := st.hits + st.misses
	led.addExtra("plancache.get_ns", getNs, "ns", "median per Get, timed in batches of 64 on the warm keys")
	led.addExtra("plancache.get_share", getNs*1e-9*float64(gets)/led.totalRoot(), "ratio",
		"Get time x Gets served over the total end-to-end time (inside the handler)")
	led.addExtra("server.fastpath_frac", float64(st.fastpath)/float64(max(st.requests, 1)), "ratio",
		"raw-body fast-path hits over requests")
	led.addExtra("plancache.hit_frac", float64(st.hits)/float64(max(gets, 1)), "ratio", "cache hits over lookups")
	sec.metrics = led.report(cfg.out)
	if named {
		traced := led.medianRoot()
		sec.overhead = relOverhead(traced, untraced)
		fmt.Fprintf(cfg.out, "  warm latency: untraced %.4g us, traced %.4g us median\n", untraced*1e6, traced*1e6)
	}
	return sec, nil
}

// gridSection traces grid-batch: each job runs once through its harness
// (the untraced reference) and once as direct calls with a span per
// layer; the two results must be identical. A short pass uses the
// smallest job list.
func gridSection(cfg config, named bool) (*section, error) {
	sec := &section{overhead: math.NaN()}
	c := cfg
	c.tiny = cfg.tiny || !named
	jobs, _, err := newGridSetup(c)
	if err != nil {
		return nil, err
	}
	round := runGridRound(jobs)
	led := newLedger("grid-batch", "grid.", "library jobs", "ms", "harness.unattributed",
		layer{name: "schedule.prepare", unit: "ms"},
		layer{name: "exec.record", unit: "ms"},
		layer{name: "parallel.run_traced", unit: "ms"},
		layer{name: "trace.profile_orgs", unit: "ms"},
		layer{name: "hierarchy.profile_hier", unit: "ms"},
		layer{name: "hierarchy.profile_shared", unit: "ms"},
		layer{name: "trace.decode", unit: "ms", aside: true},
	)
	reg := obs.NewRegistry()
	traced := make([]tracedJob, len(jobs))
	errs := make([]error, len(jobs))
	var profile, accesses, replays, calls float64
	for i, j := range jobs {
		sp := spans{}
		traced[i], errs[i] = j.runTraced(reg, sp)
		if errs[i] != nil {
			continue
		}
		led.commit(traced[i].root, sp)
		profile += traced[i].profile.Seconds()
		accesses += float64(traced[i].accesses)
		replays += float64(traced[i].replays)
		calls++
	}
	sec.attempted, sec.failed = verifyGrid(c, jobs, []gridRound{round}, traced, errs)
	snap := reg.Snapshot()
	led.addExtra("trace.ns_per_access", 1e9*profile/math.Max(accesses, 1), "ns", "profiling time per recorded access, all kinds")
	led.addExtra("trace.replays", replays/math.Max(calls, 1), "count", "trace replays per profiling call (must be 1)")
	led.addExtra("trace.profile.fenwick.ops", float64(snap.Counter("trace.profile.fenwick.ops")), "count", "registry counter, whole round")
	led.addExtra("profile.shard.workers", float64(snap.Gauges["profile.shard.workers"]), "count", "registry gauge (max)")
	led.addExtra("profile.pipeline.decode.workers", float64(snap.Gauges["profile.pipeline.decode.workers"]), "count", "registry gauge (max)")
	sec.metrics = led.report(cfg.out)
	if named {
		untraced := 0.0
		for _, w := range round.walls {
			untraced += w.Seconds()
		}
		tracedTotal := led.totalRoot()
		sec.overhead = relOverhead(tracedTotal, untraced)
		fmt.Fprintf(cfg.out, "  round wall: untraced %.4g s, traced %.4g s (without the decode probe)\n", untraced, tracedTotal)
	}
	return sec, nil
}
