package main

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sort"
	"time"

	"streamsched/internal/cachesim"
	"streamsched/internal/hierarchy"
	"streamsched/internal/obs"
	"streamsched/internal/parallel"
	"streamsched/internal/partition"
	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

// grid-batch: a seeded list of library jobs run one at a time over long
// traces, through the schedule and parallel harnesses with a zero Env
// (one profiling shard and one decode worker per CPU):
//
//   - orgs: MeasureCurveOrgs over a capacity x way-count grid under LRU
//     and FIFO, as `misscurve -ways ... -policy both` runs it;
//   - hier: MeasureHier over an L1 x L2 grid;
//   - shared: parallel.MeasureShared over a private-L1 x shared-L2 grid
//     on two processors.
//
// Every round runs each kind on every family it supports over the same
// organisation grids, so the cost mix is the same for every seed; the
// seed varies the families' state scale (and so their traces) and the
// job order. Rounds repeat until the run's time is spent, and at least
// twice.

const (
	gridBlock   = 16
	gridWarm    = 1024
	gridMeasure = 8192
	gridM       = 128 // design capacity the schedules are planned for
)

// gridJob is one library job.
type gridJob struct {
	kind, family string
	g            *sdf.Graph
	sched        schedule.Scheduler // orgs, hier
	// orgs: the evaluated (capacity, ways) geometries and their specs.
	caps, ways []int64
	specs      []trace.OrgSpec
	specIdx    map[int64]int
	hier       hierarchy.HierSpec
	// shared
	part   *partition.Partition
	pcfg   parallel.Config
	shared hierarchy.SharedSpec
}

func (j *gridJob) env() schedule.Env { return schedule.Env{M: gridM, B: gridBlock} }

// gridJobs generates one round's job list from the seed.
func gridJobs(seed uint64, tiny bool) ([]*gridJob, error) {
	rng := rand.New(rand.NewPCG(seed, 0x961d))
	fams := families
	if tiny {
		fams = []string{"fft"}
	}
	var jobs []*gridJob
	for _, kind := range []string{"orgs", "hier", "shared"} {
		for _, fam := range fams {
			// Within 2 words of gridM/4 (never above: see coldInputs): the
			// seed changes every trace but barely changes a round's cost.
			state := gridM/4 - rng.Int64N(3)
			g, err := familyGraph(fam, state)
			if err != nil {
				return nil, err
			}
			if kind == "shared" && !g.IsPipeline() && !g.IsHomogeneous() {
				continue // the parallel executor runs pipelines and homogeneous dags
			}
			j := &gridJob{kind: kind, family: fam, g: g}
			if j.sched, err = schedulerFor("partitioned", g, 0); err != nil {
				return nil, err
			}
			switch kind {
			case "orgs":
				j.caps = []int64{256, 512, 1024, 2048}
				j.ways = []int64{1, 2, 4, 8}
				if j.specs, j.specIdx, err = trace.GridSpecs(j.caps, gridBlock, j.ways, true); err != nil {
					return nil, err
				}
			case "hier":
				j.hier = hierarchy.HierSpec{Block: gridBlock}
				for _, c := range []int64{256, 512} {
					for _, w := range []int64{0, 2} {
						j.hier.L1s = append(j.hier.L1s, hierarchy.Level{Capacity: c, Block: gridBlock, Ways: w})
					}
				}
				for _, c := range []int64{2048, 8192} {
					for _, w := range []int64{0, 8} {
						j.hier.L2s = append(j.hier.L2s, hierarchy.Level{Capacity: c, Block: 64, Ways: w})
					}
				}
			case "shared":
				if j.part, err = partition.Auto(g, gridM); err != nil {
					return nil, err
				}
				j.pcfg = parallel.Config{Procs: 2, Env: j.env(), Cache: cachesim.Config{Capacity: 2 * gridM, Block: gridBlock}}
				j.shared = hierarchy.SharedSpec{Block: gridBlock, Procs: 2,
					L1s: []hierarchy.Level{
						{Capacity: 256, Block: gridBlock},
						{Capacity: 512, Block: gridBlock, Ways: 2},
					},
					L2s: []hierarchy.Level{
						{Capacity: 2048, Block: gridBlock},
						{Capacity: 8192, Block: 64, Ways: 8, Policy: cachesim.FIFO},
					},
				}
			}
			jobs = append(jobs, j)
		}
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs, nil
}

// gridOut is one job's result: exactly one field is set.
type gridOut struct {
	orgs   *schedule.CurveResult
	hier   *schedule.HierResult
	shared *parallel.SharedMeasureResult
}

// traceLen returns the recorded trace length.
func (o gridOut) traceLen() int64 {
	switch {
	case o.orgs != nil:
		return o.orgs.TraceLen
	case o.hier != nil:
		return o.hier.TraceLen
	case o.shared != nil:
		return o.shared.TraceLen
	}
	return 0
}

// run executes the job through its harness at shipped defaults.
func (j *gridJob) run() (gridOut, error) {
	switch j.kind {
	case "orgs":
		r, err := schedule.MeasureCurveOrgs(j.g, j.sched, j.env(), gridBlock, gridWarm, gridMeasure, j.specs)
		return gridOut{orgs: r}, err
	case "hier":
		r, err := schedule.MeasureHier(j.g, j.sched, j.env(), j.hier, gridWarm, gridMeasure)
		return gridOut{hier: r}, err
	default:
		r, err := parallel.MeasureShared(j.family, j.g, j.part, j.pcfg, j.shared, gridWarm, gridMeasure)
		return gridOut{shared: r}, err
	}
}

// traced is one traced job: the result (for the comparison with the
// harness), the end-to-end span and the trace-replay count of the
// profiling call.
type tracedJob struct {
	out      gridOut
	root     time.Duration
	replays  int64
	accesses int64
	profile  time.Duration
}

// runTraced executes the job as the harness does, as direct calls into
// each layer with a span around each: plan, record, profile. After the
// job's end-to-end span a probe replays the trace once more with
// Log.ForEach alone, timing decode on its own.
func (j *gridJob) runTraced(reg *obs.Registry, sp spans) (tracedJob, error) {
	env := j.env()
	env.Metrics = reg
	if j.kind == "shared" {
		return j.runSharedTraced(env, sp)
	}
	start := time.Now()
	t := start
	plan, err := j.sched.Prepare(j.g, env)
	sp["schedule.prepare"] = time.Since(t)
	if err != nil {
		return tracedJob{}, err
	}
	log := trace.NewLog()
	defer log.Close()
	log.SetMetrics(reg)
	log.SetSpillThreshold(curveSpill)
	t = time.Now()
	rec, err := record(j.g, plan, gridBlock, gridWarm, gridMeasure, log)
	sp["exec.record"] = time.Since(t)
	if err != nil {
		return tracedJob{}, err
	}
	res := tracedJob{accesses: log.Len()}
	r0 := log.Replays()
	t = time.Now()
	switch j.kind {
	case "orgs":
		specs := append([]trace.OrgSpec{{Sets: 1}}, j.specs...)
		profiles, perr := trace.ProfileOrgsJobs(log, specs, env.ProfileJobs, env.DecodeJobs)
		res.profile = time.Since(t)
		sp["trace.profile_orgs"] = res.profile
		if err = perr; err == nil {
			res.out.orgs = &schedule.CurveResult{
				Scheduler: j.sched.Name(), Graph: j.g.Name(),
				SourceFired: rec.sourceFired, InputItems: rec.inputItems,
				Curve: profiles[0].LRU.Full(), Orgs: profiles[1:],
				BufferWords: rec.bufferWords, TraceLen: log.Len(),
			}
		}
	default:
		curves, perr := hierarchy.ProfileHierJobs(log, j.hier, env.ProfileJobs, env.DecodeJobs)
		res.profile = time.Since(t)
		sp["hierarchy.profile_hier"] = res.profile
		if err = perr; err == nil {
			res.out.hier = &schedule.HierResult{
				Scheduler: j.sched.Name(), Graph: j.g.Name(),
				SourceFired: rec.sourceFired, InputItems: rec.inputItems,
				Curves: curves, BufferWords: rec.bufferWords, TraceLen: log.Len(),
			}
		}
	}
	res.root = time.Since(start)
	if err != nil {
		return tracedJob{}, err
	}
	res.replays = log.Replays() - r0
	t = time.Now()
	err = log.ForEach(func(int64) {})
	sp["trace.decode"] = time.Since(t)
	return res, err
}

func (j *gridJob) runSharedTraced(env schedule.Env, sp spans) (tracedJob, error) {
	cfg := j.pcfg
	cfg.Env = env
	start := time.Now()
	t := start
	run, plog, err := parallel.RunTraced(j.g, j.part, cfg, gridWarm, gridMeasure)
	sp["parallel.run_traced"] = time.Since(t)
	if err != nil {
		return tracedJob{}, err
	}
	defer plog.Close()
	res := tracedJob{accesses: plog.Len()}
	r0 := plog.Replays()
	t = time.Now()
	curves, err := hierarchy.ProfileSharedJobs(plog, j.shared, env.ProfileJobs, env.DecodeJobs)
	res.profile = time.Since(t)
	sp["hierarchy.profile_shared"] = res.profile
	res.root = time.Since(start)
	if err != nil {
		return tracedJob{}, err
	}
	res.replays = plog.Replays() - r0
	res.out.shared = &parallel.SharedMeasureResult{
		Name: j.family, Graph: j.g.Name(), Procs: cfg.Procs,
		Curves: curves, Run: run, TraceLen: plog.Len(),
	}
	t = time.Now()
	err = plog.ForEach(func(int, int64) {})
	sp["trace.decode"] = time.Since(t)
	return res, err
}

// checkGridPoint re-measures one seeded grid point of a job's result
// with the exact pointwise simulator for that organisation: cachesim
// through schedule.Measure, the two-level hierarchy.Sim through
// MeasureHierPoint, or the shared-L2 simulator through RunShared.
func checkGridPoint(j *gridJob, o gridOut, rng *rand.Rand, tamper bool) error {
	bump := int64(0)
	if tamper {
		bump = 1
	}
	switch j.kind {
	case "orgs":
		c := j.caps[rng.IntN(len(j.caps))]
		w := j.ways[rng.IntN(len(j.ways))]
		pol := cachesim.LRU
		if rng.IntN(2) == 1 {
			pol = cachesim.FIFO
		}
		fa := rng.IntN(4) == 0 // a quarter of the checks take the fully-associative curve
		cc := cachesim.Config{Capacity: c, Block: gridBlock, Ways: int(w), Policy: pol}
		var got int64
		if fa {
			cc = cachesim.Config{Capacity: c, Block: gridBlock}
			got = o.orgs.Curve.MissesAtCapacity(c, gridBlock)
		} else {
			sets, err := trace.SetsFor(c, gridBlock, w)
			if err != nil {
				return err
			}
			n, ok := o.orgs.Orgs[j.specIdx[sets]].Misses(trace.EffectiveWays(c, gridBlock, w), pol == cachesim.FIFO)
			if !ok {
				return fmt.Errorf("orgs %s: no curve for %d words %d-way %v", j.family, c, w, pol)
			}
			got = n
		}
		got += bump
		want, err := schedule.Measure(j.g, j.sched, j.env(), cc, gridWarm, gridMeasure)
		if err != nil {
			return err
		}
		if got != want.Stats.Misses {
			return fmt.Errorf("orgs %s at %+v: curve %d misses, cachesim %d", j.family, cc, got, want.Stats.Misses)
		}
	case "hier":
		i, k := rng.IntN(len(j.hier.L1s)), rng.IntN(len(j.hier.L2s))
		want, err := schedule.MeasureHierPoint(j.g, j.sched, j.env(), j.hier.Config(i, k), gridWarm, gridMeasure)
		if err != nil {
			return err
		}
		l1, l2 := o.hier.Curves.Point(i, k)
		l2 += bump
		if l1 != want.L1.Misses || l2 != want.L2.Misses {
			return fmt.Errorf("hier %s at (%v, %v): curves (%d, %d), hierarchy.Sim (%d, %d)",
				j.family, j.hier.L1s[i], j.hier.L2s[k], l1, l2, want.L1.Misses, want.L2.Misses)
		}
	default:
		i, k := rng.IntN(len(j.shared.L1s)), rng.IntN(len(j.shared.L2s))
		want, err := parallel.RunShared(j.g, j.part, j.pcfg, j.shared.Config(i, k), hierarchy.DefaultCostModel, gridWarm, gridMeasure)
		if err != nil {
			return err
		}
		l1, l2 := o.shared.Curves.Point(i, k)
		l2 += bump
		var simL1 int64
		for p, st := range want.PerProcL1 {
			simL1 += st.Misses
			if o.shared.Curves.L1Misses[i][p] != st.Misses {
				return fmt.Errorf("shared %s: processor %d L1 %v: curves %d, SharedSim %d",
					j.family, p, j.shared.L1s[i], o.shared.Curves.L1Misses[i][p], st.Misses)
			}
		}
		if l1 != simL1 || l2 != want.L2.Misses {
			return fmt.Errorf("shared %s at (%v, %v): curves (%d, %d), SharedSim (%d, %d)",
				j.family, j.shared.L1s[i], j.shared.L2s[k], l1, l2, simL1, want.L2.Misses)
		}
	}
	return nil
}

// sameGridOut reports whether two results of one job are identical.
func sameGridOut(a, b gridOut) bool {
	switch {
	case a.orgs != nil && b.orgs != nil:
		x, y := *a.orgs, *b.orgs
		x.MeanLatency, x.MaxLatency, y.MeanLatency, y.MaxLatency = 0, 0, 0, 0
		x.SinkItems, y.SinkItems = 0, 0
		return reflect.DeepEqual(x, y)
	case a.hier != nil && b.hier != nil:
		x, y := *a.hier, *b.hier
		x.MeanLatency, x.MaxLatency, y.MeanLatency, y.MaxLatency = 0, 0, 0, 0
		x.SinkItems, y.SinkItems = 0, 0
		return reflect.DeepEqual(x, y)
	case a.shared != nil && b.shared != nil:
		return reflect.DeepEqual(a.shared.Curves, b.shared.Curves) &&
			a.shared.TraceLen == b.shared.TraceLen &&
			reflect.DeepEqual(a.shared.Run, b.shared.Run)
	}
	return false
}

// gridRound is one pass over the job list.
type gridRound struct {
	walls []time.Duration // per job, in list order
	outs  []gridOut
	errs  []error
}

// runGridRound runs every job once through its harness.
func runGridRound(jobs []*gridJob) gridRound {
	r := gridRound{walls: make([]time.Duration, len(jobs)), outs: make([]gridOut, len(jobs)), errs: make([]error, len(jobs))}
	for i, j := range jobs {
		// Each job starts from a collected heap, as a fresh CLI process
		// would, instead of paying for the previous job's garbage.
		runtime.GC()
		start := time.Now()
		r.outs[i], r.errs[i] = j.run()
		r.walls[i] = time.Since(start)
	}
	return r
}

// verifyGrid checks the first round's results at one seeded point per
// job against the pointwise simulators, and every later round (and
// traced round, when given) against the first. It returns the number of
// failed jobs over the number of job runs.
func verifyGrid(cfg config, jobs []*gridJob, rounds []gridRound, traced []tracedJob, tracedErrs []error) (attempted, failed int64) {
	rng := rand.New(rand.NewPCG(cfg.seed, 0x961e))
	fail := func(format string, args ...any) {
		failed++
		fmt.Fprintf(cfg.out, "  FAIL grid-batch "+format+"\n", args...)
	}
	first := rounds[0]
	for i, j := range jobs {
		attempted++
		if err := first.errs[i]; err != nil {
			fail("%s %s: %v", j.kind, j.family, err)
			continue
		}
		if err := checkGridPoint(j, first.outs[i], rng, cfg.tampered("grid.curve", i)); err != nil {
			fail("%v", err)
		}
	}
	for _, r := range rounds[1:] {
		for i, j := range jobs {
			attempted++
			if r.errs[i] != nil || first.errs[i] != nil || !sameGridOut(r.outs[i], first.outs[i]) {
				fail("%s %s: a repeated run gave another result (%v)", j.kind, j.family, r.errs[i])
			}
		}
	}
	for i, t := range traced {
		attempted++
		j := jobs[i]
		switch {
		case tracedErrs[i] != nil:
			fail("%s %s traced: %v", j.kind, j.family, tracedErrs[i])
		case t.replays != 1:
			fail("%s %s traced: the profiling call replayed the trace %d times, want 1", j.kind, j.family, t.replays)
		case first.errs[i] != nil || !sameGridOut(t.out, first.outs[i]):
			fail("%s %s traced: direct calls gave another result than the harness", j.kind, j.family)
		}
	}
	return attempted, failed
}

// gridProperties prints the input properties of the job list.
func gridProperties(cfg config, jobs []*gridJob, r gridRound) {
	count := map[string]int{}
	var lens, ws []float64
	for i, j := range jobs {
		count[j.kind]++
		if r.errs[i] != nil {
			continue
		}
		lens = append(lens, float64(r.outs[i].traceLen()))
		if o := r.outs[i].orgs; o != nil {
			ws = append(ws, float64(o.Curve.SaturationLines())/float64(j.caps[len(j.caps)-1]/gridBlock))
		}
	}
	if len(lens) == 0 {
		return
	}
	fmt.Fprintf(cfg.out, "  inputs: %d jobs per round (%d orgs, %d hier, %d shared), no job repeats another within a round; trace %.3g accesses median (%.3g-%.3g); orgs working set %.2fx the largest modelled capacity median (%.2f-%.2f)\n",
		len(jobs), count["orgs"], count["hier"], count["shared"],
		median(lens), quantile(lens, 0), quantile(lens, 1), median(ws), quantile(ws, 0), quantile(ws, 1))
}

// newGridSetup builds the job list; its median build time is setup_s.
func newGridSetup(cfg config) ([]*gridJob, float64, error) {
	// Building the list takes milliseconds, so it is timed many times.
	return timeSetups(21, func() ([]*gridJob, error) { return gridJobs(cfg.seed, cfg.tiny) }, func([]*gridJob) {})
}

// runGrid is the untraced grid-batch run.
func runGrid(cfg config) (*result, error) {
	jobs, setup, err := newGridSetup(cfg)
	if err != nil {
		return nil, err
	}
	budget := secondsDur(cfg.seconds)
	start := time.Now()
	// At least two rounds, so that the tail percentile (p75) has ten job
	// runs beyond it.
	var rounds []gridRound
	for len(rounds) < 2 || time.Since(start) < budget {
		rounds = append(rounds, runGridRound(jobs))
	}
	rss := peakRSSMB()
	kind := map[string][]float64{}
	var walls []float64
	total := 0.0
	for _, r := range rounds {
		per := map[string]float64{}
		for i, j := range jobs {
			s := r.walls[i].Seconds()
			per[j.kind] += s
			walls = append(walls, s*1e3)
			total += s
		}
		for k, s := range per {
			kind[k] = append(kind[k], s)
		}
	}
	attempted, failed := verifyGrid(cfg, jobs, rounds, nil, nil)
	jobsPerS := float64(len(walls)) / total
	fmt.Fprintf(cfg.out, "grid-batch: %d rounds of %d jobs over %.2fs, one job at a time\n",
		len(rounds), len(jobs), time.Since(start).Seconds())
	gridProperties(cfg, jobs, rounds[0])
	printMetric(cfg.out, "setup_s", setup, "s")
	printMetric(cfg.out, "peak_rss_mb", rss, "MB")
	kinds := make([]string, 0, len(kind))
	for k := range kind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		printMetric(cfg.out, k+"_s", median(kind[k]), "s")
	}
	printMetric(cfg.out, "jobs_per_s", jobsPerS, "1/s")
	printMetric(cfg.out, "job_p50_ms", median(walls), "ms")
	printMetric(cfg.out, "job_p75_ms", quantile(walls, 0.75), "ms")
	printErrorFrac(cfg.out, failed, attempted)
	return &result{
		attempted: attempted,
		failed:    failed,
		metrics:   e2e(setup, rss, jobsPerS, median(walls), quantile(walls, 0.75)),
	}, nil
}
