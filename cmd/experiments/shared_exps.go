package main

import (
	"fmt"
	"time"

	"streamsched/internal/cachesim"
	"streamsched/internal/hierarchy"
	"streamsched/internal/parallel"
	"streamsched/internal/partition"
	"streamsched/internal/report"
	"streamsched/internal/schedule"
)

func init() {
	register("E21", "shared-L2 contention: private L1s, one L2, partitions vs P", runE21)
}

// runE21 puts the parallel extension in front of a shared L2: P logical
// processors with private L1s whose miss streams contend for one L2, in
// the interleaving the executor actually produced. Three schedules run
// across P in {1, 2, 4} — the homogeneous batching rule on the cache-aware
// partition, the classic fine-grained pipeline (one module per segment,
// no cache awareness), and the paper's cache-aware partition under the
// pipeline rule. Each run is recorded once and a whole (L1, L2) grid is
// profiled from the trace (hierarchy.ProfileSharedJobs); every grid point of
// every run is then cross-validated exactly against the shared-L2
// simulator replaying the same interleaving (hierarchy.SimulateSharedLog),
// whose L2 is an independent implementation (a policy-ordered bank, not
// the reuse-distance profilers).
//
// Expected shape: the shared-L2 dimension moves the rankings a single
// cache level produces. At a tight shared L2 every schedule pays for the
// interleaved working sets (memory misses/item an order of magnitude
// above the large-L2 points) and the gap between schedules is set by L2
// traffic volume; at a large L2 the compulsory stream dominates and the
// schedules compress toward each other, so a ranking read off one level
// does not survive the hierarchy. The P axis moves through private-L1
// affinity: the executor prefers re-claiming a processor's previous
// component, so wider machines retain more aggregate private state and
// shift traffic off the contended L2.
func runE21(cfg runConfig) error {
	n, state := 24, int64(96)
	warm, meas := int64(256), int64(1024)
	if cfg.full {
		n, meas = 40, 4096
	}
	g, err := uniformPipeline("uniform-pipeline", n, state)
	if err != nil {
		return err
	}
	designM := int64(512)
	env := schedule.Env{M: designM, B: 16}
	auto, err := partition.Auto(g, designM)
	if err != nil {
		return err
	}
	pcfg := func(p int, rule parallel.Rule) parallel.Config {
		return parallel.Config{
			Procs: p,
			Env:   env,
			Cache: cachesim.Config{Capacity: 2 * designM, Block: env.B},
			Rule:  rule,
		}
	}
	type variant struct {
		name string
		p    *partition.Partition
		rule parallel.Rule
	}
	variants := []variant{
		{"homog+auto", auto, parallel.HomogeneousRule},
		{"pipe+fine", partition.Singleton(g), parallel.PipelineRule},
		{"pipe+aware", auto, parallel.PipelineRule},
	}
	procsList := []int{1, 2, 4}

	// 2 private-L1 points x 3 shared-L2 points; spec.Procs filled per run.
	mkSpec := func(p int) hierarchy.SharedSpec {
		return hierarchy.SharedSpec{
			Block: env.B,
			Procs: p,
			L1s: []hierarchy.Level{
				{Capacity: 128, Block: env.B, Ways: 1, Policy: cachesim.LRU},
				{Capacity: 256, Block: env.B, Ways: 0, Policy: cachesim.LRU},
			},
			L2s: []hierarchy.Level{
				{Capacity: 1024, Block: env.B, Ways: 0, Policy: cachesim.LRU},
				{Capacity: 8192, Block: 64, Ways: 8, Policy: cachesim.LRU},
				{Capacity: 2048, Block: 64, Ways: 4, Policy: cachesim.FIFO},
			},
		}
	}

	// One traced execution per (variant, P) answers its whole grid;
	// sequential so the timing comparison below is apples to apples.
	type cell struct {
		res  *parallel.SharedMeasureResult
		spec hierarchy.SharedSpec
	}
	grids := make(map[string]cell)
	start := time.Now()
	for _, v := range variants {
		for _, p := range procsList {
			mr, err := parallel.MeasureShared(v.name, g, v.p, pcfg(p, v.rule), mkSpec(p), warm, meas)
			if err != nil {
				return fmt.Errorf("%s P=%d: %w", v.name, p, err)
			}
			grids[fmt.Sprintf("%s/P%d", v.name, p)] = cell{res: mr, spec: mkSpec(p)}
		}
	}
	onePassTime := time.Since(start)

	spec0 := mkSpec(1)
	cm := hierarchy.DefaultCostModel
	for i := range spec0.L1s {
		for j := range spec0.L2s {
			cols := []string{"schedule"}
			for _, p := range procsList {
				cols = append(cols, fmt.Sprintf("P=%d mem/item", p), fmt.Sprintf("P=%d AMAT", p))
			}
			tb := report.NewTable(
				fmt.Sprintf("E21: shared-L2 memory misses/item and AMAT, L1=%s per proc, L2=%s shared (pipeline n=%d, state=%d, M=%d)",
					spec0.L1s[i], spec0.L2s[j], n, state, designM),
				cols...)
			for _, v := range variants {
				row := []string{v.name}
				for _, p := range procsList {
					c := grids[fmt.Sprintf("%s/P%d", v.name, p)]
					_, m2 := c.res.MissesPerItem(i, j)
					row = append(row, report.F(m2), report.F(c.res.Curves.AMAT(i, j, cm)))
				}
				tb.Add(row...)
			}
			if err := tb.Render(cfg.out); err != nil {
				return err
			}
		}
	}

	// Cross-validate every (schedule, P, L1, L2) grid point against the
	// shared-L2 simulator replaying the same recorded interleaving: both
	// aggregate L2 misses and every processor's private-L1 misses must
	// agree exactly. Re-recording each run (RunShared) would produce the
	// identical trace — the interleaving depends only on the design
	// caches — so the replay is driven through a fresh traced run to keep
	// the check end-to-end.
	start = time.Now()
	mismatches, points := 0, 0
	for _, v := range variants {
		for _, p := range procsList {
			c := grids[fmt.Sprintf("%s/P%d", v.name, p)]
			for i := range c.spec.L1s {
				for j := range c.spec.L2s {
					pt, err := parallel.RunShared(g, v.p, pcfg(p, v.rule), c.spec.Config(i, j), cm, warm, meas)
					if err != nil {
						return fmt.Errorf("%s P=%d point (%d,%d): %w", v.name, p, i, j, err)
					}
					points++
					var simL1 int64
					procOK := true
					for proc := 0; proc < p; proc++ {
						simL1 += pt.PerProcL1[proc].Misses
						if c.res.Curves.L1Misses[i][proc] != pt.PerProcL1[proc].Misses {
							procOK = false
						}
					}
					l1, l2 := c.res.Curves.Point(i, j)
					if !procOK || l1 != simL1 || l2 != pt.L2.Misses {
						mismatches++
						fmt.Fprintf(cfg.out, "MISMATCH: %s P=%d L1=%v L2=%v: curves (%d, %d), simulator (%d, %d)\n",
							v.name, p, c.spec.L1s[i], c.spec.L2s[j], l1, l2, simL1, pt.L2.Misses)
					}
				}
			}
		}
	}
	simTime := time.Since(start)

	status := "exact match at every point (aggregate L2 and per-processor L1)"
	if mismatches > 0 {
		status = fmt.Sprintf("%d MISMATCHED points (see above)", mismatches)
	}
	fmt.Fprintf(cfg.out, "cross-validation vs shared-L2 simulator (%d schedules x %d P x %d L1 x %d L2 = %d points): %s\n",
		len(variants), len(procsList), len(spec0.L1s), len(spec0.L2s), points, status)
	fmt.Fprintf(cfg.out, "wall clock (both sequential): %v for %d one-pass grids vs %v for %d pointwise runs (%.1fx)\n",
		onePassTime.Round(time.Millisecond), len(variants)*len(procsList),
		simTime.Round(time.Millisecond), points,
		float64(simTime)/float64(onePassTime))
	for _, v := range variants {
		c := grids[fmt.Sprintf("%s/P%d", v.name, procsList[len(procsList)-1])]
		fmt.Fprintf(cfg.out, "%s (P=%d): trace %d accesses (%d in window) over %d items, makespan %d blocks\n",
			v.name, c.res.Procs, c.res.TraceLen, c.res.Curves.Accesses, c.res.Run.InputItems, c.res.Run.MakespanBlocks)
	}
	if mismatches > 0 {
		return fmt.Errorf("E21: %d grid points disagreed with the shared-L2 simulator", mismatches)
	}
	return nil
}
