package schedule

import (
	"testing"

	"streamsched/internal/sdf"
	"streamsched/internal/trace"
	"streamsched/workloads"
)

// Cold-profile benchmarks at the daemon's defaults: M 512, B 16, warm
// 1024 and measure 4096 source firings, partitioned scheduler, on three
// shapes from the standard suite (module state M/4): a split-join
// (fmradio), a deep pipeline (fft) and a table-heavy decoder (mp3).
const (
	benchM, benchB          = 512, 16
	benchWarm, benchMeasure = 1024, 4096
)

// benchGraphs returns the benchmarked families of workloads.Suite by name.
func benchGraphs(b *testing.B) []*sdf.Graph {
	b.Helper()
	suite, err := workloads.Suite(benchM)
	if err != nil {
		b.Fatal(err)
	}
	var out []*sdf.Graph
	for _, g := range suite {
		switch g.Name() {
		case "fmradio", "fft", "mp3":
			out = append(out, g)
		}
	}
	if len(out) != 3 {
		b.Fatalf("found %d of the benchmarked families", len(out))
	}
	return out
}

// benchScheduler is the partitioned variant for g's shape, as the
// daemon's default "partitioned" resolves it.
func benchScheduler(g *sdf.Graph) Scheduler {
	scheds := schedulersForGraph(g)
	return scheds[len(scheds)-1]
}

// BenchmarkMeasureCurveCold is one cold /v1/profile's compute: plan,
// record, and the fully-associative profile.
func BenchmarkMeasureCurveCold(b *testing.B) {
	for _, g := range benchGraphs(b) {
		s := benchScheduler(g)
		env := Env{M: benchM, B: benchB}
		b.Run(g.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MeasureCurve(g, s, env, benchB, benchWarm, benchMeasure); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecord is the record layer alone: a record-only machine
// driven through warm and measured firings into a trace.Log, with no
// profile. Planning runs outside the timer.
func BenchmarkRecord(b *testing.B) {
	for _, g := range benchGraphs(b) {
		s := benchScheduler(g)
		b.Run(g.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				plan, err := s.Prepare(g, Env{M: benchM, B: benchB})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				log := trace.NewLog()
				log.SetMetrics(nil)
				if _, _, err := record(g, s, plan, benchB, benchWarm, benchMeasure, log, log.MarkWindow); err != nil {
					b.Fatal(err)
				}
				log.Close()
			}
		})
	}
}
