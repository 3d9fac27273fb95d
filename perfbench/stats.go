package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// peakRSSMB reports the process's peak resident set size in MiB
// (getrusage ru_maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// timeSetups runs setup n times and returns the median wall time in
// seconds. Every set-up but the last is released with discard; the last
// one's state is what the run measures.
func timeSetups[T any](n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(last)
		}
		runtime.GC() // start each set-up from a collected heap
		start := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}

// errorFrac prints the error fraction line every workload reports.
func printErrorFrac(out io.Writer, failed, attempted int64) {
	frac := 0.0
	if attempted > 0 {
		frac = float64(failed) / float64(attempted)
	}
	fmt.Fprintf(out, "  %-22s %.6g (%d failed of %d attempted)\n", "error_frac", frac, failed, attempted)
}

// printMetric prints one end-to-end figure under its workload-specific
// name.
func printMetric(out io.Writer, name string, v float64, unit string) {
	fmt.Fprintf(out, "  %-22s %.6g %s\n", name, v, unit)
}

// e2e assembles the end-to-end metrics every workload reports under the
// names BENCHMARK.json declares.
func e2e(setup, rss, opsPerS, p50ms, tailms float64) []metric {
	return []metric{
		{"setup_s", setup, "s"},
		{"peak_rss_mb", rss, "MB"},
		{"ops_per_s", opsPerS, "1/s"},
		{"p50_ms", p50ms, "ms"},
		{"tail_ms", tailms, "ms"},
	}
}
