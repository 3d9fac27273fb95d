// Command perfbench is the repository benchmark. One run drives one
// workload at the shipped defaults of the entry point it exercises,
// verifies every output, and prints its metrics; the last line of
// standard output is a JSON object with the keys correct, attempted,
// failed and metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload serve-cold|serve-warm|grid-batch \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the run measures the workload's end-to-end metrics with
// tracing off. With --trace 1 it prints the per-layer ledger instead: the
// named workload is traced for --seconds, and the other two workloads'
// layers are traced on a short fixed pass, so every traced run reports
// the whole ledger. README.md lists every metric and what it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// tiny shrinks every input to its smallest form (the self-test).
	tiny bool
	out  io.Writer
	// tamper, when set, names outputs to corrupt after they are produced
	// and before they are verified. Tests use it to show the verifier is
	// live; site is "cold.body", "warm.body" or "grid.curve" and i counts
	// outputs at that site from 0.
	tamper func(site string, i int) bool
}

func (c config) tampered(site string, i int) bool { return c.tamper != nil && c.tamper(site, i) }

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what a run reports: operations attempted and failed (any
// error, non-200 status or wrong output counts as failed) and its
// metrics.
type result struct {
	attempted, failed int64
	metrics           []metric
}

// workloads are the benchmark's traffic mixes, in ledger order.
var workloadNames = []string{"serve-cold", "serve-warm", "grid-batch"}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "serve-cold, serve-warm or grid-batch")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traceMode == 1,
		out:      stdout,
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := resultJSON(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// run executes one benchmark run and prints its report to cfg.out.
func run(cfg config) (*result, error) {
	known := false
	for _, w := range workloadNames {
		known = known || w == cfg.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown -workload %q (want serve-cold, serve-warm or grid-batch)", cfg.workload)
	}
	if cfg.seconds < 0 {
		return nil, errors.New("-seconds must not be negative")
	}
	mode := "untraced"
	if cfg.traced {
		mode = "traced"
	}
	fmt.Fprintf(cfg.out, "perfbench workload=%s seed=%d seconds=%g mode=%s GOMAXPROCS=%d nproc=%d go=%s commit=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, mode, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())
	if cfg.traced {
		return runLedger(cfg)
	}
	switch cfg.workload {
	case "serve-cold":
		return runCold(cfg)
	case "serve-warm":
		return runWarm(cfg)
	default:
		return runGrid(cfg)
	}
}

// commit names the source revision the binary was built from, when the
// build recorded one (it does not outside a git checkout).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// resultJSON renders the machine-readable last line.
func resultJSON(res *result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		if _, dup := metrics[m.name]; dup {
			return nil, fmt.Errorf("metric %s reported twice", m.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is %v: too few samples", m.name, m.value)
		}
		metrics[m.name] = value{m.value, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, metrics})
}
