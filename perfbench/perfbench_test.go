package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// declared reads the metric declarations in BENCHMARK.json.
func declared(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// lastLine is the JSON result line a run prints.
type lastLine struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// runTiny runs one workload at the smallest size and parses its result.
func runTiny(t *testing.T, workload string, traced bool, tamper func(string, int) bool) (lastLine, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(config{workload: workload, seed: 7, seconds: 0.2, traced: traced, tiny: true, out: &out, tamper: tamper})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	line, err := resultJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var got lastLine
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	return got, out.String()
}

func sameNames(t *testing.T, what string, got map[string]string, want map[string]string) {
	t.Helper()
	var missing, extra, unit []string
	for n, u := range want {
		g, ok := got[n]
		switch {
		case !ok:
			missing = append(missing, n)
		case g != u:
			unit = append(unit, n+" "+g+" want "+u)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			extra = append(extra, n)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing)+len(extra)+len(unit) > 0 {
		t.Errorf("%s: missing %v, undeclared %v, wrong unit %v", what, missing, extra, unit)
	}
}

// TestEveryMetricReported runs every workload untraced and traced at the
// smallest size: each run must be correct and report exactly the metrics
// BENCHMARK.json declares, with their units, and print each workload's
// own end-to-end figures by name with a unit.
func TestEveryMetricReported(t *testing.T) {
	e2e, layers := declared(t)
	named := map[string][]string{
		"serve-cold": {"cold_rps 1/s", "cold_p50_ms ms", "cold_p90_ms ms"},
		"serve-warm": {"warm_rps 1/s", "warm_p50_us us", "warm_p99_us us"},
		"grid-batch": {"orgs_s s", "hier_s s", "shared_s s", "jobs_per_s 1/s"},
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			got, text := runTiny(t, w, traced, nil)
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed\n%s", w, traced, got.Correct, got.Failed, got.Attempted, text)
			}
			units := map[string]string{}
			for n, m := range got.Metrics {
				units[n] = m.Unit
			}
			want := e2e
			if traced {
				want = layers
			}
			sameNames(t, w, units, want)
			if traced {
				for _, l := range []string{"ledger serve-cold", "ledger serve-warm", "ledger grid-batch", "tracing overhead on " + w} {
					if !strings.Contains(text, l) {
						t.Errorf("%s traced: output lacks %q\n%s", w, l, text)
					}
				}
				continue
			}
			for _, l := range append(named[w], "setup_s s", "peak_rss_mb MB") {
				if f := strings.Fields(l); !namedWithUnit(text, f[0], f[1]) {
					t.Errorf("%s: output lacks a %q line\n%s", w, l, text)
				}
			}
			if !strings.Contains(text, "error_frac") {
				t.Errorf("%s: output lacks error_frac\n%s", w, text)
			}
		}
	}
}

// namedWithUnit reports whether text has a line "name value unit".
func namedWithUnit(text, name, unit string) bool {
	for _, tl := range strings.Split(text, "\n") {
		tf := strings.Fields(tl)
		if len(tf) >= 3 && tf[0] == name && tf[2] == unit {
			return true
		}
	}
	return false
}

// TestVerifierCatchesCorruption corrupts one output of each workload
// after it is produced: the run must report it as failed and incorrect.
func TestVerifierCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		workload, site string
		traced         bool
	}{
		{"serve-cold", "cold.body", false},
		{"serve-warm", "warm.body", false},
		{"grid-batch", "grid.curve", false},
		{"grid-batch", "grid.curve", true},
	} {
		got, text := runTiny(t, tc.workload, tc.traced, func(site string, i int) bool { return site == tc.site && i == 0 })
		if got.Correct || got.Failed < 1 {
			t.Errorf("%s: a corrupted %s went unnoticed: correct %v, %d failed\n%s", tc.workload, tc.site, got.Correct, got.Failed, text)
		}
		if !strings.Contains(text, "FAIL") {
			t.Errorf("%s: no FAIL line for the corrupted %s\n%s", tc.workload, tc.site, text)
		}
	}
}

func TestUniqueBodiesDiffer(t *testing.T) {
	seen := map[string]bool{}
	for n := int64(0); n < 5000; n++ {
		b := string(uniqueBody([]byte("{}"), n))
		if seen[b] {
			t.Fatalf("body %d repeats an earlier one", n)
		}
		seen[b] = true
		var v map[string]any
		if err := json.Unmarshal([]byte(b), &v); err != nil {
			t.Fatalf("body %d is not JSON: %v", n, err)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}
