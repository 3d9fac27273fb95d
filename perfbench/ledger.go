package main

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// layer is one row of a ledger: a span the benchmark records around its
// own call into one layer's public function.
type layer struct {
	name string // metric stem, e.g. "exec.record"
	unit string // "ms", "us" or "ns"
	// aside marks a span that is not part of the operation's blocking
	// steps: nested inside another layer's span, or a probe timed outside
	// the operation. It is reported with its share of the end-to-end time
	// but not subtracted from the remainder.
	aside bool
}

// unitScale converts seconds to a display unit.
func unitScale(unit string) float64 {
	switch unit {
	case "ms":
		return 1e3
	case "us":
		return 1e6
	case "ns":
		return 1e9
	}
	return 1
}

// spans collects one operation's layer times, keyed by layer name.
type spans map[string]time.Duration

// ledger accumulates traced operations of one workload: per operation,
// the end-to-end time and each layer's span. The remainder of an
// operation is its end-to-end time minus the spans of its blocking
// layers, so per operation the layers plus the remainder account for the
// end-to-end time exactly; shares are totals over the run, so they add
// up to 100% too.
type ledger struct {
	workload  string
	prefix    string // metric name prefix, e.g. "cold."
	what      string // what one operation is
	rootUnit  string
	remainder string // name of the remainder row
	layers    []layer

	mu         sync.Mutex
	roots      []float64            // per operation, seconds
	vals       map[string][]float64 // per layer, per operation that had it
	totals     map[string]float64   // per layer, seconds
	remainders []float64
	extras     []extra
}

// extra is an additional ledger figure: a count, a ratio, or a time
// measured apart from the per-operation spans.
type extra struct {
	m    metric
	note string
}

func newLedger(workload, prefix, what, rootUnit, remainder string, layers ...layer) *ledger {
	return &ledger{
		workload:  workload,
		prefix:    prefix,
		what:      what,
		rootUnit:  rootUnit,
		remainder: remainder,
		layers:    layers,
		vals:      make(map[string][]float64),
		totals:    make(map[string]float64),
	}
}

// commit records one traced operation. Safe for concurrent use.
func (l *ledger) commit(root time.Duration, sp spans) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rest := root
	for _, ly := range l.layers {
		d, ok := sp[ly.name]
		if !ok {
			continue
		}
		l.vals[ly.name] = append(l.vals[ly.name], d.Seconds())
		l.totals[ly.name] += d.Seconds()
		if !ly.aside {
			rest -= d
		}
	}
	l.roots = append(l.roots, root.Seconds())
	l.remainders = append(l.remainders, rest.Seconds())
}

// addExtra records an additional figure printed after the layer rows.
func (l *ledger) addExtra(name string, v float64, unit, note string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.extras = append(l.extras, extra{metric{l.prefix + name, v, unit}, note})
}

// medianRoot returns the median end-to-end time in seconds.
func (l *ledger) medianRoot() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return median(l.roots)
}

// totalRoot returns the summed end-to-end time in seconds.
func (l *ledger) totalRoot() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return sum(l.roots)
}

// report prints the ledger table and returns its metrics: per layer the
// median time and the share of the total end-to-end time, the same for
// the remainder, the median traced end-to-end time, and the extras.
func (l *ledger) report(out io.Writer) []metric {
	l.mu.Lock()
	defer l.mu.Unlock()
	rootTotal := sum(l.roots)
	share := func(t float64) float64 {
		if rootTotal <= 0 {
			return 0
		}
		return t / rootTotal
	}
	fmt.Fprintf(out, "ledger %s: %d traced %s; median per operation, share of total end-to-end time\n",
		l.workload, len(l.roots), l.what)
	fmt.Fprintf(out, "  %-34s %14s %9s\n", "layer", "median", "share")
	var ms []metric
	row := func(name, unit string, xs []float64, total float64, note string) {
		med := median(xs) * unitScale(unit)
		sh := share(total)
		fmt.Fprintf(out, "  %-34s %11.4g %-2s %8.2f%%%s\n", name, med, unit, 100*sh, note)
		ms = append(ms,
			metric{l.prefix + name + "_" + unit, med, unit},
			metric{l.prefix + name + "_share", sh, "ratio"})
	}
	accounted := 0.0
	for _, ly := range l.layers {
		note := ""
		if ly.aside {
			note = "  (aside: not added into the total)"
		} else {
			accounted += share(l.totals[ly.name])
		}
		row(ly.name, ly.unit, l.vals[ly.name], l.totals[ly.name], note)
	}
	remTotal := sum(l.remainders)
	accounted += share(remTotal)
	row(l.remainder, l.rootUnit, l.remainders, remTotal, "")
	med := median(l.roots) * unitScale(l.rootUnit)
	fmt.Fprintf(out, "  %-34s %11.4g %-2s %8.2f%%  (layers + remainder account for %.2f%%)\n",
		"= traced end-to-end", med, l.rootUnit, 100*share(rootTotal), 100*accounted)
	ms = append(ms, metric{l.prefix + "e2e_" + l.rootUnit, med, l.rootUnit})
	for _, x := range l.extras {
		fmt.Fprintf(out, "  %-34s %11.6g %s  %s\n", x.m.name[len(l.prefix):], x.m.value, x.m.unit, x.note)
		ms = append(ms, x.m)
	}
	return ms
}
