// Command perfbench is the end-to-end query benchmark of drrgossip.
//
// It drives the public session API as one closed-loop client: each
// repetition builds the workload's session(s) with drrgossip.New and
// issues the query mix with Network.Run, each query waiting for its
// answer. With -trace 0 it reports the end-to-end metrics of untraced
// repetitions; with -trace 1 it alternates untraced repetitions with
// repetitions traced by a benchmark-owned telemetry sink and reports
// the per-layer metrics. Every answer is checked against
// drrgossip.ExactOf outside the timed region. README.md describes the
// workloads, the metrics and the layer each metric belongs to.
//
//	go run . -workload complete-aggregates -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The line before it records the host and workload context. The exit
// status is nonzero on any incorrect answer, determinism mismatch or
// failed trace gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Uint64("seed", 1, "workload seed: drives the generated values and Config.Seed")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced repetitions")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1}
	out, err := b.measure()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}
	b.printContext()
	out.print()
	if !out.correct {
		return 1
	}
	return 0
}

// printContext records the host and workload the numbers belong to.
func (b *bench) printContext() {
	var labels []string
	for _, mq := range b.sessions[0].mix {
		labels = append(labels, mq.label)
	}
	traced := 0
	for _, r := range b.reps {
		if r.traced {
			traced++
		}
	}
	ctx := map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"workload":      b.w.name,
		"n":             b.w.n,
		"topology":      b.w.topology,
		"sessions":      b.w.sessions,
		"seed":          b.seed,
		"mix":           labels,
		"repetitions":   len(b.reps),
		"traced_reps":   traced,
		"setup_batches": len(b.setups),
		"rss_source":    b.peak.source(),
	}
	js, _ := json.Marshal(ctx)
	fmt.Printf("context %s\n", js)
}

// output is the result line.
type output struct {
	correct           bool
	attempted, failed int
	names             []string
	values            []float64
	units             []string
}

func (o *output) add(name string, v float64, unit string) {
	o.names = append(o.names, name)
	o.values = append(o.values, v)
	o.units = append(o.units, unit)
}

// print writes a human-readable table to stderr and the JSON result as
// the last line of stdout.
func (o *output) print() {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, o.correct, o.attempted, o.failed)
	for i, n := range o.names {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(os.Stderr, "%-28s %16.6g %s\n", n, o.values[i], o.units[i])
		fmt.Fprintf(&sb, `%q: {"value": %s, "unit": %q}`, n, strconv.FormatFloat(o.values[i], 'g', -1, 64), o.units[i])
	}
	sb.WriteString("}}")
	fmt.Println(sb.String())
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
