// Command perfbench is the repository's end-to-end benchmark. It drives
// a real tetrisd over loopback TCP with one of three seeded workloads,
// checks every answer against a reference computed off the clock, and
// prints each metric by name with its unit and sample count. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics BENCHMARK.json lists (--trace 0), or
// its per-layer metrics (--trace 1), which come from a traced run: the
// same protocol pass with client-side spans, then a direct in-process
// pass that replays the request sequence through the layers' public
// functions with a span around each call. Spans are written to
// <work>/trace-<workload>-<seed>.json. With --workload all, "metrics"
// holds one such object per workload, keyed by the workload's name.
//
// Usage (from the repository root; run.sh builds tetrisd and this
// program first):
//
//	bash perfbench/run.sh --workload read-prepared --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// bench is one invocation's configuration and resources.
type bench struct {
	tetrisd string
	work    string
	seed    int64
	seconds float64
	trace   bool
	spec    workloadSpec

	daemons []*daemon
}

// metric is one reported number. n is the sample count behind it; ok is
// false when the sample does not support it (see percentile).
type metric struct {
	name, unit string
	value      float64
	n          int
	ok         bool
}

// outcome is everything a workload run reports.
type outcome struct {
	e2e    []metric
	layers []metric

	attempted, failed int64
	// defects are wrong answers, lost writes and exact counts that did
	// not repeat; any defect makes the run incorrect.
	defects []string
	// counts must repeat exactly between runs of the same code and seed.
	counts map[string]int64
}

func (o *outcome) add(name, unit string, value float64, n int) {
	o.e2e = append(o.e2e, metric{name: name, unit: unit, value: value, n: n, ok: n > 0})
}

func (o *outcome) addLayer(name, unit string, value float64, n int) {
	o.layers = append(o.layers, metric{name: name, unit: unit, value: value, n: n, ok: n > 0})
}

// addPercentile reports the p-quantile of xs, or marks it unsupported.
func (o *outcome) addPercentile(name string, xs []float64, p float64) {
	v, ok := percentile(xs, p)
	o.e2e = append(o.e2e, metric{name: name, unit: "ms", value: v, n: len(xs), ok: ok})
}

// correct reports whether the run saw no defect.
func (o *outcome) correct() bool { return len(o.defects) == 0 }

func (o *outcome) defect(format string, args ...any) {
	o.defects = append(o.defects, fmt.Sprintf(format, args...))
}

// count records an exact count; a second, different value for the same
// key within one run is itself a defect.
func (o *outcome) count(key string, v int64) {
	if o.counts == nil {
		o.counts = map[string]int64{}
	}
	if old, ok := o.counts[key]; ok && old != v {
		o.defect("exact count %s changed within the run: %d then %d", key, old, v)
		return
	}
	o.counts[key] = v
}

// benchmarkFile is the part of BENCHMARK.json this program reads: which
// metrics go into the final JSON line.
type benchmarkFile struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		b        bench
		name     string
		traceInt int
	)
	flag.StringVar(&b.tetrisd, "tetrisd", "", "tetrisd binary")
	flag.StringVar(&b.work, "work", ".bench_build", "scratch directory for data dirs, traces and count records")
	flag.StringVar(&name, "workload", "", "workload name, or all")
	flag.Int64Var(&b.seed, "seed", 1, "input seed")
	flag.Float64Var(&b.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&traceInt, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	b.trace = traceInt == 1

	var bf benchmarkFile
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reading BENCHMARK.json:", err)
		return 2
	}
	if b.tetrisd == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -tetrisd is required (use run.sh)")
		return 2
	}
	// Exact counts are compared only between runs of the same code: the
	// record is keyed by a digest of both binaries.
	codeID, err := digest(b.tetrisd, os.Args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	var specs []workloadSpec
	for _, w := range workloads {
		if name == w.name || name == "all" {
			specs = append(specs, w)
		}
	}
	if len(specs) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}

	correct := true
	var attempted, failed int64
	final := map[string]any{}
	for _, spec := range specs {
		b.spec = spec
		o, err := b.runWorkload()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", spec.name, err)
			return 1
		}
		o.checkRepeatCounts(filepath.Join(b.work, "counts", fmt.Sprintf("%s-%s-seed%d.json", codeID, spec.name, b.seed)))
		o.print(spec.name)
		if b.trace {
			fmt.Println("(e2e rows of a traced run come from its protocol pass; their excess over an untraced run of the same seed is the tracing overhead)")
		}
		attempted += o.attempted
		failed += o.failed
		if !o.correct() {
			correct = false
		}
		want, have := bf.EndToEnd, o.e2e
		if b.trace {
			want, have = bf.PerLayer, o.layers
		}
		metrics := map[string]any{}
		for _, w := range want {
			m, ok := find(have, w.Name)
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s not measured\n", spec.name, w.Name)
				return 1
			}
			metrics[w.Name] = map[string]any{"value": m.value, "unit": m.unit}
		}
		if len(specs) == 1 {
			final = metrics
		} else {
			final[spec.name] = metrics
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": final,
	})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload and guarantees every tetrisd it started
// is killed and reaped, whatever happened.
func (b *bench) runWorkload() (o *outcome, err error) {
	b.daemons = nil
	defer func() {
		for _, d := range b.daemons {
			d.kill()
		}
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	return b.spec.run(b)
}

// start launches a tetrisd that runWorkload will reap.
func (b *bench) start(extra ...string) (*daemon, error) {
	d, err := startDaemon(b.tetrisd, append(append([]string(nil), b.spec.flags...), extra...))
	if err != nil {
		return nil, err
	}
	b.daemons = append(b.daemons, d)
	return d, nil
}

// find returns the supported metric with the given name.
func find(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.name == name && m.ok && !math.IsNaN(m.value) && !math.IsInf(m.value, 0) {
			return m, true
		}
	}
	return metric{}, false
}

// print writes the human-readable report: every metric with its unit and
// sample count, then any defects.
func (o *outcome) print(workload string) {
	fmt.Printf("== %s\n", workload)
	rate := 0.0
	if o.attempted > 0 {
		rate = float64(o.failed) / float64(o.attempted)
	}
	show := func(kind string, ms []metric) {
		for _, m := range ms {
			target := ""
			if t, ok := layerTargets[m.name]; ok && kind == "layer" {
				target = " -> " + t
			}
			switch {
			case m.ok:
				fmt.Printf("%-6s %-34s %14.6g %-6s n=%d%s\n", kind, m.name, m.value, m.unit, m.n, target)
			case m.n == 0:
				fmt.Printf("%-6s %-34s %14s %-6s n=0%s\n", kind, m.name, "not measured", m.unit, target)
			default:
				fmt.Printf("%-6s %-34s %14s %-6s n=%d (fewer than %d samples beyond it)%s\n",
					kind, m.name, "unsupported", m.unit, m.n, minBeyond, target)
			}
		}
	}
	show("e2e", o.e2e)
	show("e2e", []metric{{name: "error_rate", unit: "ratio", value: rate, n: int(o.attempted), ok: o.attempted > 0}})
	show("layer", o.layers)
	for _, d := range o.defects {
		fmt.Printf("DEFECT    %s\n", d)
	}
}

// digest is a short hash of the named files' contents.
func digest(paths ...string) (string, error) {
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checkRepeatCounts compares this run's exact counts with those an
// earlier run of the same workload and seed recorded in path, reporting
// every difference as a defect, and records any new keys.
func (o *outcome) checkRepeatCounts(path string) {
	if len(o.counts) == 0 {
		return
	}
	prev := map[string]int64{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &prev); err != nil {
			o.defect("unreadable count record %s: %v", path, err)
			return
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		o.defect("count record %s: %v", path, err)
		return
	}
	keys := make([]string, 0, len(o.counts))
	for k := range o.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var diffs []string
	compared := 0
	for _, k := range keys {
		old, ok := prev[k]
		switch {
		case !ok:
			prev[k] = o.counts[k]
		case old != o.counts[k]:
			diffs = append(diffs, fmt.Sprintf("%s: %d earlier, %d now", k, old, o.counts[k]))
			compared++
		default:
			compared++
		}
	}
	if len(diffs) > 0 {
		o.defect("exact counts differ from an earlier run with this seed: %s", strings.Join(diffs, "; "))
	}
	fmt.Printf("exact counts: %d recorded, %d compared with an earlier run of this seed\n", len(keys), compared)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		raw, _ := json.MarshalIndent(prev, "", " ")
		os.WriteFile(path, raw, 0o644)
	}
}
