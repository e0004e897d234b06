// Command smtbench is the smtflex benchmark. One invocation runs one named
// workload for a fixed time, checks every output it gets back, and prints a
// JSON result line with the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output.
//
//	bash smtbench/run.sh --workload sweep_fresh --seed 7 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and the layer each one
// measures.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sizes fixes the amount of work behind each workload. The benchmark's
// figures are defined at defaultSizes; the smoke test shrinks them.
type sizes struct {
	// campaignUops and campaignMixes set the cold campaign's fidelity:
	// µops per profiling run and heterogeneous mixes per thread count.
	campaignUops  uint64
	campaignMixes int
	// warmUops is the profiling length of the campaign set-up's warm-up.
	warmUops uint64
	// daemonUops and daemonMixes configure the serving workloads' daemon.
	daemonUops  uint64
	daemonMixes int
	// setups is how many times a run sets up; setup_s is their median.
	setups int
	// queryRate is query_mix's arrival rate in requests per second.
	queryRate float64
	// cachedSweeps is how many sweeps query_mix warms for its reads.
	cachedSweeps int
	// identitySweeps and identityPlaces bound the replays behind the
	// simulation-identity record.
	identitySweeps int
	identityPlaces int
	// probeUops scales the per-layer probes of the traced run.
	probeUops int
	// replayMax bounds the in-process replays of the traced serving runs.
	replayMax int
}

var defaultSizes = sizes{
	campaignUops:   100_000,
	campaignMixes:  2,
	warmUops:       5_000,
	daemonUops:     20_000,
	daemonMixes:    12,
	setups:         3,
	queryRate:      200,
	cachedSweeps:   6,
	identitySweeps: 4,
	identityPlaces: 200,
	probeUops:      100_000,
	replayMax:      300,
}

// Fixed limits of the benchmark.
const (
	// querySLO is query_mix's latency limit, timed from each request's due
	// time.
	querySLO = 10 * time.Millisecond
	// minCoverage is the share of the traced campaign's wall time the layer
	// spans must cover.
	minCoverage = 95.0
)

// workers is the load and engine concurrency: one per CPU.
var workers = runtime.NumCPU()

// runCfg is one invocation of a workload.
type runCfg struct {
	seed    int64
	seconds time.Duration
	trace   bool
	sz      sizes
	outDir  string    // where traces and identity records are written
	log     io.Writer // progress and summaries
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	// problems holds output-check violations and validity failures.
	problems []string
	e2e      map[string]metric
	layers   map[string]metric
	// named repeats the end-to-end figures under the names the workload's
	// users know them by: campaign_s, sweeps_per_s, query_ms_p99 and so on.
	named map[string]metric
	ident identity
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layers: map[string]metric{}, named: map[string]metric{}}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and records why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problem(format, args...)
}

// identity is the simulation-identity record: a digest of the simulated
// outputs for the seed, plus exact counts, so a speed-only change can show
// that the simulation did not change. It is printed, never gated.
type identity struct {
	SHA256           string  `json:"sha256"`
	Outputs          int     `json:"outputs_hashed"`
	Profiles         int64   `json:"profiler_profiles"`
	Evaluations      int64   `json:"study_evaluations"`
	SolverIterations int64   `json:"solver_iterations"`
	Solves           int64   `json:"solves"`
	ConvergedRatio   float64 `json:"converged_ratio"`
	WorstResidual    float64 `json:"worst_residual"`
	Basis            string  `json:"basis"`
}

// digest accumulates the identity hash.
type digest struct {
	h hash.Hash
	n int
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(b []byte) {
	fmt.Fprintf(d.h, "%d:", len(b))
	d.h.Write(b)
	d.n++
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

type bench struct {
	name string
	run  func(context.Context, runCfg) (*outcome, error)
}

var benches = []bench{
	{"campaign_cold", runCampaign},
	{"sweep_fresh", runSweepFresh},
	{"query_mix", runQueryMix},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smtbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: campaign_cold, sweep_fresh or query_mix")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 20, "measured time per run")
	traceFlag := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	outDir := fs.String("out", ".bench_out", "directory for span traces and identity records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *bench
	for i := range benches {
		if benches[i].name == *name {
			w = &benches[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "smtbench: need --workload (campaign_cold, sweep_fresh, query_mix), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := runCfg{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		sz:      defaultSizes,
		outDir:  *outDir,
		log:     stderr,
	}
	line, err := execute(context.Background(), *w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "smtbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs one workload, prints its summary and identity record, and
// returns the result line.
func execute(ctx context.Context, w bench, cfg runCfg) (string, error) {
	o, err := w.run(ctx, cfg)
	if err != nil {
		return "", err
	}
	if o.attempted < 1 {
		return "", fmt.Errorf("no operation was attempted")
	}
	o.layers["loadgen.error_ratio"] = metric{ratio(float64(o.failed), float64(o.attempted)), "ratio"}
	o.named["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}

	printSummary(cfg.log, w.name, cfg, o)
	tag := fmt.Sprintf("%s-seed%d-traced-%t", w.name, cfg.seed, cfg.trace)
	if b, err := json.MarshalIndent(o.ident, "", "  "); err == nil {
		if err := writeFile(filepath.Join(cfg.outDir, tag+"-identity.json"), b); err != nil {
			fmt.Fprintf(cfg.log, "smtbench: identity record not written: %v\n", err)
		}
	}
	res := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.e2e}
	if cfg.trace {
		res.Metrics = o.layers
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func printSummary(out io.Writer, name string, cfg runCfg, o *outcome) {
	fmt.Fprintf(out, "== %s seed=%d seconds=%g trace=%t: attempted=%d failed=%d error_ratio=%.6g\n",
		name, cfg.seed, cfg.seconds.Seconds(), cfg.trace, o.attempted, o.failed, ratio(float64(o.failed), float64(o.attempted)))
	for _, p := range o.problems {
		fmt.Fprintf(out, "   problem: %s\n", p)
	}
	printMetrics(out, "end-to-end", o.e2e)
	printMetrics(out, "end-to-end, by workload name", o.named)
	if cfg.trace {
		printMetrics(out, "per-layer", o.layers)
	}
	id := o.ident
	fmt.Fprintf(out, "   identity: sha256=%s outputs=%d profiles=%d evaluations=%d solver_iterations=%d solves=%d converged_ratio=%.6g worst_residual=%.6g (%s)\n",
		id.SHA256, id.Outputs, id.Profiles, id.Evaluations, id.SolverIterations, id.Solves, id.ConvergedRatio, id.WorstResidual, id.Basis)
}

func printMetrics(out io.Writer, title string, ms map[string]metric) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(out, "   %s:\n", title)
	for _, k := range keys {
		fmt.Fprintf(out, "     %-32s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

func writeFile(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// peakRSSMiB is the process's peak resident set size (VmHWM), printed in the
// summary. Where /proc is unavailable it falls back to the Go runtime's total
// obtained memory.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// rssSampler samples the process's resident set size every 20 ms while a
// measured phase runs. The mean of the samples is the phase's memory cost
// over time: the highest sample (VmHWM) depends on where garbage collections
// happen to fall and varies far more from run to run.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64
}

// startRSS first collects the set-ups' garbage and returns the freed memory
// to the OS, so every measured phase starts from the live heap alone, not
// from whatever the earlier set-ups happened to leave resident.
func startRSS() *rssSampler {
	debug.FreeOSMemory()
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, ok := rssMiB(); ok {
				r.samples = append(r.samples, v)
			}
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// report stops sampling and reports the mean as rss_mb_mean.
func (r *rssSampler) report(o *outcome) {
	close(r.stop)
	<-r.done
	v := 0.0
	for _, x := range r.samples {
		v += x
	}
	if len(r.samples) > 0 {
		v /= float64(len(r.samples))
	} else {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		v = float64(m.Sys) / (1 << 20)
	}
	o.e2e["rss_mb_mean"] = metric{v, "MiB"}
}

var pageSize = float64(os.Getpagesize())

// rssMiB reads the current resident set size from /proc/self/statm.
func rssMiB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	return pages * pageSize / (1 << 20), err == nil
}

// runtimeDelta measures the Go runtime's allocation and GC pause totals over
// a phase.
type runtimeDelta struct{ alloc, pause uint64 }

func runtimeNow() runtimeDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeDelta{m.TotalAlloc, m.PauseTotalNs}
}

func (r runtimeDelta) report(o *outcome) {
	now := runtimeNow()
	o.layers["runtime.alloc_mb"] = metric{float64(now.alloc-r.alloc) / (1 << 20), "MiB"}
	o.layers["runtime.gc_pause_ms"] = metric{float64(now.pause-r.pause) / 1e6, "ms"}
}
