// Command perfdiff attributes the performance difference between two perf
// snapshots — the differential half of the performance-observability layer —
// and is the CI bench gate.
//
//	perfdiff baseline.json current.json
//	perfdiff -report bench-compare.txt BENCH_baseline.json BENCH_$(date +%F).json
//
// Each input is a perf snapshot (captured via /debug/perfsnap or a CLI's
// -perfsnap flag) or a raw benchjson report (the bench job's trajectory
// documents work unmodified). The output is a ranked report: per-phase
// self-time deltas, per-component CPI deltas per engine, histogram quantile
// shifts (p50/p95/p99), and the bench table when both sides carry bench
// results — ns/op and allocs/op per benchmark with signed deltas, benchmarks
// missing from the current run, and benchmarks new in it. Rows over threshold
// are ranked first and flagged OVER. Thresholds are
// perfdiff.DefaultThresholds: the bench rows use the CI gate of
// benchjson.DefaultThresholds (ns/op up to +400%, allocs/op +10% plus 64,
// no ns gate under 1µs).
//
// -format json emits the report document instead of text; -report FILE also
// writes the text report for CI artifacts.
//
// Exit codes: 0 no deltas over threshold; 1 unreadable or schema-mismatched
// input; 2 at least one delta over threshold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"smtflex/internal/perfdiff"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: perfdiff [flags] baseline.json current.json\n")
		fs.PrintDefaults()
	}
	var (
		format     = fs.String("format", "text", "output format: text or json")
		reportPath = fs.String("report", "", "also write the text report to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 1
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "perfdiff: unknown -format %q (want text or json)\n", *format)
		return 1
	}

	base, err := perfdiff.ReadAuto(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "perfdiff: baseline: %v\n", err)
		return 1
	}
	cur, err := perfdiff.ReadAuto(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "perfdiff: current: %v\n", err)
		return 1
	}

	rep, err := perfdiff.Diff(base, cur, perfdiff.DefaultThresholds())
	if err != nil {
		fmt.Fprintf(stderr, "perfdiff: %v\n", err)
		return 1
	}

	text := rep.RenderText()
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, []byte(text), 0o644); err != nil {
			fmt.Fprintf(stderr, "perfdiff: %v\n", err)
			return 1
		}
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "perfdiff: %v\n", err)
			return 1
		}
	default:
		io.WriteString(stdout, text)
	}
	if rep.Exceeded > 0 {
		return 2
	}
	return 0
}
