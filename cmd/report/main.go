// Command report runs the full simulation campaign, evaluates every finding
// of the paper against the measured results, and emits a Markdown report —
// the machine-generated core of EXPERIMENTS.md.
//
// Usage:
//
//	report -uops 200000 > EXPERIMENTS-generated.md
//	report -figures -checkpoint run/ > EXPERIMENTS-generated.md
//
// With -checkpoint DIR, the figures run on a journal in DIR (see
// core.Simulator.Resume): every completed figure table and the measured
// profile cache are recorded crash-safely as each figure finishes.
// Re-running after a crash skips finished figures, reuses measured
// profiles and reproduces byte-identical tables.
package main

import (
	"context"

	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"smtflex/internal/buildinfo"
	"smtflex/internal/core"
	"smtflex/internal/machstats"
	"smtflex/internal/obs"
	"smtflex/internal/perfdiff"
)

func main() {
	uops := flag.Uint64("uops", 200_000, "cycle-engine µops per profiling run")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "parallel workers for the experiment engine (1 = serial)")
	figures := flag.Bool("figures", false, "append every figure table to the report")
	ckptDir := flag.String("checkpoint", "", "journal completed figures and measured profiles in this directory and resume from it on restart")
	tracePath := flag.String("trace", "", "write a Chrome trace-event file (chrome://tracing, Perfetto) of the campaign here and print a time-stack report to stderr")
	machPath := flag.String("machstats", "", "arm the machine-counter registry and write its snapshot to <path>.json, <path>.stacks.csv and <path>.counters.csv after the campaign")
	perfsnapDir := flag.String("perfsnap", "", "arm tracing, machine counters and engine histograms, and write a perf snapshot (for perfdiff) into this directory after the campaign")
	showVersion := flag.Bool("version", false, "print version information and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("report", buildinfo.Get())
		return
	}

	sim := core.NewSimulator(core.WithUopCount(*uops), core.WithParallelism(*workers))

	// With -machstats, the machine-counter registry collects CPI stacks and
	// event counters across the whole campaign; arming it never changes the
	// report.
	if *machPath != "" {
		machstats.Enable()
	}

	// With -trace, the findings campaign and every figure run under root
	// spans; the collected traces become one Chrome trace-event file and the
	// aggregated time stack lands on stderr.
	var col *obs.Collector
	if *tracePath != "" || *perfsnapDir != "" {
		obs.Enable()
		col = obs.NewCollector(len(core.FigureIDs()) + 1)
	}

	// With -perfsnap, every snapshot source is armed for the campaign and a
	// perf snapshot (the `perfdiff` input) lands in the directory at exit.
	// Arming never changes the report.
	var perfArm *perfdiff.CLIArm
	if *perfsnapDir != "" {
		perfArm = perfdiff.ArmCLI("report", sim.Study(), col)
	}

	if *ckptDir != "" {
		if _, err := sim.Resume(*ckptDir); err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			os.Exit(1)
		}
	}
	start := time.Now()

	fctx, froot := obs.StartTrace(context.Background(), col, "findings")
	findings, err := sim.Study().CheckFindings(fctx)
	froot.End()
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		os.Exit(1)
	}

	fmt.Println("# Findings report")
	fmt.Println()
	fmt.Printf("Profiling fidelity: %d µops per measurement run. Campaign time: %.0f s.\n\n",
		*uops, time.Since(start).Seconds())
	fmt.Println("| # | Claim | Reproduced | Measured |")
	fmt.Println("|---|-------|------------|----------|")
	reproduced := 0
	for _, f := range findings {
		mark := "yes"
		if f.Reproduced {
			reproduced++
		} else {
			mark = "NO"
		}
		fmt.Printf("| %d | %s | %s | %s |\n", f.ID, f.Claim, mark, f.Detail)
	}
	fmt.Printf("\n%d of %d findings reproduced.\n", reproduced, len(findings))

	if *figures {
		fmt.Println()
		for _, id := range core.FigureIDs() {
			tctx, root := obs.StartTrace(context.Background(), col, id)
			tab, err := sim.Figure(tctx, id)
			root.End()
			if err != nil {
				fmt.Fprintf(os.Stderr, "report: %s: %v\n", id, err)
				os.Exit(1)
			}
			fmt.Printf("## %s\n\n```\n%s```\n\n", id, tab)
		}
	}

	if col != nil && *tracePath != "" {
		report, err := col.DumpFile(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "report: wrote %d trace(s) to %s\n\n%s", col.Len(), *tracePath, report)
	}
	if *machPath != "" {
		snap := machstats.Default().Snapshot()
		paths, err := snap.WriteFiles(*machPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "report: machstats export: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "report: %s\nreport: wrote %s\n", snap.FormatSummary(), strings.Join(paths, ", "))
	}
	if perfArm != nil {
		path, err := perfArm.WriteDir(*perfsnapDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "report: perfsnap: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "report: wrote perf snapshot %s\n", path)
	}
}
