// Command figures regenerates the tables and figures of the paper as
// aligned text tables (and optionally CSV files).
//
// Usage:
//
//	figures -exp all
//	figures -exp fig8,fig11 -uops 300000
//	figures -exp all -csv out/
//	figures -exp all -checkpoint run/       # resumable campaign
//
// With -checkpoint DIR, the campaign runs on a journal in DIR (see
// core.Simulator.Resume): every completed figure and the measured profile
// cache are recorded crash-safely as each figure finishes. Re-running the
// same command after a crash skips finished figures, reuses measured
// profiles and reproduces byte-identical tables. A journal written with a
// different -uops or -mixes is wiped, never reused.
package main

import (
	"context"

	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"smtflex/internal/buildinfo"
	"smtflex/internal/core"
	"smtflex/internal/machstats"
	"smtflex/internal/obs"
	"smtflex/internal/perfdiff"
	"smtflex/internal/study"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated figure ids (see -list), or 'all'")
	uops := flag.Uint64("uops", 200_000, "cycle-engine µops per profiling run")
	mixes := flag.Int("mixes", 12, "random heterogeneous mixes per thread count")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "parallel workers for the experiment engine (1 = serial)")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	ckptDir := flag.String("checkpoint", "", "journal completed figures and measured profiles in this directory and resume from it on restart")
	tracePath := flag.String("trace", "", "write a Chrome trace-event file (chrome://tracing, Perfetto) of the campaign here and print a time-stack report to stderr")
	machPath := flag.String("machstats", "", "arm the machine-counter registry and write its snapshot to <path>.json, <path>.stacks.csv and <path>.counters.csv after the campaign")
	perfsnapDir := flag.String("perfsnap", "", "arm tracing, machine counters and engine histograms, and write a perf snapshot (for perfdiff) into this directory after the campaign")
	list := flag.Bool("list", false, "list available figure ids and exit")
	showVersion := flag.Bool("version", false, "print version information and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("figures", buildinfo.Get())
		return
	}

	if *list {
		for _, id := range core.FigureIDs() {
			fmt.Println(id)
		}
		return
	}

	// Validate every requested id before running anything: a typo must fail
	// fast, not abort a multi-minute campaign halfway through its output.
	ids := core.FigureIDs()
	if *exp != "all" {
		known := make(map[string]bool, len(ids))
		for _, id := range ids {
			known[id] = true
		}
		ids = strings.Split(*exp, ",")
		var bad []string
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
			if !known[ids[i]] {
				bad = append(bad, ids[i])
			}
		}
		if len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "figures: unknown figure id(s): %s (see -list)\n", strings.Join(bad, ", "))
			os.Exit(2)
		}
	}

	sim := core.NewSimulator(core.WithUopCount(*uops), core.WithMixesPerCount(*mixes), core.WithParallelism(*workers))

	// With -machstats, the machine-counter registry collects CPI stacks and
	// event counters across the whole campaign and exports them on exit.
	// Arming it never changes the tables.
	if *machPath != "" {
		machstats.Enable()
	}

	// With -trace, every figure runs under its own root span; on exit the
	// collected traces become one Chrome trace-event file and the aggregated
	// time stack lands on stderr. Tracing never changes the tables.
	var col *obs.Collector
	if *tracePath != "" || *perfsnapDir != "" {
		obs.Enable()
		col = obs.NewCollector(len(ids) + 1)
	}

	// With -perfsnap, every snapshot source is armed for the campaign and a
	// perf snapshot (the `perfdiff` input) lands in the directory at exit.
	// Arming never changes the tables.
	var perfArm *perfdiff.CLIArm
	if *perfsnapDir != "" {
		perfArm = perfdiff.ArmCLI("figures", sim.Study(), col)
	}

	if *ckptDir != "" {
		resumed, err := sim.Resume(*ckptDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		if resumed > 0 {
			fmt.Fprintf(os.Stderr, "figures: resuming from %s: %d figure(s) already complete\n", *ckptDir, resumed)
		}
	}

	for _, id := range ids {
		start := time.Now()
		tctx, root := obs.StartTrace(context.Background(), col, id)
		tab, err := sim.Figure(tctx, id)
		root.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("== %s (%.1fs) ==\n%s\n", id, time.Since(start).Seconds(), tab)
		writeCSV(*csvDir, id, tab)
	}

	if col != nil && *tracePath != "" {
		report, err := col.DumpFile(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "figures: wrote %d trace(s) to %s\n\n%s", col.Len(), *tracePath, report)
	}
	if *machPath != "" {
		snap := machstats.Default().Snapshot()
		paths, err := snap.WriteFiles(*machPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: machstats export: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "figures: %s\nfigures: wrote %s\n", snap.FormatSummary(), strings.Join(paths, ", "))
	}
	if perfArm != nil {
		path, err := perfArm.WriteDir(*perfsnapDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: perfsnap: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "figures: wrote perf snapshot %s\n", path)
	}
}

// writeCSV writes the table as <dir>/<id>.csv; a no-op when dir is empty.
func writeCSV(dir, id string, tab *study.Table) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
	path := filepath.Join(dir, id+".csv")
	if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}
