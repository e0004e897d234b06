// Command benchjson converts `go test -bench` text output into the stable
// JSON perf-trajectory document: bench text on stdin, JSON on stdout — the
// format the CI bench job archives as BENCH_<date>.json. A run that parses to
// zero benchmark results is an error, not an empty document: that is what a
// panicking benchmark binary leaves behind, and the pipeline must notice.
//
//	go test -bench . -benchmem -benchtime=1x -cpu 1 | benchjson > BENCH_$(date +%F).json
//
// Gate a run against the committed baseline with cmd/perfdiff:
//
//	perfdiff BENCH_baseline.json BENCH_$(date +%F).json
//
// To refresh the committed baseline after an intentional perf change
// (-cpu 1 because the baseline is keyed by GOMAXPROCS, and the CI run is
// pinned to 1):
//
//	go test -bench . -benchmem -benchtime=1x -cpu 1 -run '^$' -timeout 3000s . | benchjson > BENCH_baseline.json
//
// Exit codes: 0 success; 1 malformed or empty input, or any argument.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"smtflex/internal/benchjson"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) != 0 {
		fmt.Fprintf(stderr, "usage: benchjson < bench.txt > bench.json\n")
		return 1
	}
	rep, err := benchjson.Parse(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	if len(rep.Results) == 0 {
		fmt.Fprintf(stderr, "benchjson: %v (did the bench run crash before producing output?)\n",
			benchjson.ErrNoResults)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "benchjson: %d benchmark result(s)\n", len(rep.Results))
	return 0
}
