package main

import (
	"bytes"
	"strings"
	"testing"
)

const benchText = `goos: linux
goarch: amd64
pkg: smtflex
BenchmarkContentionSolve-8   	      10	   1200000 ns/op	     128 B/op	       2 allocs/op
BenchmarkStudySweep-8        	       2	  90000000 ns/op	 5000000 B/op	   40000 allocs/op
PASS
`

// runCLI invokes run() and returns (exit code, stdout, stderr).
func runCLI(t *testing.T, args []string, stdin string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestConvertEmptyInputFails(t *testing.T) {
	for _, in := range []string{"", "PASS\nok  \tsmtflex\t0.01s\n"} {
		code, out, errb := runCLI(t, nil, in)
		if code != 1 {
			t.Errorf("empty input %q: exit %d, want 1", in, code)
		}
		if out != "" {
			t.Errorf("empty input wrote a document: %q", out)
		}
		if !strings.Contains(errb, "no benchmark results parsed") {
			t.Errorf("stderr = %q, want a no-results explanation", errb)
		}
	}
}

func TestConvertProducesDocument(t *testing.T) {
	code, out, errb := runCLI(t, nil, benchText)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.Contains(out, `"BenchmarkContentionSolve"`) || !strings.Contains(out, `"allocs/op": 2`) {
		t.Errorf("document missing expected results:\n%s", out)
	}
	// Gating moved to perfdiff: a leftover -compare invocation must fail
	// loudly rather than convert stdin and exit 0.
	if code, _, _ := runCLI(t, []string{"-compare", "BENCH_baseline.json"}, benchText); code != 1 {
		t.Errorf("-compare exited %d, want 1", code)
	}
}
