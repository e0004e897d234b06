package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// tinySizes shrinks every workload so the smoke test runs in about a
// minute; the figures it produces mean nothing.
var tinySizes = sizes{
	campaignUops:   2_000,
	campaignMixes:  1,
	warmUops:       1_000,
	daemonUops:     2_000,
	daemonMixes:    1,
	setups:         2,
	queryRate:      50,
	cachedSweeps:   2,
	identitySweeps: 2,
	identityPlaces: 20,
	probeUops:      5_000,
	replayMax:      20,
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that the result line carries exactly the metrics BENCHMARK.json
// declares, with their units, and that every output check passed.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchFile
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(benches) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(benches))
	}
	for i, w := range spec.Workloads {
		if benches[i].name != w.Name {
			t.Fatalf("workload %d: BENCHMARK.json says %s, the benchmark runs %s", i, w.Name, benches[i].name)
		}
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range benches {
		for _, traced := range []bool{false, true} {
			cfg := runCfg{seed: 3, seconds: time.Second, trace: traced, sz: tinySizes, outDir: t.TempDir(), log: io.Discard}
			if testing.Verbose() {
				cfg.log = os.Stderr
			}
			line, err := execute(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, traced, err)
			}
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("%s trace=%t: result line %q: %v", w.name, traced, line, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want[traced] {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%t: metric %s missing", w.name, traced, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%t: metric %s has unit %q, want %q", w.name, traced, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[traced][name]; !ok {
					t.Errorf("%s trace=%t: metric %s is not declared in BENCHMARK.json", w.name, traced, name)
				}
			}
			if !traced {
				for _, name := range []string{"setup_s", "latency_ms_p50", "throughput_per_s", "rss_mb_mean"} {
					if v := res.Metrics[name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, name, v)
					}
				}
			}
		}
	}
}

// TestRejectsBadFlags checks that a bad invocation exits non-zero without
// printing a result.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "query_mix", "--trace", "2"},
		{"--workload", "query_mix", "--seconds", "0"},
	} {
		var out strings.Builder
		if code := realMain(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestCoverageAndQuantile(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	root := tr.record("root", -1, t0, t0.Add(100*time.Millisecond))
	tr.record("a", root, t0, t0.Add(40*time.Millisecond))
	tr.record("b", root, t0.Add(30*time.Millisecond), t0.Add(60*time.Millisecond))
	tr.record("c", root, t0.Add(80*time.Millisecond), t0.Add(90*time.Millisecond))
	if got := tr.coverage(root); got < 69.99 || got > 70.01 {
		t.Errorf("coverage = %g, want 70", got)
	}
	if self := tr.selfTimes()["root"]; self != 30*time.Millisecond {
		t.Errorf("root self time = %v, want 30ms", self)
	}
	if q := quantile([]float64{4, 1, 3, 2}, 0.5); q != 2.5 {
		t.Errorf("median = %g, want 2.5", q)
	}
	if q := quantile([]float64{1, 2, 3, 4, 5}, 0.9); q != 4.6 {
		t.Errorf("p90 = %g, want 4.6", q)
	}
}
