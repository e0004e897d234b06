package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the program's
// layers. Spans live in memory and are written out when the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"` // index into spans; -1 for a root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores a completed span and returns its id (-1 on a nil tracer).
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.spans) - 1
}

// open starts a span whose end is set later by close; it lets a root span
// enclose children recorded while it runs.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.record(name, parent, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curS, curE time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		if x[1] > curE {
			curE = x[1]
		}
	}
	return total + curE - curS
}

// childUnion returns, per span, the union length of its direct children.
func (t *tracer) childUnion() []time.Duration {
	kids := make([][][2]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(t.spans))
	for i, k := range kids {
		if len(k) > 0 {
			out[i] = covered(k)
		}
	}
	return out
}

// coverage is the share of root's wall time covered by its child spans, in
// percent.
func (t *tracer) coverage(root int) float64 {
	if t == nil || root < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	wall := t.spans[root].End - t.spans[root].Start
	return 100 * ratio(float64(t.childUnion()[root]), float64(wall))
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	cu := t.childUnion()
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.Name] += s.End - s.Start - cu[i]
	}
	return out
}

// write stores the spans and their per-name self times as JSON at path.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	selfMs := make(map[string]float64, len(self))
	for k, v := range self {
		selfMs[k] = ms(v)
	}
	t.mu.Lock()
	doc := struct {
		Spans  []span             `json:"spans"`
		SelfMs map[string]float64 `json:"self_ms"`
	}{t.spans, selfMs}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
