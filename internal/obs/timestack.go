package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Time-stack categories, in render order. The time stack is the engine's
// analog of the paper's CPI stacks: instead of decomposing cycles per
// instruction into base/miss components, it decomposes a request's wall time
// into the engine phases that spent it.
const (
	CatProfile   = "profile"
	CatSolve     = "solve"
	CatQueue     = "queue"
	CatCache     = "cache"
	CatSerialize = "serialize"
	CatOther     = "other"
)

// Categories lists the time-stack components in presentation order.
var Categories = []string{CatProfile, CatSolve, CatQueue, CatCache, CatSerialize, CatOther}

// CategoryOf maps a span to its time-stack component by name prefix. Pool
// tasks contribute their queue wait (the queue_ns attribute) to the queue
// component; their remaining self time is engine work attributed to "other"
// unless a child claims it.
func CategoryOf(name string) string {
	switch {
	case strings.HasPrefix(name, "profiler."):
		return CatProfile
	case strings.HasPrefix(name, "contention.solve"):
		return CatSolve
	case strings.HasPrefix(name, "memo."):
		return CatCache
	case strings.HasPrefix(name, "http.serialize"):
		return CatSerialize
	case strings.HasPrefix(name, "queue.wait"):
		return CatQueue
	default:
		return CatOther
	}
}

// Fleet time-stack categories, in render order. Where the engine stack
// decomposes one process's request time into engine phases, the fleet stack
// decomposes a distributed sweep's time into the fabric phases that spent it —
// the cluster-level analog of the paper's per-thread CPI stacks.
const (
	FleetCatQueue      = "queue"          // admission waits, local and remote, plus pool queue_ns credits
	FleetCatWire       = "dispatch-wire"  // dispatch RTT minus the worker-reported subtree, plus dispatcher overhead
	FleetCatRemote     = "remote-compute" // grafted worker spans, and local engine work on the fallback path
	FleetCatRetry      = "retry"          // re-dispatches after a failed or quarantined attempt
	FleetCatReassembly = "reassembly"     // sweep decompose/assemble, store bookkeeping, response serialization
	FleetCatOther      = "other"
)

// FleetCategories lists the fleet time-stack components in presentation order.
var FleetCategories = []string{
	FleetCatQueue, FleetCatWire, FleetCatRemote, FleetCatRetry,
	FleetCatReassembly, FleetCatOther,
}

// FleetCategoryOf maps a span to its fleet time-stack component. Spans
// carrying the lane attribute were grafted from a worker and count as remote
// compute (their admission waits still count as queue); cluster.* spans map
// to the fabric phase they instrument; local engine spans (the fallback path)
// count as compute wherever it ran; a root span's self time on a coordinator
// is decompose/assemble/respond work.
func FleetCategoryOf(s SpanJSON) string {
	if _, remote := s.Attrs[LaneAttr]; remote {
		if strings.HasPrefix(s.Name, "queue.wait") {
			return FleetCatQueue
		}
		return FleetCatRemote
	}
	switch {
	case strings.HasPrefix(s.Name, "cluster.dispatch"):
		if a, ok := numAttr(s.Attrs, "attempt"); ok && a > 1 {
			return FleetCatRetry
		}
		return FleetCatWire
	case strings.HasPrefix(s.Name, "cluster.cell"):
		return FleetCatWire
	case strings.HasPrefix(s.Name, "cluster.fallback"):
		return FleetCatRemote
	case strings.HasPrefix(s.Name, "cluster."):
		return FleetCatReassembly
	case strings.HasPrefix(s.Name, "queue.wait"):
		return FleetCatQueue
	case strings.HasPrefix(s.Name, "http.serialize"):
		return FleetCatReassembly
	case strings.HasPrefix(s.Name, "profiler."),
		strings.HasPrefix(s.Name, "contention."),
		strings.HasPrefix(s.Name, "memo."),
		strings.HasPrefix(s.Name, "study."):
		return FleetCatRemote
	case s.Parent == "":
		return FleetCatReassembly
	default:
		return FleetCatOther
	}
}

// FleetTimeStacks aggregates traces into fleet time stacks: the same
// self-time fold as TimeStacks, grouped by trace name, but attributed to
// FleetCategories via FleetCategoryOf. Run it over a coordinator's stitched
// sweep traces to see where a distributed sweep's time went.
func FleetTimeStacks(traces []TraceJSON) []TimeStack {
	return timeStacksBy(traces, FleetCategoryOf, FleetCatQueue)
}

// TimeStack is the aggregated breakdown for one group of traces (one route,
// or one figure): thread-time attributed to each category, plus the wall
// time and trace count it was aggregated over.
type TimeStack struct {
	Name    string             `json:"name"`
	Traces  int                `json:"traces"`
	WallNs  int64              `json:"wall_ns"`
	ByNs    map[string]int64   `json:"by_ns"`
	Percent map[string]float64 `json:"percent"`
}

// stackOne folds a single trace into byNs using self-time attribution: each
// span contributes its duration minus the duration of its direct children
// (clamped at zero — concurrent children can sum past the parent), under the
// category catOf assigns to it. Pool-task queue waits, recorded as a queue_ns
// attribute rather than a span (the wait precedes the task's goroutine), are
// credited to queueCat and debited from the task's self time.
func stackOne(t TraceJSON, byNs map[string]int64, catOf func(SpanJSON) string, queueCat string) int64 {
	childNs := make(map[string]int64, len(t.Spans))
	for _, s := range t.Spans {
		if s.Parent != "" {
			childNs[s.Parent] += s.DurNs
		}
	}
	for _, s := range t.Spans {
		self := s.DurNs - childNs[s.ID]
		if self < 0 {
			self = 0
		}
		if q, ok := numAttr(s.Attrs, "queue_ns"); ok && q > 0 {
			if q > self {
				q = self
			}
			byNs[queueCat] += q
			self -= q
		}
		byNs[catOf(s)] += self
	}
	return t.DurNs
}

// numAttr extracts an integer attribute that may have round-tripped through
// JSON (float64) or not (int/int64).
func numAttr(attrs map[string]any, key string) (int64, bool) {
	switch v := attrs[key].(type) {
	case int64:
		return v, true
	case int:
		return int64(v), true
	case float64:
		return int64(v), true
	}
	return 0, false
}

// TimeStacks aggregates traces grouped by trace name (the server names root
// spans after their route, the CLIs after the figure). Percentages are of
// the total attributed thread time per group, so concurrent pool work —
// where thread time legitimately exceeds wall time — still sums to 100%.
func TimeStacks(traces []TraceJSON) []TimeStack {
	return timeStacksBy(traces, func(s SpanJSON) string { return CategoryOf(s.Name) }, CatQueue)
}

// timeStacksBy is the shared aggregation behind TimeStacks and
// FleetTimeStacks, parameterized on the span categorizer.
func timeStacksBy(traces []TraceJSON, catOf func(SpanJSON) string, queueCat string) []TimeStack {
	groups := make(map[string][]TraceJSON)
	for _, t := range traces {
		groups[t.Name] = append(groups[t.Name], t)
	}
	names := make([]string, 0, len(groups))
	for n := range groups {
		names = append(names, n)
	}
	sort.Strings(names)

	out := make([]TimeStack, 0, len(names))
	for _, n := range names {
		ts := TimeStack{Name: n, ByNs: make(map[string]int64), Percent: make(map[string]float64)}
		for _, t := range groups[n] {
			ts.WallNs += stackOne(t, ts.ByNs, catOf, queueCat)
			ts.Traces++
		}
		var total int64
		for _, v := range ts.ByNs {
			total += v
		}
		if total > 0 {
			for k, v := range ts.ByNs {
				ts.Percent[k] = 100 * float64(v) / float64(total)
			}
		}
		out = append(out, ts)
	}
	return out
}

// RenderTimeStacks formats stacks as a fixed-width text table, one row per
// group, one column per category — the shape of the paper's stacked bars.
func RenderTimeStacks(stacks []TimeStack) string {
	return RenderTimeStacksWith(stacks, Categories)
}

// RenderTimeStacksWith is RenderTimeStacks with an explicit category set
// (the fleet stack renders FleetCategories instead of the engine set).
func RenderTimeStacksWith(stacks []TimeStack, categories []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %7s %10s", "group", "traces", "wall_ms")
	for _, c := range categories {
		fmt.Fprintf(&b, " %14s", c+"%")
	}
	b.WriteByte('\n')
	for _, s := range stacks {
		fmt.Fprintf(&b, "%-24s %7d %10.1f", s.Name, s.Traces, float64(s.WallNs)/1e6)
		for _, c := range categories {
			fmt.Fprintf(&b, " %14.1f", s.Percent[c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
