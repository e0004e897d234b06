package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	withTracing(t)
	col := NewCollector(4)
	ctx, root := StartTrace(context.Background(), col, "sweep")
	ctx, child := StartSpan(ctx, "cluster.dispatch")

	tid, sid := Traceparent(ctx)
	if tid == "" || sid != child.ID {
		t.Fatalf("Traceparent = (%q, %q), want trace ID and the dispatch span's ID %q", tid, sid, child.ID)
	}
	wire := FormatTraceparent(tid, sid)
	gtid, gsid, ok := ParseTraceparent(wire)
	if !ok || gtid != tid || gsid != sid {
		t.Fatalf("ParseTraceparent(%q) = (%q, %q, %t)", wire, gtid, gsid, ok)
	}
	child.End()
	root.End()

	for name, v := range map[string]string{
		"empty":        "",
		"no separator": "t-abc",
		"empty half":   "t-abc;",
		"bad chars":    "t-abc;s1\x00",
		"over-long":    strings.Repeat("x", 80) + ";s1",
		"injection":    `t-abc;s1";evil="1`,
	} {
		if _, _, ok := ParseTraceparent(v); ok {
			t.Errorf("%s traceparent %q accepted", name, v)
		}
	}
	if FormatTraceparent("", "s1") != "" || FormatTraceparent("t", "") != "" {
		t.Error("FormatTraceparent rendered a half-empty context")
	}
}

func TestStartRemoteTraceAdoptsIdentity(t *testing.T) {
	withTracing(t)
	col := NewCollector(4)
	ctx, root := StartRemoteTrace(context.Background(), col, "/cluster/v1/cell", "t-remote01", "s7")
	if tr := CurrentTrace(ctx); tr == nil || tr.ID != "t-remote01" {
		t.Fatalf("remote trace did not adopt the propagated ID: %+v", tr)
	}
	if root.Parent != "" {
		t.Errorf("remote root has local parent %q, want none", root.Parent)
	}
	root.End()
	snap := col.Traces()[0].Snapshot()
	if got := snap.Spans[0].Attrs["remote_parent"]; got != "s7" {
		t.Errorf("remote_parent attr = %v, want s7", got)
	}

	// Invalid identifiers fall back to a locally minted trace.
	ctx2, root2 := StartRemoteTrace(context.Background(), col, "cell", "bad id!", "s1")
	if tr := CurrentTrace(ctx2); tr == nil || tr.ID == "bad id!" || !strings.HasPrefix(tr.ID, "t-") {
		t.Fatalf("invalid remote ID adopted: %+v", tr)
	}
	root2.End()

	// Disabled or collector-less, the remote start is a no-op like StartTrace.
	Disable()
	if _, sp := StartRemoteTrace(context.Background(), col, "cell", "t-x", "s1"); sp != nil {
		t.Error("StartRemoteTrace produced a span while disabled")
	}
	Enable()
	if _, sp := StartRemoteTrace(context.Background(), nil, "cell", "t-x", "s1"); sp != nil {
		t.Error("StartRemoteTrace produced a span with a nil collector")
	}
}

// TestGraftStitchesSubtree is the stitching contract: a worker subtree
// shipped over the wire grafts under the dispatch span that carried it, with
// rewritten span IDs, remapped parents, orphans reattached to the dispatch
// span, lane attributes stamped, and remote clock skew clamped forward.
func TestGraftStitchesSubtree(t *testing.T) {
	withTracing(t)

	// The "worker": a remote-adopted trace with a parent-child span pair.
	wcol := NewCollector(1)
	wctx, wroot := StartRemoteTrace(context.Background(), wcol, "cell", "t-shared", "s9")
	mctx, memoSpan := StartSpan(wctx, "memo.get")
	_, solveSpan := StartSpan(mctx, "contention.solve")
	time.Sleep(time.Millisecond)
	solveSpan.End()
	memoSpan.End()
	spans, base, dropped := CurrentTrace(wctx).WireSubtree(256)
	if dropped != 0 || len(spans) != 2 {
		t.Fatalf("WireSubtree: %d spans, %d dropped", len(spans), dropped)
	}
	wroot.End()

	// The "coordinator": graft under a live dispatch span, with the remote
	// base claiming to start an hour before the dispatch (skewed clock).
	ccol := NewCollector(1)
	cctx, croot := StartTrace(context.Background(), ccol, "/v1/sweep")
	_, dispatch := StartSpan(cctx, "cluster.dispatch")
	if got := dispatch.Graft(base.Add(-time.Hour), spans, "http://worker-a"); got != 2 {
		t.Fatalf("Graft imported %d spans, want 2", got)
	}
	dispatch.End()
	croot.End()

	snap := ccol.Traces()[0].Snapshot()
	byName := map[string]SpanJSON{}
	for _, s := range snap.Spans {
		byName[s.Name] = s
	}
	memoG, solveG := byName["memo.get"], byName["contention.solve"]
	if memoG.ID == "" || solveG.ID == "" {
		t.Fatalf("grafted spans missing from snapshot: %+v", snap.Spans)
	}
	if memoG.ID == memoSpan.ID || !strings.Contains(memoG.ID, ".") {
		t.Errorf("grafted memo span kept unprefixed ID %q", memoG.ID)
	}
	// The worker root was still open at wire time, so memo.get is an orphan:
	// it reattaches to the dispatch span. Its child's parent link is remapped
	// to the prefixed local ID.
	if memoG.Parent != dispatch.ID {
		t.Errorf("orphan memo.get parent = %q, want dispatch span %q", memoG.Parent, dispatch.ID)
	}
	if solveG.Parent != memoG.ID {
		t.Errorf("solve parent = %q, want remapped %q", solveG.Parent, memoG.ID)
	}
	for _, s := range []SpanJSON{memoG, solveG} {
		if s.Attrs[LaneAttr] != "http://worker-a" {
			t.Errorf("span %s lane = %v, want worker URL", s.Name, s.Attrs[LaneAttr])
		}
		if s.StartNs < byName["cluster.dispatch"].StartNs {
			t.Errorf("span %s starts at %dns, before the dispatch span that carried it (skew not clamped)", s.Name, s.StartNs)
		}
	}

	// Nil-safety and empty subtrees.
	var nilSpan *Span
	if nilSpan.Graft(base, spans, "w") != 0 || dispatch.Graft(base, nil, "w") != 0 {
		t.Error("nil/empty graft imported spans")
	}
}

func TestWireSubtreeCaps(t *testing.T) {
	withTracing(t)
	col := NewCollector(1)
	ctx, root := StartTrace(context.Background(), col, "cell")
	for i := 0; i < 10; i++ {
		_, sp := StartSpan(ctx, "memo.get")
		sp.End()
	}
	spans, _, dropped := CurrentTrace(ctx).WireSubtree(4)
	if len(spans) != 4 || dropped != 6 {
		t.Fatalf("WireSubtree(4) = %d spans, %d dropped, want 4 and 6", len(spans), dropped)
	}
	root.End()

	var nilTrace *Trace
	if spans, _, _ := nilTrace.WireSubtree(4); spans != nil {
		t.Error("nil trace produced a subtree")
	}
}

// TestChromeLanesPerWorker: grafted spans render in their own named lanes —
// a thread_name metadata event per worker, tids disjoint from the local rows.
func TestChromeLanesPerWorker(t *testing.T) {
	tr := TraceJSON{
		ID: "t-1", Name: "/v1/sweep", DurNs: 4000,
		Spans: []SpanJSON{
			{ID: "s0", Name: "/v1/sweep", StartNs: 0, DurNs: 4000},
			{ID: "s1", Parent: "s0", Name: "cluster.dispatch", StartNs: 100, DurNs: 1800},
			{ID: "s2", Parent: "s0", Name: "cluster.dispatch", StartNs: 200, DurNs: 1800},
			{ID: "g1.s1", Parent: "s1", Name: "contention.solve", StartNs: 300, DurNs: 900,
				Attrs: map[string]any{LaneAttr: "http://w-a"}},
			{ID: "g2.s1", Parent: "s2", Name: "contention.solve", StartNs: 400, DurNs: 900,
				Attrs: map[string]any{LaneAttr: "http://w-b"}},
		},
	}
	events := ChromeEvents(tr, 1)

	laneTids := map[string]int{}
	localTids := map[int]bool{}
	for _, ev := range events {
		switch {
		case ev.Phase == "M" && ev.Name == "thread_name":
			laneTids[ev.Args["name"].(string)] = ev.TID
		case ev.Args[LaneAttr] == nil:
			localTids[ev.TID] = true
		}
	}
	if len(laneTids) != 2 {
		t.Fatalf("thread_name metadata for %d lanes, want 2: %v", len(laneTids), laneTids)
	}
	if laneTids["http://w-a"] == laneTids["http://w-b"] {
		t.Error("two workers share one lane tid")
	}
	for name, tid := range laneTids {
		if localTids[tid] {
			t.Errorf("worker lane %s shares tid %d with local spans", name, tid)
		}
	}
	for _, ev := range events {
		if ev.Args[LaneAttr] == "http://w-a" && ev.TID != laneTids["http://w-a"] {
			t.Errorf("w-a span in tid %d, want its named lane %d", ev.TID, laneTids["http://w-a"])
		}
	}
}

// TestFleetCategoryOf pins the fleet categorizer's mapping table.
func TestFleetCategoryOf(t *testing.T) {
	lane := map[string]any{LaneAttr: "http://w"}
	for _, tc := range []struct {
		span SpanJSON
		want string
	}{
		{SpanJSON{Name: "contention.solve", Attrs: lane}, FleetCatRemote},
		{SpanJSON{Name: "queue.wait", Attrs: lane}, FleetCatQueue},
		{SpanJSON{Name: "cluster.dispatch"}, FleetCatWire},
		{SpanJSON{Name: "cluster.dispatch", Attrs: map[string]any{"attempt": 2}}, FleetCatRetry},
		{SpanJSON{Name: "cluster.cell"}, FleetCatWire},
		{SpanJSON{Name: "cluster.fallback"}, FleetCatRemote},
		{SpanJSON{Name: "cluster.sweep"}, FleetCatReassembly},
		{SpanJSON{Name: "queue.wait"}, FleetCatQueue},
		{SpanJSON{Name: "http.serialize"}, FleetCatReassembly},
		{SpanJSON{Name: "contention.solve"}, FleetCatRemote},
		{SpanJSON{Name: "/v1/sweep"}, FleetCatReassembly},
		{SpanJSON{Name: "mystery", Parent: "s0"}, FleetCatOther},
	} {
		if got := FleetCategoryOf(tc.span); got != tc.want {
			t.Errorf("FleetCategoryOf(%s attrs=%v) = %s, want %s", tc.span.Name, tc.span.Attrs, got, tc.want)
		}
	}
}

// FuzzParseTraceparent: the traceparent header arrives from other
// processes, so ParseTraceparent must accept only pairs of valid IDs, and a
// valid pair must survive FormatTraceparent and ParseTraceparent unchanged.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("t-1a2b3c;s4")                    // valid
	f.Add("t-1a2b3c.g1;s0.s2")              // valid, grafted IDs
	f.Add("t-1a2b3c")                       // missing ';'
	f.Add("  t-1a2b3c;s4\n")                // surrounding whitespace
	f.Add("t-1a2b3c; s4")                   // inner whitespace
	f.Add(strings.Repeat("a", 65) + ";s4")  // over-long trace ID
	f.Add("t-1;" + strings.Repeat("b", 64)) // longest span ID
	f.Add("t/1;s4")                         // bad character
	f.Add("t-1;s4;s5")                      // second separator
	f.Add(";")                              // empty halves
	f.Add("t-\xff;s4")                      // invalid UTF-8

	f.Fuzz(func(t *testing.T, v string) {
		tid, sid, ok := ParseTraceparent(v)
		if !ok {
			if tid != "" || sid != "" {
				t.Fatalf("ParseTraceparent(%q) rejected but returned (%q, %q)", v, tid, sid)
			}
		} else if !ValidPropagationID(tid) || !ValidPropagationID(sid) {
			t.Fatalf("ParseTraceparent(%q) accepted invalid IDs (%q, %q)", v, tid, sid)
		}

		// Any valid pair round-trips; split the input to get candidates.
		for _, pair := range [][2]string{{tid, sid}, {v[:len(v)/2], v[len(v)/2:]}} {
			if !ValidPropagationID(pair[0]) || !ValidPropagationID(pair[1]) {
				continue
			}
			wire := FormatTraceparent(pair[0], pair[1])
			gtid, gsid, gok := ParseTraceparent(wire)
			if !gok || gtid != pair[0] || gsid != pair[1] {
				t.Fatalf("round trip of (%q, %q) via %q = (%q, %q, %t)", pair[0], pair[1], wire, gtid, gsid, gok)
			}
		}
	})
}
