package cluster

import (
	"context"
	"encoding/json"
	"fmt"

	"smtflex/internal/contention"
	"smtflex/internal/interval"
	"smtflex/internal/memo"
	"smtflex/internal/obs"
	"smtflex/internal/study"
)

// The fabric's wire types. Cell results travel as JSON float64s, which Go
// encodes in the shortest form that round-trips exactly — the property the
// bit-identical-tables contract rests on.

// CellRequest asks a worker to evaluate one sweep cell: one mix at one
// thread count on one design. The design is reconstructed from its name
// plus the explicit SMT and bandwidth fields (bandwidth is always the
// actual value, never 0-means-default), and the mix ships its full program
// list, so the worker needs no knowledge of the coordinator's mix seed.
type CellRequest struct {
	// Key is the cell's content address (memo.KeyHash of study.CellKey),
	// which the worker echoes in its response.
	Key string `json:"key"`
	// Fingerprint is the coordinator engine's study.Fingerprint; the worker
	// rejects the cell if its own differs (ErrFingerprintMismatch).
	Fingerprint string `json:"fingerprint"`
	// Design, SMT and BandwidthGBps reconstruct the design point.
	Design        string  `json:"design"`
	SMT           bool    `json:"smt"`
	BandwidthGBps float64 `json:"bandwidth_gbps"`
	// Kind is "homogeneous" or "heterogeneous" (informational — the mix is
	// explicit).
	Kind string `json:"kind"`
	// N is the cell's thread count (informational; len(Programs) governs).
	N int `json:"n"`
	// MixID and Programs are the mix, one benchmark name per thread.
	MixID    string   `json:"mix_id"`
	Programs []string `json:"programs"`
}

// CellThread is the wire form of one thread's evaluation detail.
type CellThread struct {
	Program   string  `json:"program"`
	Core      int     `json:"core"`
	IPC       float64 `json:"ipc"`
	UopsPerNs float64 `json:"uops_per_ns"`
	Base      float64 `json:"base"`
	Branch    float64 `json:"branch"`
	ICache    float64 `json:"icache"`
	L2        float64 `json:"l2"`
	LLC       float64 `json:"llc"`
	Mem       float64 `json:"mem"`
}

// CellResponse is the wire form of one cell's study.MixResult.
type CellResponse struct {
	// Key echoes the request's content address.
	Key            string       `json:"key"`
	STP            float64      `json:"stp"`
	ANTT           float64      `json:"antt"`
	Watts          float64      `json:"watts"`
	WattsUngated   float64      `json:"watts_ungated"`
	BusUtilization float64      `json:"bus_utilization"`
	Threads        []CellThread `json:"threads"`
	Iterations     int          `json:"iterations"`
	Residual       float64      `json:"residual"`
	Converged      bool         `json:"converged"`
	// Digest is the integrity hash of the response: SHA-256 (lowercase hex)
	// over the canonical cell encoding — this struct's JSON with Digest
	// itself empty. Workers compute it at evaluation time; the coordinator
	// recomputes it on receipt and quarantines any mismatch. Because the
	// encoding is the same shortest-round-trip float64 JSON as the wire form,
	// two correct workers always produce identical digests for the same cell.
	Digest string `json:"digest"`

	// Trace and ComputeNs are the observability envelope: the worker's
	// completed span subtree (bounded — see AttachTrace) and how long this
	// evaluation took on the worker. Both are excluded from the digest:
	// timings legitimately differ between two correct evaluations of the
	// same cell, so they must not participate in integrity verification,
	// audit comparison, or journal replay. The coordinator grafts Trace into
	// its own trace and strips it before storing or journaling the cell.
	Trace     *CellTrace `json:"trace,omitempty"`
	ComputeNs int64      `json:"compute_ns,omitempty"`
}

// CellTrace is a worker's completed span subtree riding home in a
// CellResponse: span times are nanoseconds relative to StartUnixNs on the
// worker's clock, and obs.Span.Graft re-anchors them on the coordinator.
type CellTrace struct {
	TraceID     string         `json:"trace_id"`
	StartUnixNs int64          `json:"start_unix_ns"`
	Dropped     int            `json:"dropped,omitempty"`
	Spans       []obs.SpanJSON `json:"spans"`
}

// maxWireSpans bounds the subtree one CellResponse carries home; a worker
// evaluating one cell produces a handful of spans, so the cap only matters
// when something pathological (a runaway child campaign) would otherwise
// bloat every dispatch response.
const maxWireSpans = 256

// AttachTrace fills the response's observability envelope from the worker's
// in-flight request trace: the completed spans so far (the evaluation is done
// by the time this is called) plus the measured compute time. With tracing
// dark there is no current trace and only ComputeNs is set.
func AttachTrace(ctx context.Context, resp *CellResponse, computeNs int64) {
	if resp == nil {
		return
	}
	resp.ComputeNs = computeNs
	if t := obs.CurrentTrace(ctx); t != nil {
		spans, start, dropped := t.WireSubtree(maxWireSpans)
		if len(spans) > 0 {
			resp.Trace = &CellTrace{
				TraceID:     t.ID,
				StartUnixNs: start.UnixNano(),
				Dropped:     dropped,
				Spans:       spans,
			}
		}
	}
}

// digest computes the canonical integrity digest of resp: memo.KeyHashBytes
// of the response's JSON with the Digest field and the observability
// envelope (Trace, ComputeNs) zeroed — see the field comments above.
func (resp CellResponse) digest() string {
	resp.Digest = ""
	resp.Trace = nil
	resp.ComputeNs = 0
	b, err := json.Marshal(resp)
	if err != nil {
		// CellResponse contains only marshalable fields; this is unreachable
		// but must not be silently ignored.
		panic(fmt.Sprintf("cluster: marshal CellResponse for digest: %v", err)) // panicgate:allow unreachable
	}
	return memo.KeyHashBytes(b)
}

// verifyIntegrity checks that resp is the cell the coordinator asked for and
// that its content matches its digest. wantKey guards against misrouted or
// duplicated responses; the digest guards against corruption and lying
// workers.
func (resp CellResponse) verifyIntegrity(wantKey string) error {
	if resp.Key != wantKey {
		return fmt.Errorf("cell response key %q, want %q", resp.Key, wantKey)
	}
	if resp.Digest == "" {
		return fmt.Errorf("cell response for %s carries no digest", wantKey)
	}
	if got := resp.digest(); got != resp.Digest {
		return fmt.Errorf("cell response digest mismatch for %s: computed %s, carried %s", wantKey, got, resp.Digest)
	}
	return nil
}

// toWire converts an engine MixResult to its wire form.
func toWire(key string, r study.MixResult) CellResponse {
	resp := CellResponse{
		Key:            key,
		STP:            r.STP,
		ANTT:           r.ANTT,
		Watts:          r.Watts,
		WattsUngated:   r.WattsUngated,
		BusUtilization: r.BusUtilization,
		Threads:        make([]CellThread, len(r.Threads)),
		Iterations:     r.Diag.Iterations,
		Residual:       r.Diag.Residual,
		Converged:      r.Diag.Converged,
	}
	for i, th := range r.Threads {
		resp.Threads[i] = CellThread{
			Program: th.Program, Core: th.Core, IPC: th.IPC, UopsPerNs: th.UopsPerNs,
			Base: th.Stack.Base, Branch: th.Stack.Branch, ICache: th.Stack.ICache,
			L2: th.Stack.L2, LLC: th.Stack.LLC, Mem: th.Stack.Mem,
		}
	}
	resp.Digest = resp.digest()
	return resp
}

// fromWire converts a wire cell result back to the engine form the
// reassembly (study.AssembleSweep) consumes.
func fromWire(resp CellResponse) study.MixResult {
	r := study.MixResult{
		STP:            resp.STP,
		ANTT:           resp.ANTT,
		Watts:          resp.Watts,
		WattsUngated:   resp.WattsUngated,
		BusUtilization: resp.BusUtilization,
		Threads:        make([]study.MixThread, len(resp.Threads)),
		Diag: contention.Diagnostics{
			Iterations: resp.Iterations,
			Residual:   resp.Residual,
			Converged:  resp.Converged,
		},
	}
	for i, th := range resp.Threads {
		r.Threads[i] = study.MixThread{
			Program: th.Program, Core: th.Core, IPC: th.IPC, UopsPerNs: th.UopsPerNs,
			Stack: interval.CPIStack{
				Base: th.Base, Branch: th.Branch, ICache: th.ICache,
				L2: th.L2, LLC: th.LLC, Mem: th.Mem,
			},
		}
	}
	return r
}

// errorBody is the JSON error shape workers return on non-2xx, mirroring the
// server package's ErrorResponse (not imported to keep the dependency
// direction server → cluster).
type errorBody struct {
	Error string `json:"error"`
}
