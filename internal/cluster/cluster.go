// Package cluster is the distributed sweep fabric: a coordinator/worker
// subsystem that shards sweep work units — (design × mix × thread count)
// cells — across a fleet of smtflexd processes and reassembles tables
// bit-identical to the single-process engine.
//
// The design in one paragraph: a sweep decomposes into independently
// evaluable cells (study.SweepMixes), each with a canonical content address
// (memo.KeyHash of study.CellKey). The coordinator first serves what its
// fleet-level content-addressed store already holds (identical sub-sweeps
// are computed once fleet-wide), then puts the remaining cells on one shared
// FIFO. Each worker has a fixed number of dispatcher goroutines pulling from
// it, so a fast worker takes more cells and a slow or dead one fewer, with
// no assignment step. A dispatcher sends its cell over HTTP/JSON to its own
// worker, retries on other live workers after a loss, and — when every
// worker is gone — computes the cell locally, so a sweep always converges.
// The per-cell results feed study.AssembleSweep, the same reassembly the
// local pool uses, which is why distributed tables are bit-for-bit identical
// by construction.
//
// Failure semantics: every worker sits behind a circuit breaker. A transport
// error, an attempt timeout or a quarantined response counts as one failure
// and the cell retries on another live worker; three consecutive failures
// trip the breaker open, and the worker gets no traffic until a 15 s
// cooldown half-opens it for one probe dispatch, whose outcome closes or
// re-opens it. Each sweep starts with a 2 s /healthz probe of every worker,
// which opens the breaker of any worker that does not answer and closes the
// breaker of any that does. HTTP 503 from a worker's admission valve is a
// shed, not a failure: the coordinator honors the jittered Retry-After and
// retries the same worker a bounded number of times. A 503 carrying
// DrainingHeader reroutes at once. 4xx responses are terminal: the request
// itself is wrong (bad design, fleet fingerprint mismatch) and no amount of
// retrying fixes it.
//
// Observability: each cell is a "cluster.cell" span under the coordinator's
// "cluster.sweep" span, with one "cluster.dispatch" child per attempt (its
// worker, attempt number and error) and the worker's own spans grafted
// beneath it; obs.FleetTimeStacks splits that trace into queue, wire,
// remote compute and retry time. Counters back the daemon's /metrics and
// /debug/cluster surfaces.
package cluster

import "errors"

// CellPath is the worker-side HTTP route that evaluates one sweep cell. The
// server mounts it only in worker role; the coordinator's client dispatches
// to workerURL+CellPath.
const CellPath = "/cluster/v1/cell"

// ErrFingerprintMismatch is returned by a worker handed a cell from a fleet
// whose engine configuration (profiling length, mix parameters, model
// options) differs from its own. It is terminal: results from mismatched
// engines must never be mixed into one table.
var ErrFingerprintMismatch = errors.New("cluster: fleet fingerprint mismatch")

// ErrNoWorkers is returned when a coordinator is constructed without any
// worker URLs.
var ErrNoWorkers = errors.New("cluster: coordinator needs at least one worker URL")

// ErrAuditDivergence is returned when audit mode (Options.AuditFraction)
// double-dispatches a cell to two independent workers and their result
// digests disagree. It is terminal: divergence means at least one worker is
// producing wrong results, and a table assembled from either cannot be
// trusted.
var ErrAuditDivergence = errors.New("cluster: audit divergence — independent workers disagree on a cell")

// DrainingHeader is set (value "1") on a worker's 503 responses while it is
// draining for shutdown. The coordinator reroutes such cells to another
// worker immediately — no shed budget consumed, no breaker penalty — because
// a draining worker is healthy, just leaving.
const DrainingHeader = "X-Smtflexd-Draining"

// TraceparentHeader carries the coordinator's trace context on a dispatch:
// "<trace-id>;<parent-span-id>" (obs.FormatTraceparent). A worker adopts it
// via obs.StartRemoteTrace so its spans join the coordinator's trace, and
// returns its completed subtree in the CellResponse for stitching. Dispatches
// also carry the standard X-Request-ID, which workers reuse in their request
// logs instead of minting a fresh one.
const TraceparentHeader = "Smtflexd-Traceparent"
