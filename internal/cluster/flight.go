package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"smtflex/internal/atomicfile"
)

// The sweep flight recorder: a bounded, per-sweep log of every cell's
// lifecycle (queued → dispatched → stolen/hedged/retried/quarantined →
// completed) with the worker that answered, attempt counts, and the
// wall/queue/wire/compute nanosecond split. It exists so a post-mortem of a
// crashed or slow sweep is a file read — /debug/flight while the process
// lives, a flight-*.json next to the journal after it dies — not a log grep.
//
// The recorder is deliberately cheap and lossy at the edges: events per cell
// are capped, completed sweeps are kept in a small ring, and a dump failure
// is logged, never fatal. Like the rest of the observability layer it only
// reads clocks, so armed and dark sweeps stay byte-identical.

const (
	// maxFlightSweeps bounds the completed-sweep ring behind /debug/flight.
	maxFlightSweeps = 16
	// maxFlightEvents bounds one cell's event log; a healthy cell logs two
	// (queued, dispatched) plus a completion stamp, so hitting the cap itself
	// signals a pathological cell.
	maxFlightEvents = 24
)

// Flight event kinds, in rough lifecycle order.
const (
	FlightQueued      = "queued"
	FlightDispatched  = "dispatched"
	FlightStolen      = "stolen"
	FlightHedged      = "hedged"
	FlightRetried     = "retried"
	FlightQuarantined = "quarantined"
	FlightFallback    = "fallback"
	FlightCompleted   = "completed"
)

// FlightEvent is one timestamped lifecycle transition of one cell.
type FlightEvent struct {
	AtUnixNs int64  `json:"at_unix_ns"`
	Kind     string `json:"kind"`
	Worker   string `json:"worker,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// FlightCell is one cell's record: identity, outcome, the ns split, and the
// capped event log.
type FlightCell struct {
	Key      string `json:"key"`
	N        int    `json:"n"`
	Mix      string `json:"mix"`
	Worker   string `json:"worker,omitempty"` // worker whose response completed the cell
	Attempts int    `json:"attempts"`
	Stolen   bool   `json:"stolen,omitempty"`
	Hedges   int    `json:"hedges,omitempty"`
	Retries  int    `json:"retries,omitempty"`
	// Quarantines counts integrity-failed responses this cell absorbed.
	Quarantines int  `json:"quarantines,omitempty"`
	Done        bool `json:"done"`
	// QueueNs is enqueue → first dispatch; WireNs is the winning attempt's
	// RTT minus the worker-reported compute time (clamped at zero); ComputeNs
	// is that worker-reported compute time; WallNs is enqueue → completion.
	QueueNs       int64         `json:"queue_ns"`
	WireNs        int64         `json:"wire_ns"`
	ComputeNs     int64         `json:"compute_ns"`
	WallNs        int64         `json:"wall_ns"`
	Events        []FlightEvent `json:"events"`
	DroppedEvents int           `json:"dropped_events,omitempty"`
}

// FlightRecord is one sweep's flight record.
type FlightRecord struct {
	Sweep       string        `json:"sweep"` // content address of the sweep (memo.KeyHash of study.SweepKey)
	Design      string        `json:"design"`
	Kind        string        `json:"kind"`
	StartUnixNs int64         `json:"start_unix_ns"`
	EndUnixNs   int64         `json:"end_unix_ns,omitempty"`
	Total       int           `json:"total"`     // cells in the sweep
	Prefilled   int           `json:"prefilled"` // served from the fleet store without dispatch
	Completed   int           `json:"completed"` // dispatched cells that finished
	Active      bool          `json:"active"`
	Err         string        `json:"err,omitempty"`
	Cells       []*FlightCell `json:"cells"`
}

// FlightMeta is the cheap per-sweep summary behind the /debug/flight listing.
type FlightMeta struct {
	Sweep       string `json:"sweep"`
	Design      string `json:"design"`
	Kind        string `json:"kind"`
	StartUnixNs int64  `json:"start_unix_ns"`
	EndUnixNs   int64  `json:"end_unix_ns,omitempty"`
	Total       int    `json:"total"`
	Prefilled   int    `json:"prefilled"`
	Completed   int    `json:"completed"`
	Active      bool   `json:"active"`
	Err         string `json:"err,omitempty"`
}

// flightCell is the recorder's mutable per-cell state; FlightCell is its
// rendered form.
type flightCell struct {
	FlightCell
	enqueued   time.Time
	dispatched bool // first dispatch seen (QueueNs stamped)
}

// flightSweep is one active sweep being recorded.
type flightSweep struct {
	rec   FlightRecord
	cells map[string]*flightCell
}

// flightRecorder tracks active sweeps and keeps a ring of completed records.
// A nil *flightRecorder is valid and inert, so call sites never branch.
type flightRecorder struct {
	dir string // dump directory ("" = no dumps)
	log func(msg string, err error)

	mu     sync.Mutex
	active map[string]*flightSweep
	byKey  map[string]*flightCell // cells of active sweeps, by content address
	done   []*FlightRecord        // completed records, newest first
}

func newFlightRecorder(dir string, logf func(msg string, err error)) *flightRecorder {
	if logf == nil {
		logf = func(string, error) {}
	}
	return &flightRecorder{
		dir:    dir,
		log:    logf,
		active: make(map[string]*flightSweep),
		byKey:  make(map[string]*flightCell),
	}
}

// begin opens a sweep record. Concurrent identical sweeps coalesce upstream
// (the sweeps memo cache), so one sweep ID is active at most once.
func (f *flightRecorder) begin(sweep, design, kind string, total, prefilled int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.active[sweep] = &flightSweep{
		rec: FlightRecord{
			Sweep: sweep, Design: design, Kind: kind,
			StartUnixNs: time.Now().UnixNano(),
			Total:       total, Prefilled: prefilled, Active: true,
		},
		cells: make(map[string]*flightCell),
	}
	f.mu.Unlock()
}

// register adds one dispatchable cell to its sweep's record.
func (f *flightRecorder) register(sweep, key string, n int, mix string) {
	if f == nil {
		return
	}
	now := time.Now()
	f.mu.Lock()
	if fs, ok := f.active[sweep]; ok {
		fc := &flightCell{
			FlightCell: FlightCell{Key: key, N: n, Mix: mix},
			enqueued:   now,
		}
		fc.Events = append(fc.Events, FlightEvent{AtUnixNs: now.UnixNano(), Kind: FlightQueued})
		fs.cells[key] = fc
		f.byKey[key] = fc
	}
	f.mu.Unlock()
}

// event appends one lifecycle event to a cell, updating the derived counters.
func (f *flightRecorder) event(key, kind, worker, detail string) {
	if f == nil {
		return
	}
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	fc, ok := f.byKey[key]
	if !ok {
		return
	}
	switch kind {
	case FlightDispatched:
		fc.Attempts++
		if !fc.dispatched {
			fc.dispatched = true
			fc.QueueNs = now.Sub(fc.enqueued).Nanoseconds()
		}
	case FlightStolen:
		fc.Stolen = true
	case FlightHedged:
		fc.Hedges++
	case FlightRetried:
		fc.Retries++
	case FlightQuarantined:
		fc.Quarantines++
	}
	if len(fc.Events) >= maxFlightEvents {
		fc.DroppedEvents++
		return
	}
	fc.Events = append(fc.Events, FlightEvent{
		AtUnixNs: now.UnixNano(), Kind: kind, Worker: worker, Detail: detail,
	})
}

// attemptDone records the winning attempt's timing split for a cell: RTT
// minus the worker-reported compute time is the wire component.
func (f *flightRecorder) attemptDone(key, worker string, rtt time.Duration, computeNs int64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	fc, ok := f.byKey[key]
	if !ok {
		return
	}
	fc.ComputeNs = computeNs
	if wire := rtt.Nanoseconds() - computeNs; wire > 0 {
		fc.WireNs = wire
	} else {
		fc.WireNs = 0
	}
}

// complete marks a cell finished by worker (or locally, worker "").
func (f *flightRecorder) complete(sweep, key, worker string) {
	if f == nil {
		return
	}
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	fc, ok := f.byKey[key]
	if !ok {
		return
	}
	fc.Done = true
	fc.Worker = worker
	fc.WallNs = now.Sub(fc.enqueued).Nanoseconds()
	if len(fc.Events) < maxFlightEvents {
		fc.Events = append(fc.Events, FlightEvent{
			AtUnixNs: now.UnixNano(), Kind: FlightCompleted, Worker: worker,
		})
	} else {
		fc.DroppedEvents++
	}
	if fs, ok := f.active[sweep]; ok {
		fs.rec.Completed++
	}
}

// end closes a sweep record, moves it to the completed ring, and dumps it to
// the flight directory when one is configured.
func (f *flightRecorder) end(sweep string, err error) {
	if f == nil {
		return
	}
	f.mu.Lock()
	fs, ok := f.active[sweep]
	if !ok {
		f.mu.Unlock()
		return
	}
	delete(f.active, sweep)
	for key := range fs.cells {
		delete(f.byKey, key)
	}
	rec := fs.render()
	rec.Active = false
	rec.EndUnixNs = time.Now().UnixNano()
	if err != nil {
		rec.Err = err.Error()
	}
	f.done = append([]*FlightRecord{rec}, f.done...)
	if len(f.done) > maxFlightSweeps {
		f.done = f.done[:maxFlightSweeps]
	}
	dir := f.dir
	f.mu.Unlock()

	if dir != "" {
		if derr := dumpFlight(dir, rec); derr != nil {
			f.log("flight record dump failed", derr)
		}
	}
}

// render snapshots one sweep's record with cells sorted by (n, mix, key) for
// stable output. Caller holds f.mu.
func (fs *flightSweep) render() *FlightRecord {
	rec := fs.rec
	rec.Cells = make([]*FlightCell, 0, len(fs.cells))
	for _, fc := range fs.cells {
		cp := fc.FlightCell
		cp.Events = append([]FlightEvent(nil), fc.Events...)
		rec.Cells = append(rec.Cells, &cp)
	}
	sort.Slice(rec.Cells, func(i, j int) bool {
		a, b := rec.Cells[i], rec.Cells[j]
		if a.N != b.N {
			return a.N < b.N
		}
		if a.Mix != b.Mix {
			return a.Mix < b.Mix
		}
		return a.Key < b.Key
	})
	return &rec
}

// list returns the flight metas: active sweeps first, then the completed
// ring, newest first.
func (f *flightRecorder) list() []FlightMeta {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightMeta, 0, len(f.active)+len(f.done))
	for _, fs := range f.active {
		out = append(out, metaOf(&fs.rec))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartUnixNs > out[j].StartUnixNs })
	for _, rec := range f.done {
		out = append(out, metaOf(rec))
	}
	return out
}

func metaOf(rec *FlightRecord) FlightMeta {
	return FlightMeta{
		Sweep: rec.Sweep, Design: rec.Design, Kind: rec.Kind,
		StartUnixNs: rec.StartUnixNs, EndUnixNs: rec.EndUnixNs,
		Total: rec.Total, Prefilled: rec.Prefilled, Completed: rec.Completed,
		Active: rec.Active, Err: rec.Err,
	}
}

// get returns one sweep's flight record by ID (or unique ID prefix), active
// or completed.
func (f *flightRecorder) get(sweep string) (*FlightRecord, bool) {
	if f == nil {
		return nil, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if fs, ok := f.active[sweep]; ok {
		return fs.render(), true
	}
	for _, rec := range f.done {
		if rec.Sweep == sweep {
			return rec, true
		}
	}
	// Prefix match as a convenience: dump filenames truncate the address.
	var match *FlightRecord
	for id, fs := range f.active {
		if len(sweep) >= 8 && len(id) > len(sweep) && id[:len(sweep)] == sweep {
			if match != nil {
				return nil, false
			}
			match = fs.render()
		}
	}
	for _, rec := range f.done {
		if len(sweep) >= 8 && len(rec.Sweep) > len(sweep) && rec.Sweep[:len(sweep)] == sweep {
			if match != nil {
				return nil, false
			}
			match = rec
		}
	}
	return match, match != nil
}

// dumpFlight writes one flight record as flight-<sweep-prefix>.json in dir,
// crash-safely (see atomicfile) so a crash mid-dump never leaves a torn
// record next to the journal.
func dumpFlight(dir string, rec *FlightRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := rec.Sweep
	if len(name) > 16 {
		name = name[:16]
	}
	err = atomicfile.WriteFile(filepath.Join(dir, "flight-"+name+".json"), func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
	if err != nil {
		return fmt.Errorf("write flight record: %w", err)
	}
	return nil
}
