package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"time"

	"smtflex/internal/config"
	"smtflex/internal/core"
	"smtflex/internal/machstats"
	"smtflex/internal/obs"
	"smtflex/internal/perfdiff"
	"smtflex/internal/server"
	"smtflex/internal/workload"
)

// The serving workloads drive the smtflexd HTTP API in-process: the daemon
// is built exactly as cmd/smtflexd builds it with its default flags, except
// for the engine fidelity fixed below, and listens on a loopback port.
const (
	daemonCacheCap = 512 // smtflexd -cache-cap default
	daemonQueue    = 64  // smtflexd -queue default
	// tracedRing keeps every request trace of a traced run, so the server
	// layer's queue and serialization times can be read per request.
	tracedRing = 1 << 14
	// defaultRing is smtflexd's -trace-buf default.
	defaultRing = 128
)

type daemon struct {
	sim    *core.Simulator
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startDaemon serves sim's API on a loopback port.
func startDaemon(sim *core.Simulator, ring int) (*daemon, error) {
	srv, err := server.New(server.Config{
		Sim:           sim,
		MaxConcurrent: workers,
		QueueDepth:    daemonQueue,
		// smtflexd logs every request; the lines are formatted but dropped.
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		TraceBuffer: ring,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		sim:  sim,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     workers,
				MaxIdleConnsPerHost: workers,
				DisableCompression:  true,
			},
		},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close shuts the listener down and waits for the serving goroutine.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	return err
}

// do sends one request and returns the status and body.
func (d *daemon) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches a debug or health surface into v.
func (d *daemon) getJSON(ctx context.Context, path string, v any) error {
	code, b, err := d.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, b)
	}
	return json.Unmarshal(b, v)
}

// daemonSetup builds a fresh engine and daemon, warms every profile and runs
// the workload's own warm-up. It returns the daemon and the profiler's
// record of the warm-up.
func daemonSetup(ctx context.Context, cfg runCfg, ring int, warm func(*daemon) error) (*daemon, profileStats, error) {
	sim := core.NewSimulator(
		core.WithUopCount(cfg.sz.daemonUops),
		core.WithMixesPerCount(cfg.sz.daemonMixes),
		core.WithParallelism(workers),
		core.WithCacheCap(daemonCacheCap),
	)
	d, err := startDaemon(sim, ring)
	if err != nil {
		return nil, profileStats{}, err
	}
	var health server.HealthzResponse
	if err := d.getJSON(ctx, "/healthz", &health); err != nil || health.Status != "ok" {
		d.close()
		return nil, profileStats{}, fmt.Errorf("daemon not healthy (%q): %v", health.Status, err)
	}
	ps, err := warmProfiles(sim.Source(), nil, -1)
	if err == nil && warm != nil {
		err = warm(d)
	}
	if err != nil {
		d.close()
		return nil, profileStats{}, err
	}
	return d, ps, nil
}

// setupDaemons sets up cfg.sz.setups times, keeps the last daemon and
// reports the median set-up time.
func setupDaemons(ctx context.Context, cfg runCfg, o *outcome, ring int, warm func(*daemon) error) (*daemon, profileStats, error) {
	var times []float64
	var d *daemon
	var ps profileStats
	for i := 0; i < cfg.sz.setups; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, ps, err
			}
		}
		t0 := time.Now()
		var err error
		d, ps, err = daemonSetup(ctx, cfg, ring, warm)
		if err != nil {
			return nil, ps, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	fmt.Fprintf(cfg.log, "   set-up times (s): %v\n", times)
	o.e2e["setup_s"] = metric{median(times), "s"}
	return d, ps, nil
}

// serverLayers reads the server layer's per-request queue and
// serialization times from the daemon's own request traces started at or
// after since on the given routes.
func (d *daemon) serverLayers(ctx context.Context, since time.Time, o *outcome, routes ...string) error {
	var list server.TracesResponse
	if err := d.getJSON(ctx, "/debug/traces", &list); err != nil {
		return err
	}
	var queueMs, serMs []float64
	for _, m := range list.Traces {
		if !slices.Contains(routes, m.Name) || m.Start.Before(since) {
			continue
		}
		var t obs.TraceJSON
		if err := d.getJSON(ctx, "/debug/traces/"+m.ID, &t); err != nil {
			return err
		}
		for _, s := range t.Spans {
			switch s.Name {
			case "queue.wait":
				queueMs = append(queueMs, float64(s.DurNs)/1e6)
			case "http.serialize":
				serMs = append(serMs, float64(s.DurNs)/1e6)
			}
		}
	}
	o.layers["server.queue_ms_p99"] = metric{quantile(queueMs, 0.99), "ms"}
	o.layers["server.serialize_ms_p50"] = metric{median(serMs), "ms"}
	return nil
}

// studyLayers reads the study layer's pool queue waits from the daemon's
// engine histograms (/debug/timestack) and its sweep cache hit ratio.
func (d *daemon) studyLayers(ctx context.Context, o *outcome) error {
	var ts server.TimestackResponse
	if err := d.getJSON(ctx, "/debug/timestack", &ts); err != nil {
		return err
	}
	for _, h := range ts.Histograms {
		if h.Name == perfdiff.HistPoolQueueSeconds {
			o.layers["study.pool_queue_ms_p50"] = metric{h.P50 * 1e3, "ms"}
			o.layers["study.pool_queue_ms_p99"] = metric{h.P99 * 1e3, "ms"}
		}
	}
	st := d.sim.Study().CacheStats()
	o.layers["study.sweep_hit_ratio"] = metric{ratio(float64(st.SweepHits), float64(st.SweepHits+st.SweepMisses)), "ratio"}
	return nil
}

// enableDaemonDefaults arms what smtflexd arms by default: the
// simulated-hardware counters (-machstats=true).
func enableDaemonDefaults() { machstats.Enable() }

// placeQuery is one /v1/place request drawn from the seed.
type placeQuery struct {
	req   server.PlaceRequest
	body  []byte
	cores int
}

var designNames = func() []string {
	var names []string
	for _, d := range config.NineDesigns(true) {
		names = append(names, d.Name)
	}
	return names
}()

func newPlaceQuery(rng *rand.Rand) placeQuery {
	smt := rng.Intn(2) == 0
	req := server.PlaceRequest{
		Design:   designNames[rng.Intn(len(designNames))],
		SMT:      &smt,
		Programs: randomPrograms(rng, workload.Names(), 1+rng.Intn(24)),
	}
	body, _ := json.Marshal(req) // a struct of strings and a bool always marshals
	d, _ := config.DesignByName(req.Design, smt)
	return placeQuery{req: req, body: body, cores: d.NumCores()}
}

func (q placeQuery) design() config.Design {
	d, _ := config.DesignByName(q.req.Design, *q.req.SMT) // drawn from the nine designs
	return d
}

func (q placeQuery) mix() workload.Mix { return workload.Mix{ID: "api", Programs: q.req.Programs} }

// check validates a /v1/place response: one valid core index per program
// and finite, positive system metrics.
func (q placeQuery) check(code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("place %s: status %d: %.200s", q.req.Design, code, body)
	}
	var resp server.PlaceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("place %s: %v", q.req.Design, err)
	}
	if len(resp.CoreOf) != len(q.req.Programs) {
		return fmt.Errorf("place %s: %d core indices for %d programs", q.req.Design, len(resp.CoreOf), len(q.req.Programs))
	}
	for _, c := range resp.CoreOf {
		if c < 0 || c >= q.cores {
			return fmt.Errorf("place %s: core index %d outside [0,%d)", q.req.Design, c, q.cores)
		}
	}
	for _, v := range []float64{resp.STP, resp.ANTT, resp.Watts} {
		if !finitePositive(v) {
			return fmt.Errorf("place %s: non-finite or non-positive metric %g", q.req.Design, v)
		}
	}
	return nil
}
