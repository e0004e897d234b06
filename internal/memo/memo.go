// Package memo provides a concurrency-safe memoizing cache with
// singleflight duplicate suppression: when several goroutines miss on the
// same key at once, exactly one runs the compute function while the others
// block and share its result. Successful results are cached forever by
// default; failures are not cached, so a later caller retries the
// computation.
//
// The experiment engine leans on this for the three compute-once tables the
// parallel sweep hammers — benchmark profiles, solo rates and design
// sweeps — where a plain check-then-compute cache would let N concurrent
// misses run the same expensive measurement N times.
//
// Two additions serve long-running daemons (see internal/server):
//
//   - GetCtx coalesces identical in-flight computations across requests and
//     threads cancellation through: every waiter is reference-counted, and
//     when the last interested waiter abandons the key, the shared compute's
//     context is cancelled so the work stops instead of burning workers for
//     a client that hung up.
//   - Bound caps the cache at a maximum number of completed entries with
//     least-recently-used eviction, so a server's sweep cache cannot grow
//     without limit across a long request history. Batch CLIs simply never
//     call Bound and keep the forever-cache semantics.
package memo

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"smtflex/internal/faults"
	"smtflex/internal/obs"
)

// ErrComputePanic is the sentinel wrapped by errors produced when a compute
// function panics. The panic is contained at the cache boundary: waiters
// receive this error, the entry is not cached (a later caller retries), and
// no goroutine deadlocks on a done channel that would never close.
var ErrComputePanic = errors.New("memo: compute panicked")

// protect runs compute, converting a panic into an error wrapping
// ErrComputePanic (with the stack) and applying the memo fault-injection
// site first.
func protect[V any](compute func() (V, error)) (val V, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v\n%s", ErrComputePanic, r, debug.Stack())
		}
	}()
	if err = faults.Check(faults.SiteMemo); err != nil {
		return val, err
	}
	return compute()
}

// entry is one in-flight or completed computation. done is closed once val
// and err are final.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error

	// waiters counts GetCtx callers currently interested in this entry;
	// cancel (set only for GetCtx-created entries) aborts the compute when
	// the count drops to zero before completion.
	waiters int
	cancel  context.CancelFunc
	// elem is the entry's node in the LRU list; nil while in flight or when
	// the cache is unbounded and the entry predates Bound.
	elem *list.Element
}

// Cache memoizes compute results by key. The zero value is ready to use.
// It must not be copied after first use.
type Cache[K comparable, V any] struct {
	// Name labels the cache in spans and metrics ("profiles", "sweeps", …).
	// Set it once before concurrent use; the zero value renders as "cache".
	Name string

	mu  sync.Mutex
	m   map[K]*entry[V]
	lru *list.List // completed entries, most recent first; values are keys
	cap int        // 0 = unbounded

	hits, misses, coalesced atomic.Int64
}

// label returns the cache's span/metric name.
func (c *Cache[K, V]) label() string {
	if c.Name == "" {
		return "cache"
	}
	return c.Name
}

// init lazily allocates the map and LRU list. Callers hold mu.
func (c *Cache[K, V]) init() {
	if c.m == nil {
		c.m = make(map[K]*entry[V])
	}
	if c.lru == nil {
		c.lru = list.New()
	}
}

// recordLocked registers a completed successful entry in the LRU order and
// evicts past the bound. Callers hold mu.
func (c *Cache[K, V]) recordLocked(key K, e *entry[V]) {
	e.elem = c.lru.PushFront(key)
	c.evictLocked()
}

// touchLocked marks a completed entry as recently used. Callers hold mu.
func (c *Cache[K, V]) touchLocked(e *entry[V]) {
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
}

// evictLocked removes least-recently-used completed entries until the cache
// is within its bound. In-flight entries are never on the list and are never
// evicted. Callers hold mu.
func (c *Cache[K, V]) evictLocked() {
	if c.cap <= 0 {
		return
	}
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		key := back.Value.(K)
		c.lru.Remove(back)
		if e, ok := c.m[key]; ok && e.elem == back {
			delete(c.m, key)
		}
	}
}

// Bound caps the cache at maxEntries completed entries, evicting the least
// recently used beyond that. Zero (the default) means unbounded. Entries
// cached before the first Bound call are not tracked for eviction; bound a
// cache before filling it.
func (c *Cache[K, V]) Bound(maxEntries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.init()
	c.cap = maxEntries
	c.evictLocked()
}

// Stats returns the cumulative hit and miss counts across Get and GetCtx.
// A hit is a call that found an entry (completed or in flight); a miss is a
// call that started a computation.
func (c *Cache[K, V]) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Coalesced returns how many calls joined an in-flight computation for their
// key instead of finding a completed entry — the subset of hits that the
// singleflight machinery actually deduplicated.
func (c *Cache[K, V]) Coalesced() int64 {
	return c.coalesced.Load()
}

// Counters is a point-in-time snapshot of one cache's lookup counters, the
// unit the daemon's per-cache /metrics series are built from.
type Counters struct {
	Name                    string
	Hits, Misses, Coalesced int64
	Entries                 int
}

// Counters snapshots the cache's name, counters and entry count.
func (c *Cache[K, V]) Counters() Counters {
	return Counters{
		Name:      c.label(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Entries:   c.Len(),
	}
}

// Get returns the cached value for key, computing it with compute on the
// first call. Concurrent calls for the same key run compute exactly once and
// all receive its result. compute must not call Get for the same key on the
// same cache (it would deadlock); distinct keys may recurse freely, and the
// cache's lock is never held while compute runs.
func (c *Cache[K, V]) Get(key K, compute func() (V, error)) (V, error) {
	return c.get(context.Background(), key, func(context.Context) (V, error) { return compute() })
}

// GetTraced is Get with observability: when the context carries an active
// trace, the time a lookup actually spends working is recorded as a
// "memo.get" span annotated with the cache name and outcome — "compute" for
// the caller that runs compute (whose own spans nest inside), "coalesced"
// for callers that block on another's in-flight compute. Lookups served
// instantly from a completed entry are counted (see Counters) but NOT
// spanned: a hot sweep performs thousands of nanosecond hits, and spanning
// them would flood the trace's span budget with zero-duration noise.
// Lookup semantics are identical to Get — the two share the same
// singleflight entries.
func (c *Cache[K, V]) GetTraced(ctx context.Context, key K, compute func(context.Context) (V, error)) (V, error) {
	return c.get(ctx, key, compute)
}

// get implements Get and GetTraced; ctx carries the parent span, if any.
func (c *Cache[K, V]) get(ctx context.Context, key K, compute func(context.Context) (V, error)) (V, error) {
	c.mu.Lock()
	c.init()
	if e, ok := c.m[key]; ok {
		c.hits.Add(1)
		c.touchLocked(e)
		c.mu.Unlock()
		select {
		case <-e.done:
			// Completed entry: a pure hit, counted but not spanned.
		default:
			c.coalesced.Add(1)
			_, sp := obs.StartSpan(ctx, "memo.get")
			sp.SetAttr("cache", c.label())
			sp.SetAttr("outcome", "coalesced")
			<-e.done
			sp.End()
		}
		<-e.done
		return e.val, e.err
	}
	c.misses.Add(1)
	e := &entry[V]{done: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()

	sctx, sp := obs.StartSpan(ctx, "memo.get")
	sp.SetAttr("cache", c.label())
	sp.SetAttr("outcome", "compute")
	e.val, e.err = protect(func() (V, error) { return compute(sctx) })
	sp.End()
	c.mu.Lock()
	if e.err != nil {
		// Leave failures uncached so the next caller can retry.
		if cur, ok := c.m[key]; ok && cur == e {
			delete(c.m, key)
		}
	} else if cur, ok := c.m[key]; ok && cur == e {
		// Not replaced by Put while computing: track for eviction.
		c.recordLocked(key, e)
	}
	c.mu.Unlock()
	close(e.done)
	return e.val, e.err
}

// GetCtx is Get with cancellation: identical in-flight calls coalesce onto
// one compute, and each caller waits only as long as its own ctx allows. The
// compute runs under a context of its own that is cancelled when every
// caller interested in the key has gone — so abandoning a request stops the
// shared work, but only once nobody else still wants the result. A compute
// aborted that way is uncached like any failure; a later caller with a live
// context transparently restarts it.
//
// Entries created by GetCtx must not be awaited with plain Get on the same
// key (Get does not register as an interested waiter, so the compute could
// be cancelled underneath it).
func (c *Cache[K, V]) GetCtx(ctx context.Context, key K, compute func(context.Context) (V, error)) (V, error) {
	for {
		if err := ctx.Err(); err != nil {
			return *new(V), err
		}
		c.mu.Lock()
		c.init()
		e, ok := c.m[key]
		// sp times the caller's wait on a compute or coalesced entry; pure
		// hits are counted but not spanned (see GetTraced).
		var sp *obs.Span
		if ok {
			c.hits.Add(1)
			select {
			case <-e.done:
				// Completed entry: return it, unless it is the residue of an
				// abandoned compute — then loop and recompute.
				c.touchLocked(e)
				c.mu.Unlock()
				if errors.Is(e.err, context.Canceled) {
					continue
				}
				return e.val, e.err
			default:
			}
			c.coalesced.Add(1)
			e.waiters++
			c.mu.Unlock()
			_, sp = obs.StartSpan(ctx, "memo.get")
			sp.SetAttr("cache", c.label())
			sp.SetAttr("outcome", "coalesced")
		} else {
			c.misses.Add(1)
			var sctx context.Context
			sctx, sp = obs.StartSpan(ctx, "memo.get")
			sp.SetAttr("cache", c.label())
			sp.SetAttr("outcome", "compute")
			// The compute's context descends from obs.Detach(sctx): it carries
			// the leader's trace identity — so profiler/solver spans inside
			// the shared compute attach to the leader's trace, nested under
			// its memo.get span — but no deadline; its lifetime is governed
			// solely by the refcounted cancel below.
			cctx, cancel := context.WithCancel(obs.Detach(sctx))
			e = &entry[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
			c.m[key] = e
			c.mu.Unlock()
			go func() {
				val, err := protect(func() (V, error) { return compute(cctx) })
				cancel()
				c.mu.Lock()
				e.val, e.err = val, err
				// The cancel func pins the compute's context, and through it
				// the leader's trace with every span the compute recorded;
				// a completed entry must not keep that alive.
				e.cancel = nil
				if err != nil {
					if cur, ok := c.m[key]; ok && cur == e {
						delete(c.m, key)
					}
				} else if cur, ok := c.m[key]; ok && cur == e {
					c.recordLocked(key, e)
				}
				c.mu.Unlock()
				close(e.done)
			}()
		}

		select {
		case <-e.done:
			c.mu.Lock()
			e.waiters--
			c.mu.Unlock()
			sp.End()
			if errors.Is(e.err, context.Canceled) {
				continue
			}
			return e.val, e.err
		case <-ctx.Done():
			c.mu.Lock()
			e.waiters--
			abandoned := e.waiters == 0
			cancel := e.cancel
			c.mu.Unlock()
			if abandoned && cancel != nil {
				cancel()
			}
			sp.SetAttr("error", ctx.Err().Error())
			sp.End()
			return *new(V), ctx.Err()
		}
	}
}

// Cached returns the completed value for key, if present. It does not wait
// for an in-flight computation.
func (c *Cache[K, V]) Cached(key K) (V, bool) {
	c.mu.Lock()
	e, ok := c.m[key]
	c.mu.Unlock()
	if !ok {
		return *new(V), false
	}
	select {
	case <-e.done:
		if e.err != nil {
			return *new(V), false
		}
		return e.val, true
	default:
		return *new(V), false
	}
}

// Put stores a completed value for key, replacing any finished entry. It is
// how persisted results are seeded into the cache. An in-flight computation
// for the same key keeps its own entry (its waiters get its result); Put
// then installs val for later lookups.
func (c *Cache[K, V]) Put(key K, val V) {
	e := &entry[V]{done: make(chan struct{}), val: val}
	close(e.done)
	c.mu.Lock()
	c.init()
	if old, ok := c.m[key]; ok && old.elem != nil {
		c.lru.Remove(old.elem)
		old.elem = nil
	}
	c.m[key] = e
	c.recordLocked(key, e)
	c.mu.Unlock()
}

// Range calls fn for every completed successful entry. In-flight
// computations are skipped, not waited for.
func (c *Cache[K, V]) Range(fn func(key K, val V)) {
	c.mu.Lock()
	snapshot := make(map[K]*entry[V], len(c.m))
	for k, e := range c.m {
		snapshot[k] = e
	}
	c.mu.Unlock()
	for k, e := range snapshot {
		select {
		case <-e.done:
			if e.err == nil {
				fn(k, e.val)
			}
		default:
		}
	}
}

// Len returns the number of cached or in-flight entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
