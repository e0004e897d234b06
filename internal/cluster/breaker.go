package cluster

import (
	"sync"
	"time"
)

// breakerState is a circuit breaker's position.
type breakerState int

const (
	// breakerClosed passes traffic; consecutive failures accumulate.
	breakerClosed breakerState = iota
	// breakerOpen rejects traffic until the cooldown elapses.
	breakerOpen
	// breakerHalfOpen admits exactly one probe request; its outcome decides
	// whether the breaker closes again or re-opens.
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a per-worker circuit breaker: the fabric's replacement for
// binary worker-loss marking. Closed, it passes dispatches and counts
// consecutive failures; at threshold it opens and the worker gets no traffic
// for a cooldown; after the cooldown it half-opens and admits a single probe
// dispatch whose outcome decides between closing (worker recovered) and
// re-opening (still sick). Sheds, drains and terminal engine errors are
// neutral — they release a held probe slot without a verdict, because they
// say nothing about the worker's transport health.
type breaker struct {
	threshold int           // consecutive failures to trip open
	cooldown  time.Duration // open → half-open delay

	mu         sync.Mutex
	state      breakerState
	fails      int       // consecutive failures while closed
	openedAt   time.Time // when the breaker last tripped
	probing    bool      // half-open probe slot held
	trips      int64     // lifetime open transitions (observability)
	stateSince time.Time // when the breaker last changed state (observability)
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, stateSince: time.Now()}
}

// setState transitions the breaker, stamping the transition time so the
// debug surface can show since-when, not just what. Caller holds b.mu; a
// same-state call (e.g. success on an already-closed breaker) is not a
// transition and keeps the original timestamp.
func (b *breaker) setState(s breakerState, now time.Time) {
	if b.state != s {
		b.state = s
		b.stateSince = now
	}
}

// tryAcquire reports whether a dispatch may proceed now. In the half-open
// state it grants the single probe slot to the first caller; the caller must
// then resolve the probe via success, failure or release.
func (b *breaker) tryAcquire(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.setState(breakerHalfOpen, now)
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// success records a successful dispatch: the breaker closes and the failure
// run resets. Called for ordinary successes and for a healthy probe.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.setState(breakerClosed, time.Now())
	b.fails = 0
	b.probing = false
}

// failure records a transport-level dispatch failure. A half-open probe
// failure re-opens immediately; closed failures accumulate until threshold.
func (b *breaker) failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.trip(now)
		return
	}
	b.fails++
	if b.state == breakerClosed && b.fails >= b.threshold {
		b.trip(now)
	}
}

// forceOpen trips the breaker immediately regardless of the failure run —
// used when an out-of-band signal (failed health probe) says the worker is
// gone.
func (b *breaker) forceOpen(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		b.trip(now)
	}
}

// trip moves to open. Caller holds b.mu.
func (b *breaker) trip(now time.Time) {
	b.setState(breakerOpen, now)
	b.openedAt = now
	b.fails = 0
	b.probing = false
	b.trips++
}

// release resolves a dispatch without a verdict on the worker's health
// (shed, drain, terminal engine error, cancelled sweep). It frees a held
// half-open probe slot so the next dispatcher can re-probe.
func (b *breaker) release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// snapshot returns the current state, lifetime trip count, and when the
// breaker entered its current state.
func (b *breaker) snapshot() (breakerState, int64, time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.trips, b.stateSince
}

// allowsTraffic reports whether the breaker would admit a dispatch without
// consuming the probe slot — the fabric's "alive" notion.
func (b *breaker) allowsTraffic(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		return now.Sub(b.openedAt) >= b.cooldown
	default:
		return !b.probing
	}
}
