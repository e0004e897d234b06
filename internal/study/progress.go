package study

import "context"

// ProgressFunc receives live engine progress: done of total pool tasks have
// finished. The pool invokes it from worker goroutines, one call at a time
// and with strictly increasing done, holding the lock that orders the calls;
// so it must be fast, must not block and must not call back into the engine
// — a slow hook stalls the pool. The hook observes progress only; it cannot
// influence results.
type ProgressFunc func(done, total int)

// progressKeyType keys the progress hook in a context.
type progressKeyType struct{}

// WithProgress returns a context carrying fn as the engine progress hook.
// SweepDesign forwards the hook of the caller that leads a (possibly
// coalesced) sweep computation into the pool, which calls it after every
// completed (thread count, mix) evaluation. A nil fn returns ctx unchanged.
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	if fn == nil {
		return ctx
	}
	return context.WithValue(ctx, progressKeyType{}, fn)
}

// progressFrom extracts the progress hook from ctx, or nil.
func progressFrom(ctx context.Context) ProgressFunc {
	if ctx == nil {
		return nil
	}
	fn, _ := ctx.Value(progressKeyType{}).(ProgressFunc)
	return fn
}

// ProgressFrom exposes the context-carried progress hook to layers that run
// sweep cells outside this package's pool (the cluster coordinator), so a
// distributed sweep feeds the same live-progress surfaces as a local one.
func ProgressFrom(ctx context.Context) ProgressFunc { return progressFrom(ctx) }
