package study

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"smtflex/internal/faults"
)

// Tests for panic containment at the worker-pool boundary: a panicking
// evaluation must fail the run with ErrWorkerPanic in both the serial and the
// parallel engine, without unwinding the caller.

func TestRunIndexedContainsPanicSerial(t *testing.T) {
	err := runIndexed(context.Background(), 1, 4, nil, func(_ context.Context, i int) error {
		if i == 2 {
			panic("task exploded")
		}
		return nil
	})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("got %v, want ErrWorkerPanic", err)
	}
	if !strings.Contains(err.Error(), "task 2") || !strings.Contains(err.Error(), "task exploded") {
		t.Fatalf("panic context lost: %v", err)
	}
}

func TestRunIndexedContainsPanicParallel(t *testing.T) {
	var ran atomic.Int64
	err := runIndexed(context.Background(), 4, 32, nil, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 5 {
			panic(i)
		}
		return nil
	})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("got %v, want ErrWorkerPanic", err)
	}
	// The pool must have stopped early rather than draining all 32 tasks.
	if n := ran.Load(); n == 32 {
		t.Fatal("pool did not stop after a panicked task")
	}
}

func TestRunIndexedPanicReportsLowestIndex(t *testing.T) {
	// When several tasks panic, the reported index is the lowest observed —
	// matching the serial engine's first failure.
	err := runIndexed(context.Background(), 8, 8, nil, func(_ context.Context, i int) error {
		panic(i)
	})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("got %v", err)
	}
	if !strings.Contains(err.Error(), "task 0") {
		t.Fatalf("expected lowest task index in %v", err)
	}
}

func TestWorkerErrorInjection(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	faults.Enable(faults.SiteWorker, faults.Injection{Mode: faults.ModeError, Count: 1})
	err := runIndexed(context.Background(), 1, 3, nil, func(_ context.Context, i int) error { return nil })
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("got %v, want injected error", err)
	}
	// Disarmed: the next run completes.
	if err := runIndexed(context.Background(), 1, 3, nil, func(_ context.Context, i int) error { return nil }); err != nil {
		t.Fatalf("run after disarm: %v", err)
	}
}

func TestWorkerPanicInjectionParallel(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	faults.Enable(faults.SiteWorker, faults.Injection{Mode: faults.ModePanic, Count: 1})
	err := runIndexed(context.Background(), 4, 16, nil, func(_ context.Context, i int) error { return nil })
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("got %v, want ErrWorkerPanic", err)
	}
	if err := runIndexed(context.Background(), 4, 16, nil, func(_ context.Context, i int) error { return nil }); err != nil {
		t.Fatalf("run after disarm: %v", err)
	}
}

// TestRunIndexedProgressMonotone: with many tiny tasks racing on 8 workers,
// the progress hook must see strictly increasing completion counts, ending
// at (n, n). A count that goes backwards reads as "2 after 3" on a live
// progress stream.
func TestRunIndexedProgressMonotone(t *testing.T) {
	const n = 4000
	var (
		mu        sync.Mutex
		prev      int
		backwards int
	)
	ctx := WithProgress(context.Background(), func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if total != n {
			t.Errorf("progress total %d, want %d", total, n)
		}
		if done <= prev {
			backwards++
		}
		prev = done
	})
	if err := runIndexed(ctx, 8, n, nil, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if backwards > 0 {
		t.Errorf("progress went backwards %d times", backwards)
	}
	if prev != n {
		t.Errorf("final progress %d, want %d", prev, n)
	}
}
