package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForEachCoversAllIndices: every index runs exactly once, at any
// worker count including the GOMAXPROCS default and workers > n
// (meaningful under -race: the hit counters are the shared state).
func TestForEachCoversAllIndices(t *testing.T) {
	const n = 1000
	for _, workers := range []int{0, 1, 2, 8, n + 50} {
		hits := make([]atomic.Int32, n)
		if err := ForEach(n, workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: ForEach = %v, want nil", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, got)
			}
		}
	}
}

// indexError is a failure that names the index that returned it.
type indexError int

func (e indexError) Error() string { return fmt.Sprintf("boom at %d", int(e)) }

// failedAt returns the index err names, or -1 for any other error.
func failedAt(err error) int {
	var ie indexError
	if errors.As(err, &ie) {
		return int(ie)
	}
	return -1
}

// TestForEachFirstErrorWins: with failures at several indices, the
// lowest failing index's error is reported regardless of the worker
// count or scheduling.
func TestForEachFirstErrorWins(t *testing.T) {
	const n = 200
	fail := map[int]bool{37: true, 73: true, 150: true}
	for _, workers := range []int{0, 1, 4, 16} {
		err := ForEach(n, workers, func(i int) error {
			if fail[i] {
				return indexError(i)
			}
			return nil
		})
		if got := failedAt(err); got != 37 {
			t.Errorf("workers=%d: failing index %d, want 37", workers, got)
		}
		if err == nil || err.Error() != "boom at 37" {
			t.Errorf("workers=%d: err %v, want boom at 37", workers, err)
		}
	}
}

// TestForEachStopsAfterError: once an index fails, no new indices are
// claimed. Serial mode stops immediately after the failure; the
// concurrent pool can overrun only by work already in flight
// (bounded by the worker count).
func TestForEachStopsAfterError(t *testing.T) {
	const n = 10000
	var calls atomic.Int32
	err := ForEach(n, 1, func(i int) error {
		calls.Add(1)
		if i == 5 {
			return indexError(i)
		}
		return nil
	})
	if idx := failedAt(err); idx != 5 {
		t.Fatalf("serial: ForEach = %v, failing index %d, want 5", err, idx)
	}
	if got := calls.Load(); got != 6 {
		t.Errorf("serial: %d calls after failure at index 5, want 6", got)
	}

	const workers = 4
	calls.Store(0)
	err = ForEach(n, workers, func(i int) error {
		calls.Add(1)
		if i == 5 {
			return indexError(i)
		}
		return nil
	})
	if idx := failedAt(err); idx != 5 {
		t.Fatalf("concurrent: ForEach = %v, failing index %d, want 5", err, idx)
	}
	// The claim counter can run ahead of the failure by the in-flight
	// work of the other workers, but nowhere near the full range.
	if got := calls.Load(); got == int32(n) {
		t.Errorf("concurrent: all %d indices ran despite an early failure", n)
	}
}

// TestForEachClamps pins the worker normalization: zero and negative
// counts mean GOMAXPROCS, n == 0 is a successful no-op, and a single
// index runs inline.
func TestForEachClamps(t *testing.T) {
	if err := ForEach(0, 8, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("n=0: %v, want nil", err)
	}
	for _, workers := range []int{0, -3} {
		var ran atomic.Int32
		if err := ForEach(2*runtime.GOMAXPROCS(0)+4, workers, func(int) error {
			ran.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got, want := ran.Load(), int32(2*runtime.GOMAXPROCS(0)+4); got != want {
			t.Errorf("workers=%d: ran %d, want %d", workers, got, want)
		}
	}
}

// TestForEachSerialNoAlloc: the degenerate single-worker path must
// not allocate (it sits under zero-alloc batch surfaces).
func TestForEachSerialNoAlloc(t *testing.T) {
	f := func(int) error { return nil }
	allocs := testing.AllocsPerRun(20, func() {
		ForEach(64, 1, f)
	})
	if allocs != 0 {
		t.Errorf("serial ForEach allocates %v/op, want 0", allocs)
	}
}
