package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs f(0), …, f(n-1) across a bounded worker pool of the
// given size; workers <= 0 means GOMAXPROCS, workers > n is clamped
// to n, and a single worker degenerates to an inline serial loop that
// performs no allocations. Once any index fails, no NEW indices are
// claimed (in-flight calls complete), and the reported failure is the
// one with the lowest index regardless of scheduling — the lowest
// failing index is always claimed before any failure that could stop
// the pool, so error behavior is deterministic under concurrency.
// Returns nil on success, else the lowest failing index's error.
// Callers communicate results positionally — worker i writes only
// slot i — which keeps outcomes identical to the serial loop at any
// worker count.
func ForEach(n, workers int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		failed   atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
