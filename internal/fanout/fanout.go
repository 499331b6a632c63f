// Package fanout is the one worker primitive behind every parallel layer of
// Concat: a suite's cases, a pooled suite's batches, a campaign's mutants,
// an impact run's invalidated cases and a soak suite's generated cases all
// run as index-addressed items through Run. Callers store each item's
// result at its own index, so the merged output is in input order whatever
// the schedule, and a failing run reports the same error at any worker
// count.
package fanout

import (
	"runtime"
	"sync"
)

// Run calls do(state, i) once for every i in [0, n) on k = min(workers, n)
// workers, at least one, and returns once no item is running.
//
// Worker w's state comes from setup(w, k), called for w = 0..k-1 in order on
// the caller's goroutine before any item runs; a setup error is returned
// before any item runs. A nil setup gives every worker the zero state. With
// k == 1 the items run inline on the caller's goroutine; otherwise each
// worker is one goroutine.
//
// The caller's goroutine hands the items out in index order over an
// unbuffered channel, and none once an item has failed; a worker drops an
// item it receives above a failed index. The error returned is the one from
// the lowest failing index. Every index below a handed-out one was handed
// out before it and is run, so that is the error a serial run returns, at
// any worker count.
//
// Every item boundary is a scheduling point: a hand-off over the channel,
// and a yield by the worker after each item. CPU-bound items that never
// block otherwise reach the scheduler only at preemption, and on fewer than
// four processors the garbage collector's only background mark worker is a
// fractional one that runs when a processor enters the scheduler. Without
// these points a collection's mark waited up to ~20 ms for a processor
// while the items kept allocating, the heap overshot its goal, and a Table 2
// campaign's peak RSS spread several times as widely from run to run.
func Run[S any](n, workers int, setup func(worker, workers int) (S, error), do func(s S, i int) error) error {
	if n <= 0 {
		return nil
	}
	k := min(max(workers, 1), n)
	states := make([]S, k)
	if setup != nil {
		for w := range states {
			s, err := setup(w, k)
			if err != nil {
				return err
			}
			states[w] = s
		}
	}
	if k == 1 {
		for i := 0; i < n; i++ {
			if err := do(states[0], i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		mu       sync.Mutex
		failedAt = n // lowest failing index so far, n while none has failed
		failErr  error
		wg       sync.WaitGroup
	)
	// failedBelow reports whether an index below i has failed.
	failedBelow := func(i int) bool {
		mu.Lock()
		defer mu.Unlock()
		return failedAt < i
	}
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if i < failedAt {
			failedAt, failErr = i, err
		}
	}
	items := make(chan int)
	for _, s := range states {
		wg.Add(1)
		go func(s S) {
			defer wg.Done()
			for i := range items {
				if failedBelow(i) {
					continue
				}
				if err := do(s, i); err != nil {
					fail(i, err)
				}
				runtime.Gosched()
			}
		}(s)
	}
	for i := 0; i < n && !failedBelow(n); i++ { // stop once any item has failed
		items <- i
	}
	close(items)
	wg.Wait()
	return failErr
}
