package fanout

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var (
	itemCounts   = []int{0, 1, 7, 100}
	workerCounts = []int{0, 1, 2, 3, 16}
)

// bound is the worker count Run promises for n items: min(workers, n), at
// least one when there is any item.
func bound(n, w int) int {
	if n == 0 {
		return 0
	}
	return min(max(w, 1), n)
}

func TestEveryIndexOnceIndexAligned(t *testing.T) {
	for _, n := range itemCounts {
		for _, w := range workerCounts {
			t.Run(fmt.Sprintf("n%d/w%d", n, w), func(t *testing.T) {
				runs := make([]atomic.Int32, n)
				out := make([]int, n)
				var setups []int
				err := Run(n, w, func(worker, k int) (int, error) {
					if k != bound(n, w) {
						t.Errorf("setup told %d workers, want %d", k, bound(n, w))
					}
					setups = append(setups, worker)
					return worker, nil
				}, func(worker, i int) error {
					runs[i].Add(1)
					out[i] = i * i
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range runs {
					if c := runs[i].Load(); c != 1 {
						t.Errorf("index %d ran %d times", i, c)
					}
					if out[i] != i*i {
						t.Errorf("out[%d] = %d, want %d", i, out[i], i*i)
					}
				}
				if len(setups) != bound(n, w) {
					t.Errorf("setup ran %d times, want %d", len(setups), bound(n, w))
				}
				for j, worker := range setups {
					if worker != j {
						t.Errorf("setup call %d was for worker %d", j, worker)
					}
				}
			})
		}
	}
}

func TestConcurrencyBounded(t *testing.T) {
	for _, n := range itemCounts {
		for _, w := range workerCounts {
			var inFlight, peak atomic.Int32
			err := Run(n, w, nil, func(_ struct{}, i int) error {
				cur := inFlight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				runtime.Gosched()
				inFlight.Add(-1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if p := int(peak.Load()); p > bound(n, w) {
				t.Errorf("n=%d workers=%d: %d items in flight, bound %d", n, w, p, bound(n, w))
			}
		}
	}
}

// goroutineID reads the running goroutine's id from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

func TestSerialRunsOnCaller(t *testing.T) {
	caller := goroutineID()
	for _, w := range []int{-1, 0, 1} {
		err := Run(5, w, func(int, int) (string, error) {
			if id := goroutineID(); id != caller {
				t.Errorf("workers=%d: setup ran on goroutine %s, caller is %s", w, id, caller)
			}
			return "", nil
		}, func(_ string, i int) error {
			if id := goroutineID(); id != caller {
				t.Errorf("workers=%d: item %d ran on goroutine %s, caller is %s", w, i, id, caller)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSetupErrorRunsNoItem(t *testing.T) {
	boom := errors.New("no engine")
	for _, w := range []int{1, 2, 8} {
		var ran atomic.Int32
		err := Run(10, w, func(worker, _ int) (int, error) {
			if worker == w-1 {
				return 0, boom
			}
			return worker, nil
		}, func(int, int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v, want %v", w, err, boom)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d items ran after a setup error", w, ran.Load())
		}
	}
}

func TestLowestFailingIndexWins(t *testing.T) {
	const n = 50
	for _, k := range []int{0, 1, 9, 49} {
		for _, w := range workerCounts {
			err := Run(n, w, nil, func(_ struct{}, i int) error {
				if i >= k {
					return fmt.Errorf("item %d", i)
				}
				return nil
			})
			if want := fmt.Sprintf("item %d", k); err == nil || err.Error() != want {
				t.Errorf("items >= %d fail, workers=%d: err = %v, want %s", k, w, err, want)
			}
		}
	}
	// Item k fails only after item k+1, held by another worker, has failed:
	// the later failure still loses to the lower index.
	const k = 9
	for _, w := range []int{2, 3, 16} {
		for rep := 0; rep < 20; rep++ {
			higherFailed := make(chan struct{})
			err := Run(n, w, nil, func(_ struct{}, i int) error {
				switch {
				case i == k:
					<-higherFailed
					runtime.Gosched()
				case i == k+1:
					defer close(higherFailed)
				case i < k:
					return nil
				}
				return fmt.Errorf("item %d", i)
			})
			if want := fmt.Sprintf("item %d", k); err == nil || err.Error() != want {
				t.Fatalf("item %d fails after item %d, workers=%d: err = %v, want %s", k, k+1, w, err, want)
			}
		}
	}
}

// inState reports whether the goroutine with the given id exists and its
// status starts with state; any status matches the empty state.
func inState(id, state string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Contains(string(buf), "goroutine "+id+" ["+state)
}

// TestNoItemTakenAfterError fails item 0 while every other worker holds an
// item and the caller is blocked handing out the next one, which item 0's
// worker receives after failing. The held items finish only after item 0's
// worker has exited, so the failure is on record before their workers ask
// for more; no further item may run.
func TestNoItemTakenAfterError(t *testing.T) {
	const n, w = 1000, 4
	var (
		held   sync.WaitGroup
		failer = make(chan string, 1)
		exited = make(chan struct{})
		ran    atomic.Int32
	)
	held.Add(w - 1)
	caller := goroutineID()
	err := Run(n, w, nil, func(_ struct{}, i int) error {
		ran.Add(1)
		switch {
		case i == 0:
			held.Wait()
			for deadline := time.Now().Add(10 * time.Second); !inState(caller, "chan send"); runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Error("the caller never blocked handing out the next item")
					break
				}
			}
			failer <- goroutineID()
			return errors.New("item 0")
		case i == 1:
			held.Done()
			id := <-failer
			for inState(id, "") {
				runtime.Gosched()
			}
			close(exited)
		case i < w:
			held.Done()
			<-exited
		}
		return nil
	})
	if err == nil || err.Error() != "item 0" {
		t.Fatalf("err = %v, want item 0", err)
	}
	if got := ran.Load(); got != w {
		t.Errorf("%d items ran, want only the %d held when item 0 failed", got, w)
	}
}
