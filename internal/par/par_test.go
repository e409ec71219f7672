package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	cases := []struct{ n, jobs, want int }{
		{0, 100, min(max, 100)},
		{-3, 100, min(max, 100)},
		{4, 100, 4},
		{4, 2, 2},
		{1, 0, 1},
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.n, c.jobs); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.n, c.jobs, got, c.want)
		}
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const jobs = 500
		var counts [jobs]atomic.Int32
		err := ForEach(jobs, workers, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if n := counts[i].Load(); n != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestForEachReturnsLowestIndexedError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(100, workers, func(i int) error {
			if i%10 == 3 {
				return fmt.Errorf("job %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 3" {
			t.Errorf("workers=%d: err = %v, want job 3", workers, err)
		}
	}
}

func TestForEachSerialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	err := ForEach(100, 1, func(i int) error {
		ran++
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || ran != 6 {
		t.Errorf("err = %v after %d jobs, want boom after 6", err, ran)
	}
}

func TestForEachZeroJobs(t *testing.T) {
	if err := ForEach(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("zero jobs: %v", err)
	}
}

// A panicking job must come back as a *PanicError naming the worker and
// carrying its stack, while the other workers run their jobs to the end.
func TestWorkerPanicFailsPoolNotProcess(t *testing.T) {
	t.Run("RunWorkersCtx", func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			var finished atomic.Int32
			err := RunWorkersCtx(context.Background(), workers, func(_ context.Context, w int) error {
				if w == workers-1 {
					panicHere()
				}
				finished.Add(1)
				return nil
			})
			checkPanicError(t, err, workers-1)
			if got := finished.Load(); got != int32(workers-1) {
				t.Errorf("workers=%d: %d other workers finished, want %d", workers, got, workers-1)
			}
		}
	})
	t.Run("ForEachShardCtx", func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			const jobs, bad = 200, 17
			var ran [jobs]atomic.Int32
			panicker := -1
			err := ForEachShardCtx(context.Background(), jobs, workers, func(w, i int) error {
				if i == bad {
					panicker = w
					panicHere()
				}
				ran[i].Add(1)
				return nil
			})
			checkPanicError(t, err, panicker)
			if workers == 1 {
				continue // inline: the first error ends the loop
			}
			for i := range ran {
				if n := ran[i].Load(); i != bad && n != 1 {
					t.Errorf("workers=%d: job %d ran %d times, want 1", workers, i, n)
				}
			}
		}
	})
}

func panicHere() { panic(errors.New("boom")) }

func checkPanicError(t *testing.T, err error, worker int) {
	t.Helper()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T), want *PanicError", err, err)
	}
	if pe.Worker != worker {
		t.Errorf("panic attributed to worker %d, want %d", pe.Worker, worker)
	}
	if !strings.Contains(string(pe.Stack), "panicHere") {
		t.Errorf("stack does not show the panicking frame:\n%s", pe.Stack)
	}
	if !strings.Contains(err.Error(), "boom") || errors.Unwrap(err) == nil {
		t.Errorf("error %q does not carry the panic value", err)
	}
}
