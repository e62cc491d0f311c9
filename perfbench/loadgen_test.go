package main

import (
	"sync"
	"testing"
	"time"
)

// A stall delays every job queued behind it, and timing from the due time
// charges that wait to each of them: the open loop does not slow down to
// match the server, as a closed loop would.
func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	const (
		n        = 20
		interval = 2 * time.Millisecond
		stall    = 60 * time.Millisecond
	)
	var mu sync.Mutex
	due := make([]time.Time, n)
	lat := make([]time.Duration, n)
	start := time.Now().Add(5 * time.Millisecond)
	st := openLoop(start, interval, n, 1, func(_ int, j job) {
		if j.i == 0 {
			time.Sleep(stall)
		}
		mu.Lock()
		due[j.i], lat[j.i] = j.due, time.Since(j.due)
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		if want := start.Add(time.Duration(i) * interval); !due[i].Equal(want) {
			t.Fatalf("job %d due %v, want %v", i, due[i], want)
		}
	}
	// Job i became due i*interval after job 0 and waited for the stall.
	for i := 1; i < n; i++ {
		if min := stall - time.Duration(i)*interval; lat[i] < min {
			t.Errorf("job %d latency %v, want at least %v", i, lat[i], min)
		}
	}
	if max := st.backlog[n-1]; max == 0 {
		t.Error("jobs queued behind the stall were not counted as backlog")
	}
	if len(st.late) != n {
		t.Fatalf("lateness recorded for %d of %d jobs", len(st.late), n)
	}
	for i, l := range st.late {
		if l < 0 {
			t.Errorf("job %d handed out %v before due", i, -l)
		}
	}
}

func TestOpenLoopUsesEveryWorker(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	openLoop(time.Now(), 0, 50, 3, func(w int, _ job) {
		time.Sleep(time.Millisecond)
		mu.Lock()
		seen[w] = true
		mu.Unlock()
	})
	if len(seen) != 3 {
		t.Errorf("%d of 3 workers ran jobs", len(seen))
	}
}

func TestGrew(t *testing.T) {
	series := func(f func(i int) float64) []float64 {
		xs := make([]float64, 400)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	flat := series(func(i int) float64 { return float64(i % 3) })
	stall := series(func(i int) float64 { // one 8-deep transient late in the run
		if i >= 350 && i < 358 {
			return float64(i - 349)
		}
		return float64(i % 3)
	})
	growing := series(func(i int) float64 { return float64(i) / 40 })
	if grew(flat, 2) || grew(stall, 2) {
		t.Error("flat series reported as growing")
	}
	if !grew(growing, 2) {
		t.Error("growing series not reported")
	}
	if grew(growing[:3], 2) {
		t.Error("a series too short to have quarters reported as growing")
	}
}
