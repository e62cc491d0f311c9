package main

import (
	"sync"
	"time"
)

// job is one scheduled operation of the open-loop generator.
type job struct {
	i   int
	due time.Time
}

// loadStats describes how well the generator kept to its schedule. late[i]
// is how far past its due time job i was handed to the workers; backlog[i]
// is how many earlier jobs were due but not yet picked up by a worker at
// that moment.
type loadStats struct {
	late    []time.Duration
	backlog []int
}

// openLoop hands n jobs, due every interval from start, to conns workers.
// Jobs are due on the schedule whatever the workers are doing: a job that
// waits behind a slow one still carries its own due time, so callers that
// time each job from job.due charge the stall to every job queued behind
// it. openLoop returns when every job has finished.
func openLoop(start time.Time, interval time.Duration, n, conns int, do func(worker int, j job)) loadStats {
	queue := make(chan job, n) // one slot per job: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range queue {
				do(w, j)
			}
		}(w)
	}
	st := loadStats{late: make([]time.Duration, n), backlog: make([]int, n)}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		st.late[i] = time.Since(due)
		st.backlog[i] = len(queue)
		queue <- job{i: i, due: due}
	}
	close(queue)
	wg.Wait()
	return st
}

// grew reports whether a per-job series trended up over the run: the mean
// of its last quarter exceeds the mean of its first by more than slack.
// Transient stalls (a checkpoint, a GC cycle) move a quarter's mean little;
// a generator or server that keeps falling behind moves it a lot, and then
// the load offered is not the load the schedule says, so the run is
// invalid rather than slow.
func grew(xs []float64, slack float64) bool {
	q := len(xs) / 4
	if q == 0 {
		return false
	}
	return meanOf(xs[len(xs)-q:])-meanOf(xs[:q]) > slack
}
