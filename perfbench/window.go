package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"strconv"
	"sync"
	"time"
)

// window is what one timed window measured. Latencies are in ms; a failed
// or refused request is +Inf, slower than any that completed.
type window struct {
	rate  int // offered operations per second
	conns int

	reads   []float64
	writes  []float64 // write-replicated only
	visible []float64 // write-replicated only

	readReqs  []readReq // read workloads: the schedule
	readShape []string  // per read
	readRows  []int     // rows received per read

	attempted, failed, wrong int
	errs                     []string // the first few failures, for the report

	load       loadStats
	p0, p1     procSample
	rss        []float64 // resident set samples in the window, MB
	reg0, reg1 registry
	oracle     time.Duration
	elapsed    time.Duration

	// write-replicated: the replication position each write was
	// acknowledged at (0 when it failed), and the follower's reconnect and
	// bootstrap counts across the window.
	writesRun             []write
	acks                  []uint64
	visibleAt             []time.Time // when the follower reached each write's seq
	reconnects, bootstrap uint64
}

func (w *window) fail(msg string) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, msg)
	}
}

// completed is the number of requests that succeeded.
func (w *window) completed() int { return w.attempted - w.failed }

func infs(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Inf(1)
	}
	return xs
}

// rssEvery is the resident-set sampling period inside the window.
const rssEvery = 50 * time.Millisecond

// runReads drives a read workload's schedule against s for seconds and
// checks every answer against the oracle.
func runReads(s *system, seed int64, seconds int) (*window, error) {
	conns := maxConns()
	n := readRate * seconds
	reqs := readMix(s.cat, n, rand.New(rand.NewSource(seed)))
	w := &window{rate: readRate, conns: conns, reads: infs(n), readReqs: reqs, readShape: make([]string, n), readRows: make([]int, n)}

	t0 := time.Now()
	oracle, err := buildOracle(s.twin, reqs, conns)
	if err != nil {
		return nil, err
	}
	w.oracle = time.Since(t0)

	cl := newClient(s.target, conns, s.tr)
	defer cl.close()
	bufs := make([]bytes.Buffer, conns)
	errsAt := make([]string, n)
	wrongAt := make([]bool, n)
	// Start every window from the same heap, with the set-ups' and the
	// oracle's garbage collected and its pages returned to the system.
	debug.FreeOSMemory()
	w.p0, w.reg0 = readProc(), readRegistry()
	sampler := startRSSSampler(rssEvery)
	start := time.Now()
	w.load = openLoop(start, time.Second/readRate, n, conns, func(c int, j job) {
		r := reqs[j.i]
		w.readShape[j.i] = r.shape
		body, _, end, err := cl.post(&bufs[c], "/query", r.body, 0, int64(j.i+1), j.due, r.shape)
		if err != nil {
			errsAt[j.i] = err.Error()
			return
		}
		a, err := parseNDJSON(body)
		if err != nil {
			errsAt[j.i] = err.Error()
			return
		}
		w.readRows[j.i] = a.rows
		if want := oracle[r.key()]; a.rows != want.rows || a.digest != want.digest {
			errsAt[j.i] = fmt.Sprintf("wrong answer to %s %s: %d rows (digest %x), want %d (digest %x)",
				r.shape, r.param, a.rows, a.digest, want.rows, want.digest)
			wrongAt[j.i] = true
			return
		}
		w.reads[j.i] = ms(end.Sub(j.due))
	})
	w.elapsed = time.Since(start)
	w.p1, w.reg1 = readProc(), readRegistry()
	if w.rss, err = sampler.finish(); err != nil {
		return nil, err
	}
	w.attempted = n
	for i, e := range errsAt {
		if e != "" {
			w.fail(e)
		}
		if wrongAt[i] {
			w.wrong++
		}
	}
	return w, nil
}

// runWrites drives write-replicated's schedule: each operation is a
// /mutate through the router, then a tokened point lookup of the entry it
// wrote, also through the router. Visibility is timed in-process: from the
// write's acknowledgement to the follower's WaitForSeq returning.
func runWrites(s *system, seed int64, seconds int) (*window, error) {
	conns := maxConns()
	n := writeRate * seconds
	t0 := time.Now()
	ws := writeMix(s.cat, n, seed, rand.New(rand.NewSource(seed)))
	w := &window{
		rate: writeRate, conns: conns, reads: infs(n), writes: infs(n), visible: infs(n),
		readShape: make([]string, n), readRows: make([]int, n), writesRun: ws, acks: make([]uint64, n),
		visibleAt: make([]time.Time, n),
	}
	w.oracle = time.Since(t0)

	cl := newClient(s.target, conns, s.tr)
	defer cl.close()
	bufs := make([]bytes.Buffer, conns)
	errsAt := make([]string, n)
	wrongAt := make([]bool, n)
	visErr := make([]bool, n)
	var vis sync.WaitGroup
	rc0, bs0 := s.follow.Reconnects(), s.follow.Bootstraps()
	debug.FreeOSMemory()
	w.p0, w.reg0 = readProc(), readRegistry()
	sampler := startRSSSampler(rssEvery)
	start := time.Now()
	w.load = openLoop(start, time.Second/writeRate, n, conns, func(c int, j job) {
		i, wr := j.i, ws[j.i]
		w.readShape[i] = shapePoint
		_, hdr, ack, err := cl.post(&bufs[c], "/mutate", []byte(wr.script), 0, int64(2*i+1), j.due, wr.kind)
		if err != nil {
			errsAt[i] = err.Error()
			return
		}
		seq, err := strconv.ParseUint(hdr.Get("X-SSD-Seq"), 10, 64)
		if err != nil {
			errsAt[i] = fmt.Sprintf("/mutate: bad X-SSD-Seq: %v", err)
			return
		}
		w.acks[i] = seq
		w.writes[i] = ms(ack.Sub(j.due))
		vis.Add(1)
		go func() {
			defer vis.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if s.follower.WaitForSeq(ctx, seq) != nil {
				visErr[i] = true
				return
			}
			w.visibleAt[i] = time.Now()
			w.visible[i] = ms(w.visibleAt[i].Sub(ack))
		}()
		body, _, end, err := cl.post(&bufs[c], "/query", wr.read.body, seq, int64(2*i+2), ack, shapePoint)
		if err != nil {
			errsAt[i] = err.Error()
			return
		}
		a, err := parseNDJSON(body)
		if err != nil {
			errsAt[i] = err.Error()
			return
		}
		w.readRows[i] = a.rows
		if err := checkWriteRead(wr, a); err != nil {
			errsAt[i] = err.Error()
			wrongAt[i] = true
			return
		}
		w.reads[i] = ms(end.Sub(ack))
	})
	vis.Wait()
	w.elapsed = time.Since(start)
	w.p1 = readProc()
	var err error
	if w.rss, err = sampler.finish(); err != nil {
		return nil, err
	}

	// The commit counter includes the follower's applies: let it catch up
	// before the registry is read.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.follower.WaitForSeq(ctx, s.leader.CommitSeq()); err != nil {
		return nil, fmt.Errorf("follower did not catch up with the leader: %w", err)
	}
	w.reg1 = readRegistry()
	w.reconnects, w.bootstrap = s.follow.Reconnects()-rc0, s.follow.Bootstraps()-bs0

	w.attempted = 2 * n
	for i := range ws {
		switch {
		case w.acks[i] == 0:
			w.fail(errsAt[i])
			w.fail("read not sent: its write failed")
		case errsAt[i] != "":
			w.fail(errsAt[i])
		}
		if wrongAt[i] {
			w.wrong++
		}
		if visErr[i] {
			w.fail(fmt.Sprintf("write %d (seq %d) never became visible on the follower", i, w.acks[i]))
		}
	}
	return w, nil
}
