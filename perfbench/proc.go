package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// procSample is the process-wide figures read at the edges of the timed
// window: CPU from getrusage, allocation and GC counts from the runtime.
type procSample struct {
	cpu        time.Duration // user + system
	maxRSSKB   int64
	totalAlloc uint64
	numGC      uint32
}

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p := fromRusage(&ru)
	p.totalAlloc, p.numGC = m.TotalAlloc, m.NumGC
	return p
}

// fromRusage converts getrusage's timevals and its peak RSS, which Linux
// reports in KiB.
func fromRusage(ru *syscall.Rusage) procSample {
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return procSample{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSSKB: int64(ru.Maxrss)}
}

// parseStatm reads the resident set, in bytes, from the contents of
// /proc/self/statm: its second field, in pages.
func parseStatm(data []byte, pageSize int) (int64, error) {
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %d fields", len(f))
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("statm: %w", err)
	}
	return pages * int64(pageSize), nil
}

// rssSampler samples the process's resident set every interval until
// stopped: the median of a window's samples moves far less from run to
// run than the peak, which lands wherever a GC cycle happened to peak.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
	err     error
}

func startRSSSampler(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			data, err := os.ReadFile("/proc/self/statm")
			if err == nil {
				var b int64
				if b, err = parseStatm(data, os.Getpagesize()); err == nil {
					s.samples = append(s.samples, float64(b)/(1<<20))
				}
			}
			if err != nil {
				s.err = err
				return
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples in MB.
func (s *rssSampler) finish() ([]float64, error) {
	close(s.stop)
	<-s.done
	return s.samples, s.err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if fi, err := d.Info(); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// registry is a snapshot of the process metrics registry by series name.
type registry map[string]obs.MetricSnapshot

func readRegistry() registry {
	r := registry{}
	for _, m := range obs.Default.Snapshot().Metrics {
		r[m.Name] = m
	}
	return r
}

// count returns the growth of a counter (or a histogram's observation
// count) since prev.
func (r registry) count(prev registry, name string) int64 {
	cur, old := r[name], prev[name]
	if cur.Kind == "histogram" {
		return cur.Count - old.Count
	}
	return cur.Value - old.Value
}

// meanSince returns the mean observation of a histogram since prev, and the
// number of observations it averages.
func (r registry) meanSince(prev registry, name string) (time.Duration, int64) {
	n := r[name].Count - prev[name].Count
	if n <= 0 {
		return 0, 0
	}
	sum := r[name].SumSeconds - prev[name].SumSeconds
	return time.Duration(sum / float64(n) * float64(time.Second)), n
}
