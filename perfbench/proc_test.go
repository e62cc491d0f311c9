package main

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestFromRusage(t *testing.T) {
	ru := syscall.Rusage{
		Utime:  syscall.Timeval{Sec: 1, Usec: 250000},
		Stime:  syscall.Timeval{Sec: 0, Usec: 500},
		Maxrss: 204800, // KiB on Linux
	}
	p := fromRusage(&ru)
	if want := 1250500 * time.Microsecond; p.cpu != want {
		t.Errorf("cpu = %v, want %v", p.cpu, want)
	}
	if p.maxRSSKB != 204800 {
		t.Errorf("maxRSSKB = %d", p.maxRSSKB)
	}
}

func TestParseStatm(t *testing.T) {
	got, err := parseStatm([]byte("170803 20480 4022 470 0 48612 0\n"), 4096)
	if err != nil || got != 20480*4096 {
		t.Errorf("parseStatm = %d, %v; want %d", got, err, 20480*4096)
	}
	for _, bad := range []string{"", "170803", "170803 x 1"} {
		if _, err := parseStatm([]byte(bad), 4096); err == nil {
			t.Errorf("parseStatm(%q) accepted", bad)
		}
	}
}

func TestRSSSampler(t *testing.T) {
	s := startRSSSampler(time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	samples, err := s.finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 2 || samples[0] <= 0 {
		t.Errorf("samples = %v", samples)
	}
}

func TestReadProcMoves(t *testing.T) {
	a := readProc()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	deadline := time.Now().Add(20 * time.Millisecond)
	for time.Now().Before(deadline) {
	}
	b := readProc()
	if b.totalAlloc-a.totalAlloc < 4<<20 || len(sink) != 64 {
		t.Errorf("TotalAlloc grew by %d, want at least 4 MiB", b.totalAlloc-a.totalAlloc)
	}
	if b.cpu <= a.cpu {
		t.Errorf("CPU did not advance: %v then %v", a.cpu, b.cpu)
	}
	if b.maxRSSKB <= 0 {
		t.Errorf("max RSS %d KiB", b.maxRSSKB)
	}
}

func TestRegistryDeltas(t *testing.T) {
	prev := registry{
		"c": {Name: "c", Kind: "counter", Value: 5},
		"h": {Name: "h", Kind: "histogram", Count: 2, SumSeconds: 0.002},
	}
	cur := registry{
		"c": {Name: "c", Kind: "counter", Value: 12},
		"h": {Name: "h", Kind: "histogram", Count: 6, SumSeconds: 0.010},
	}
	if got := cur.count(prev, "c"); got != 7 {
		t.Errorf("counter delta = %d", got)
	}
	if got := cur.count(prev, "h"); got != 4 {
		t.Errorf("histogram count delta = %d", got)
	}
	mean, n := cur.meanSince(prev, "h")
	if n != 4 || mean != 2*time.Millisecond {
		t.Errorf("histogram mean = %v over %d, want 2ms over 4", mean, n)
	}
	if _, n := cur.meanSince(prev, "missing"); n != 0 {
		t.Errorf("missing histogram has %d observations", n)
	}
	// The live registry carries the series the benchmark reads.
	live := readRegistry()
	for _, name := range []string{"ssd_commits_total", "ssd_http_rows_streamed_total", "ssd_commit_duration_seconds"} {
		if _, ok := live[name]; !ok {
			t.Errorf("obs.Default has no %s", name)
		}
	}
}

func TestDirBytes(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "a"), make([]byte, 100), 0o644)
	os.MkdirAll(filepath.Join(dir, "sub"), 0o755)
	os.WriteFile(filepath.Join(dir, "sub", "b"), make([]byte, 23), 0o644)
	if got := dirBytes(dir); got != 123 {
		t.Errorf("dirBytes = %d, want 123", got)
	}
}
