// Command perfbench is the repository's serving benchmark. It starts the
// serving tier in-process on loopback listeners, drives it with a seeded
// open-loop generator, checks every answer, and prints the end-to-end
// metrics of one workload (or, with --trace 1, the per-layer metrics of a
// traced run, its span file and the tracing overhead):
//
//	bash perfbench/run.sh --workload read-mix --seed 1 --seconds 20 --trace 0
//
// Workloads: read-mix, read-paged and write-replicated; WORKLOADS.md gives
// their parameters and why each exists. The last line of standard output
// is one JSON object with the gated metrics. The exit code is 0 for a valid
// run with every answer correct, 1 when a request failed or an answer was
// wrong, 2 when the benchmark could not run, and 3 when a validity guard
// marked the run invalid.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	workdir  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "read-mix, read-paged or write-replicated")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated database and of the request schedule")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for databases and span files")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	r, err := execute(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	r.print(os.Stdout)
	if len(r.invalid) > 0 {
		os.Exit(3)
	}
	line, err := r.jsonLine()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !r.correct() {
		os.Exit(1)
	}
}

// execute runs one workload: repeated builds of the system (setup_s is
// their median), a timed window on the last one, the workload's end-of-run
// checks and, when traced, the replays behind the per-layer metrics.
func execute(o options) (*report, error) {
	switch o.workload {
	case "read-mix", "read-paged", "write-replicated":
	default:
		return nil, fmt.Errorf("unknown workload %q (want read-mix, read-paged or write-replicated)", o.workload)
	}
	root, err := filepath.Abs(filepath.Join(o.workdir, fmt.Sprintf("run-%s-%d-%d", o.workload, o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	r := &report{o: o}
	var (
		setupS []float64
		spent  time.Duration
		sys    *system
	)
	for k := 0; ; k++ {
		runtime.GC()
		var tr *tracer
		if o.trace == 1 {
			tr = newTracer()
		}
		s, d, err := setUp(o.workload, o.seed, filepath.Join(root, fmt.Sprint(k)), tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, d.Seconds())
		spent += d
		if n := k + 1; n >= maxSetups || (n >= minSetups && spent >= setupBudget) {
			sys = s
			break
		}
		s.stop()
		s.remove()
	}
	defer sys.remove()
	defer sys.stop()

	w, err := runWindow(sys, o)
	if err != nil {
		return nil, err
	}
	r.noteFailures(w)
	r.attempted, r.failed, r.wrong = w.attempted, w.failed, w.wrong
	r.info = append(r.info, dataLines(sys, w)...)
	r.info = append(r.info, shareLines(w)...)

	var live spanIndex
	var rr *readReplay
	if o.trace == 1 {
		live = indexSpans(sys.tr.snapshot())
		reqs, ids, ready := w.readRequests()
		if rr, err = replayReads(sys.served, reqs, ids, ready, live, sys.tr); err != nil {
			return nil, fmt.Errorf("read replay: %w", err)
		}
	}

	f := &finish{}
	if sys.kind == "write-replicated" {
		fin, err := finishWrites(sys, o.seed)
		if err != nil {
			return nil, err
		}
		f = &fin
		r.errs = append(r.errs, f.errs...)
		r.attempted += f.checks
		r.failed += len(f.errs)
	} else {
		f.dirBytes = dirBytes(sys.root)
		sys.stop()
	}

	r.e2e = append(r.e2e, metric{"setup_s", median(setupS), "s", len(setupS), "median of the run's set-ups"})
	r.e2e = append(r.e2e, windowMetrics(w)...)
	if sys.kind == "write-replicated" {
		r.e2e = append(r.e2e, metric{"recovery_s", median(f.recovery), "s", len(f.recovery),
			fmt.Sprintf("median core.OpenPath with %d commits past the newest checkpoint", recoveryTail)})
	}
	r.e2e = append(r.e2e,
		metric{"max_rss_mb", float64(w.p1.maxRSSKB) / 1024, "MB", 1, "peak resident set size of the process up to the end of the window"},
		metric{"failed_ratio", ratio(float64(r.failed), float64(r.attempted)), "1", r.attempted,
			fmt.Sprintf("%d failed (%d wrong answers) / %d attempted", r.failed, r.wrong, r.attempted)},
	)
	r.invalid = validity(sys, w)
	if o.trace == 0 && len(r.invalid) == 0 && r.correct() {
		if err := r.saveUntraced(windowMetrics(w)); err != nil {
			return nil, err
		}
	}

	if o.trace == 1 {
		var cr *commitReplay
		if sys.kind == "write-replicated" {
			if cr, err = replayCommits(sys, w, root, sys.tr); err != nil {
				return nil, fmt.Errorf("commit replay: %w", err)
			}
		}
		r.layers = layerMetrics(layerInputs{w: w, f: f, live: live, rr: rr, cr: cr})
		note, err := r.traceOverhead(windowMetrics(w))
		if err != nil {
			return nil, err
		}
		r.info = append(r.info, note)
		spans := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := sys.tr.writeFile(spans); err != nil {
			return nil, err
		}
		r.info = append(r.info, "span file: "+spans)
	}
	return r, nil
}

func runWindow(s *system, o options) (*window, error) {
	if s.kind == "write-replicated" {
		return runWrites(s, o.seed, o.seconds)
	}
	return runReads(s, o.seed, o.seconds)
}

// readRequests returns the window's reads, the request ids they were sent
// with and, for tokened reads, when the follower reached the token (the
// zero time for untokened reads).
func (w *window) readRequests() ([]readReq, []int64, []time.Time) {
	if w.writesRun != nil {
		reqs := make([]readReq, len(w.writesRun))
		ids := make([]int64, len(w.writesRun))
		for i, wr := range w.writesRun {
			reqs[i], ids[i] = wr.read, int64(2*i+2)
		}
		return reqs, ids, w.visibleAt
	}
	ids := make([]int64, len(w.readReqs))
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	return w.readReqs, ids, make([]time.Time, len(ids))
}

func (r *report) noteFailures(w *window) {
	for _, e := range w.errs {
		r.errs = append(r.errs, e)
	}
	if w.failed > 0 && len(w.errs) == 0 {
		r.errs = append(r.errs, fmt.Sprintf("%d requests failed", w.failed))
	}
}

func dataLines(s *system, w *window) []string {
	out := []string{
		fmt.Sprintf("data: %d entries (%d movies), %d nodes, seed graph from workload.Movies", entries, len(s.cat.movies), s.cat.nodes),
		fmt.Sprintf("load: open loop, %d ops/s offered for %.1fs, %d connections, window %.2fs",
			w.rate, float64(len(w.reads))/float64(w.rate), w.conns, w.elapsed.Seconds()),
	}
	switch s.kind {
	case "read-paged":
		out = append(out, fmt.Sprintf("paged: page image %d bytes, pool %d bytes (1/%.1f)",
			s.imageBytes, poolBytes, float64(s.imageBytes)/poolBytes))
	case "write-replicated":
		out = append(out, fmt.Sprintf("durability: fsync on every commit; server checkpoints at WAL >= %d bytes; recovery tail %d commits",
			ckptMaxWAL, recoveryTail))
	}
	return out
}

// validity lists the reasons the run's numbers cannot be trusted: the
// generator kept falling behind, a percentile lacks samples, the follower
// reconnected, or a process counter disagrees with the benchmark's own
// count.
func validity(s *system, w *window) []string {
	var bad []string
	late := make([]float64, len(w.load.late))
	backlog := make([]float64, len(w.load.backlog))
	for i, d := range w.load.late {
		late[i], backlog[i] = ms(d), float64(w.load.backlog[i])
	}
	if grew(late, maxLateGrowthMS) {
		bad = append(bad, fmt.Sprintf("generator lateness grew by more than %dms over the window", maxLateGrowthMS))
	}
	if grew(backlog, float64(w.conns)) {
		bad = append(bad, "generator backlog grew over the window")
	}
	for _, m := range windowMetrics(w) {
		if strings.HasSuffix(m.Name, "_p99_ms") && !supports(m.Samples, 0.99) {
			bad = append(bad, fmt.Sprintf("%s from %d samples; a p99 needs %d", m.Name, m.Samples, minTailSamples*100))
		}
	}
	rows := int64(0)
	for _, n := range w.readRows {
		rows += int64(n)
	}
	if got := w.reg1.count(w.reg0, "ssd_http_rows_streamed_total"); got != rows {
		bad = append(bad, fmt.Sprintf("ssd_http_rows_streamed_total grew by %d, the client received %d rows", got, rows))
	}
	if s.kind == "write-replicated" {
		if w.reconnects > 0 || w.bootstrap > 0 {
			bad = append(bad, fmt.Sprintf("follower reconnected %d times and re-bootstrapped %d times", w.reconnects, w.bootstrap))
		}
		acked := int64(0)
		for _, a := range w.acks {
			if a > 0 {
				acked++
			}
		}
		applied := w.reg1.count(w.reg0, "ssd_repl_frames_applied_total")
		if got := w.reg1.count(w.reg0, "ssd_commits_total"); got != acked+applied {
			bad = append(bad, fmt.Sprintf("ssd_commits_total grew by %d, acknowledged writes + follower applies = %d + %d", got, acked, applied))
		}
		if applied != acked {
			bad = append(bad, fmt.Sprintf("follower applied %d frames for %d acknowledged writes", applied, acked))
		}
	}
	return bad
}

// maxLateGrowthMS is how much later, on average, the generator may hand out
// the last quarter of its requests than the first before the run counts as
// invalid.
const maxLateGrowthMS = 10
