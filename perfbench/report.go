package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

// The metrics the last output line carries: BENCHMARK.json's end_to_end
// list for an untraced run, its per_layer list for a traced one. Both lists
// hold only metrics every workload measures; the rest are printed in the
// table above that line. read_p99_ms and max_rss_mb are printed but not
// gated: on a shared 2-vCPU machine a p99 from ~1000 samples, and a peak
// that lands wherever a GC cycle peaked, move 10-30% between runs of one
// seed. rss_p50_mb, the median of the sampled resident set, moves ~1%.
var (
	gatedE2E    = []string{"setup_s", "read_p50_ms", "cpu_ms_per_req", "rss_p50_mb"}
	gatedLayers = []string{
		"loadgen.late_p99_ms", "loadgen.oracle_s", "http.client_overhead_us",
		"server.query_us", "server.query_self_us_per_row", "core.prepare_us",
		"core.stmt_cache_hit_ratio", "core.plan_pooled_ratio", "core.query_us.point",
		"query.rows_examined_per_row.point", "query.ns_per_examined",
		"runtime.alloc_kb_per_req", "runtime.gc_cycles",
	}
)

// metric is one printed figure. Samples is how many observations it
// summarises; Base says what a ratio or mean is taken over.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
	Base    string
}

type report struct {
	o         options
	info      []string
	e2e       []metric
	layers    []metric
	overhead  []metric
	invalid   []string
	errs      []string
	attempted int
	failed    int
	wrong     int
}

func (r *report) correct() bool { return r.failed == 0 && len(r.errs) == 0 }

func (r *report) print(out io.Writer) {
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", r.o.workload, r.o.seed, r.o.seconds, r.o.trace)
	for _, l := range r.info {
		fmt.Fprintf(out, "# %s\n", l)
	}
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(out, "%-36s %14s %-6s %8s  %s\n", title, "value", "unit", "samples", "base")
		for _, m := range ms {
			v := fmt.Sprintf("%14.6g", m.Value)
			if m.Samples == 0 {
				v = fmt.Sprintf("%14s", "n/a") // the workload has no such work
			}
			fmt.Fprintf(out, "%-36s %s %-6s %8d  %s\n", m.Name, v, m.Unit, m.Samples, m.Base)
		}
	}
	section("end-to-end", r.e2e)
	section("per-layer", r.layers)
	section("tracing overhead (traced - untraced)", r.overhead)
	for _, e := range r.errs {
		fmt.Fprintf(out, "# error: %s\n", e)
	}
	for _, e := range r.invalid {
		fmt.Fprintf(out, "# invalid: %s\n", e)
	}
}

// jsonLine is the machine-readable result: the gated metrics by name.
func (r *report) jsonLine() ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	names, from := gatedE2E, r.e2e
	if r.o.trace == 1 {
		names, from = gatedLayers, r.layers
	}
	byName := map[string]metric{}
	for _, m := range from {
		byName[m.Name] = m
	}
	metrics := map[string]val{}
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		v := m.Value
		switch {
		case math.IsInf(v, 1):
			v = math.MaxFloat64 // a failed request made this percentile unbounded
		case math.IsNaN(v):
			return nil, fmt.Errorf("metric %s has no samples", n)
		}
		metrics[n] = val{v, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
}

// windowMetrics are the end-to-end figures of one timed window.
func windowMetrics(w *window) []metric {
	out := []metric{
		{"read_p50_ms", quantile(w.reads, 0.5), "ms", len(w.reads), "due time to last byte of the status line"},
		{"read_p99_ms", quantile(w.reads, 0.99), "ms", len(w.reads), "due time to last byte of the status line"},
	}
	if w.writes != nil {
		out = append(out,
			metric{"write_p50_ms", quantile(w.writes, 0.5), "ms", len(w.writes), "due time to acknowledgement, via the router"},
			metric{"write_p99_ms", quantile(w.writes, 0.99), "ms", len(w.writes), "due time to acknowledgement, via the router"},
			metric{"visible_p50_ms", quantile(w.visible, 0.5), "ms", len(w.visible), "acknowledgement to follower WaitForSeq"},
			metric{"visible_p99_ms", quantile(w.visible, 0.99), "ms", len(w.visible), "acknowledgement to follower WaitForSeq"},
		)
	}
	done := w.completed()
	return append(out,
		metric{"cpu_ms_per_req", ratio(ms(w.p1.cpu-w.p0.cpu), float64(done)), "ms", done,
			fmt.Sprintf("user+sys CPU over %.1fs / %d completed requests", w.elapsed.Seconds(), done)},
		metric{"rss_p50_mb", median(w.rss), "MB", len(w.rss),
			fmt.Sprintf("median resident set, sampled every %v in the window", rssEvery)},
	)
}

func shareLines(w *window) []string {
	count := map[string]int{}
	rows := map[string]int{}
	for i, sh := range w.readShape {
		count[sh]++
		rows[sh] += w.readRows[i]
	}
	var out []string
	for _, sh := range shapes {
		if count[sh] == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("read shape %-5s %5.1f%% of %d reads, %d rows (%.1f per read)",
			sh, 100*float64(count[sh])/float64(len(w.readShape)), len(w.readShape), rows[sh],
			float64(rows[sh])/float64(count[sh])))
	}
	return out
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// layerInputs is everything the per-layer figures are computed from.
type layerInputs struct {
	w    *window
	f    *finish
	live spanIndex
	rr   *readReplay
	cr   *commitReplay
}

func layerMetrics(in layerInputs) []metric {
	w, reg, prev := in.w, in.w.reg1, in.w.reg0
	cnt := func(name string) float64 { return float64(reg.count(prev, name)) }
	var out []metric
	add := func(name string, v float64, unit string, n int, base string) {
		out = append(out, metric{name, v, unit, n, base})
	}
	reads, done := len(w.reads), w.completed()

	// loadgen
	lateMS := make([]float64, len(w.load.late))
	backlog := 0
	for i, d := range w.load.late {
		lateMS[i] = ms(d)
		backlog = max(backlog, w.load.backlog[i])
	}
	add("loadgen.late_p99_ms", quantile(lateMS, 0.99), "ms", len(lateMS), "dispatch time minus due time")
	add("loadgen.backlog_max", float64(backlog), "count", len(lateMS), "due requests not yet picked up")
	add("loadgen.oracle_s", w.oracle.Seconds(), "s", 1, "expected answers, outside setup_s")

	// http, server, router: live spans of the traced window
	var overhead, router []float64
	for _, rt := range in.live.byName["http.roundtrip"] {
		overhead = append(overhead, us(selfTime(rt, in.live.children[rt.ID])))
	}
	for _, sp := range in.live.byName["router.handle"] {
		router = append(router, us(selfTime(sp, in.live.children[sp.ID])))
	}
	handlerUS := func(path string) []float64 {
		var xs []float64
		for _, sp := range in.live.byName["server.handle"] {
			if sp.Op == path {
				xs = append(xs, us(sp.dur()))
			}
		}
		return xs
	}
	qUS, mUS := handlerUS("/query"), handlerUS("/mutate")
	add("http.client_overhead_us", medianOf(overhead), "us", len(overhead), "median round trip minus the first handler span")
	add("server.query_us", medianOf(qUS), "us", len(qUS), "median /query handler span")
	add("server.query_self_us_per_row", ratio(in.rr.handlerSelfUS, float64(in.rr.handlerRows)), "us", int(in.rr.handlerRows),
		"sum(handler - direct prepare+query) / rows, replayed reads that did not wait for a token")
	add("server.mutate_us", medianOf(mUS), "us", len(mUS), "median /mutate handler span on the leader")
	add("server.token_waits", cnt("ssd_repl_token_waits_total"), "count", reads, "tokened reads that waited")
	add("server.token_wait_timeouts", cnt("ssd_repl_token_wait_timeouts_total"), "count", reads, "tokened reads refused 503")
	add("router.self_us", medianOf(router), "us", len(router), "median router span minus its backend span")
	add("router.failovers", cnt("ssd_router_failovers_total"), "count", reads, "queries retried on another backend")

	// core
	hits, misses := cnt("ssd_stmt_cache_hits_total"), cnt("ssd_stmt_cache_misses_total")
	pooled, built := cnt("ssd_plans_pooled_total"), cnt("ssd_plans_built_total")
	add("core.prepare_us", medianOf(in.rr.prepareUS), "us", len(in.rr.prepareUS), "median PrepareCached, replayed reads")
	add("core.stmt_cache_hit_ratio", ratio(hits, hits+misses), "1", int(hits+misses), "statement LRU lookups in the window")
	add("core.plan_pooled_ratio", ratio(pooled, pooled+built), "1", int(pooled+built), "plan checkouts in the window")
	for _, sh := range shapes {
		xs := in.rr.queryUS[sh]
		add("core.query_us."+sh, medianOf(xs), "us", len(xs), "median Stmt.Query + drain + Close, replayed "+sh+" reads")
	}
	commitMean, commits := reg.meanSince(prev, "ssd_commit_duration_seconds")
	ckptMean, ckpts := reg.meanSince(prev, "ssd_checkpoint_duration_seconds")
	add("core.commit_us", us(commitMean), "us", int(commits), "mean commit histogram: leader commits and follower applies")
	add("core.checkpoint_ms", ms(ckptMean), "ms", int(ckpts), "mean checkpoint histogram, leader and follower")
	add("core.checkpoints", float64(ckpts), "count", int(ckpts), "checkpoints in the window")
	add("core.recovery_replayed", float64(in.f.replayed), "count", len(in.f.recovery), "LastRecovery().Replayed")

	// query
	var totalNS, totalEx int64
	for _, sh := range shapes {
		rows, ex := in.rr.rows[sh], in.rr.examined[sh]
		base := "atom rows examined / result rows, replayed " + sh + " reads"
		if ex > 0 {
			totalNS += in.rr.queryNS[sh]
			totalEx += ex
		} else if rows > 0 {
			base = "this statement's trace records no atom rows"
		}
		add("query.rows_examined_per_row."+sh, ratio(float64(ex), float64(rows)), "1", int(rows), base)
	}
	add("query.ns_per_examined", ratio(float64(totalNS), float64(totalEx)), "ns", int(totalEx),
		"replayed query time / atom rows examined, shapes that record atom rows")
	queries := cnt("ssd_queries_total")
	add("query.parallel_share", ratio(cnt("ssd_parallel_queries_total"), queries), "1", int(queries), "statement executions run in parallel")
	add("query.splits", cnt("ssd_parallel_splits_total"), "count", int(queries), "parallel morsel splits")

	// mutate, index, stats, dataguide, repl: the commit-stage replay
	stage := func(name string) *stageCost {
		if in.cr == nil {
			return &stageCost{}
		}
		return in.cr.stages[name]
	}
	for _, name := range stageNames {
		c := stage(name)
		add(name+"_us", medianOf(c.us), "us", len(c.us), "median per commit, serial replay of the run's writes")
		if name != "mutate.parse" && name != "repl.apply" {
			add(name+"_kb", meanOf(c.kb), "KiB", len(c.kb), "mean allocated per commit, serial replay")
		}
	}
	if in.cr != nil {
		add("dataguide.dropped", float64(in.cr.guideDropped), "count", len(stage("dataguide.apply").us),
			"commits where incremental maintenance gave up and the guide was dropped")
	}
	appendMean, _ := reg.meanSince(prev, "ssd_wal_append_duration_seconds")
	fsyncMean, fsyncs := reg.meanSince(prev, "ssd_wal_fsync_duration_seconds")
	add("mutate.wal_append_us", us(appendMean), "us", int(cnt("ssd_wal_appends_total")), "mean WAL append histogram")
	add("mutate.wal_fsync_us", us(fsyncMean), "us", int(fsyncs), "mean WAL fsync histogram")
	add("mutate.fsyncs_per_commit", ratio(float64(fsyncs), float64(commits)), "1", int(commits), "fsyncs / commits")
	tail := 0
	if in.f.walBytesPerWrite > 0 {
		tail = recoveryTail
	}
	add("mutate.wal_bytes_per_write", in.f.walBytesPerWrite, "B", tail, "WAL growth over the recovery tail / its commits")
	add("repl.frames_applied", cnt("ssd_repl_frames_applied_total"), "count", len(w.acks), "frames the follower applied")
	add("repl.reconnects", float64(w.reconnects), "count", len(w.acks), "follower stream reconnects in the window")
	add("repl.bootstraps", float64(w.bootstrap), "count", len(w.acks), "follower re-bootstraps in the window")

	// storage
	phits, pmisses := cnt("ssd_pagepool_hits_total"), cnt("ssd_pagepool_misses_total")
	add("storage.pool_hit_ratio", ratio(phits, phits+pmisses), "1", int(phits+pmisses), "buffer pool frame lookups")
	add("storage.pool_misses_per_req", ratio(pmisses, float64(reads)), "1", reads, "pool misses / reads")
	add("storage.pool_evictions", cnt("ssd_pagepool_evictions_total"), "count", reads, "frames evicted in the window")
	add("storage.checkpoint_mb", float64(in.f.checkpointBytes)/(1<<20), "MB", one(in.f.checkpointBytes), "newest leader snapshot generation")
	add("storage.dir_mb", float64(in.f.dirBytes)/(1<<20), "MB", one(in.f.dirBytes), "durable directories at the end of the run")

	// runtime
	add("runtime.alloc_kb_per_req", ratio(float64(w.p1.totalAlloc-w.p0.totalAlloc)/1024, float64(done)), "KiB", done,
		"process allocation in the window / completed requests")
	add("runtime.gc_cycles", float64(w.p1.numGC-w.p0.numGC), "count", 1, "GC cycles in the window")
	return out
}

// one is the sample count of a single figure: 1 when the workload has it.
func one(v int64) int {
	if v == 0 {
		return 0
	}
	return 1
}

// untracedFile keeps the window metrics of the last valid untraced run of
// a workload, which a traced run subtracts from its own.
func (r *report) untracedFile() string {
	return filepath.Join(r.o.workdir, "untraced-"+r.o.workload+".json")
}

type savedWindow struct {
	Seed    int64              `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
}

func (r *report) saveUntraced(ms []metric) error {
	sw := savedWindow{Seed: r.o.seed, Metrics: map[string]float64{}}
	for _, m := range ms {
		sw.Metrics[m.Name] = m.Value
	}
	data, err := json.Marshal(sw)
	if err != nil {
		return err
	}
	return os.WriteFile(r.untracedFile(), data, 0o644)
}

// traceOverhead sets the tracing overhead, traced minus untraced, for
// every window metric, against the last untraced run of this workload in
// the same work directory. It returns a note naming that run.
func (r *report) traceOverhead(traced []metric) (string, error) {
	data, err := os.ReadFile(r.untracedFile())
	if errors.Is(err, fs.ErrNotExist) {
		return "tracing overhead: no untraced run of this workload yet; run --trace 0 first", nil
	}
	if err != nil {
		return "", err
	}
	var sw savedWindow
	if err := json.Unmarshal(data, &sw); err != nil {
		return "", fmt.Errorf("%s: %w", r.untracedFile(), err)
	}
	for _, m := range traced {
		if b, ok := sw.Metrics[m.Name]; ok {
			r.overhead = append(r.overhead, metric{m.Name, m.Value - b, m.Unit, m.Samples,
				fmt.Sprintf("traced %.4g - untraced %.4g", m.Value, b)})
		}
	}
	return fmt.Sprintf("tracing overhead: against the last untraced run, seed %d", sw.Seed), nil
}
