package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/mutate"
	"repro/internal/ssd"
	"repro/internal/stats"
)

// maxReplayReads bounds the read replay: every k-th read of the run, so
// that each shape appears in proportion.
const maxReplayReads = 240

// readReplay is the direct, serial re-execution of the run's reads on the
// state the run left, with spans around the core calls.
type readReplay struct {
	prepareUS []float64
	queryUS   map[string][]float64 // by shape
	queryNS   map[string]int64
	rows      map[string]int64
	examined  map[string]int64

	// Handler time minus direct core time, summed over replayed reads
	// whose live server.handle span was recorded and that did not wait for
	// a read token, and their rows.
	handlerSelfUS float64
	handlerRows   int64
}

// replayReads re-runs a sample of the window's reads directly against db:
// PrepareCached, then Stmt.Query drained with Next/Scan and closed (timed),
// then Stmt.QueryTraced for the exact count of atom rows examined.
// reqs[i] is read i of the window, ids[i] its request id and ready[i] when
// its read token became satisfiable (zero when it had none); a read whose
// handler started before then may have waited, so it is left out of the
// handler's self time.
func replayReads(db *core.Database, reqs []readReq, ids []int64, ready []time.Time, live spanIndex, tr *tracer) (*readReplay, error) {
	rp := &readReplay{queryUS: map[string][]float64{}, queryNS: map[string]int64{},
		rows: map[string]int64{}, examined: map[string]int64{}}
	handle := map[int64]span{}
	for _, sp := range live.byName["server.handle"] {
		if sp.Op == "/query" {
			handle[sp.Req] = sp
		}
	}
	stride := (len(reqs) + maxReplayReads - 1) / maxReplayReads
	ctx := context.Background()
	for i := 0; i < len(reqs); i += stride {
		r := reqs[i]
		params, err := reqParams(r)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		stmt, err := db.PrepareCached(shapeQuery(r.shape))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		a, err := directAnswer(stmt, r)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		tr.interval("core.prepare", r.shape, ids[i], 0, t0, t1)
		tr.interval("core.query", r.shape, ids[i], 0, t1, t2)

		var qt core.QueryTrace
		rows, err := stmt.QueryTraced(ctx, &qt, params...)
		if err != nil {
			return nil, err
		}
		for rows.Next() {
		}
		rows.Close()
		if err := rows.Err(); err != nil {
			return nil, err
		}
		var examined int64
		for _, at := range qt.Atoms {
			examined += at.Rows
		}

		rp.prepareUS = append(rp.prepareUS, us(t1.Sub(t0)))
		rp.queryUS[r.shape] = append(rp.queryUS[r.shape], us(t2.Sub(t1)))
		rp.queryNS[r.shape] += int64(t2.Sub(t1))
		rp.rows[r.shape] += int64(a.rows)
		rp.examined[r.shape] += examined
		h, ok := handle[ids[i]]
		if ok && a.rows > 0 && (ready[i].IsZero() || tr.at(ready[i]) <= h.Start) {
			rp.handlerSelfUS += us(h.dur() - t2.Sub(t0))
			rp.handlerRows += int64(a.rows)
		}
	}
	return rp, nil
}

// commit stages, in the order the leader's commit path runs them.
var stageNames = []string{
	"mutate.parse", "mutate.apply_cow", "index.label_apply", "index.value_apply",
	"stats.apply", "dataguide.apply", "repl.apply",
}

// stageCost is one stage's per-commit time (µs) and allocation (KiB).
type stageCost struct{ us, kb []float64 }

// commitReplay is the serial replay of the run's writes, stage by stage.
type commitReplay struct {
	stages map[string]*stageCost
	// guideDropped counts commits at which incremental DataGuide
	// maintenance gave up (the leader then drops its guide, as here).
	guideDropped int
}

// replayCommits replays the window's acknowledged writes in commit order
// against the leader's starting state, through the public function behind
// each stage of the commit path: ParseScript, ApplyCOW, LabelIndex.Apply,
// ValueIndex.Apply, Stats.Apply and Guide.ApplyDelta on the derived
// structures the leader restored from the seed snapshot, then
// ApplyReplicated on a follower copy in dir. Time and allocated bytes are
// counted per stage; the replay runs alone, outside the timed window.
func replayCommits(s *system, w *window, dir string, tr *tracer) (*commitReplay, error) {
	order := make([]int, 0, len(w.acks))
	for i, seq := range w.acks {
		if seq > 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return w.acks[order[a]] < w.acks[order[b]] })

	g := s.seedGraph
	labels := index.BuildLabelIndex(g)
	values := index.BuildValueIndex(g)
	st := stats.Build(g)
	guide := s.twin.DataGuide()
	copyDir := filepath.Join(dir, "replica-copy")
	if err := s.twin.SavePath(copyDir); err != nil {
		return nil, err
	}
	replica, err := core.OpenPath(copyDir)
	if err != nil {
		return nil, err
	}
	defer replica.CloseWAL()

	cr := &commitReplay{stages: map[string]*stageCost{}}
	for _, n := range stageNames {
		cr.stages[n] = &stageCost{}
	}
	var failed error
	stage := func(name string, req int64, f func() error) {
		if failed != nil {
			return
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		runtime.ReadMemStats(&m1)
		if err != nil {
			failed = fmt.Errorf("%s: %w", name, err)
			return
		}
		c := cr.stages[name]
		c.us = append(c.us, us(t1.Sub(t0)))
		c.kb = append(c.kb, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
		tr.interval(name, "", req, 0, t0, t1)
	}
	for _, i := range order {
		req := int64(2*i + 1)
		var (
			b   *mutate.Batch
			g2  *ssd.Graph
			res mutate.Result
		)
		stage("mutate.parse", req, func() (err error) {
			b, err = mutate.ParseScript(w.writesRun[i].script, g)
			return err
		})
		stage("mutate.apply_cow", req, func() (err error) {
			g2, res, err = mutate.ApplyCOW(g, b)
			return err
		})
		stage("index.label_apply", req, func() error { labels = labels.Apply(res.Delta); return nil })
		stage("index.value_apply", req, func() error { values = values.Apply(res.Delta); return nil })
		stage("stats.apply", req, func() error { st = st.Apply(res.Delta); return nil })
		if guide != nil && !res.RootChanged {
			stage("dataguide.apply", req, func() error {
				var ok bool
				if guide, ok = guide.ApplyDelta(g2, res.Delta, 0); !ok {
					cr.guideDropped++
				}
				return nil
			})
		}
		if failed == nil {
			frame := mutate.EncodeBatch(b)
			stage("repl.apply", req, func() error { _, err := replica.ApplyReplicated(frame); return err })
		}
		if failed != nil {
			return nil, fmt.Errorf("replaying write %d: %w", i, failed)
		}
		g = g2
	}
	return cr, nil
}
