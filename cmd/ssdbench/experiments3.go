package main

import (
	"fmt"

	"repro/internal/bisim"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// E12: query engines — naive tree-walking evaluator vs slot-based planner
// with the pull-based iterator executor. The ablation behind the
// planner/executor refactor: same queries, same results (checked by
// bisimulation), different machinery.

func runE12Engines(scale int) {
	queries := []struct{ name, src string }{
		{"fixed path", `select T from DB.Entry.Movie.Title T`},
		{"allen (path-heavy)", `select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = "Allen"`},
		{"both casts", `select {Name: %N} from DB.Entry._.Cast.(isint|Credit.Actors|Special-Guests)? C, C.%N L where isstring(%N)`},
		{"indexable seek", `select X from DB._*.Episode X`},
		{"backward chain", `select X from DB.Entry.TV-Show.Episode X`},
	}
	t := newTable("entries", "query", "naive", "planned", "planned+index", "speedup")
	for _, entries := range []int{500 * scale, 2500 * scale} {
		g := workload.Movies(workload.DefaultMovieConfig(entries))
		ix := index.BuildLabelIndex(g)
		for _, qc := range queries {
			q := query.MustParse(qc.src)
			var naiveRes, plannedRes *ssd.Graph
			naiveTime := timeBest(3, func() {
				res, err := query.EvalNaive(q, g)
				if err != nil {
					panic(err)
				}
				naiveRes = res
			})
			plannedTime := timeBest(3, func() {
				res, err := query.EvalOpts(q, g, query.Options{})
				if err != nil {
					panic(err)
				}
				plannedRes = res
			})
			indexedTime := timeBest(3, func() {
				if _, err := query.EvalOpts(q, g, query.Options{Plan: query.PlanOptions{Label: ix}}); err != nil {
					panic(err)
				}
			})
			if !bisim.Equal(naiveRes, plannedRes) {
				panic(fmt.Sprintf("E12 mismatch on %q", qc.name))
			}
			t.add(entries, qc.name, naiveTime, plannedTime, indexedTime, ratio(naiveTime, plannedTime))
		}
	}
	t.print()
	fmt.Println("  expectation: the planner wins everywhere; index access paths")
	fmt.Println("  widen the gap on `_*.label` and rare-interior-label chains.")
}
