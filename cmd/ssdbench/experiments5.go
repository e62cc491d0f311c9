package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// E14: the statement lifecycle — prepare-once/execute-many vs one-shot.
// The claim behind the Prepare/Stmt/Rows redesign: a production workload
// runs the same query shapes with different constants at high rates, so
// amortizing lexing, parsing and planning across executions (and streaming
// rows instead of materializing env slices) must win, and parameter
// re-binding must cost nothing over re-running a constant.

func runE14Prepared(scale int) {
	entries := 2000 * scale
	g := workload.Movies(workload.DefaultMovieConfig(entries))
	reps := 200

	shapes := []struct {
		name string
		src  string
		args []core.Param
	}{
		{"fixed-path", `select T from DB.Entry.Movie.Title T`, nil},
		{"param-filter", `select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = $who`,
			[]core.Param{core.P("who", "Allen")}},
	}

	t := newTable("query", "one-shot (parse+plan each)", "prepared Stmt.Exec", "amortized speedup")
	for _, sh := range shapes {
		db := core.FromGraph(g)
		// Warm the snapshot's lazy structures so both arms plan with the
		// same inputs.
		if _, err := execQuery(db, `select T from DB.Entry.Movie.Title T`); err != nil {
			panic(err)
		}

		// One-shot: what the pre-statement facade did on every call —
		// lex, parse, plan, run.
		lit := literalize(sh.src, sh.args)
		oneShot := timeBest(3, func() {
			for i := 0; i < reps; i++ {
				q, err := query.Parse(lit)
				if err != nil {
					panic(err)
				}
				p, err := query.NewPlan(q, db.Graph(), query.PlanOptions{})
				if err != nil {
					panic(err)
				}
				if _, err := p.EvalGraph(nil); err != nil {
					panic(err)
				}
			}
		})

		s, err := db.Prepare(sh.src)
		if err != nil {
			panic(err)
		}
		prepared := timeBest(3, func() {
			for i := 0; i < reps; i++ {
				if _, err := s.Exec(context.Background(), sh.args...); err != nil {
					panic(err)
				}
			}
		})
		t.add(sh.name, perExec(oneShot, reps), perExec(prepared, reps),
			fmt.Sprintf("%.2fx", float64(oneShot)/float64(prepared)))
	}
	t.print()
	fmt.Println()

	// Streaming row access: the Rows cursor reuses one Env per row.
	db := core.FromGraph(g)
	const rowsSrc = `select T from DB.Entry.Movie M, M.Title T`
	s, err := db.Prepare(rowsSrc)
	if err != nil {
		panic(err)
	}
	var rowCount int
	stream := timeBest(3, func() {
		rows, err := s.Query(context.Background())
		if err != nil {
			panic(err)
		}
		rowCount = 0
		for rows.Next() {
			_ = rows.Env()
			rowCount++
		}
		if err := rows.Err(); err != nil {
			panic(err)
		}
		rows.Close()
	})
	t2 := newTable("rows access", "rows", "streaming Rows")
	t2.add(rowsSrc, rowCount, stream)
	t2.print()
}

// literalize substitutes the experiment's fixed argument values into the
// source text so the one-shot arm runs an equivalent constant query.
func literalize(src string, args []core.Param) string {
	for _, a := range args {
		src = strings.ReplaceAll(src, "$"+a.Name, a.Value.String())
	}
	return src
}

func perExec(d time.Duration, reps int) string {
	return fmt.Sprint(d / time.Duration(reps))
}
