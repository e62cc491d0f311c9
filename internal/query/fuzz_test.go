package query

import (
	"testing"

	"repro/internal/workload"
)

// FuzzParse: for any input the query parser returns a query or an error,
// never panics, and a query it accepts plans against the Figure 1 graph
// without panicking (the planner may still reject it). Seeds are the engine
// cross-check corpus plus malformed queries from the parser tests.
func FuzzParse(f *testing.F) {
	for _, c := range engineCases {
		f.Add(c.query)
	}
	for _, src := range []string{
		`select X from`,
		`select X from DB.a X, DB.b X`,
		`select {%Q: X} from DB.a X`,
		`select X from DB.(a X`,
		`select X from DB.a X where isint()`,
		`select X from DB.Entry.$kind X where X = $v`,
	} {
		f.Add(src)
	}
	g := workload.Fig1(false)
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		_ = q.String()
		NewPlan(q, g, PlanOptions{})
	})
}
