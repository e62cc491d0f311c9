package core

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/ssd"
	"repro/internal/unql"
	"repro/internal/workload"
)

func fig1DB(t *testing.T) *Database {
	t.Helper()
	return FromGraph(workload.Fig1(false))
}

func TestParseTextAndFormat(t *testing.T) {
	db, err := ParseText(`{a: 1, b: "x"}`)
	if err != nil {
		t.Fatal(err)
	}
	if db.Format() == "" {
		t.Error("empty format")
	}
	if _, err := ParseText(`{broken`); err == nil {
		t.Error("bad text should error")
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	db := fig1DB(t)
	path := filepath.Join(t.TempDir(), "fig1.ssdg")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Equal(back) {
		t.Error("save/open changed the value")
	}
}

func TestQueryEndToEnd(t *testing.T) {
	db := fig1DB(t)
	res, err := execQuery(db, `
		select {Title: T}
		from DB.Entry.Movie M, M.Title T, M.Cast._* A
		where A = "Allen"`)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ParseText(`{Title: {"Play it again, Sam"}}`)
	if !res.Equal(want) {
		t.Errorf("got %s", res.Format())
	}
	if _, err := db.Prepare(`select`); err == nil {
		t.Error("bad query should error")
	}
}

func TestPathQueryAndIndexedAgree(t *testing.T) {
	db := FromGraph(workload.Movies(workload.DefaultMovieConfig(100)))
	for _, src := range []string{
		"Entry.Movie.Title._",
		`_*."Bogart"`,
		"Entry._.Cast.(isint|Credit.Actors)._",
	} {
		direct := pathIDs(t, db, src)
		indexed, err := db.PathQueryIndexed(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(direct) != len(indexed) {
			t.Errorf("%s: direct %d, indexed %d", src, len(direct), len(indexed))
		}
	}
	if _, err := db.Prepare("path: (("); err == nil {
		t.Error("bad path should error")
	}
}

func TestDatalogEndToEnd(t *testing.T) {
	db := fig1DB(t)
	res, err := datalogTuples(db, `
		reach(X) :- root(X).
		reach(Y) :- reach(X), edge(X, _, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := db.Graph().Accessible()
	if len(res["reach"]) != acc.NumNodes() {
		t.Errorf("reach = %d, want %d", len(res["reach"]), acc.NumNodes())
	}
	if _, err := db.Prepare(`datalog: broken`); err == nil {
		t.Error("bad program should error")
	}
}

func TestBrowsingQueries(t *testing.T) {
	db := fig1DB(t)
	// The three §1.3 bullets.
	if hits := db.FindString("Casablanca"); len(hits) != 1 {
		t.Errorf("FindString = %d hits", len(hits))
	}
	if hits := db.IntsGreaterThan(65536); len(hits) != 1 { // Episode
		t.Errorf("IntsGreaterThan = %d hits", len(hits))
	}
	attrs := db.AttrsLike("Cast%")
	if len(attrs) != 1 || attrs[0] != ssd.Sym("Cast") {
		t.Errorf("AttrsLike = %v", attrs)
	}
	paths := db.Browse(2, 50)
	if len(paths) == 0 {
		t.Error("Browse returned nothing")
	}
}

func TestSchemaFlow(t *testing.T) {
	db := fig1DB(t)
	s := db.InferSchema()
	if !db.Conforms(s) {
		t.Error("database must conform to inferred schema")
	}
	other := schema.MustParse(`{Nope: {}}`)
	if db.Conforms(other) {
		t.Error("must not conform to unrelated schema")
	}
}

func TestRestructuringFlow(t *testing.T) {
	bad := FromGraph(workload.Fig1(true))
	good := fig1DB(t)
	fixed := execUnQL(t, bad, `relabel "Bacal" to "Bacall"`)
	if !fixed.Equal(good) {
		t.Error("Bacall fix failed")
	}
	noRefs := execUnQL(t, good, "delete References")
	refs := pathIDs(t, noRefs, "_*.References")
	if len(refs) != 0 {
		t.Error("References survived deletion")
	}
	collapsed := execUnQL(t, good, "collapse Credit")
	hits := pathIDs(t, collapsed, "Entry.Movie.Cast.Actors")
	if len(hits) != 1 {
		t.Errorf("collapsed Actors hits = %d, want 1", len(hits))
	}
}

func TestRelationalExchange(t *testing.T) {
	rdb := workload.Relational(20, 5, 3)
	db := ImportRelational(rdb)
	back, err := db.ExportRelational()
	if err != nil {
		t.Fatal(err)
	}
	if back["movies"].Len() != 20 || back["directors"].Len() != 5 {
		t.Errorf("exchange sizes: %d movies, %d directors", back["movies"].Len(), back["directors"].Len())
	}
	// Non-relational data does not export.
	if _, err := fig1DB(t).ExportRelational(); err == nil {
		t.Error("figure 1 is not relational; export must fail")
	}
}

func TestMinimizeAndEqual(t *testing.T) {
	db, _ := ParseText(`{a: {v: 1}, b: {v: 1}}`)
	m := db.Minimize()
	if !db.Equal(m) {
		t.Error("minimize changed value")
	}
	if m.Stats().Nodes >= db.Stats().Nodes {
		t.Error("minimize should shrink duplicated structure")
	}
}

func TestDescribe(t *testing.T) {
	if fig1DB(t).Describe() == "" {
		t.Error("empty describe")
	}
}

func TestTransformCustom(t *testing.T) {
	db := fig1DB(t)
	// Rename all Title edges to TITLE via a raw structural-recursion
	// rewriter over the snapshot's graph.
	out := FromGraph(unql.GExt(db.Graph(), func(l ssd.Label, _, _ ssd.NodeID, _ *ssd.Graph) unql.Action {
		if s, ok := l.Symbol(); ok && s == "Title" {
			return unql.RelabelTo(ssd.Sym("TITLE"))
		}
		return unql.Keep(l)
	}))
	hits := pathIDs(t, out, "_*.TITLE")
	if len(hits) != 3 {
		t.Errorf("TITLE edges = %d, want 3", len(hits))
	}
	gone := pathIDs(t, out, "_*.Title")
	if len(gone) != 0 {
		t.Error("Title edges survived")
	}
}

func TestOEMExchange(t *testing.T) {
	db := fig1DB(t)
	text := db.FormatOEM()
	back, err := ParseOEM(text)
	if err != nil {
		t.Fatal(err)
	}
	// Symbol-path behaviour survives (under the synthetic root label).
	orig := pathIDs(t, db, "Entry.Movie.Title")
	via := pathIDs(t, back, "root.Entry.Movie.Title")
	if len(orig) != len(via) {
		t.Errorf("OEM round trip: %d vs %d title nodes", len(orig), len(via))
	}
	if _, err := ParseOEM("not oem"); err == nil {
		t.Error("bad OEM should error")
	}
}

func TestConcurrentQueries(t *testing.T) {
	// Queries must be safe to run concurrently on one Database handle: the
	// lazy label-index/guide builds, the graph's lazy reverse adjacency
	// (index-backward access), and per-plan automata are all exercised.
	db := FromGraph(workload.Movies(workload.DefaultMovieConfig(50)))
	queries := []string{
		`select T from DB.Entry.Movie.Title T`,
		`select X from DB.Entry.TV-Show.Episode X`, // index-backward eligible
		`select X from DB._*.Episode X`,            // index-seek eligible
		`select @P from DB.@P X where pathlen(@P) = 3`,
		`select {Title: T} from DB.Entry.Movie M, M.Title T where exists M.Cast`,
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, src := range queries {
				if _, err := execQuery(db, src); err != nil {
					t.Errorf("query %q: %v", src, err)
				}
			}
		}()
	}
	wg.Wait()
}
