package core

import (
	"sync"
	"testing"

	"repro/internal/bisim"
	"repro/internal/mutate"
	"repro/internal/query"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// canonQuery runs a query and returns the canonical byte representation of
// its result value.
func canonQuery(t *testing.T, db *Database, src string) string {
	t.Helper()
	res, err := execQuery(db, src)
	if err != nil {
		t.Fatal(err)
	}
	return ssd.FormatRoot(bisim.Canonicalize(res.Graph()))
}

// TestMutationInvalidatesCaches is the stale-cache regression test: build
// every derived structure, mutate, and verify that queries, browsing
// lookups, the DataGuide, and the planner all reflect the new version.
func TestMutationInvalidatesCaches(t *testing.T) {
	db := FromGraph(workload.Fig1(false))

	const titles = `select T from DB.Entry.Movie.Title T`
	before := canonQuery(t, db, titles)
	// Force every lazy structure on the current snapshot.
	if hits := db.FindString("Casablanca"); len(hits) == 0 {
		t.Fatal("value index found nothing")
	}
	if len(db.Browse(2, 10)) == 0 {
		t.Fatal("guide found nothing")
	}
	guideBefore := db.DataGuide()

	// Mutate: attach a second movie title through the write path.
	g := db.Graph()
	entry := g.LookupFirst(g.Root(), ssd.Sym("Entry"))
	movie := g.LookupFirst(entry, ssd.Sym("Movie"))
	b := db.Begin()
	titleNode := b.AddNode()
	leaf := b.AddNode()
	if err := b.AddEdge(movie, ssd.Sym("Title"), titleNode); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(titleNode, ssd.Str("Play It Again"), leaf); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, db, b)

	// The planned query (through the incrementally maintained label index)
	// and the naive engine must both see the new edge — and agree.
	after := canonQuery(t, db, titles)
	if after == before {
		t.Fatal("query result unchanged after mutation: stale cache")
	}
	res, err := execQuery(db, titles)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := query.EvalNaive(query.MustParse(titles), db.Graph())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(FromGraph(naive)) {
		t.Fatal("planned and naive engines disagree after mutation")
	}
	// Value index: the new string is findable.
	if hits := db.FindString("Play It Again"); len(hits) != 1 {
		t.Fatalf("FindString after mutation = %v", hits)
	}
	// Old strings still findable (delta didn't clobber shared postings).
	if hits := db.FindString("Casablanca"); len(hits) == 0 {
		t.Fatal("old string lost after mutation")
	}
	// DataGuide: incrementally extended, not the stale pointer.
	if db.DataGuide() == guideBefore {
		t.Fatal("DataGuide not refreshed after mutation")
	}

	// Wholesale restructuring returns a fresh handle whose caches restart.
	db2 := execUnQL(t, db, "delete Title")
	if got := canonQuery(t, db2, titles); got != "{}" {
		t.Fatalf("`unql: delete Title` result still has titles: %s", got)
	}
	if hits := db2.FindString("Casablanca"); len(hits) != 0 {
		t.Fatalf("fresh handle served stale value index: %v", hits)
	}
	// And the receiver is untouched.
	if got := canonQuery(t, db, titles); got != after {
		t.Fatal("restructuring mutated the receiver")
	}
}

// TestCommitWALReplay is the acceptance test: batches committed to a
// durable directory — an added Year, a Relabel plus SetOID, a DeleteEdge —
// recovered by OpenPath in a fresh handle, yield a database whose graph and
// query results are byte-identical via bisim.Canonicalize: first replayed
// from the WAL, then again from a checkpointed generation.
func TestCommitWALReplay(t *testing.T) {
	dir := t.TempDir()
	queries := []string{
		`select T from DB.Entry.Movie.Title T`,
		`select {Who: D} from DB.Entry.Movie M, M.Director D`,
		`select {Who: D} from DB.Entry.Movie M, M.DirectedBy D`,
		`select X from DB._*.Year X`,
	}

	// "Process 1": seed the directory, commit batches through its WAL.
	must(t, FromGraph(workload.Fig1(false)).SavePath(dir))
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := db.Graph()
	entry := g.LookupFirst(g.Root(), ssd.Sym("Entry"))
	movie := g.LookupFirst(entry, ssd.Sym("Movie"))

	b := db.Begin()
	year := b.AddNode()
	leaf := b.AddNode()
	must(t, b.AddEdge(movie, ssd.Sym("Year"), year))
	must(t, b.AddEdge(year, ssd.Int(1942), leaf))
	mustCommit(t, db, b)

	b = db.Begin()
	must(t, b.Relabel(movie, ssd.Sym("Director"), ssd.Sym("DirectedBy")))
	must(t, b.SetOID(movie, "&m1"))
	mustCommit(t, db, b)

	b = db.Begin()
	title := db.Graph().LookupFirst(movie, ssd.Sym("Title"))
	must(t, b.DeleteEdge(movie, ssd.Sym("Title"), title))
	mustCommit(t, db, b)

	wantGraph := ssd.FormatRoot(bisim.Canonicalize(db.Graph()))
	wantQueries := make([]string, len(queries))
	for i, q := range queries {
		wantQueries[i] = canonQuery(t, db, q)
	}
	must(t, db.CloseWAL())

	reopen := func(stage string, wantReplayed int) *Database {
		t.Helper()
		db, err := OpenPath(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := db.LastRecovery().Replayed; got != wantReplayed {
			t.Fatalf("%s: replayed %d batches, want %d", stage, got, wantReplayed)
		}
		if got := ssd.FormatRoot(bisim.Canonicalize(db.Graph())); got != wantGraph {
			t.Fatalf("%s: recovered database differs:\n got %s\nwant %s", stage, got, wantGraph)
		}
		for i, q := range queries {
			if got := canonQuery(t, db, q); got != wantQueries[i] {
				t.Fatalf("%s: query %q differs:\n got %s\nwant %s", stage, q, got, wantQueries[i])
			}
		}
		if id, ok := db.Graph().OIDOf(movie); !ok || id != "&m1" {
			t.Fatalf("%s: oid lost: %q, %v", stage, id, ok)
		}
		return db
	}

	// "Process 2": the seed generation plus the whole WAL.
	db2 := reopen("replay", 3)
	// A checkpoint folds the log into a generation: the next open replays
	// nothing and must still land on the same state.
	if _, err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	must(t, db2.CloseWAL())
	must(t, reopen("checkpoint", 0).CloseWAL())
}

// TestConcurrentReadersDuringCommit drives queries, browsing lookups and
// guide reads while a writer commits batches — the snapshot-swap
// concurrency this must survive under -race (see ci.yml).
func TestConcurrentReadersDuringCommit(t *testing.T) {
	db := FromGraph(workload.Movies(workload.DefaultMovieConfig(80)))
	// Pre-build structures so commits exercise incremental maintenance.
	db.FindString("nothing")
	db.DataGuide()
	db.Browse(2, 5)

	const readers = 4
	const commits = 60
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := execQuery(db, `select T from DB.Entry.Movie.Title T`)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Stats().Nodes == 0 {
					t.Error("empty result graph")
					return
				}
				db.FindString("tag-value")
				db.Browse(2, 5)
				db.IntsGreaterThan(1 << 30)
			}
		}(r)
	}

	g := db.Graph()
	entry := g.LookupFirst(g.Root(), ssd.Sym("Entry"))
	for i := 0; i < commits; i++ {
		b := db.Begin()
		tag := b.AddNode()
		leaf := b.AddNode()
		must(t, b.AddEdge(entry, ssd.Sym("Tag"), tag))
		must(t, b.AddEdge(tag, ssd.Str("tag-value"), leaf))
		mustCommit(t, db, b)
	}
	close(stop)
	wg.Wait()

	if hits := db.FindString("tag-value"); len(hits) != commits {
		t.Fatalf("FindString = %d hits, want %d", len(hits), commits)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func mustCommit(t *testing.T, db *Database, b *mutate.Batch) {
	t.Helper()
	if _, err := db.Commit(b); err != nil {
		t.Fatal(err)
	}
}
