package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ssd"
	"repro/internal/workload"
)

// The three read shapes. Their statements are fixed; only the parameter
// varies. The point lookup has no index to use today, so it scans every
// movie of the graph; the benchmark keeps that shape on purpose.
const (
	shapePoint = "point"
	shapeCast  = "cast"
	shapePath  = "path"

	qPoint = `select {Title: T} from DB.Entry.Movie M, M.Title T where T = $title`
	qCast  = `select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = $who`
	qPath  = `path: Entry.$kind.Title`
)

var shapes = []string{shapePoint, shapeCast, shapePath}

// movie is one Entry.Movie of the generated database, with the node ids a
// write script needs to edit it.
type movie struct {
	title    string
	prod     ssd.NodeID // the Movie node
	director ssd.NodeID // target of its Director edge
}

// catalog is what the request generator knows about the seed database.
type catalog struct {
	root   ssd.NodeID
	movies []movie
	cast   []string // distinct cast-member names, sorted
	nodes  int
}

// movieGraph generates the benchmark's database for seed: the movie
// generator's Figure-1 shape at entries entries.
func movieGraph(entries int, seed int64) *ssd.Graph {
	cfg := workload.DefaultMovieConfig(entries)
	cfg.Seed = seed
	return workload.Movies(cfg)
}

func newCatalog(g *ssd.Graph) catalog {
	c := catalog{root: g.Root(), nodes: g.NumNodes()}
	names := map[string]bool{}
	var collect func(n ssd.NodeID, depth int)
	collect = func(n ssd.NodeID, depth int) {
		for _, e := range g.Out(n) {
			if s, ok := e.Label.Text(); ok {
				names[s] = true
			}
			if depth < 3 {
				collect(e.To, depth+1)
			}
		}
	}
	for _, e := range g.Out(g.Root()) {
		if e.Label != ssd.Sym("Entry") {
			continue
		}
		prod := g.LookupFirst(e.To, ssd.Sym("Movie"))
		if prod == ssd.InvalidNode {
			continue
		}
		title := g.LookupFirst(prod, ssd.Sym("Title"))
		dir := g.LookupFirst(prod, ssd.Sym("Director"))
		if title == ssd.InvalidNode || dir == ssd.InvalidNode || len(g.Out(title)) != 1 {
			continue
		}
		t, ok := g.Out(title)[0].Label.Text()
		if !ok {
			continue
		}
		c.movies = append(c.movies, movie{title: t, prod: prod, director: dir})
		if cast := g.LookupFirst(prod, ssd.Sym("Cast")); cast != ssd.InvalidNode {
			collect(cast, 0)
		}
	}
	for s := range names {
		c.cast = append(c.cast, s)
	}
	sort.Strings(c.cast)
	return c
}

// readReq is one /query request of the schedule.
type readReq struct {
	shape string
	param string // the parameter's value, as the server's literal syntax reads it
	body  []byte
}

// key identifies the distinct request for the oracle.
func (r readReq) key() string { return r.shape + "\x00" + r.param }

func queryBody(src, name, literal string) []byte {
	b, _ := json.Marshal(map[string]any{"query": src, "params": map[string]string{name: literal}})
	return b
}

func pointReq(title string) readReq {
	lit := strconv.Quote(title)
	return readReq{shape: shapePoint, param: lit, body: queryBody(qPoint, "title", lit)}
}

// readMix draws n requests: ~70% point lookups of a random movie's title,
// ~20% cast filters on a random cast name, ~10% the TV-show title path.
func readMix(c catalog, n int, rng *rand.Rand) []readReq {
	out := make([]readReq, n)
	for i := range out {
		switch u := rng.Float64(); {
		case u < 0.7:
			out[i] = pointReq(c.movies[rng.Intn(len(c.movies))].title)
		case u < 0.9:
			lit := strconv.Quote(c.cast[rng.Intn(len(c.cast))])
			out[i] = readReq{shape: shapeCast, param: lit, body: queryBody(qCast, "who", lit)}
		default:
			out[i] = readReq{shape: shapePath, param: "TV-Show", body: queryBody(qPath, "kind", "TV-Show")}
		}
	}
	return out
}

// write is one /mutate script of the schedule and the read that follows
// it: a point lookup of the entry it wrote or edited.
type write struct {
	script string
	kind   string // "add", "relabel" or "delete"
	read   readReq
	prod   ssd.NodeID // the edited Movie node; InvalidNode for "add"
}

// modifyShare is the share of writes that edit an existing entry instead
// of adding one, so that removals run through index, statistics and
// DataGuide maintenance too.
const modifyShare = 0.1

// writeMix draws n writes. Most add one movie entry (~200 bytes of script);
// the rest relabel the Cast edge or delete the Director edge of a distinct
// existing movie, so no two writes touch the same entry.
func writeMix(c catalog, n int, seed int64, rng *rand.Rand) []write {
	out := make([]write, n)
	perm := rng.Perm(len(c.movies))
	for i := range out {
		if rng.Float64() < modifyShare && len(perm) > 0 {
			m := c.movies[perm[0]]
			perm = perm[1:]
			w := write{read: pointReq(m.title), prod: m.prod}
			if rng.Intn(2) == 0 {
				w.kind, w.script = "relabel", fmt.Sprintf("relabel %d Cast Credits", m.prod)
			} else {
				w.kind, w.script = "delete", fmt.Sprintf("deledge %d Director %d", m.prod, m.director)
			}
			out[i] = w
			continue
		}
		title := fmt.Sprintf("Sequel %d.%d", seed, i)
		who := strconv.Quote(c.cast[rng.Intn(len(c.cast))])
		dir := strconv.Quote(c.cast[rng.Intn(len(c.cast))])
		out[i] = write{
			kind:   "add",
			script: addScript(c.root, title, who, dir),
			read:   pointReq(title),
			prod:   ssd.InvalidNode,
		}
	}
	return out
}

// addScript adds one movie entry: Entry.Movie{Title, Cast.1, Director}.
func addScript(root ssd.NodeID, title, who, dir string) string {
	var b strings.Builder
	b.WriteString(strings.Repeat("addnode\n", 9))
	fmt.Fprintf(&b, "addedge $0 Movie $1\naddedge $1 Title $2\naddedge $2 %s $3\n", strconv.Quote(title))
	fmt.Fprintf(&b, "addedge $1 Cast $4\naddedge $4 1 $5\naddedge $5 %s $6\n", who)
	fmt.Fprintf(&b, "addedge $1 Director $7\naddedge $7 %s $8\n", dir)
	fmt.Fprintf(&b, "addedge %d Entry $0\n", root)
	return b.String()
}
