package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Headers the traced run's client sends so the handler middleware can file
// its span under the request that caused it. The router copies request
// headers onto its backend requests, so the middleware around the router
// rewrites the span header to name itself as the backend span's parent.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// span is one timed interval of the traced run. Start and End are
// nanoseconds since the tracer's epoch; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, which is the untraced run.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// record stores a finished span and returns its id. Callers that need the
// id before the span ends (to hand it to children) allocate it with newID
// and pass it in sp.ID.
func (t *tracer) record(sp span) int64 {
	if t == nil {
		return 0
	}
	if sp.ID == 0 {
		sp.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp.ID
}

// interval records a span from start to end.
func (t *tracer) interval(name, op string, req, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	return t.record(span{Parent: parent, Req: req, Name: name, Op: op, Start: t.at(start), End: t.at(end)})
}

// middleware wraps a handler with a span named name for every request that
// carries the benchmark's request header. Requests without it (replication
// streams, health polls) pass through untimed.
func (t *tracer) middleware(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		if req == 0 {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		id := t.newID()
		r.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(span{ID: id, Parent: parent, Req: req, Name: name, Op: r.URL.Path, Start: t.at(start), End: t.at(time.Now())})
	})
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every span as one JSON document.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(struct {
		Epoch string `json:"epoch"`
		Spans []span `json:"spans"`
	}{t.epoch.Format(time.RFC3339Nano), t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTime is p's duration minus the part of it that the union of the
// children's intervals covers. Children may overlap each other and may
// stick out of p; only their overlap with p counts.
func selfTime(p span, children []span) time.Duration {
	type iv struct{ s, e int64 }
	var ivs []iv
	for _, c := range children {
		s, e := max(c.Start, p.Start), min(c.End, p.End)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var covered, curS, curE int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curS, curE, open = v.s, v.e, true
		case v.s <= curE:
			curE = max(curE, v.e)
		default:
			covered += curE - curS
			curS, curE = v.s, v.e
		}
	}
	if open {
		covered += curE - curS
	}
	return p.dur() - time.Duration(covered)
}

// spanIndex groups spans for the per-layer figures.
type spanIndex struct {
	byName   map[string][]span
	children map[int64][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}
