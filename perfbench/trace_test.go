package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestSelfTimeOverOverlappingChildren(t *testing.T) {
	p := span{Start: 0, End: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"none", nil, 100},
		{"one inside", []span{{Start: 10, End: 30}}, 80},
		{"overlapping", []span{{Start: 10, End: 40}, {Start: 30, End: 50}}, 60},
		{"nested", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"disjoint", []span{{Start: 60, End: 70}, {Start: 10, End: 20}}, 80},
		{"sticking out", []span{{Start: -50, End: 10}, {Start: 90, End: 200}}, 80},
		{"outside", []span{{Start: 100, End: 150}, {Start: -20, End: 0}}, 100},
		{"covering", []span{{Start: -1, End: 101}, {Start: 40, End: 50}}, 0},
	} {
		if got := selfTime(p, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// The middleware files a backend's span under the router span that
// forwarded the request, not under the client's round trip.
func TestMiddlewareChainsParents(t *testing.T) {
	tr := newTracer()
	backend := httptest.NewServer(tr.middleware("server.handle", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})))
	defer backend.Close()
	router := httptest.NewServer(tr.middleware("router.handle", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequest(http.MethodPost, backend.URL+r.URL.Path, nil)
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	})))
	defer router.Close()

	req, _ := http.NewRequest(http.MethodPost, router.URL+"/query", nil)
	req.Header.Set(hdrReq, "7")
	req.Header.Set(hdrSpan, "1000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Untagged traffic (health polls, replication) records nothing.
	resp, err = http.Post(router.URL+"/healthz", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ix := indexSpans(tr.snapshot())
	rs, ss := ix.byName["router.handle"], ix.byName["server.handle"]
	if len(rs) != 1 || len(ss) != 1 {
		t.Fatalf("got %d router and %d server spans, want 1 each", len(rs), len(ss))
	}
	if rs[0].Parent != 1000 || rs[0].Req != 7 || rs[0].Op != "/query" {
		t.Errorf("router span = %+v", rs[0])
	}
	if ss[0].Parent != rs[0].ID || ss[0].Req != 7 {
		t.Errorf("server span parent %d, want router span %d", ss[0].Parent, rs[0].ID)
	}
	if d := selfTime(rs[0], ix.children[rs[0].ID]); d < 0 || d > rs[0].dur() {
		t.Errorf("router self time %v outside [0, %v]", d, rs[0].dur())
	}
	if ss[0].Start < rs[0].Start || ss[0].End > rs[0].End {
		t.Errorf("server span [%d, %d] is not inside its router span [%d, %d]", ss[0].Start, ss[0].End, rs[0].Start, rs[0].End)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	h := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	if got := tr.middleware("x", h); got == nil {
		t.Fatal("nil tracer must pass the handler through")
	}
	if id := tr.interval("x", "", 1, 0, time.Now(), time.Now()); id != 0 {
		t.Errorf("nil tracer recorded span %d", id)
	}
}
