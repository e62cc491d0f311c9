package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ssd"
)

func TestParseNDJSON(t *testing.T) {
	good := `{"row":{"M":"2","T":"3"}}
{"row":{"T":"5","M":"4"}}
{"done":true,"rows":2}
`
	a, err := parseNDJSON([]byte(good))
	if err != nil || a.rows != 2 || a.first["T"] != "3" {
		t.Fatalf("parseNDJSON = %+v, %v", a, err)
	}
	// Row order and key order do not change the digest.
	b, err := parseNDJSON([]byte(`{"row":{"M":"4","T":"5"}}` + "\n" + `{"row":{"T":"3","M":"2"}}` + "\n" + `{"done":true,"rows":2}`))
	if err != nil || b.digest != a.digest {
		t.Errorf("reordered rows digest %x, want %x (%v)", b.digest, a.digest, err)
	}
	// A changed value does.
	c, _ := parseNDJSON([]byte(strings.Replace(good, `"5"`, `"6"`, 1)))
	if c.digest == a.digest {
		t.Error("a changed value kept the digest")
	}
	for name, body := range map[string]string{
		"no status":     `{"row":{"M":"2"}}`,
		"count differs": `{"row":{"M":"2"}}` + "\n" + `{"done":true,"rows":3}`,
		"stream error":  `{"row":{"M":"2"}}` + "\n" + `{"error":"boom","rows":1}`,
		"after status":  `{"done":true,"rows":0}` + "\n" + `{"row":{"M":"2"}}`,
		"garbage":       `{"row":`,
	} {
		if _, err := parseNDJSON([]byte(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// The oracle's direct answers and a server's NDJSON rows digest alike.
func TestDirectAnswerMatchesNDJSONRows(t *testing.T) {
	g := movieGraph(50, 3)
	db := core.FromGraph(g)
	cat := newCatalog(g)
	r := pointReq(cat.movies[7].title)
	stmt, err := db.Prepare(qPoint)
	if err != nil {
		t.Fatal(err)
	}
	a, err := directAnswer(stmt, r)
	if err != nil {
		t.Fatal(err)
	}
	if a.rows != 1 || a.first["M"] != itoa(cat.movies[7].prod) {
		t.Fatalf("point lookup of %q = %+v", cat.movies[7].title, a)
	}
	line, _ := json.Marshal(map[string]any{"row": a.first})
	b, err := parseNDJSON(append(line, []byte("\n{\"done\":true,\"rows\":1}\n")...))
	if err != nil || b.digest != a.digest {
		t.Errorf("NDJSON digest %x, direct %x (%v)", b.digest, a.digest, err)
	}
	if err := checkWriteRead(write{kind: "relabel", prod: cat.movies[7].prod}, a); err != nil {
		t.Error(err)
	}
	if err := checkWriteRead(write{kind: "relabel", prod: cat.movies[8].prod}, a); err == nil {
		t.Error("read of another movie accepted")
	}
}

func itoa(n ssd.NodeID) string { return strconv.Itoa(int(n)) }

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// The workload generators produce scripts the mutation parser accepts and
// requests whose parameters the server's literal syntax reads back.
func TestGeneratedRequestsParse(t *testing.T) {
	g := movieGraph(200, 5)
	cat := newCatalog(g)
	if len(cat.movies) == 0 || len(cat.cast) == 0 {
		t.Fatalf("catalog: %d movies, %d cast names", len(cat.movies), len(cat.cast))
	}
	for _, r := range readMix(cat, 100, newRand(5)) {
		if _, err := reqParams(r); err != nil {
			t.Fatalf("%s %s: %v", r.shape, r.param, err)
		}
	}
	db := core.FromGraph(g)
	for _, w := range writeMix(cat, 100, 5, newRand(5)) {
		if _, err := db.MutateScriptSeq(w.script); err != nil {
			t.Fatalf("%s script rejected: %v\n%s", w.kind, err, w.script)
		}
		if len(w.script) > 400 {
			t.Errorf("%s script is %d bytes", w.kind, len(w.script))
		}
	}
}

// benchMetric is one metric entry of BENCHMARK.json.
type benchMetric struct{ Name, Unit string }

func loadBenchmarkJSON(t *testing.T) (e2e, layers []benchMetric) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj.EndToEnd, bj.PerLayer
}

// report.go's gated metric lists are BENCHMARK.json's, in order.
func TestGatedMetricsMatchBenchmarkJSON(t *testing.T) {
	e2e, layers := loadBenchmarkJSON(t)
	names := func(xs []benchMetric) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return strings.Join(out, ",")
	}
	if got, want := names(e2e), strings.Join(gatedE2E, ","); got != want {
		t.Errorf("BENCHMARK.json end_to_end = %s, report.go = %s", got, want)
	}
	if got, want := names(layers), strings.Join(gatedLayers, ","); got != want {
		t.Errorf("BENCHMARK.json per_layer = %s, report.go = %s", got, want)
	}
}

// Every read whose answer differs from the oracle's is a wrong answer,
// counts as failed and enters the latency sample as infinitely slow.
func TestWrongAnswersFail(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"row":{"M":"1","T":"2"}}`+"\n"+`{"done":true,"rows":1}`+"\n")
	}))
	defer fake.Close()
	g := movieGraph(100, 9)
	s := &system{kind: "read-mix", seedGraph: g, twin: core.FromGraph(g), cat: newCatalog(g), target: fake.URL}
	w, err := runReads(s, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.attempted == 0 || w.wrong != w.attempted || w.failed != w.attempted {
		t.Errorf("attempted %d, wrong %d, failed %d: every answer was wrong", w.attempted, w.wrong, w.failed)
	}
	if p := quantile(w.reads, 0.5); !math.IsInf(p, 1) {
		t.Errorf("p50 of failed reads = %v, want +Inf", p)
	}
	r := &report{attempted: w.attempted, failed: w.failed}
	if r.correct() {
		t.Error("a run with wrong answers reported correct")
	}
}
