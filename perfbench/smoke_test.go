package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A one-second run of each workload, untraced and traced: every answer is
// checked by the oracle (and, for write-replicated, the replica and
// recovery identity checks), and the traced run writes its span file and
// every gated per-layer metric. One second gives too few samples for a
// p99, so the only validity complaint allowed is about sample counts (and,
// under the race detector, the backlog).
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the serving tier")
	}
	dir := t.TempDir()
	e2eUnits, layerUnits := map[string]string{}, map[string]string{}
	e2e, layers := loadBenchmarkJSON(t)
	for _, m := range e2e {
		e2eUnits[m.Name] = m.Unit
	}
	for _, m := range layers {
		layerUnits[m.Name] = m.Unit
	}
	for _, wl := range []string{"read-mix", "read-paged", "write-replicated"} {
		for _, trace := range []int{0, 1} {
			o := options{workload: wl, seed: 4, seconds: 1, trace: trace, workdir: dir}
			r, err := execute(o)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", wl, trace, err)
			}
			if !r.correct() || r.attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d errs=%v", wl, trace, r.correct(), r.attempted, r.failed, r.errs)
			}
			for _, why := range r.invalid {
				if !strings.Contains(why, "samples") && !(raceEnabled && strings.Contains(why, "backlog")) {
					t.Errorf("%s trace=%d: invalid: %s", wl, trace, why)
				}
			}
			got := map[string]string{}
			for _, m := range append(r.e2e, r.layers...) {
				got[m.Name] = m.Unit
			}
			want := e2eUnits
			if trace == 1 {
				want = layerUnits
				if _, err := os.Stat(filepath.Join(dir, "spans-"+wl+"-seed4.json")); err != nil {
					t.Errorf("%s: span file: %v", wl, err)
				}
			}
			for name, unit := range want {
				if got[name] != unit {
					t.Errorf("%s trace=%d: %s has unit %q, BENCHMARK.json says %q", wl, trace, name, got[name], unit)
				}
			}
			if _, err := r.jsonLine(); err != nil {
				t.Errorf("%s trace=%d: %v", wl, trace, err)
			}
		}
	}
	if ents, _ := filepath.Glob(filepath.Join(dir, "run-*")); len(ents) != 0 {
		t.Errorf("run directories left behind: %v", ents)
	}
}
