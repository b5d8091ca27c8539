package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// manifestFile mirrors BENCHMARK.json.
type manifestFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// TestManifestMatches holds BENCHMARK.json equal to the tables the
// benchmark emits from.
func TestManifestMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifestFile
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Workloads, workloads) {
		t.Errorf("workloads differ:\n file %+v\n code %+v", m.Workloads, workloads)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n code %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file %+v\n code %+v", m.PerLayer, perLayer)
	}
	if m.RunSeconds != defaultConfig().seconds {
		t.Errorf("run_seconds = %d, the frozen window is %d", m.RunSeconds, defaultConfig().seconds)
	}
}

// TestSmoke runs every workload both ways at 1/100 scale with a short
// window: it must run, pass its checks, and emit exactly the metrics the
// manifest names. The suite-level check rides along: the stream merges
// the same number of duplicates through one server and through the router.
func TestSmoke(t *testing.T) {
	root := t.TempDir()
	merges := map[string]int{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := defaultConfig().scaled(100)
			cfg.seed, cfg.seconds, cfg.trace = 7, 1, traced
			rec, err := runWorkload(cfg, root, w.Name)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			for _, c := range rec.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", w.Name, traced, c.Name, c.Detail)
				}
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, manifest has %d", w.Name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", w.Name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, manifest says %q", w.Name, d.Name, m.Unit, d.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, d.Name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(rec.SpanFile); err != nil {
					t.Errorf("%s: span file: %v", w.Name, err)
				}
				bypassed(t, rec)
			} else if rec.Merges > 0 {
				merges[w.Name] = rec.Merges
			}
		}
	}
	if a, b := merges["server-ingest"], merges["router-ingest"]; a == 0 || a != b {
		t.Errorf("%d merges through one server, %d through the router; want equal and positive", a, b)
	}
}

// bypassed holds the bypass predictions: a layer a workload does not use
// reads 0 in its traced run.
func bypassed(t *testing.T, rec *record) {
	zero := func(prefixes ...string) {
		for name, m := range rec.Metrics {
			for _, p := range prefixes {
				if len(name) >= len(p) && name[:len(p)] == p && m.Value != 0 {
					t.Errorf("%s: %s = %v, want 0: the workload bypasses that layer", rec.Workload, name, m.Value)
				}
			}
		}
	}
	switch rec.Workload {
	case "embedded-read":
		zero("client.wire_us.", "server.", "shard.", "er.", "curate.")
	case "server-read":
		zero("shard.", "er.", "curate.")
	case "router-read":
		zero("er.", "curate.")
	case "server-ingest", "server-mixed":
		zero("shard.")
	}
}
