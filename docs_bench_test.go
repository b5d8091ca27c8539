package scdb

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchQuote is an EXPERIMENTS.md table row that quotes a paired verdict
// file written by cmd/scdb-pair:
//
//	| BENCH_PR56.json | d8ff1ee | server-ingest | untraced | allocs_per_op | 1,102 (1,101–1,103) | 699 | −36.6 % | 10/0/0 | better |
//
// The cells are the file, the series' parent commit (a prefix), the
// workload, the trace mode, the metric, the parent's median with its
// quartiles and the change's median (free text), the medians' change in
// percent, the pairs better/worse/tied, and the verdict.
var benchQuote = regexp.MustCompile(`^\| (BENCH_PR\d+\.json) \| ([0-9a-f]+) \| ([a-z-]+) \| (untraced|traced) \| ([a-z0-9_.]+) \|[^|]*\|[^|]*\| ([+−-]?[0-9.]+) % \| (\d+)/(\d+)/(\d+) \| ([a-z]+) \|$`)

// TestExperimentsQuoteBenchFiles: every paired verdict EXPERIMENTS.md
// quotes is in the file it names, as quoted — the medians' change to a
// tenth of a percent, the pair counts and the verdict — so a section
// cannot restate a number no run recorded.
func TestExperimentsQuoteBenchFiles(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name            string  `json:"name"`
		BetterPairs     int     `json:"better_pairs"`
		WorsePairs      int     `json:"worse_pairs"`
		Ties            int     `json:"ties"`
		MedianChangePct float64 `json:"median_change_pct"`
		Verdict         string  `json:"verdict"`
	}
	type series struct {
		Parent   string   `json:"parent"`
		Workload string   `json:"workload"`
		Trace    bool     `json:"trace"`
		Metrics  []metric `json:"metrics"`
	}
	files := map[string][]series{}
	quotes := 0
	for i, line := range strings.Split(string(doc), "\n") {
		m := benchQuote.FindStringSubmatch(line)
		if m == nil {
			if strings.HasPrefix(line, "| BENCH_PR") {
				t.Errorf("EXPERIMENTS.md:%d: a row naming a verdict file is not a quote this test can read: %s", i+1, line)
			}
			continue
		}
		quotes++
		name, parent, workload, traced, metricName := m[1], m[2], m[3], m[4] == "traced", m[5]
		if _, ok := files[name]; !ok {
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("EXPERIMENTS.md:%d quotes %s: %v", i+1, name, err)
			}
			var f struct {
				Series []series `json:"series"`
			}
			if err := json.Unmarshal(b, &f); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			files[name] = f.Series
		}
		var found *metric
		for _, s := range files[name] {
			if strings.HasPrefix(s.Parent, parent) && s.Workload == workload && s.Trace == traced {
				for j := range s.Metrics {
					if s.Metrics[j].Name == metricName {
						found = &s.Metrics[j]
					}
				}
			}
		}
		if found == nil {
			t.Errorf("EXPERIMENTS.md:%d: %s has no %s series from %s with %s", i+1, name, m[4], parent, metricName)
			continue
		}
		pct := strings.Replace(m[6], "−", "-", 1)
		got := fmt.Sprintf("%+.1f %d/%d/%d %s", found.MedianChangePct, found.BetterPairs, found.WorsePairs, found.Ties, found.Verdict)
		want := fmt.Sprintf("%s %s/%s/%s %s", pct, m[7], m[8], m[9], m[10])
		if !strings.HasPrefix(pct, "+") && !strings.HasPrefix(pct, "-") {
			want = "+" + want
		}
		if got != want {
			t.Errorf("EXPERIMENTS.md:%d quotes %s %s %s %s as %q; the file holds %q", i+1, name, workload, m[4], metricName, want, got)
		}
	}
	if quotes == 0 {
		t.Error("EXPERIMENTS.md quotes no paired verdict file")
	}
}
