package main

// -compare a.json b.json: the tool for the A/A criterion and for a later
// PR's parent-against-change table. Each file holds the records of several
// runs (-out appends); per workload and metric it prints both medians, the
// relative difference, the bound, and a verdict.

import (
	"encoding/json"
	"fmt"
	"os"
)

func loadRecords(path string) ([]*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []*record
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// valuesOf collects one metric of one workload over a file's runs.
func valuesOf(recs []*record, workload string, traced bool, metric string) series {
	var s series
	for _, r := range recs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			s = append(s, m.Value)
		}
	}
	return s
}

// verdict judges b against a for one end-to-end metric: "unresolved" when
// either side's own run-to-run spread is wider than the bound (the data
// cannot tell a regression of that size from noise), "worse" when b's
// median is worse than a's by more than the bound, else "ok".
func verdict(d metricDef, a, b series) string {
	if a.spread() > d.Bound || b.spread() > d.Bound {
		return "unresolved"
	}
	ma, mb := a.median(), b.median()
	worse := mb > ma*(1+d.Bound)
	if d.Better == "higher" {
		worse = mb < ma*(1-d.Bound)
	}
	if worse {
		return "worse"
	}
	return "ok"
}

func compareFiles(pathA, pathB string) int {
	a, err := loadRecords(pathA)
	if err == nil {
		var b []*record
		if b, err = loadRecords(pathB); err == nil {
			return compareRecords(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, err)
	return 1
}

func compareRecords(a, b []*record) int {
	code := 0
	fmt.Printf("%-14s %-42s %14s %14s %8s %8s %8s %6s  %s\n", "workload", "metric", "a", "b", "diff", "spread_a", "spread_b", "bound", "verdict")
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				va, vb := valuesOf(a, w.Name, traced, d.Name), valuesOf(b, w.Name, traced, d.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				bound, v := "-", "-"
				if !traced {
					bound, v = fmt.Sprintf("%.2f", d.Bound), verdict(d, va, vb)
					if v != "ok" {
						code = 1
					}
				}
				fmt.Printf("%-14s %-42s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %6s  %s (n=%d,%d)\n", w.Name, d.Name,
					va.median(), vb.median(), 100*(ratio(vb.median(), va.median())-1), 100*va.spread(), 100*vb.spread(), bound, v, len(va), len(vb))
			}
		}
	}
	return code
}
