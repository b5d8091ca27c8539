// Command benchmark is the repository's standing benchmark: six named
// workloads over the embedded, server and router topologies, end-to-end
// metrics from an untraced run and per-layer attribution, measured from
// outside the program, from a traced one. README.md has the metric tables,
// the frozen constants and the list of non-facade symbols it depends on.
//
//	go run . -workload NAME|all -seed N [-seconds S] [-trace 0|1] [-out FILE]
//	go run . -compare a.json b.json
//	go run . -manifest > ../BENCHMARK.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 1 when a run
// fails or a correctness check does, and 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	cfg := defaultConfig()
	workload := flag.String("workload", "all", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", cfg.seconds, "length of the timed window; sizes the fixed delivery streams")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
	out := flag.String("out", "", "append each run's full record to this JSON file (the input of -compare)")
	root := flag.String("root", "", "checkout root, for scratch space under .bench_work (default: the parent of the working directory)")
	compare := flag.Bool("compare", false, "compare the two record files given as arguments")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json")
	flag.Parse()

	if *manifest {
		return printManifest(cfg)
	}
	if *root == "" {
		wd, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		*root = filepath.Dir(wd)
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "-seconds must be at least 1")
		return 2
	}
	cfg.trace = *trace != 0

	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		return 2
	}

	code := 0
	merges := map[string]int{}
	for _, name := range names {
		// all runs every workload both ways; a named workload runs the way
		// -trace says.
		modes := []bool{cfg.trace}
		if *workload == "all" {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			c := cfg
			c.trace = traced
			rec, err := runWorkload(c, *root, name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				return 1
			}
			report(rec)
			if *out != "" {
				if err := appendRecord(*out, rec); err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
			}
			if !rec.Correct {
				code = 1
			}
			if !traced && rec.Merges > 0 {
				merges[name] = rec.Merges
			}
			printResultLine(rec)
		}
	}
	if a, b := merges["server-ingest"], merges["router-ingest"]; *workload == "all" && a != b {
		fmt.Fprintf(os.Stderr, "check merge_count_equal failed: %d merges through one server, %d through the router\n", a, b)
		code = 1
	}
	return code
}

// runWorkload gives the run a scratch directory of its own inside the
// checkout and removes it afterwards.
func runWorkload(cfg config, root, name string) (*record, error) {
	cfg.workDir = filepath.Join(root, ".bench_work", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)
	switch name {
	case "embedded-read":
		return runRead(cfg, name, topoEmbedded)
	case "server-read":
		return runRead(cfg, name, topoServer)
	case "router-read":
		return runRead(cfg, name, topoRouter)
	case "server-ingest":
		return runIngest(cfg, name, topoServer)
	case "router-ingest":
		return runIngest(cfg, name, topoRouter)
	case "server-mixed":
		return runMixed(cfg, name)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// report prints a run for a person: the run record, the checks, and every
// metric with its unit and sample count.
func report(rec *record) {
	mode := "untraced"
	if rec.Trace {
		mode = "traced"
	}
	fmt.Printf("== %s (%s) seed=%d commit=%s nproc=%d gomaxprocs=%d %s loop=%q clients=%d seconds=%d\n",
		rec.Workload, mode, rec.Seed, rec.Commit, rec.NProc, rec.GOMAXPROCS, rec.GoVersion, rec.Loop, rec.Clients, rec.Seconds)
	fmt.Printf("   corpus_rows=%d deliveries=%d entities_per_delivery=%d read_rate=%g/s delivery_rate=%g/s sync=%q\n",
		rec.CorpusRows, rec.Deliveries, rec.EntitiesPerDelivery, rec.ReadRate, rec.DeliveryRate, rec.Sync)
	for _, c := range rec.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Printf("   check %s %-24s %s\n", verdict, c.Name, c.Detail)
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := rec.Metrics[d.Name]
		fmt.Printf("   %-42s %14.4f %-6s n=%d\n", d.Name, m.Value, m.Unit, m.Samples)
	}
	if len(rec.SelfTimeUS) > 0 {
		names := make([]string, 0, len(rec.SelfTimeUS))
		for n := range rec.SelfTimeUS {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("   self time by span name, us (span minus its children), spans in %s:\n", rec.SpanFile)
		for _, n := range names {
			fmt.Printf("     %-40s %14.0f\n", n, rec.SelfTimeUS[n])
		}
	}
	for _, c := range rec.Caveats {
		fmt.Printf("   caveat: %s\n", c)
	}
}

// printResultLine prints the driver's line: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
func printResultLine(rec *record) {
	type outValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	line := struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]outValue `json:"metrics"`
	}{rec.Correct, max(rec.Attempted, 1), rec.Failed, map[string]outValue{}}
	for _, d := range defs {
		m := rec.Metrics[d.Name]
		line.Metrics[d.Name] = outValue{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(b))
}

// appendRecord adds a record to the JSON array in path.
func appendRecord(path string, rec *record) error {
	var recs []*record
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &recs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	b, err := json.MarshalIndent(append(recs, rec), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printManifest prints BENCHMARK.json from the metric tables.
func printManifest(cfg config) int {
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: cfg.seconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
