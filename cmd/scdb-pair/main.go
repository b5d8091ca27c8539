// Command scdb-pair records a paired verdict between a parent commit and
// a change on the standing benchmark (benchmark/run.sh), in a
// machine-readable file any perf claim can quote.
//
// It builds each side from a directory of its own under -work: the parent
// from a local clone checked out at -parent, the change from a copy of the
// working tree (or, with -change, from a clone at that commit). Each side
// runs through its own bash benchmark/run.sh, so each keeps its own build
// cache, and runs as long as that side's benchmark says. Pair k runs
// seed -seed+k on both sides. The pairs join the series of the same
// commits, workload and trace mode in -out, whose run length is the one
// the benchmark writes into its records; a seed the series holds already
// is refused. The pair at place i of the series runs the parent first when
// i is even and the change first when i is odd, so the runs of a series go
// A B B A however many invocations add to it. Every series in -out is
// then read again over every metric BENCHMARK.json lists and judged by
// the rule verdict states.
//
// Usage, from the repository root:
//
//	scdb-pair -parent REV [-change REV] -workload W [-pairs N] [-seed S]
//	          [-trace 0|1] -work DIR -out BENCH_PR<n>.json
//
// Only the standard library and the local git are used: nothing is
// fetched.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// file is the BENCH_PR<n>.json layout.
type file struct {
	Tool      string   `json:"tool"`
	Rule      string   `json:"rule"`
	NProc     int      `json:"nproc"`
	GoVersion string   `json:"go_version"`
	Series    []series `json:"series"`
}

// series is every pair of one parent and change on one workload and trace
// mode, and the metrics read over them. Seconds is the run length the
// benchmark recorded; every run of a series has it.
type series struct {
	Parent   string    `json:"parent"`
	Change   string    `json:"change"`
	Workload string    `json:"workload"`
	Trace    bool      `json:"trace"`
	Seconds  int       `json:"seconds"`
	Seeds    []int64   `json:"seeds"`
	Pairs    []pair    `json:"pairs"`
	Metrics  []summary `json:"metrics"`
}

const rule = "better (worse): at least 10 pairs, the change reads better (worse) in at least 9 of every 10 of them, ties counting for neither, the exact two-sided sign test gives p <= 0.05, and the medians differ that way by more than the parent's interquartile range; else unresolved"

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "scdb-pair:", err)
		os.Exit(1)
	}
}

func realMain() error {
	parentRev := flag.String("parent", "", "parent commit")
	changeRev := flag.String("change", "", "change commit (default: the working tree)")
	workload := flag.String("workload", "", "benchmark workload")
	pairs := flag.Int("pairs", 10, "pairs to run")
	seed := flag.Int64("seed", 1, "seed of the first pair; pair k runs seed+k")
	trace := flag.Int("trace", 0, "1 = traced runs")
	work := flag.String("work", "", "scratch directory for the two sides and their runs")
	out := flag.String("out", "", "verdict file to add the pairs to")
	flag.Parse()
	if *parentRev == "" || *workload == "" || *work == "" || *out == "" || *pairs < 1 {
		flag.Usage()
		return errors.New("-parent, -workload, -work, -out and a positive -pairs are required")
	}
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	defs, err := metricDefs(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	parent, parentDir, err := checkout(root, *work, *parentRev)
	if err != nil {
		return err
	}
	change, changeDir := "", ""
	if *changeRev != "" {
		change, changeDir, err = checkout(root, *work, *changeRev)
	} else {
		change, changeDir, err = copyTree(root, *work)
	}
	if err != nil {
		return err
	}

	// Read the verdict file before any run, so a file that will not
	// parse costs no pairs.
	f := file{Tool: "cmd/scdb-pair", Rule: rule, NProc: runtime.NumCPU()}
	if b, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", *out, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if f.GoVersion, err = goVersion(); err != nil {
		return err
	}

	s := series{Parent: parent, Change: change, Workload: *workload, Trace: *trace != 0}
	prior := f.find(s)
	if s.Pairs, err = plan(prior, *seed, *pairs); err != nil {
		return err
	}
	if prior != nil {
		s.Seconds = prior.Seconds
	}
	for k := range s.Pairs {
		p := &s.Pairs[k]
		sides := []struct {
			dir string
			dst *run
		}{{parentDir, &p.Parent}, {changeDir, &p.Change}}
		if p.First == "change" {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, side := range sides {
			var seconds int
			if *side.dst, seconds, err = bench(side.dir, *work, s, p.Seed); err != nil {
				return err
			}
			if s.Seconds != 0 && seconds != s.Seconds {
				return fmt.Errorf("%s seed %d in %s ran %d s where the series runs %d s", s.Workload, p.Seed, side.dir, seconds, s.Seconds)
			}
			s.Seconds = seconds
		}
		fmt.Fprintf(os.Stderr, "pair %d/%d (seed %d, %s first) done\n", k+1, *pairs, p.Seed, p.First)
	}

	merged := merge(&f, s, defs)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	printSeries(os.Stdout, merged)
	return nil
}

// find returns the series of f with s's commits, workload and trace mode,
// or nil.
func (f *file) find(s series) *series {
	for i := range f.Series {
		t := &f.Series[i]
		if t.Parent == s.Parent && t.Change == s.Change && t.Workload == s.Workload && t.Trace == s.Trace {
			return t
		}
	}
	return nil
}

// plan lays out n pairs from seed on, to follow the pairs prior holds
// (prior may be nil): a seed prior holds is refused, and the pair at place
// i of the series runs the parent first when i is even.
func plan(prior *series, seed int64, n int) ([]pair, error) {
	held := 0
	if prior != nil {
		held = len(prior.Pairs)
		for _, p := range prior.Pairs {
			if p.Seed >= seed && p.Seed < seed+int64(n) {
				return nil, fmt.Errorf("the %s series holds seed %d already", prior.Workload, p.Seed)
			}
		}
	}
	ps := make([]pair, n)
	for k := range ps {
		ps[k] = pair{Seed: seed + int64(k), First: "parent"}
		if (held+k)%2 == 1 {
			ps[k].First = "change"
		}
	}
	return ps, nil
}

// merge adds s's pairs to the series of the same commits, workload and
// trace mode in f, or adds s as a new one, and reads every metric of
// every series again, so the whole file follows the rule it states.
func merge(f *file, s series, defs []metricDef) *series {
	into := f.find(s)
	if into == nil {
		f.Series = append(f.Series, series{Parent: s.Parent, Change: s.Change, Workload: s.Workload, Trace: s.Trace, Seconds: s.Seconds})
		into = &f.Series[len(f.Series)-1]
	}
	into.Pairs = append(into.Pairs, s.Pairs...)
	f.Rule = rule
	for i := range f.Series {
		t := &f.Series[i]
		t.Seeds, t.Metrics = nil, nil
		for _, p := range t.Pairs {
			t.Seeds = append(t.Seeds, p.Seed)
		}
		for _, def := range defs {
			if m, ok := summarize(def, t.Pairs); ok {
				t.Metrics = append(t.Metrics, m)
			}
		}
	}
	return into
}

// bench runs one benchmark record on the side checked out in dir and
// returns it with the run length the benchmark recorded.
func bench(dir, work string, s series, seed int64) (run, int, error) {
	trace := "0"
	if s.Trace {
		trace = "1"
	}
	recs := filepath.Join(work, "runs", fmt.Sprintf("%s-%s-t%s-s%d-%d.json", filepath.Base(dir), s.Workload, trace, seed, os.Getpid()))
	if err := os.MkdirAll(filepath.Dir(recs), 0o755); err != nil {
		return run{}, 0, err
	}
	os.Remove(recs) // a record file of an earlier, interrupted invocation
	cmd := exec.Command("bash", "benchmark/run.sh", "-workload", s.Workload, "-seed", fmt.Sprint(seed),
		"-trace", trace, "-out", recs)
	cmd.Dir = dir
	var log bytes.Buffer
	cmd.Stdout, cmd.Stderr = &log, &log
	runErr := cmd.Run()
	b, err := os.ReadFile(recs)
	if err != nil {
		return run{}, 0, fmt.Errorf("%s seed %d in %s wrote no record (%v):\n%s", s.Workload, seed, dir, runErr, log.String())
	}
	var records []struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Seconds   int  `json:"seconds"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(b, &records); err != nil || len(records) != 1 {
		return run{}, 0, fmt.Errorf("%s: want one record: %v", recs, err)
	}
	rec := records[0]
	r := run{Correct: rec.Correct && runErr == nil, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]float64{}}
	for name, m := range rec.Metrics {
		r.Metrics[name] = m.Value
	}
	return r, rec.Seconds, nil
}

// checkout makes (or reuses) a clone of the repository at rev under work
// and returns the commit and the clone's directory.
func checkout(root, work, rev string) (string, string, error) {
	commit, err := git(root, "rev-parse", "--verify", rev+"^{commit}")
	if err != nil {
		return "", "", err
	}
	dir := filepath.Join(work, "commit-"+commit[:12])
	if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
		if _, err := git("", "clone", "-q", "--no-checkout", root, dir); err != nil {
			return "", "", err
		}
	}
	if _, err := git(dir, "checkout", "-q", "--force", commit); err != nil {
		return "", "", err
	}
	return commit, dir, nil
}

// copyTree copies the working tree's files — tracked, and untracked but
// not ignored — into work/worktree, keeping the copy's build cache, and
// names the change by HEAD and a digest of what it copied.
func copyTree(root, work string) (string, string, error) {
	head, err := git(root, "rev-parse", "HEAD")
	if err != nil {
		return "", "", err
	}
	list, err := git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
	if err != nil {
		return "", "", err
	}
	dir := filepath.Join(work, "worktree")
	entries, _ := os.ReadDir(dir) // a first copy has nothing to clear
	for _, e := range entries {
		if e.Name() != ".bench_build" {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return "", "", err
			}
		}
	}
	sum := sha256.New()
	for _, name := range strings.Split(list, "\x00") {
		if name == "" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(root, name))
		if errors.Is(err, os.ErrNotExist) {
			continue // deleted in the working tree, not yet in the index
		}
		if err != nil {
			return "", "", err
		}
		fmt.Fprintf(sum, "%s\x00%d\x00", name, len(b))
		sum.Write(b)
		dst := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return "", "", err
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			return "", "", err
		}
	}
	return fmt.Sprintf("%s+worktree:%s", head, hex.EncodeToString(sum.Sum(nil))[:12]), dir, nil
}

// metricDefs reads the metrics BENCHMARK.json lists, end-to-end first.
func metricDefs(path string) ([]metricDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return append(m.EndToEnd, m.PerLayer...), nil
}

func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, stderr.String())
	}
	return strings.TrimSpace(string(out)), nil
}

// goVersion is the toolchain both sides build with.
func goVersion() (string, error) {
	out, err := exec.Command("go", "env", "GOVERSION").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOVERSION: %w", err)
	}
	return strings.TrimSpace(string(out)), nil
}

// printSeries prints one line per metric of s.
func printSeries(w io.Writer, s *series) {
	fmt.Fprintf(w, "%s trace=%v: %d pairs, parent %.12s, change %s\n", s.Workload, s.Trace, len(s.Pairs), s.Parent, s.Change)
	for _, m := range s.Metrics {
		fmt.Fprintf(w, "  %-38s %12.4g [%.4g–%.4g] -> %12.4g %+7.1f%%  %2d better %2d worse %2d tied  p=%.3f  %s\n",
			m.Name, m.ParentMedian, m.ParentQ1, m.ParentQ3, m.ChangeMedian, m.MedianChangePct,
			m.BetterPairs, m.WorsePairs, m.Ties, m.SignP, m.Verdict)
	}
}
