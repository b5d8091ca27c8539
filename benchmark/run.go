package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config holds the sizes of one run. defaultConfig has the frozen values;
// scaled shrinks them for the smoke test.
type config struct {
	seed    int64
	seconds int
	trace   bool
	workDir string // scratch space inside the checkout

	corpusRows int // rows of table "items"
	setups     int // how often a run sets up; setup_s is the median

	// warm-up ends when the set of secondary indexes has not changed for
	// warmStable, or after warmCap.
	warmStable, warmCap time.Duration

	// The ingest stream is a fixed number of deliveries per second of
	// window, so that --seconds sizes it and the count is the same on every
	// commit: the run takes as long as the program needs.
	deliveriesPerSecond int
	entitiesPerDelivery int

	// The open loop's frozen rates. The reads are a seventh of what the seed
	// sustains beside the writer: one every 2 ms, above the timers' grain.
	mixedReadRate       float64 // reads/s
	mixedDeliveryRate   float64 // deliveries/s
	mixedEntitiesPerDel int

	traceSample int // one op in traceSample is traced in a traced run
}

func defaultConfig() config {
	return config{
		seconds:             8,
		corpusRows:          20000,
		setups:              3,
		warmStable:          500 * time.Millisecond,
		warmCap:             5 * time.Second,
		deliveriesPerSecond: 22,
		entitiesPerDelivery: 200,
		mixedReadRate:       500,
		mixedDeliveryRate:   20,
		mixedEntitiesPerDel: 10,
		traceSample:         20,
	}
}

// scaled shrinks the corpus and the deliveries by div, down to the least
// that still has a 100-row range in a tenth of the corpus, and sets up
// once.
func (c config) scaled(div int) config {
	c.corpusRows = max(c.corpusRows/div, 20*rangeRows)
	c.entitiesPerDelivery = max(c.entitiesPerDelivery/div, 10)
	c.setups = 1
	c.warmStable, c.warmCap = 100*time.Millisecond, time.Second
	return c
}

const (
	readDeadline     = 5 * time.Second
	deliveryDeadline = 60 * time.Second
	readClients      = 2
	// minSamples is the least a window must complete; a run with fewer
	// fails its samples check.
	minSamples = 20
)

// metricValue is one reported number with its unit and how many samples
// stand behind it.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// checkResult is one correctness check.
type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// record is everything one run reports; -out appends it to a file and
// -compare reads such files back.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Loop       string `json:"loop"`
	Clients    int    `json:"clients"`
	Seconds    int    `json:"seconds"`
	Sync       string `json:"sync"`

	CorpusRows          int     `json:"corpus_rows"`
	Deliveries          int     `json:"deliveries"`
	EntitiesPerDelivery int     `json:"entities_per_delivery"`
	ReadRate            float64 `json:"read_rate_per_s,omitempty"`
	DeliveryRate        float64 `json:"delivery_rate_per_s,omitempty"`

	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Checks    []checkResult          `json:"checks"`
	Metrics   map[string]metricValue `json:"metrics"`
	Caveats   []string               `json:"caveats,omitempty"`
	SpanFile  string                 `json:"span_file,omitempty"`
	// SelfTimeUS sums, per span name, span time not covered by children.
	SelfTimeUS map[string]float64 `json:"self_time_us,omitempty"`
	// Merges is the stream's merge count, which the suite requires to be
	// the same through one server and through the router.
	Merges int     `json:"merges,omitempty"`
	Claim  *string `json:"claim"` // always null: the benchmark claims no gain
}

func newRecord(cfg config, workload, loop string, clients int) *record {
	return &record{
		Workload:   workload,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		Commit:     commitOf(cfg.workDir),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Loop:       loop,
		Clients:    clients,
		Seconds:    cfg.seconds,
		Sync:       "group (server-hosted stores); embedded engine in memory",
		Metrics:    map[string]metricValue{},
		Correct:    true,
	}
}

func (r *record) set(name, unit string, v float64, samples int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit, Samples: samples}
}

// endToEnd reports the gated metrics of an untraced run. A run that
// completed fewer than minSamples ops measured nothing and fails.
func (r *record) endToEnd(setupS float64, setups int, liveMB float64, mallocs uint64) {
	done := r.Attempted - r.Failed
	r.check("samples", done >= minSamples, "%d ops completed in the window", done)
	r.set("setup_s", "s", setupS, setups)
	r.set("live_heap_mb", "MB", liveMB, 1)
	r.set("allocs_per_op", "count", ratio(float64(mallocs), float64(done)), done)
}

func (r *record) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, checkResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.Correct = false
	}
}

// commitOf reads the checked-out commit from .git by hand: the driver's
// checkout is not a repository, and the benchmark starts no process.
func commitOf(workDir string) string {
	root := filepath.Dir(filepath.Dir(workDir)) // <root>/.bench_work/run-N
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", ref))
		if err != nil {
			return "unknown"
		}
		h = strings.TrimSpace(string(b))
	}
	return h
}

// heapProbe brackets a measured window: mallocs before, and after it the
// mallocs delta and the heap in use once a collection has run.
type heapProbe struct{ mallocs uint64 }

func startHeapProbe() heapProbe {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heapProbe{mallocs: m.Mallocs}
}

func (h heapProbe) stop() (mallocs uint64, liveMB float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	mallocs = m.Mallocs - h.mallocs
	runtime.GC()
	runtime.ReadMemStats(&m)
	return mallocs, float64(m.HeapInuse) / (1 << 20)
}

// medianSetup runs setup n times, closing all but the last topology, and
// returns the last one with the median set-up time.
func medianSetup(n int, setup func(i int) (*topology, error)) (*topology, float64, error) {
	var times series
	var last *topology
	for i := 0; i < n; i++ {
		if last != nil {
			if err := last.close(); err != nil {
				return nil, 0, fmt.Errorf("close set-up %d: %w", i-1, err)
			}
		}
		start := time.Now()
		t, err := setup(i)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, time.Since(start).Seconds())
		last = t
	}
	return last, times.median(), nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
