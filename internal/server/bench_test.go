package server_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scdb"
	"scdb/client"
	"scdb/internal/server"
)

func benchCtx(b *testing.B) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	b.Cleanup(cancel)
	return ctx
}

func nowMS() float64 { return float64(time.Now().UnixNano()) / 1e6 }

// benchIngestTotal sizes BenchmarkIngestNet: total rows per iteration,
// split across the client fleet. SCDB_INGEST_ROWS overrides the default.
func benchIngestTotal() int {
	if s := os.Getenv("SCDB_INGEST_ROWS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 20_000
}

// BenchmarkIngestNet is the E-ING networked sweep: N clients each stream
// their share of the rows through client.IngestBatch against a durable
// group-commit server. Engine-side, concurrent deliveries serialize on the
// ingest path (one curation pipeline); what the sweep measures is how much
// network decode and wire framing overlap with installs, and what the
// admission-controlled service sustains end to end.
func BenchmarkIngestNet(b *testing.B) {
	total := benchIngestTotal()
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("c%d", clients), func(b *testing.B) {
			db, err := scdb.Open(scdb.Options{
				Dir:    b.TempDir(),
				Axioms: "concept Device",
				Sync:   scdb.SyncGroup,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			srv := server.New(server.Config{Addr: "127.0.0.1:0", DB: db, MaxInFlight: -1})
			if err := srv.Start(); err != nil {
				b.Fatal(err)
			}
			defer srv.Shutdown(benchCtx(b))
			addr := srv.Addr().String()
			conns := make([]*client.Client, clients)
			for i := range conns {
				c, err := client.Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				conns[i] = c
			}

			per := total / clients
			var elapsed time.Duration
			for iter := 0; iter < b.N; iter++ {
				srcs := make([]scdb.Source, clients)
				for c := range srcs {
					src := scdb.Source{Name: fmt.Sprintf("feed-%d", c)}
					for r := 0; r < per; r++ {
						key := fmt.Sprintf("e-%d-%d-%06d", iter, c, r)
						src.Entities = append(src.Entities, scdb.Entity{
							Key:   key,
							Types: []string{"Device"},
							Attrs: scdb.Record{"name": "dev-" + key, "slot": int64(r)},
						})
					}
					srcs[c] = src
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
				start := time.Now()
				var wg sync.WaitGroup
				for c := range conns {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						if _, err := conns[c].IngestBatch(ctx, srcs[c], 1024); err != nil {
							b.Error(err)
						}
					}(c)
				}
				wg.Wait()
				elapsed += time.Since(start)
				cancel()
			}
			if b.Failed() {
				return
			}
			b.ReportMetric(float64(per*clients)*float64(b.N)/elapsed.Seconds(), "rows/s")
		})
	}
}

// benchQuery is a mid-weight statement (join + sort) that really executes
// every time: the benchmark DBs disable result materialization.
const benchQuery = "SELECT d.name, c.disease_name FROM drugbank AS d JOIN ctd AS c ON d.name = c.chemical_name ORDER BY d.name, c.disease_name"

// BenchmarkServer is the E-SRV closed-loop sweep: N clients each issue
// benchQuery back-to-back until b.N requests complete, with admission
// control on (8 slots) and off. Reported per
// configuration: ns/op (end-to-end per request), client-observed p50/p95
// latency, and how many requests were shed.
func BenchmarkServer(b *testing.B) {
	for _, admitted := range []bool{true, false} {
		for _, clients := range []int{1, 4, 16, 64} {
			mode := "admitted"
			if !admitted {
				mode = "unlimited"
			}
			b.Run(fmt.Sprintf("%s/c%d", mode, clients), func(b *testing.B) {
				opts := lifesciOptions()
				opts.DisableCache = true
				db, err := scdb.Open(opts)
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				for _, src := range scdb.LifeSciSample(1, 100, 60, 40) {
					if err := db.Ingest(src); err != nil {
						b.Fatal(err)
					}
				}
				cfg := server.Config{Addr: "127.0.0.1:0", DB: db, MaxInFlight: -1}
				if admitted {
					cfg.MaxInFlight = 8
					cfg.MaxQueue = 256
				}
				srv := server.New(cfg)
				if err := srv.Start(); err != nil {
					b.Fatal(err)
				}
				defer srv.Shutdown(benchCtx(b))
				addr := srv.Addr().String()

				conns := make([]*client.Client, clients)
				for i := range conns {
					c, err := client.Dial(addr)
					if err != nil {
						b.Fatal(err)
					}
					defer c.Close()
					conns[i] = c
					if _, err := c.Query(benchQuery); err != nil { // warm plan cache
						b.Fatal(err)
					}
				}

				var remaining atomic.Int64
				remaining.Store(int64(b.N))
				var shed atomic.Int64
				lats := make([][]float64, clients)
				var wg sync.WaitGroup
				b.ResetTimer()
				for i, c := range conns {
					wg.Add(1)
					go func(i int, c *client.Client) {
						defer wg.Done()
						for remaining.Add(-1) >= 0 {
							t0 := nowMS()
							_, err := c.Query(benchQuery)
							if err != nil {
								if errors.Is(err, client.ErrBusy) {
									shed.Add(1)
									continue
								}
								b.Error(err)
								return
							}
							lats[i] = append(lats[i], nowMS()-t0)
						}
					}(i, c)
				}
				wg.Wait()
				b.StopTimer()

				var all []float64
				for _, l := range lats {
					all = append(all, l...)
				}
				sort.Float64s(all)
				if len(all) > 0 {
					b.ReportMetric(all[len(all)/2], "p50-ms")
					b.ReportMetric(all[len(all)*95/100], "p95-ms")
				}
				b.ReportMetric(float64(shed.Load()), "shed")
			})
		}
	}
}

// BenchmarkWire measures the wire's own cost. The DB keeps result
// materialization ON, so after the warm-up request the engine replays a
// cached result and the measurement isolates what the protocol adds: frame
// encode/decode, value serialization, and connection scheduling. "point"
// returns a handful of rows (per-request overhead dominates); "scan"
// returns the whole table (bulk row encoding dominates, where columnar
// batching pays).
func BenchmarkWire(b *testing.B) {
	workloads := []struct{ name, q string }{
		{"point", "SELECT name FROM drugbank WHERE name LIKE 'W%' ORDER BY name"},
		{"scan", "SELECT * FROM drugbank ORDER BY name"},
	}
	for _, w := range workloads {
		for _, clients := range []int{1, 16} {
			b.Run(fmt.Sprintf("%s/c%d", w.name, clients), func(b *testing.B) {
				db, err := scdb.Open(lifesciOptions())
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				for _, src := range scdb.LifeSciSample(1, 100, 60, 40) {
					if err := db.Ingest(src); err != nil {
						b.Fatal(err)
					}
				}
				srv := server.New(server.Config{Addr: "127.0.0.1:0", DB: db, MaxInFlight: -1})
				if err := srv.Start(); err != nil {
					b.Fatal(err)
				}
				defer srv.Shutdown(benchCtx(b))
				addr := srv.Addr().String()

				conns := make([]*client.Client, clients)
				for i := range conns {
					c, err := client.Dial(addr)
					if err != nil {
						b.Fatal(err)
					}
					defer c.Close()
					conns[i] = c
					if _, err := c.Query(w.q); err != nil { // warm plan + result cache
						b.Fatal(err)
					}
				}

				var remaining atomic.Int64
				remaining.Store(int64(b.N))
				lats := make([][]float64, clients)
				var wg sync.WaitGroup
				b.ResetTimer()
				start := time.Now()
				for i, c := range conns {
					wg.Add(1)
					go func(i int, c *client.Client) {
						defer wg.Done()
						for remaining.Add(-1) >= 0 {
							t0 := nowMS()
							if _, err := c.Query(w.q); err != nil {
								b.Error(err)
								return
							}
							lats[i] = append(lats[i], nowMS()-t0)
						}
					}(i, c)
				}
				wg.Wait()
				elapsed := time.Since(start)
				b.StopTimer()
				if b.Failed() {
					return
				}

				var all []float64
				for _, l := range lats {
					all = append(all, l...)
				}
				sort.Float64s(all)
				if len(all) > 0 {
					b.ReportMetric(all[len(all)/2], "p50-ms")
					b.ReportMetric(all[len(all)*95/100], "p95-ms")
				}
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
			})
		}
	}
}
