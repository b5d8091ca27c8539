package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"scdb/internal/datagen"
	"scdb/internal/storage"
)

// ingestCorpus is the delivery sequence the ingest differentials replay:
// the Figure-2 life-science sources at bulk size, then a stream of
// single-entity deliveries with cross-platform duplicates to keep
// incremental ER busy.
func ingestCorpus() []datagen.Dataset {
	dss := datagen.LifeSci(1, 40, 30, 20)
	return append(dss, datagen.Stream(7, 60)...)
}

// corpusFingerprint renders every engineCorpus answer plus the engine
// counters into one comparable string. CacheHitRate is excluded: it
// depends on query traffic, not ingested state.
func corpusFingerprint(t *testing.T, db *DB) string {
	t.Helper()
	var b strings.Builder
	for _, src := range engineCorpus {
		res, _, err := db.Query(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		b.WriteString(src)
		b.WriteString("\n")
		b.WriteString(renderRows(res))
	}
	st := db.Stats()
	st.CacheHitRate = 0
	fmt.Fprintf(&b, "stats %d %d %d %d %d %d %d %d %d\n",
		st.Tables, st.Entities, st.Edges, st.Concepts,
		st.InferredTypes, st.Witnesses, st.Inconsistencies, st.Merges, st.Claims)
	return b.String()
}

// ingestWith opens an engine with the tweaked options, replays the corpus,
// and returns the engine (cleanup registered).
func ingestWith(t *testing.T, tweak func(*Options)) *DB {
	t.Helper()
	opts := lifesciOptions("")
	opts.DisableMatCache = true
	if tweak != nil {
		tweak(&opts)
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, ds := range ingestCorpus() {
		if err := db.Ingest(ds); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestIngestStateEquivalence is the parallel-vs-serial differential: the
// relate stage's scoring fan-out and every sync policy must converge to
// byte-identical query answers and engine counters against a one-worker
// pass, including after a durable close/reopen (batch-frame recovery plus
// curation rebuild over batched meta rows). The chunk-size variants live
// in curate, where the chunk size is in reach.
func TestIngestStateEquivalence(t *testing.T) {
	baseline := ingestWith(t, func(o *Options) { o.Parallelism = 1 })
	want := corpusFingerprint(t, baseline)

	variants := []struct {
		name  string
		tweak func(*Options)
	}{
		{"batched-default", nil},
		{"parallel-8", func(o *Options) { o.Parallelism = 8 }},
		{"durable-sync-group", func(o *Options) { o.Dir = t.TempDir(); o.Storage.Sync = storage.SyncGroup }},
		{"durable-sync-none-parallel-4", func(o *Options) {
			o.Dir = t.TempDir()
			o.Parallelism = 4
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			var opts Options
			db := ingestWith(t, func(o *Options) {
				if v.tweak != nil {
					v.tweak(o)
				}
				opts = *o
			})
			if got := corpusFingerprint(t, db); got != want {
				t.Fatalf("state diverged from serial baseline\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
			if opts.Dir == "" {
				return
			}
			// Durable: recovery must reproduce the same state.
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { re.Close() })
			reWant := want
			// Recovery re-registers no datasets: the Datasets/Records counters
			// live in the pipeline, which rebuilds relation state only. Compare
			// query answers plus graph-derived stats, which statsLine carries.
			if got := corpusFingerprint(t, re); got != reWant {
				t.Fatalf("recovered state diverged\n--- got ---\n%s\n--- want ---\n%s", got, reWant)
			}
		})
	}
}

// TestConcurrentIngestQueryVacuum drives ingest, queries, and vacuum at
// the same time (run under -race): queries must never fail mid-curation,
// vacuum must interleave with both without db.mu, and the final state must
// match a serially built reference because the single ingester fixes the
// delivery order.
func TestConcurrentIngestQueryVacuum(t *testing.T) {
	opts := lifesciOptions("")
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	base := datagen.LifeSci(1, 10, 8, 6)
	for _, ds := range base {
		if err := db.Ingest(ds); err != nil {
			t.Fatal(err)
		}
	}
	stream := datagen.Stream(3, 150)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, ds := range stream {
			if err := db.Ingest(ds); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	queries := []string{
		"SELECT name FROM drugbank WHERE name LIKE 'W%' ORDER BY name",
		"SELECT COUNT(*) AS n FROM uniprot",
		"SELECT _key FROM Drug ORDER BY _key LIMIT 4",
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, q := range queries {
					if _, _, err := db.Query(q); err != nil {
						t.Errorf("query %q during ingest: %v", q, err)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				db.Vacuum()
				return
			default:
			}
			db.Vacuum()
			time.Sleep(200 * time.Microsecond)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	ref, err := Open(lifesciOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	for _, ds := range append(append([]datagen.Dataset{}, base...), stream...) {
		if err := ref.Ingest(ds); err != nil {
			t.Fatal(err)
		}
	}
	got := corpusFingerprint(t, db)
	want := corpusFingerprint(t, ref)
	if got != want {
		t.Fatalf("concurrent ingest diverged from serial reference\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
