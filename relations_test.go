package scdb

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// cachedAndUncached opens the same database twice, with the result cache
// and without it, and runs setup on both.
func cachedAndUncached(t *testing.T, opts Options, setup func(*DB)) [2]*DB {
	t.Helper()
	var dbs [2]*DB
	for i, disable := range []bool{false, true} {
		o := opts
		o.DisableCache = disable
		db, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		for _, src := range LifeSciSample(1, 0, 0, 0) {
			if err := db.Ingest(src); err != nil {
				t.Fatal(err)
			}
		}
		setup(db)
		dbs[i] = db
	}
	return dbs
}

// TestAddAxiomsDropsCachedAnswers: axioms that make the population
// contexts disjoint turn the claim base into parallel worlds, so a cached
// answer from before them is stale.
func TestAddAxiomsDropsCachedAnswers(t *testing.T) {
	const q = "SELECT value, context, justification FROM claims ORDER BY value UNDER FUZZY(0.9)"
	dbs := cachedAndUncached(t, Options{Axioms: LifeSciAxioms}, func(db *DB) {
		for _, c := range ClinicalClaims() {
			if err := db.AddClaim(c); err != nil {
				t.Fatal(err)
			}
		}
		if got := rowsOf(t, db, q); len(got) != 0 {
			t.Errorf("before the population axioms: %v", got)
		}
		if err := db.AddAxioms(PopulationAxioms); err != nil {
			t.Fatal(err)
		}
	})
	cached, uncached := fmt.Sprint(rowsOf(t, dbs[0], q)), fmt.Sprint(rowsOf(t, dbs[1], q))
	if want := "[[3.4 Asian 1] [5.1 White 1] [6.1 Black 1]]"; uncached != want || cached != uncached {
		t.Errorf("after AddAxioms: cached %s, uncached %s, want %s", cached, uncached, want)
	}
}

// TestRefreshRichnessDropsCachedAnswers: richness re-weights fusion, so
// a justification cached before RefreshRichness is stale.
func TestRefreshRichnessDropsCachedAnswers(t *testing.T) {
	const q = "SELECT source, justification FROM claims WHERE attr = 'color' ORDER BY source UNDER FUZZY(0)"
	dbs := cachedAndUncached(t, Options{Axioms: LifeSciAxioms + PopulationAxioms}, func(db *DB) {
		for _, src := range []string{"drugbank", "ctd", "uniprot"} {
			value := "ivory"
			if src == "drugbank" {
				value = "white"
			}
			if err := db.AddClaim(Claim{Source: src, Entity: "Warfarin", Attr: "color", Value: value}); err != nil {
				t.Fatal(err)
			}
		}
		rowsOf(t, db, q)
		db.RefreshRichness()
	})
	cached, uncached := fmt.Sprint(rowsOf(t, dbs[0], q)), fmt.Sprint(rowsOf(t, dbs[1], q))
	if cached != uncached {
		t.Errorf("after RefreshRichness: cached %s, uncached %s", cached, uncached)
	}
	if even := "[[ctd 0.6666666666666666] [drugbank 0.3333333333333333] [uniprot 0.6666666666666666]]"; uncached == even {
		t.Errorf("RefreshRichness did not re-weight the claims: %s", uncached)
	}
}

// TestRelationsUnderConcurrentWrites runs the claim relations against
// concurrent AddClaim and Ingest (run it under -race). Their rows are built
// under the statement's read lock, so a writer never appends to the claim
// base under a reader, and a body that took the lock again would deadlock
// behind the writer queued for it: the watchdog reports that.
func TestRelationsUnderConcurrentWrites(t *testing.T) {
	db := openSample(t)
	for _, c := range ClinicalClaims() {
		if err := db.AddClaim(c); err != nil {
			t.Fatal(err)
		}
	}
	var writers, readers sync.WaitGroup
	writing := make(chan struct{})
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := 0; i < 100; i++ {
			c := Claim{Source: fmt.Sprintf("late-%d", i%3), Entity: "Warfarin", Attr: "effective_dose_mg",
				Value: 3 + float64(i%4), Context: []string{"White"}}
			if err := db.AddClaim(c); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 20; i++ {
			src := Source{Name: "late", Entities: []Entity{{Key: fmt.Sprint(i), Attrs: Record{"name": fmt.Sprintf("Latecomer %d", i)}}}}
			if err := db.Ingest(src); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-writing:
					return
				default:
				}
				// A new LIMIT each round keeps the result cache from
				// answering in the body's place.
				for _, q := range []string{
					"SELECT * FROM conflicts() LIMIT %d",
					"SELECT * FROM resolve('Warfarin', 'effective_dose_mg', 'richness') LIMIT %d",
					"SELECT * FROM justify('Warfarin', 'effective_dose_mg', 5.0, 0.5) LIMIT %d",
				} {
					if _, err := db.Query(fmt.Sprintf(q, 100+i)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	// A panic off the test goroutine ends the process at once, where
	// t.Fatal would hang in the cleanup's Close behind the deadlocked lock.
	watchdog := time.AfterFunc(time.Minute, func() { panic("statements and writers deadlocked") })
	defer watchdog.Stop()
	writers.Wait()
	close(writing)
	readers.Wait()
}
