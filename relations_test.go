package scdb

import (
	"fmt"
	"strings"
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

// addAxioms is the ADD AXIOMS statement telling text's axioms, a literal
// a line.
func addAxioms(text string) string {
	var lits []string
	for _, l := range strings.Split(strings.TrimSpace(text), "\n") {
		lits = append(lits, "'"+l+"'")
	}
	return "ADD AXIOMS " + strings.Join(lits, ", ")
}

// colorClaims disagree on Warfarin's color: drugbank says white, ctd and
// uniprot ivory.
const colorClaims = `INSERT INTO claims (entity, attr, value, source) VALUES
	('Warfarin', 'color', 'white', 'drugbank'), ('Warfarin', 'color', 'ivory', 'ctd'),
	('Warfarin', 'color', 'ivory', 'uniprot')`

// TestAddAxiomsDropsCachedAnswers: axioms that make the population
// contexts disjoint turn the claim base into parallel worlds, so a cached
// answer from before them is stale.
func TestAddAxiomsDropsCachedAnswers(t *testing.T) {
	const q = "SELECT value, context, justification FROM claims ORDER BY value UNDER FUZZY(0.9)"
	dbs := cachedAndUncached(t, Options{Axioms: LifeSciAxioms}, func(db *DB) {
		rowsOf(t, db, ClinicalClaims)
		if got := rowsOf(t, db, q); len(got) != 0 {
			t.Errorf("before the population axioms: %v", got)
		}
		rowsOf(t, db, addAxioms(PopulationAxioms))
	})
	cached, uncached := fmt.Sprint(rowsOf(t, dbs[0], q)), fmt.Sprint(rowsOf(t, dbs[1], q))
	if want := "[[3.4 Asian 1] [5.1 White 1] [6.1 Black 1]]"; uncached != want || cached != uncached {
		t.Errorf("after ADD AXIOMS: cached %s, uncached %s, want %s", cached, uncached, want)
	}
}

// TestRefreshRichnessDropsCachedAnswers: richness re-weights fusion, so
// a justification cached before REFRESH RICHNESS is stale.
func TestRefreshRichnessDropsCachedAnswers(t *testing.T) {
	const q = "SELECT source, justification FROM claims WHERE attr = 'color' ORDER BY source UNDER FUZZY(0)"
	dbs := cachedAndUncached(t, Options{Axioms: LifeSciAxioms + PopulationAxioms}, func(db *DB) {
		rowsOf(t, db, colorClaims)
		rowsOf(t, db, q)
		rowsOf(t, db, "REFRESH RICHNESS")
	})
	cached, uncached := fmt.Sprint(rowsOf(t, dbs[0], q)), fmt.Sprint(rowsOf(t, dbs[1], q))
	if cached != uncached {
		t.Errorf("after REFRESH RICHNESS: cached %s, uncached %s", cached, uncached)
	}
	if even := "[[ctd 0.6666666666666666] [drugbank 0.3333333333333333] [uniprot 0.6666666666666666]]"; uncached == even {
		t.Errorf("REFRESH RICHNESS did not re-weight the claims: %s", uncached)
	}
}

// TestRelationsUnderConcurrentWrites runs the claim relations and the
// engine's system relations against concurrent INSERT INTO claims and
// Ingest (run it under -race). Claim rows are built under the statement's
// read lock, so a writer never appends to the claim base under a reader,
// and a body that took the lock again would deadlock behind the writer
// queued for it: the watchdog reports that. System rows are built before
// the statement takes the lock, because their gauges take it (Stats).
func TestRelationsUnderConcurrentWrites(t *testing.T) {
	db := openSample(t)
	rowsOf(t, db, ClinicalClaims)
	var writers, readers sync.WaitGroup
	writing := make(chan struct{})
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := 0; i < 100; i++ {
			if _, err := db.Query(fmt.Sprintf("INSERT INTO claims (entity, attr, value, source, context) "+
				"VALUES ('Warfarin', 'effective_dose_mg', %d, 'late-%d', 'White')", 3+i%4, i%3)); err != nil {
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
					"SELECT * FROM worlds('Warfarin', 'effective_dose_mg') LIMIT %d",
					"SELECT * FROM sys.metrics LIMIT %d",
					"SELECT * FROM sys.tables LIMIT %d",
					"SELECT * FROM sys.columns LIMIT %d",
					"SELECT * FROM sys.indexes LIMIT %d",
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
