package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"scdb/internal/datagen"
	"scdb/internal/model"
	"scdb/internal/storage"
	"scdb/internal/txn"
)

// version reads the answer version as a statement does, under the read
// lock.
func (db *DB) version() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.answerVersion()
}

// sensorDelivery is a delivery of n Sensors keyed from first on, each named
// by two words drawn from names.
func sensorDelivery(source string, first, n int, names []string, rng *rand.Rand) datagen.Dataset {
	ds := datagen.Dataset{Source: source}
	for i := 0; i < n; i++ {
		ds.Entities = append(ds.Entities, datagen.EntitySpec{
			Key:   fmt.Sprintf("k%04d", first+i),
			Types: []string{"Sensor"},
			Attrs: model.Record{"name": model.String(names[rng.Intn(len(names))])},
		})
	}
	return ds
}

// twoWordNames makes n names of two random seven-letter words, so two
// names share no token.
func twoWordNames(rng *rand.Rand, n int) []string {
	names := make([]string, n)
	for i := range names {
		w := make([]byte, 15)
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		w[7] = ' '
		names[i] = string(w)
	}
	return names
}

// TestEveryVisibleChangeMovesTheAnswerVersion holds the materialization
// cache's version to its contract: every change a statement can see moves
// it, and a change no statement can see leaves it where it was.
func TestEveryVisibleChangeMovesTheAnswerVersion(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Axioms: deviceAxioms, Storage: storage.Options{CheckpointBytes: -1}}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var highest uint64 // the highest version any step has read
	step := func(label string, visible bool, change func() error) {
		t.Helper()
		before := db.version()
		if err := change(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		after := db.version()
		if moved := after != before; moved != visible {
			t.Errorf("%s: version moved %v, want %v", label, moved, visible)
		}
		highest = max(highest, before, after)
	}
	query := func(q string) error { _, _, err := db.Query(q); return err }
	name := func(s string) model.Record { return model.Record{"name": model.String(s)} }
	raw, err := db.store.EnsureTable("raw")
	if err != nil {
		t.Fatal(err)
	}

	step("InsertBatch", true, func() error {
		recs := make([]model.Record, 80)
		for i := range recs {
			recs[i] = model.Record{"n": model.Int(int64(i))}
		}
		_, err := raw.InsertBatch(recs)
		return err
	})
	step("a transaction that writes", true, func() error {
		tx := db.Begin(txn.Snapshot)
		if _, err := tx.Insert("raw", model.Record{"n": model.Int(80)}); err != nil {
			return err
		}
		_, err := tx.Commit()
		return err
	})
	step("a delivery that merges a planted duplicate", true, func() error {
		before := len(db.pipeline.Resolver().Matches())
		for _, src := range []string{"a", "b"} {
			if err := db.Ingest(datagen.Dataset{Source: src, Entities: []datagen.EntitySpec{
				{Key: "s1", Types: []string{"Sensor"}, Attrs: name("quartz meridian")},
				{Key: "p1", Types: []string{"Place"}, Attrs: name("harbor " + src)},
			}, Links: []datagen.LinkSpec{{FromKey: "s1", Predicate: "observes", ToKey: "p1"}}}); err != nil {
				return err
			}
		}
		if len(db.pipeline.Resolver().Matches()) == before {
			return fmt.Errorf("the planted duplicate did not merge")
		}
		return nil
	})
	step("ADD AXIOMS of a new line", true, func() error { return query("ADD AXIOMS 'sub Sensor Instrument'") })
	step("a claim INSERT", true, func() error {
		return query("INSERT INTO claims (entity, attr, value, source) VALUES ('quartz meridian', 'range_m', 40, 'a')")
	})
	step("REFRESH RICHNESS", true, func() error { return query("REFRESH RICHNESS") })
	step("EnrichPredictedLinks", true, func() error {
		if err := db.Ingest(datagen.Dataset{Source: "c", Entities: []datagen.EntitySpec{
			{Key: "s2", Types: []string{"Sensor"}, Attrs: name("lantern obsidian")},
		}}); err != nil {
			return err
		}
		before := db.version()
		n, err := db.EnrichPredictedLinks("observes", 1, 0.5)
		if err == nil && n == 0 {
			err = fmt.Errorf("no predicted edge added")
		}
		if db.version() == before {
			t.Error("EnrichPredictedLinks alone did not move the version")
		}
		return err
	})
	step("MaterializeEntities", true, func() error {
		e, _ := db.graph.FindByKey("c", "s2")
		db.reasoner.MaterializeEntities([]model.EntityID{e.ID})
		return nil
	})
	// The rebuilt graph does not replay the predicted edge, so its counters
	// sum to less than the retiring set's; the version still only grows.
	step("RefreshDerived after EnrichPredictedLinks", true, func() error {
		above := highest
		if err := db.RefreshDerived(); err != nil {
			return err
		}
		if v := db.version(); v <= above {
			t.Errorf("RefreshDerived: version %d, not above the earlier %d", v, above)
		}
		return nil
	})

	step("an empty commit", false, func() error {
		_, err := db.Begin(txn.Snapshot).Commit()
		return err
	})
	step("a manual checkpoint", false, db.store.Checkpoint)
	step("an auto-created index", false, func() error {
		for i := 0; i < 5; i++ {
			if err := query(fmt.Sprintf("SELECT n FROM raw WHERE n = %d", i)); err != nil {
				return err
			}
		}
		for _, ix := range db.IndexStats() {
			if ix.Table == "raw" && ix.Attr == "n" && ix.Auto {
				return nil
			}
		}
		return fmt.Errorf("no index was created: %+v", db.IndexStats())
	})
	step("ADD AXIOMS of a line already stored", false, func() error { return query("ADD AXIOMS 'sub Sensor Instrument'") })

	// A follower's store moves the version where a shipped batch lands.
	ro := opts
	ro.Dir, ro.ReadOnly = "", true
	f, err := Open(ro)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pos, err := db.store.ReplStartPos()
	if err != nil {
		t.Fatal(err)
	}
	entries, _, _, err := db.store.TailWAL(pos, 1<<20)
	if err != nil || len(entries) == 0 {
		t.Fatalf("tail: %d entries, %v", len(entries), err)
	}
	before := f.version()
	if err := f.store.ApplyRepl(entries, db.store.StableCSN()); err != nil {
		t.Fatal(err)
	}
	if f.version() == before {
		t.Error("ApplyRepl: version did not move")
	}
}

// cacheReads are the statements the cache oracle repeats: a source table,
// concept scans with and without inference, ISA under semantics, LINKED, the
// claims table and worlds().
var cacheReads = []string{
	"SELECT _key, name FROM src_0 ORDER BY _key",
	"SELECT COUNT(*) AS n FROM src_1",
	"SELECT COUNT(*) AS n FROM raw",
	"SELECT _key FROM Device ORDER BY _key WITH SEMANTICS",
	"SELECT _key FROM Instrument ORDER BY _key WITH SEMANTICS",
	"SELECT COUNT(*) AS n FROM Sensor",
	"SELECT d._key FROM Device AS d WHERE ISA(d._id, 'Observer') ORDER BY d._key WITH SEMANTICS",
	"SELECT d._key, p._key FROM Device AS d JOIN Place AS p ON LINKED(d._id, p._id, 'observes') ORDER BY d._key, p._key WITH SEMANTICS",
	"SELECT attr, value, source FROM claims ORDER BY attr, value, source",
	"SELECT value, justification FROM claims WHERE attr = 'range_m' ORDER BY value, justification UNDER FUZZY(0)",
	"SELECT value, source, probability FROM worlds('%s', 'range_m') ORDER BY value, source",
}

// TestCachedAnswersMatchAnUncachedTwin feeds one seeded history to an
// engine with the materialization cache and to its twin without it:
// deliveries that re-mention names and re-deliver keys, transactions (some
// empty), claim INSERTs, ADD AXIOMS, REFRESH RICHNESS, EnrichPredictedLinks
// and RefreshDerived, whose fresh set drops the predicted edges and counts
// from its own base. After every step each read, asked twice, answers on
// the cached engine as on the twin.
func TestCachedAnswersMatchAnUncachedTwin(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { cacheOracleHistory(t, seed) })
	}
}

func cacheOracleHistory(t *testing.T, seed int64) {
	var dbs [2]*DB
	for i, disable := range []bool{false, true} {
		db, err := Open(Options{Axioms: deviceAxioms, DisableMatCache: disable})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		dbs[i] = db
	}
	cached, twin := dbs[0], dbs[1]
	rng := rand.New(rand.NewSource(seed))
	names := twoWordNames(rng, 16)
	types := [][]string{{"Sensor"}, {"Gauge"}, {"Place"}, nil}
	var claimed string // an entity name the claims are about
	hits := 0
	for step := 0; step < 40; step++ {
		var label string
		do := func(f func(db *DB) error) {
			for _, db := range dbs {
				if err := f(db); err != nil {
					t.Fatalf("step %d, %s: %v", step, label, err)
				}
			}
		}
		query := func(q string) func(*DB) error {
			return func(db *DB) error { _, _, err := db.Query(q); return err }
		}
		switch k := rng.Intn(11); {
		case k < 4:
			ds := datagen.Dataset{Source: fmt.Sprintf("src_%d", rng.Intn(2))}
			for i, n := 0, 1+rng.Intn(6); i < n; i++ {
				ds.Entities = append(ds.Entities, datagen.EntitySpec{
					Key:   fmt.Sprintf("k%02d", rng.Intn(20)),
					Types: types[rng.Intn(len(types))],
					Attrs: model.Record{"name": model.String(names[rng.Intn(len(names))])},
				})
			}
			if from, to := ds.Entities[0], ds.Entities[len(ds.Entities)-1]; from.Key != to.Key {
				ds.Links = append(ds.Links, datagen.LinkSpec{FromKey: from.Key, Predicate: "observes", ToKey: to.Key})
			}
			label = "delivery to " + ds.Source
			do(func(db *DB) error { return db.Ingest(ds) })
			if claimed == "" {
				claimed, _ = ds.Entities[0].Attrs["name"].AsString()
			}
		case k == 4:
			writes := rng.Intn(3)
			label = fmt.Sprintf("transaction of %d writes", writes)
			do(func(db *DB) error {
				if _, err := db.store.EnsureTable("raw"); err != nil {
					return err
				}
				tx := db.Begin(txn.Snapshot)
				for i := 0; i < writes; i++ {
					if _, err := tx.Insert("raw", model.Record{"n": model.Int(int64(step*10 + i))}); err != nil {
						return err
					}
				}
				_, err := tx.Commit()
				return err
			})
		case k == 5 && claimed != "":
			label = "claim INSERT"
			do(query(fmt.Sprintf("INSERT INTO claims (entity, attr, value, source) VALUES ('%s', 'range_m', %d, 'src_%d')",
				claimed, rng.Intn(3), rng.Intn(2))))
		case k == 6:
			line := laterAxioms[rng.Intn(len(laterAxioms))]
			label = "ADD AXIOMS " + line
			do(query(fmt.Sprintf("ADD AXIOMS '%s'", line)))
		case k == 7:
			label = "REFRESH RICHNESS"
			do(query("REFRESH RICHNESS"))
		case k == 8:
			label = "EnrichPredictedLinks"
			do(func(db *DB) error { _, err := db.EnrichPredictedLinks("observes", 1, 0.5); return err })
		case k == 9:
			label = "RefreshDerived"
			do(func(db *DB) error { return db.RefreshDerived() })
		default:
			label = "reads only"
		}
		for _, q := range cacheReads {
			q = strings.Replace(q, "%s", claimed, 1)
			want, _ := answer(twin, q) // a table not yet made errs on both
			for i := 0; i < 2; i++ {
				got, info := answer(cached, q)
				if got != want {
					t.Errorf("step %d, after %s: %q answers cached\n%s\nuncached\n%s", step, label, q, got, want)
				}
				if info != nil && info.CacheHit {
					hits++
				}
			}
		}
	}
	if hits == 0 {
		t.Error("no read was answered from the cache")
	}
}

// TestNoAnswerPinnedMidDelivery: two readers repeat a set of statements
// throughout each delivery of a stream of Sensors (Sensor ⊑ Device), 200
// deliveries of 50, so the cache is filled with answers over a delivery
// half landed. After each delivery every statement, possibly answered
// from the cache, answers as a fresh execution does. Run it under -race.
func TestNoAnswerPinnedMidDelivery(t *testing.T) {
	db, err := Open(Options{Axioms: deviceAxioms})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	reads := []string{
		"SELECT COUNT(*) AS n FROM stream",
		"SELECT COUNT(*) AS n FROM Sensor",
		"SELECT COUNT(*) AS n FROM Device WITH SEMANTICS",
		"SELECT COUNT(*) AS n FROM Device AS d WHERE ISA(d._id, 'Device') WITH SEMANTICS",
		"SELECT _key FROM Device ORDER BY _key DESC LIMIT 3 WITH SEMANTICS",
	}
	rng := rand.New(rand.NewSource(59))
	names := twoWordNames(rng, 400)
	const deliveries, size = 200, 50
	for d := 0; d < deliveries; d++ {
		done := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				for i := r; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					db.Query(reads[i%len(reads)]) // the stream's table is new at first
				}
			}(r)
		}
		err := db.Ingest(sensorDelivery("stream", d*size, size, names, rng))
		close(done)
		readers.Wait()
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range reads {
			got, _ := answer(db, q)
			db.opts.DisableMatCache = true
			want, _ := answer(db, q)
			db.opts.DisableMatCache = false
			if got != want {
				t.Fatalf("after delivery %d: %q answers\n%s\nfresh\n%s", d, q, got, want)
			}
		}
	}
}
