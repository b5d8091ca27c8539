package scdb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// durableOptions are the sample's options over a fresh directory whose
// every commit is on disk when it returns, so a copy of it is a crash
// image.
func durableOptions(t *testing.T) Options {
	return Options{
		Dir:       t.TempDir(),
		Sync:      SyncGroup,
		Axioms:    LifeSciAxioms + PopulationAxioms,
		LinkRules: LifeSciLinkRules(),
		Patterns:  LifeSciPatterns(),
	}
}

// openAt opens opts with dir as its directory and closes it with the test.
func openAt(t *testing.T, opts Options, dir string) *DB {
	t.Helper()
	opts.Dir = dir
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// crashImage copies a live store's directory: what a crash at this moment
// leaves on disk.
func crashImage(t *testing.T, dir string) string {
	t.Helper()
	image := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return image
}

// answer renders a statement's rows, or its error.
func answer(db *DB, q string) string {
	rows, err := db.Query(q)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(rows.Columns, rows.Data)
}

// TestAxiomsSurviveACrashImage: an axiom is in the log once ADD AXIOMS
// answers. Axioms told at runtime used to be written only by Close, so a
// crash lost them, checkpoint or not.
func TestAxiomsSurviveACrashImage(t *testing.T) {
	const q = "SELECT COUNT(*) AS n FROM ProbeThing WITH SEMANTICS"
	for _, checkpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpoint), func(t *testing.T) {
			opts := durableOptions(t)
			db := openAt(t, opts, opts.Dir)
			for _, src := range LifeSciSample(1, 100, 60, 40) {
				if err := db.Ingest(src); err != nil {
					t.Fatal(err)
				}
			}
			rowsOf(t, db, "ADD AXIOMS 'concept ProbeThing', 'sub Drug ProbeThing'")
			if checkpoint {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			want := answer(db, q)
			if got := answer(openAt(t, opts, crashImage(t, opts.Dir)), q); got != want {
				t.Errorf("crash image answers %s, the live store %s", got, want)
			}
		})
	}
}

// TestRichnessSurvivesReopen: the weights REFRESH RICHNESS applies are
// rows, so a reopened store fuses as the live one did. They used to live
// in memory only, and a reopen fused unweighted.
func TestRichnessSurvivesReopen(t *testing.T) {
	const q = "SELECT source, justification FROM claims WHERE attr = 'color' ORDER BY source UNDER FUZZY(0)"
	opts := durableOptions(t)
	db := openAt(t, opts, opts.Dir)
	for _, src := range LifeSciSample(1, 100, 60, 40) {
		if err := db.Ingest(src); err != nil {
			t.Fatal(err)
		}
	}
	rowsOf(t, db, colorClaims)
	rowsOf(t, db, "REFRESH RICHNESS")
	justifications := func(db *DB) string {
		var s string
		for _, r := range rowsOf(t, db, q) {
			s += fmt.Sprintf("%s %.3f ", r[0], r[1])
		}
		return s
	}
	live := justifications(db)
	if want := "ctd 0.627 drugbank 0.373 uniprot 0.627 "; live != want {
		t.Fatalf("live justifications %s, want %s", live, want)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if reopened := justifications(openAt(t, opts, opts.Dir)); reopened != live {
		t.Errorf("reopened justifications %s, live %s", reopened, live)
	}
}

// TestCheckpointAppendsNoFrame: a manual checkpoint is the store's own,
// the one the background checkpointer runs. It used to rewrite the
// catalog's schema rows first, appending frames on an idle store.
func TestCheckpointAppendsNoFrame(t *testing.T) {
	opts := durableOptions(t)
	db := openAt(t, opts, opts.Dir)
	for _, src := range LifeSciSample(1, 0, 0, 0) {
		if err := db.Ingest(src); err != nil {
			t.Fatal(err)
		}
	}
	before := db.WALStats()
	for i := 0; i < 2; i++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	after := db.WALStats()
	if after.Frames != before.Frames {
		t.Errorf("two checkpoints of an idle store appended %d frames", after.Frames-before.Frames)
	}
	if after.Checkpoints != before.Checkpoints+2 {
		t.Errorf("checkpoints %d → %d, want two more", before.Checkpoints, after.Checkpoints)
	}
}

// crashQueries read what the curation statements tell: the claims, the
// richness measurements, the weighted fusion and a concept the axioms
// build; and the schema every table's rows give.
var crashQueries = []string{
	"SELECT entity, attr, value, source, context, confidence, justification FROM claims",
	"SELECT * FROM richness() ORDER BY source",
	"SELECT value, support FROM resolve('Warfarin', 'effective_dose_mg', 'richness')",
	"SELECT _key FROM Probe ORDER BY _key WITH SEMANTICS",
	`SELECT "table", name, filled, kinds FROM sys.columns ORDER BY "table", name`,
}

// crashHistory is a seeded history: the sample's sources and the clinical
// trial tables, each ingested once, with claims, axioms, richness
// refreshes and a checkpoint shuffled in after the first delivery.
func crashHistory(rng *rand.Rand) []func(*DB) error {
	var told []func(*DB) error
	query := func(q string) func(*DB) error {
		return func(db *DB) error { _, err := db.Query(q); return err }
	}
	// Claims come from ingested sources, so the richness weights move the
	// fusion.
	sources := []string{"drugbank", "ctd", "uniprot", "trials-us", "trials-asia", "trials-africa"}
	for i := 0; i < 3; i++ {
		told = append(told, query(fmt.Sprintf(
			"INSERT INTO claims (entity, attr, value, source, context, confidence) VALUES ('Warfarin', 'effective_dose_mg', %.1f, '%s', '%s', 0.%d)",
			3+4*rng.Float64(), sources[rng.Intn(len(sources))], []string{"White", "Asian", "Black"}[rng.Intn(3)], 5+rng.Intn(5))))
	}
	for _, c := range []string{"Drug", "Gene"} {
		told = append(told, query("ADD AXIOMS 'sub "+c+" Probe'"))
	}
	told = append(told, query("REFRESH RICHNESS"), query("REFRESH RICHNESS"), (*DB).Checkpoint)
	rng.Shuffle(len(told), func(i, j int) { told[i], told[j] = told[j], told[i] })

	var ingests []func(*DB) error
	for _, src := range append(LifeSciSample(rng.Int63(), 20, 12, 8), ClinicalTrialSources(rng.Int63(), 5)...) {
		ingests = append(ingests, func(db *DB) error { return db.Ingest(src) })
	}
	history := ingests[:1:1]
	for _, op := range append(ingests[1:], told...) {
		history = slices.Insert(history, 1+rng.Intn(len(history)), op)
	}
	return history
}

// TestCrashImageDifferential: at random points of a seeded history of
// ingests and curation statements, a copy of the directory reopens to
// the answers the live store gave at that point.
func TestCrashImageDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := durableOptions(t)
		db := openAt(t, opts, opts.Dir)
		history := crashHistory(rng)
		cuts := map[int]bool{rng.Intn(len(history)): true, rng.Intn(len(history)): true, len(history) - 1: true}
		for i, op := range history {
			if err := op(db); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
			if !cuts[i] {
				continue
			}
			image := openAt(t, opts, crashImage(t, opts.Dir))
			for _, q := range crashQueries {
				if want, got := answer(db, q), answer(image, q); got != want {
					t.Errorf("seed %d after step %d: %s\ncrash image: %s\nlive:        %s", seed, i, q, got, want)
				}
			}
		}
	}
}

// TestCommittedTransactionDropsCachedAnswers: an answer the
// materialization cache holds does not outlive a committed transaction
// that changes what it read. The same statement text answered the row
// count from before the commit until the next delivery, because the
// commit path dropped nothing.
func TestCommittedTransactionDropsCachedAnswers(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Ingest(Source{Name: "s", Entities: []Entity{{Key: "a", Attrs: Record{"x": int64(1)}}}}); err != nil {
		t.Fatal(err)
	}
	count := func() any {
		t.Helper()
		rows, err := db.Query("SELECT COUNT(*) AS n FROM s")
		if err != nil {
			t.Fatal(err)
		}
		return rows.Data[0][0]
	}
	if n := count(); n != int64(1) {
		t.Fatalf("before the transaction: %v rows, want 1", n)
	}
	if n := count(); n != int64(1) {
		t.Fatalf("the repeat: %v rows, want 1", n)
	}
	tx := db.Begin(Snapshot)
	if _, err := tx.Insert("s", Record{"x": int64(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != int64(2) {
		t.Errorf("after a committed insert the same statement answers %v rows, want 2", n)
	}
	// A transaction that writes nothing leaves the cache as it was.
	count()
	if _, err := db.Begin(Snapshot).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, info, err := db.QueryInfo("SELECT COUNT(*) AS n FROM s"); err != nil || !info.CacheHit {
		t.Errorf("after an empty commit: cache hit %v (%v), want a hit", info != nil && info.CacheHit, err)
	}
}
