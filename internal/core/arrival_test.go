package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scdb/internal/datagen"
	"scdb/internal/graph"
	"scdb/internal/model"
	"scdb/internal/storage"
)

// TestOldStoreAnswersIdentically: testdata/oldstore is a durable store
// written by the code as of commit 2f5c776, before an arriving entity's
// attribute map and normalized strings were shared across the layers and
// before a batch's records were encoded into one buffer. It holds
// LifeSci(1, 12, 10, 8), Stream(5, 30) and a re-delivered "patch" source,
// ingested in batches of 7 under SyncGroup; oldstore.answers is what that
// code answered after reopening it, but for the graph-predicate statements
// the corpus gained when they moved onto concept scans, whose answers were
// added by the next code that answered them all. The on-disk format and
// every curation decision replayed from it must not have moved.
func TestOldStoreAnswersIdentically(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "oldstore")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "oldstore.answers"))
	if err != nil {
		t.Fatal(err)
	}
	opts := lifesciOptions(dir)
	opts.DisableMatCache = true
	opts.Storage.Sync = storage.SyncGroup
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := corpusFingerprint(t, db); got != string(want) {
		t.Fatalf("the old store answers differently\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// redeliveries re-deliver one key of a fresh source: the second delivery
// fills the first's null attribute and adds another, so the graph's copy on
// write is exercised on the re-delivery path as well as by ER merges.
func redeliveries() []datagen.Dataset {
	return []datagen.Dataset{
		{Source: "patch", Entities: []datagen.EntitySpec{{Key: "p1", Types: []string{"Drug"},
			Attrs: model.Record{"name": model.String("Warfarin Sodium"), "note": model.Null()}}}},
		{Source: "patch", Entities: []datagen.EntitySpec{{Key: "p1", Types: []string{"Chemical"},
			Attrs: model.Record{"note": model.String("anticoagulant"), "form": model.String("tablet")}}}},
	}
}

// datasetBytes renders every attribute map of the datasets in their
// canonical encoding.
func datasetBytes(dss []datagen.Dataset) string {
	var b strings.Builder
	for _, ds := range dss {
		for _, e := range ds.Entities {
			fmt.Fprintf(&b, "%s/%s %v %x\n", ds.Source, e.Key, e.Types, model.AppendRecord(nil, e.Attrs))
		}
	}
	return b.String()
}

// graphBytes renders every canonical entity, its attributes in their
// canonical encoding, and every edge.
func graphBytes(g *graph.Graph) string {
	var b strings.Builder
	g.ForEachEntity(func(e *model.Entity) bool {
		fmt.Fprintf(&b, "%d %s/%s %v %v %x\n", e.ID, e.Source, e.Key, e.Types, e.Confidence, model.AppendRecord(nil, e.Attrs))
		return true
	})
	g.ForEachEdge(func(e graph.Edge) bool {
		fmt.Fprintf(&b, "%d -%s-> %s @%s %v\n", e.From, e.Predicate, e.To, e.Source, e.Confidence)
		return true
	})
	return b.String()
}

// TestSharedDatasetIngestsIdentically: the graph borrows each arriving
// entity's attribute map, and the attribute index and gazetteer share the
// resolver's normalized strings. One set of datasets ingested into two
// engines in turn must come out of both unchanged — nothing downstream
// writes to what it borrowed — and give byte-identical graphs, resolver
// state and answers; the first engine must not move while the second
// ingests.
func TestSharedDatasetIngestsIdentically(t *testing.T) {
	dss := append(ingestCorpus(), redeliveries()...)
	before := datasetBytes(dss)
	state := func(db *DB) string {
		b := db.ERDigests(0, 0)
		digests := fmt.Sprintf("ents=%d matches=%d blocking=%v\n", b.Ents, b.Matches, b.Settings.Blocking)
		for _, d := range b.Digests {
			digests += fmt.Sprintf("%q %q %q %q\n", d.Source, d.Key, d.Tokens, d.Attrs)
		}
		digests += fmt.Sprintf("merges %q\n", b.Merges)
		return graphBytes(db.Graph()) + digests + corpusFingerprint(t, db)
	}
	ingest := func() *DB {
		opts := lifesciOptions("")
		opts.DisableMatCache = true
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		for _, ds := range dss {
			if err := db.Ingest(ds); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}

	a := ingest()
	if st := a.Stats(); st.Merges == 0 {
		t.Fatal("the corpus merged nothing; the merge path is not exercised")
	}
	if after := datasetBytes(dss); after != before {
		t.Fatal("ingest wrote to the datasets' attribute maps")
	}
	first := state(a)
	b := ingest()
	if after := datasetBytes(dss); after != before {
		t.Fatal("the second ingest wrote to the datasets' attribute maps")
	}
	if again := state(a); again != first {
		t.Fatalf("the first engine moved while the second ingested\n--- now ---\n%s\n--- was ---\n%s", again, first)
	}
	if second := state(b); second != first {
		t.Fatalf("two ingests of one dataset diverged\n--- second ---\n%s\n--- first ---\n%s", second, first)
	}
}
