package core

import (
	"errors"
	"testing"

	"scdb/internal/curate"
	"scdb/internal/datagen"
	"scdb/internal/model"
)

func namedSpec(key, name string) datagen.EntitySpec {
	return datagen.EntitySpec{Key: key, Attrs: model.Record{"name": model.String(name)}}
}

func rowCount(t *testing.T, db *DB, table string) int64 {
	t.Helper()
	res, _, err := db.Query("SELECT COUNT(*) AS n FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.Rows[0][0].AsInt()
	return n
}

// TestRejectedDeliveryWritesNothing: a delivery whose link names a key
// that neither it nor its source holds is refused before any of it is
// written. It used to install its rows and log its link row first, so the
// rows stayed and every later open failed to replay the link.
func TestRejectedDeliveryWritesNothing(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest(datagen.Dataset{Source: "s", Entities: []datagen.EntitySpec{namedSpec("k1", "first")}}); err != nil {
		t.Fatal(err)
	}
	err = db.Ingest(datagen.Dataset{
		Source:   "s",
		Entities: []datagen.EntitySpec{namedSpec("k2", "second")},
		Links:    []datagen.LinkSpec{{FromKey: "nope", Predicate: "rel", ToKey: "k2"}},
	})
	if !errors.Is(err, curate.ErrInvalidDelivery) {
		t.Errorf("link from an unknown key: err = %v, want ErrInvalidDelivery", err)
	}
	if n := rowCount(t, db, "s"); n != 1 {
		t.Errorf("rows after a refused delivery = %d, want 1", n)
	}
	// A link may name a key its source already holds.
	if err := db.Ingest(datagen.Dataset{
		Source:   "s",
		Entities: []datagen.EntitySpec{namedSpec("k3", "third")},
		Links:    []datagen.LinkSpec{{FromKey: "k1", Predicate: "rel", ToKey: "k3"}},
	}); err != nil {
		t.Fatal(err)
	}
	edges := db.Graph().NumEdges()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after a refused delivery: %v", err)
	}
	defer re.Close()
	if n := rowCount(t, re, "s"); n != 2 {
		t.Errorf("rows after reopen = %d, want 2", n)
	}
	if _, ok := re.graph.FindByKey("s", "k2"); ok {
		t.Error("the refused delivery's entity came back")
	}
	if got := re.Graph().NumEdges(); got != edges {
		t.Errorf("edges after reopen = %d, want %d", got, edges)
	}
}

// TestEmptyKeyRejected: an entity without a key is refused with the rest of
// its delivery. Live ingest used to curate it while replay skips keyless
// rows, so it vanished on reopen.
func TestEmptyKeyRejected(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	err = db.Ingest(datagen.Dataset{Source: "s", Entities: []datagen.EntitySpec{namedSpec("", "keyless"), namedSpec("k", "keyed")}})
	if !errors.Is(err, curate.ErrInvalidDelivery) {
		t.Errorf("empty key: err = %v, want ErrInvalidDelivery", err)
	}
	if _, ok := db.Store().Table("s"); ok {
		t.Error("a refused delivery created its table")
	}
	if err := db.Ingest(datagen.Dataset{Source: "s", Entities: []datagen.EntitySpec{namedSpec("k", "keyed")}}); err != nil {
		t.Fatal(err)
	}
	live := db.Graph().NumEntities()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Graph().NumEntities(); got != live || got != 1 {
		t.Errorf("entities: %d live, %d after reopen; want 1 and 1", live, got)
	}
}
