package scdb

import (
	"fmt"

	"scdb/internal/core"
	"scdb/internal/model"
	"scdb/internal/refine"
	"scdb/internal/storage"
)

// This file carries the remaining public surface: query-by-example
// completion (FS.7), predicted-link enrichment (FS.4), and durability
// maintenance. Meta-data is data: the schema the rows give, the tables
// and the indexes are the system relations sys.columns, sys.tables and
// sys.indexes, and the paper's answers are SCQL relations (witnesses(),
// conflicts(), resolve(…), justify(…), discover(…), crowd(…),
// suggest_links(…), richness(); see DESIGN.md).

// Completion is the result of completing one example record.
type Completion struct {
	// Completed is the example with filled attributes (attributes without
	// evidence stay nil).
	Completed Record
	// Confidence is the vote share behind each filled attribute.
	Confidence map[string]float64
	// Support counts the neighbour rows that voted for each attribute.
	Support map[string]int
}

// Complete fills the example's nil attributes by query-by-example over the
// named table (FS.7): the k most similar rows vote on each missing value.
// If want is non-empty only those attributes are completed.
func (db *DB) Complete(table string, example Record, want []string, k int) (Completion, error) {
	rec, err := toRecord(example, 0)
	if err != nil {
		return Completion{}, err
	}
	rows, ok := db.inner.TableRecords(table)
	if !ok {
		return Completion{}, fmt.Errorf("scdb: unknown table %q", table)
	}
	c := refine.CompleteByExample(rows, rec, want, k)
	out := Completion{Completed: Record{}, Confidence: map[string]float64{}, Support: map[string]int{}}
	for key, v := range c.Completed {
		out.Completed[key] = fromValue(v)
	}
	for key, f := range c.Confidence {
		out.Confidence[key] = float64(f)
	}
	for key, n := range c.Support {
		out.Support[key] = n
	}
	return out, nil
}

// EnrichPredictedLinks materializes link predictions with confidence at
// least minConf as real (confidence-weighted, source "predicted") edges
// and re-runs inference over the touched entities. It returns how many
// edges were added. This is enrichment without any client write — the
// non-determinism the Snapshot isolation level aborts on and
// EventualEnrichment tolerates.
func (db *DB) EnrichPredictedLinks(predicate string, perEntity int, minConf float64) (int, error) {
	return db.inner.EnrichPredictedLinks(predicate, perEntity, model.Fuzzy(minConf))
}

// IndexStat describes one secondary index: where it lives, its kind
// ("hash" or "sorted"), how many postings it holds, and how many scans it
// has served. Auto reports whether the curator created it from observed
// access patterns (auto indexes are dropped again when they go cold).
type IndexStat = storage.IndexStat

// IndexStats lists every secondary index in the store, sorted by table
// then attribute. Indexes are self-curated — created from observed query
// predicates and dropped when cold — so this is an observation of the
// database's current adaptation, not a DDL catalog.
func (db *DB) IndexStats() []IndexStat { return db.inner.IndexStats() }

// PlanCacheStats reports plan-cache effectiveness: hits, misses, and the
// number of cached plans currently held.
type PlanCacheStats = core.PlanCacheStats

// PlanCacheStats returns the plan cache's hit/miss counters.
func (db *DB) PlanCacheStats() PlanCacheStats { return db.inner.PlanCacheStats() }

// WALStats is a readout of the durability log's counters: frames and
// bytes appended, fsync calls and time spent inside them, and — under the
// group sync policy — how long committers waited for durability; plus the
// segmented log's shape (segment files on disk, active segment index) and
// the incremental-checkpoint counters (checkpoints completed, latest
// snapshot CSN, sealed-segment bytes reclaimed, cumulative snapshot-write
// time) and how long the last Open spent recovering. All zeros for an
// in-memory database.
type WALStats = storage.WALStats

// WALStats reports the write-ahead log's durability counters.
func (db *DB) WALStats() WALStats { return db.inner.WALStats() }

// Checkpoint writes an incremental snapshot of the durable store at a
// consistent commit stamp — ingest continues concurrently — and retires
// sealed log segments the snapshot covers, bounding recovery time. It is
// the checkpoint the background checkpointer runs once CheckpointBytes of
// log have accumulated, and it appends no log frame of its own, so calling
// it manually is always safe, on a replica too. It is a no-op for
// in-memory databases.
func (db *DB) Checkpoint() error { return db.inner.Store().Checkpoint() }

// Vacuum drops record versions that are invisible to every live
// transaction and every future reader, reclaiming memory. Returns the
// number of versions removed. Versions a live snapshot transaction can
// still see are kept.
func (db *DB) Vacuum() int {
	return db.inner.Vacuum()
}
