package core

import (
	"encoding/binary"

	"scdb/internal/model"
	"scdb/internal/query"
)

// db.plans memoizes the lex/parse/optimize pipeline for the SCQL hot path
// in a query.ShapeCache, the cache type a router keeps its decompositions
// in. A plan is keyed by the statement's shape (query.AppendShape): its
// tokens with each comparison literal cut out, so a point read with a new
// key or a range with a new bound plans once per shape and binds its
// values at execution. The key also carries the schema version and the
// ontology's clock, so any catalog or TBox change — new tables, new
// axioms, a refreshed derived set — invalidates every stale plan without an
// invalidation protocol: the key simply never matches again, and stale
// entries age out of the bounded map.
//
// Cached plans and statements are immutable after optimization (the
// executor never mutates plan nodes, and a Param's value comes from the
// execution), so one entry may serve concurrent queries.
type planEntry struct {
	stmt     *query.SelectStmt // a Param for each lifted literal
	plan     query.Node
	planText string   // empty unless the statement is a TRACE
	rules    []string // likewise
	cost     float64
	morsels  int
	system   bool // the statement reads system relations
}

// planKey appends a plan-cache key to dst: the schema version
// (storage.Store.SchemaVersion) and the ontology's clock (the derived set's
// base plus ontology.Ontology.Version), then the statement's shape and the
// values of its lifted literals to args.
func planKey(dst []byte, args []model.Value, schema, onto uint64, src string) ([]byte, []model.Value, error) {
	dst = binary.AppendUvarint(dst, schema)
	dst = binary.AppendUvarint(dst, onto)
	return query.AppendShape(dst, args, src)
}

// PlanCacheStats reports plan-cache effectiveness.
type PlanCacheStats = query.ShapeCacheStats
