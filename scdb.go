// Package scdb is a self-curating database: an embedded Go database engine
// that reproduces the system envisioned in "Self-Curating Databases"
// (Sadoghi et al., EDBT 2016).
//
// Data ingested from heterogeneous sources is curated automatically
// through a layered pipeline — the paper's holistic data model:
//
//   - instance layer: records land in a multi-versioned store with an
//     append-only log; schemas are read from the rows, never declared, and
//     the meta-data a curator tells is stored as rows too;
//   - relation layer: every record becomes an entity in a property graph;
//     literal foreign references are discovered and linked online;
//     incremental entity resolution merges duplicates across sources;
//     information extraction turns text into confidence-weighted edges;
//   - semantic layer: an ontology (subsumption, disjointness, role
//     hierarchies, existential restrictions) plus an incremental reasoner
//     materialize inferred types, existential witnesses, and
//     inconsistencies.
//
// Queries use SCQL — a SQL-like language extended with semantic predicates
// (ISA), graph reachability (REACHES, LINKED), fuzzy closeness (CLOSE),
// inference activation (WITH SEMANTICS), and parallel-world answer modes
// over the claims (UNDER CERTAIN keeps a claim only where every claim about
// its attribute agrees; UNDER FUZZY(t)). The engine's own answers are
// relation-valued functions in FROM, among them worlds(entity, attr), the
// claims laid out as probability-weighted possible worlds (FS.3, FS.10),
// where a value claimed in every world has marginal 1. The database
// describes itself the same way: FROM sys.metrics, sys.tables, sys.columns
// and sys.indexes read its instruments, tables, the schema its rows give
// and its indexes (DB.Registry). The optimizer
// exploits the ontology: redundant semantic predicates collapse,
// unsatisfiable ones prove queries empty, and concept statistics drive
// selectivity.
//
// See the examples directory for runnable walkthroughs, DESIGN.md for the
// architecture, and EXPERIMENTS.md for the reproduced experiments.
package scdb

import (
	"fmt"
	"slices"
	"time"

	"scdb/internal/box"
	"scdb/internal/curate"
	"scdb/internal/extract"
	"scdb/internal/model"
)

// Value kinds accepted in public records: nil, bool, int, int64, float64,
// string, time.Time, []byte, []any (nested), and EntityRef.

// EntityRef references an entity by its database-wide ID in query results.
type EntityRef uint64

// Record is a flexible attribute map; heterogeneous records are expected.
type Record map[string]any

// Entity is one data item a source contributes.
type Entity struct {
	// Key is the source-local identifier ("DB00682").
	Key string
	// Types lists asserted semantic concepts ("Drug").
	Types []string
	// Attrs carries the attributes.
	Attrs Record
}

// Link is one relation a source asserts. Exactly one of ToKey and Value is
// set: ToKey targets another entity of the same source; Value is a literal
// (which curation may later resolve to an entity through a LinkRule).
type Link struct {
	FromKey   string
	Predicate string
	ToKey     string
	Value     any
	// Confidence defaults to 1.
	Confidence float64
}

// Source is one delivery from a data source: entities, links, and
// unstructured documents.
type Source struct {
	Name     string
	Entities []Entity
	Links    []Link
	Texts    []string
}

// LinkRule tells curation how to resolve a source's literal references
// into entity edges: a Predicate-labeled literal is matched against
// entities carrying the same value in TargetAttrs (optionally restricted
// to TargetType), producing an EdgePredicate edge.
type LinkRule = curate.LinkRule

// Pattern drives information extraction: a trigger word between two
// recognized mentions yields a Predicate edge. Subject/Object concepts
// optionally restrict the mention types.
type Pattern = extract.Pattern

// toValue converts a public value to the internal representation.
func toValue(v any) (model.Value, error) {
	switch v := v.(type) {
	case nil:
		return model.Null(), nil
	case bool:
		return model.Bool(v), nil
	case int:
		return model.Int(int64(v)), nil
	case int64:
		return model.Int(v), nil
	case float64:
		return model.Float(v), nil
	case string:
		return model.String(v), nil
	case time.Time:
		return model.Time(v), nil
	case []byte:
		return model.Bytes(v), nil
	case EntityRef:
		return model.Ref(model.EntityID(v)), nil
	case []any:
		elems := make([]model.Value, len(v))
		for i, e := range v {
			ev, err := toValue(e)
			if err != nil {
				return model.Value{}, err
			}
			elems[i] = ev
		}
		return model.List(elems...), nil
	case model.Value:
		return v, nil
	}
	return model.Value{}, fmt.Errorf("scdb: unsupported value type %T", v)
}

// fromValue converts an internal value to the public representation.
func fromValue(v model.Value) any {
	switch v.Kind() {
	case model.KindNull:
		return nil
	case model.KindBool:
		b, _ := v.AsBool()
		return b
	case model.KindInt:
		i, _ := v.AsInt()
		return i
	case model.KindFloat:
		f, _ := v.AsFloat()
		return f
	case model.KindString:
		s, _ := v.AsString()
		return s
	case model.KindTime:
		t, _ := v.AsTime()
		return t
	case model.KindBytes:
		b, _ := v.AsBytes()
		return b
	case model.KindRef:
		id, _ := v.AsRef()
		return EntityRef(id)
	case model.KindList:
		l, _ := v.AsList()
		out := make([]any, len(l))
		for i, e := range l {
			out[i] = fromValue(e)
		}
		return out
	}
	return nil
}

// ToValue converts a public value to the internal model representation;
// application code rarely needs it.
func ToValue(v any) (model.Value, error) { return toValue(v) }

// FromValue converts an internal value to its public form, as a result
// cell is converted; application code rarely needs it.
func FromValue(v model.Value) any { return fromValue(v) }

// FromRows appends rows to dst in public form, as fromValue converts each
// cell. The appended rows share one backing array, each sliced with cap
// equal to len, and a column whose non-null cells share one kind keeps
// them in one typed slab (package box), so a result costs a few objects
// per column instead of one per cell. Nulls and bools box for free; lists
// and mixed-kind columns convert cell by cell. Bytes cells are copies
// carved from one buffer per column. DB.QueryInfoCtx and the shard router
// build their results with it.
func FromRows(dst [][]any, rows [][]model.Value) [][]any {
	cells, width := 0, 0
	for _, r := range rows {
		cells += len(r)
		width = max(width, len(r))
	}
	back := make([]any, cells)
	base := len(dst)
	dst = slices.Grow(dst, len(rows))
	for _, r := range rows {
		dst = append(dst, back[:len(r):len(r)])
		back = back[len(r):]
	}
	out := dst[base:]
	for c := 0; c < width; c++ {
		switch kind, n := columnKind(rows, c); kind {
		case model.KindString:
			fillColumn(out, rows, c, box.New[string](n), model.Value.AsString)
		case model.KindInt:
			fillColumn(out, rows, c, box.New[int64](n), model.Value.AsInt)
		case model.KindFloat:
			fillColumn(out, rows, c, box.New[float64](n), model.Value.AsFloat)
		case model.KindTime:
			fillColumn(out, rows, c, box.New[time.Time](n), model.Value.AsTime)
		case model.KindRef:
			fillColumn(out, rows, c, box.New[EntityRef](n), func(v model.Value) (EntityRef, bool) {
				id, ok := v.AsRef()
				return EntityRef(id), ok
			})
		case model.KindBytes:
			size := 0
			for _, r := range rows {
				if c < len(r) {
					b, _ := r[c].AsBytes()
					size += len(b)
				}
			}
			buf := make([]byte, 0, size)
			fillColumn(out, rows, c, box.New[[]byte](n), func(v model.Value) ([]byte, bool) {
				b, ok := v.AsBytes()
				if len(b) == 0 {
					return b, ok // nil and empty stay apart, as fromValue keeps them
				}
				buf = append(buf, b...)
				return buf[len(buf)-len(b) : len(buf) : len(buf)], ok
			})
		default:
			for i, r := range rows {
				if c < len(r) {
					out[i][c] = fromValue(r[c])
				}
			}
		}
	}
	return dst
}

// columnKind returns the kind column c's non-null cells share and their
// count, or KindList, which converts cell by cell, when the kinds differ.
func columnKind(rows [][]model.Value, c int) (model.Kind, int) {
	kind, n := model.KindNull, 0
	for _, r := range rows {
		if c >= len(r) || r[c].IsNull() {
			continue
		}
		if n > 0 && r[c].Kind() != kind {
			return model.KindList, 0
		}
		kind = r[c].Kind()
		n++
	}
	return kind, n
}

// fillColumn boxes column c's cells into s; get reports false for the
// column's nulls, which stay nil.
func fillColumn[T box.Cell](out [][]any, rows [][]model.Value, c int, s box.Slab[T], get func(model.Value) (T, bool)) {
	for i, r := range rows {
		if c < len(r) {
			if v, ok := get(r[c]); ok {
				out[i][c] = s.Add(v)
			}
		}
	}
}

// toRecord converts a public record into a map with room for extra more
// attributes.
func toRecord(r Record, extra int) (model.Record, error) {
	out := make(model.Record, len(r)+extra)
	for k, v := range r {
		mv, err := toValue(v)
		if err != nil {
			return nil, fmt.Errorf("attribute %q: %w", k, err)
		}
		out[k] = mv
	}
	return out, nil
}
