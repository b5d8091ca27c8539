package storage

// Zone maps: per-segment small-footprint statistics (per comparison class,
// the least and greatest value and whether an odd value is present, plus
// null counts) over fixed RowID ranges, maintained incrementally on every
// write and rebuilt exactly at Vacuum. The query layer pushes the sargable
// conjuncts of a WHERE clause down as model.Conjuncts; segments whose
// statistics refute a conjunct are skipped before any worker touches their
// rows — the paper's OS.1 "self-organizing storage" in its cheapest form.
//
// Soundness: statistics only ever widen between vacuums (deletes do not
// shrink them), so a refutation proves no visible row in the segment can
// satisfy the conjunct at any readable CSN. A segment is refuted by the one
// comparison rule the indexes and the query evaluator share: model.Side
// places a bound against the literal and model.Sides names the sides an op
// accepts. Side never decreases inside a class, so a class whose bounds
// both fall outside the accepted sides holds no match, and a value of
// another class falls at -2 or 2, which no op accepts. An odd value (a NaN
// or a list) has no place between bounds, so it keeps every segment for a
// literal of its class. IN takes each value as "=": model.Equal, which the
// evaluator's IN uses, holds only where Compare is 0.

import (
	"slices"

	"scdb/internal/model"
)

// ZoneSegmentRows is the fixed RowID span of one zone-map segment. It also
// fixes the chunk boundaries of every pushed-down scan (indexed, pruned, or
// plain), so morsel boundaries — and therefore the merge order of
// per-morsel aggregation partials — are identical across access paths.
const ZoneSegmentRows = 1024

// zoneSegFor maps a RowID to its segment number (RowIDs start at 1).
func zoneSegFor(id RowID) uint64 { return uint64(id-1) / ZoneSegmentRows }

// zoneAttr accumulates per-segment statistics for one attribute: for each
// comparison class (model.Kind.Rank) it has seen, the least and greatest
// value and whether it holds an odd value (a NaN or a list, see oddValue),
// which no bound can place.
type zoneAttr struct {
	nonNull int // non-null values ever written (versions, not rows)
	classes []zoneClass
}

// zoneClass is one comparison class's statistics. min and max are null
// while the class holds only odd values.
type zoneClass struct {
	rank     int
	min, max model.Value
	odd      bool
}

func (za *zoneAttr) note(v model.Value) {
	za.nonNull++
	r := v.Kind().Rank()
	i := slices.IndexFunc(za.classes, func(c zoneClass) bool { return c.rank == r })
	if i < 0 {
		i = len(za.classes)
		za.classes = append(za.classes, zoneClass{rank: r})
	}
	c := &za.classes[i]
	switch {
	case oddValue(v):
		c.odd = true
	case c.min.IsNull():
		c.min, c.max = v, v
	case model.Side(v, c.min) < 0:
		c.min = v
	case model.Side(v, c.max) > 0:
		c.max = v
	}
}

// zoneSeg is the zone map of one RowID segment.
type zoneSeg struct {
	rows  int // row IDs resident in the segment
	attrs map[string]*zoneAttr
}

func (z *zoneSeg) note(rec model.Record, newRow bool) {
	if newRow {
		z.rows++
	}
	for k, v := range rec {
		if v.IsNull() {
			continue
		}
		za := z.attrs[k]
		if za == nil {
			za = &zoneAttr{}
			z.attrs[k] = za
		}
		za.note(v)
	}
}

// NullCount reports how many of the segment's rows lack a non-null value
// for attr — approximate between vacuums (updates inflate nonNull), exact
// right after one.
func (z *zoneSeg) NullCount(attr string) int {
	za := z.attrs[attr]
	if za == nil {
		return z.rows
	}
	n := z.rows - za.nonNull
	if n < 0 {
		return 0
	}
	return n
}

// refutes reports whether the segment provably contains no row satisfying
// the conjunct. false means "might match" — never the other way around.
func (z *zoneSeg) refutes(p model.Conjunct) bool {
	za := z.attrs[p.Attr]
	if za == nil {
		// The attribute was never written non-null in this segment, and
		// =/</<=/>/>=/IN never accept a null.
		return true
	}
	if p.Op == "in" {
		return !slices.ContainsFunc(p.Vals, func(lit model.Value) bool { return za.admits("=", lit) })
	}
	return !za.admits(p.Op, p.Val)
}

// admits reports whether some class can put a value on a side of lit that
// op accepts, by model.Sides: a class's values lie between the sides of its
// bounds, and an odd value of lit's class may lie on any side.
func (za *zoneAttr) admits(op string, lit model.Value) bool {
	lo, hi := model.Sides(op)
	for _, c := range za.classes {
		if c.odd && c.rank == lit.Kind().Rank() ||
			!c.min.IsNull() && model.Side(c.max, lit) >= lo && model.Side(c.min, lit) < hi {
			return true
		}
	}
	return false
}
