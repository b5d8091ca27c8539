package model

import (
	"fmt"
	"sort"
	"strings"
)

// Entity is the relation-layer view of a real-world thing: a stable
// identity plus attributes, type memberships, and provenance. Where the
// relational model "has no notion of which columns refer to real world
// entities" (Section 3.2), the entity is the unit the self-curating
// database resolves, links, and enriches.
type Entity struct {
	// ID is the database-wide identifier assigned by the graph store.
	ID EntityID
	// Key is the source-local natural key ("drugbank:DB00945"); two
	// entities from different sources with different Keys may be merged
	// into one resolved identity by entity resolution.
	Key string
	// Source names the data source this entity was ingested from.
	Source string
	// Types lists the semantic-layer concepts the entity is asserted to
	// belong to (inferred memberships are materialized by the reasoner and
	// tracked separately so they can be retracted).
	Types []string
	// Attrs carries the instance-layer attributes. For a curated entity it
	// is the stored row itself, system columns included (IsRowColumn).
	Attrs Record
	// Confidence is the degree of belief in the entity's existence,
	// typically 1 for ingested records and <1 for extracted or predicted
	// entities.
	Confidence Fuzzy
}

// A curated source's stored row is its delivered attributes plus two
// columns of its own: KeyAttr holds the entity's Key and TypesAttr its
// asserted types, so the relation layer can be rebuilt from the rows. A
// graph entity's Attrs is that row, so every reader of an entity's
// attributes skips the two (IsRowColumn), and a delivery may not name
// either.
const (
	KeyAttr   = "_key"
	TypesAttr = "_types"
)

// IsRowColumn reports whether name is one of a stored row's own columns,
// KeyAttr or TypesAttr, rather than a delivered attribute.
func IsRowColumn(name string) bool { return name == KeyAttr || name == TypesAttr }

// Clone returns a deep-enough copy: Types and Attrs are copied, values are
// shared (immutable).
func (e *Entity) Clone() *Entity {
	c := *e
	c.Types = append([]string(nil), e.Types...)
	c.Attrs = e.Attrs.Clone()
	return &c
}

// HasType reports whether t is among the entity's asserted types.
func (e *Entity) HasType(t string) bool {
	for _, et := range e.Types {
		if et == t {
			return true
		}
	}
	return false
}

// AddType appends t to the asserted types, keeping the list sorted and
// duplicate-free.
func (e *Entity) AddType(t string) {
	if e.HasType(t) {
		return
	}
	e.Types = append(e.Types, t)
	sort.Strings(e.Types)
}

// String renders the entity for debugging.
func (e *Entity) String() string {
	return fmt.Sprintf("entity(%d %q src=%s types=[%s] %s)",
		e.ID, e.Key, e.Source, strings.Join(e.Types, ","), e.Attrs)
}
