package er

import (
	"cmp"
	"slices"
)

// AttrText is one attribute of an indexed entity: its name and its
// normalized text.
type AttrText struct {
	Name string
	Text string
}

// Attrs is what the resolver keeps of an entity's attributes: the normalized
// text of each attribute that has any, sorted by name, names unique. It is
// a slice, not a map, because an entity has a handful of attributes and the
// resolver holds one set per entity it has ever indexed.
type Attrs []AttrText

// sortAttrs sorts a by name; the names must already be unique.
func sortAttrs(a Attrs) {
	slices.SortFunc(a, func(x, y AttrText) int { return cmp.Compare(x.Name, y.Name) })
}
