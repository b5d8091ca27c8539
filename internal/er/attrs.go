package er

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
