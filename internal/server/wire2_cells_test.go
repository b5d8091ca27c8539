package server

import "testing"

// TestCellSlabReservesWhatItHolds: decoding a frame of like entities, each
// kind's slabs reserve about the cells of that kind the frame holds, in at
// most two slabs, whatever mix of kinds an entity carries. The read mix's
// three strings, integer and float reserve five cells an entity, not five
// of each kind.
func TestCellSlabReservesWhatItHolds(t *testing.T) {
	const n = 200
	for _, mix := range [][3]int{{2, 0, 0}, {6, 0, 0}, {3, 1, 1}, {1, 1, 1}, {0, 4, 0}, {0, 0, 1}} {
		var c attrSlabs
		var reserved, slabs [3]int
		// add puts one cell of the kind in its slab and counts the slab it
		// made, if it made one.
		add := func(kind int, free *int, put func()) {
			made := *free == 0
			put()
			if made {
				slabs[kind]++
				reserved[kind] += *free + 1
			}
		}
		for i := 0; i < n; i++ {
			c.begun, c.left, c.most = i+1, n-i, 1<<30
			for j := 0; j < mix[0]; j++ {
				add(0, &c.strs.free, func() { c.strs.add(&c, "s") })
			}
			for j := 0; j < mix[1]; j++ {
				add(1, &c.ints.free, func() { c.ints.add(&c, int64(j)) })
			}
			for j := 0; j < mix[2]; j++ {
				add(2, &c.floats.free, func() { c.floats.add(&c, float64(j)) })
			}
		}
		for kind, per := range mix {
			held := n * per
			if reserved[kind] < held || reserved[kind] > held+held/100 {
				t.Errorf("mix %v, kind %d: %d cells reserved for %d held", mix, kind, reserved[kind], held)
			}
			if slabs[kind] > 2 {
				t.Errorf("mix %v, kind %d: %d slabs, want at most 2", mix, kind, slabs[kind])
			}
		}
	}
}

// TestCellSlabBoundedByFrame: no slab reserves more cells than the rest of
// the frame has bytes for.
func TestCellSlabBoundedByFrame(t *testing.T) {
	c := attrSlabs{begun: 1, left: 1000, most: 7}
	c.strs.add(&c, "s")
	if room := c.strs.free + 1; room != 7 {
		t.Fatalf("first slab has room for %d cells, want the frame's bound 7", room)
	}
}
