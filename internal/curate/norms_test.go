package curate

import (
	"testing"
	"unsafe"
)

// TestAttrIndexSharesResolverNorms: an arriving string value is normalized
// once, by the resolver, and the attribute index keys it under that very
// string rather than a normal form of its own.
func TestAttrIndexSharesResolverNorms(t *testing.T) {
	p, _, _ := lifesciPipeline(t)
	ingestLifeSci(t, p)
	held := map[*byte]bool{}
	for _, d := range p.Resolver().DigestsSince(0, 0).Digests {
		for _, at := range d.Attrs {
			held[unsafe.StringData(at.Text)] = true
		}
	}
	if len(p.attrIndex) == 0 {
		t.Fatal("the corpus indexed no attribute value")
	}
	for k := range p.attrIndex {
		if !held[unsafe.StringData(k)] {
			t.Errorf("the attribute index keys %q under a string the resolver does not hold", k)
		}
	}
}
