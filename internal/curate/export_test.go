package curate

import (
	"fmt"
	"slices"
	"strings"

	"scdb/internal/model"
	"scdb/internal/storage"
)

// SetChunk shrinks p's records-per-chunk, so a test outside the package
// crosses chunk boundaries with a handful of records.
func SetChunk(p *Pipeline, n int) { p.chunk = n }

// CurationState renders the derived state a reopen must reproduce: the
// entity, edge, merge, pending-link, inferred-type and witness counts, and
// the ER partition as sorted sets of (source, key) over every keyed row the
// curated sources hold.
func CurationState(p *Pipeline) string {
	st := p.Stats()
	rs := p.reasoner.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "entities=%d edges=%d merges=%d pending=%d inferred=%d witnesses=%d\n",
		p.graph.NumEntities(), p.graph.NumEdges(), st.Merges, st.LinksPending, rs.InferredTypes, rs.Witnesses)
	order, _, _ := p.loadOrder()
	clusters := map[model.EntityID][]string{}
	for _, src := range order {
		tb, ok := p.store.Table(src)
		if !ok {
			continue
		}
		tb.Scan(func(_ storage.RowID, rec model.Record) bool {
			key, _ := rec.Get("_key").AsString()
			if e, ok := p.graph.FindByKey(src, key); ok {
				clusters[e.ID] = append(clusters[e.ID], src+"/"+key)
			}
			return true
		})
	}
	sets := make([]string, 0, len(clusters))
	for _, members := range clusters {
		slices.Sort(members)
		sets = append(sets, strings.Join(slices.Compact(members), " "))
	}
	slices.Sort(sets)
	b.WriteString(strings.Join(sets, "\n"))
	return b.String()
}
