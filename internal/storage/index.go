package storage

// Secondary indexes over the multi-version table store. An index maps
// attribute values to RowIDs and is deliberately a *superset* structure:
// it holds one entry per non-null value ever written in any version, and
// lookups return candidate RowIDs whose visible-at-CSN records the caller
// re-filters with the full predicate. Every index is one structure: a run
// sorted by value with a 256-entry pending buffer merged linearly into it,
// O(n/256 + log 256) amortised per write. It serves =, IN and ranges alike.
// Maintenance is append-only, every index is correct as-of any CSN for free,
// and Vacuum rebuilds compactly from the retained version chains. Every
// build — auto-create, Vacuum, recovery, CreateIndex — is one pass plus one
// sort, O(n log n).
//
// Indexes are self-curated (the paper's OS.1/OS.3: the database curates
// its own physical design): a per-attribute access counter trips auto-
// creation, and indexes that go cold are dropped at Vacuum. There is no DDL
// surface; CreateIndex exists for tests and pins the index against
// cold-drop.
//
// Comparison semantics force care at the edges. The query evaluator's
// =/</<=/>/>= go through model.Compare, under which NaN compares equal to
// every numeric, while IN goes through model.Equal (NaN equals only NaN).
// Values that would break sorted-order search — NaN floats and list values
// (whose Compare can be 0 without Equal, or error mid-class) — live in a
// small "odd" side list appended to every candidate set, so the superset
// property holds without special-casing lookups.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"scdb/internal/model"
)

// Self-curation thresholds.
const (
	autoIndexAccesses = 4   // predicate touches on an attr before auto-create
	autoIndexMinRows  = 64  // don't bother indexing tiny tables
	indexColdStrikes  = 2   // vacuums with zero new hits before auto-drop
	pendingMergeLimit = 256 // unsorted inserts buffered before a merge
)

// idxEntry is one (value, row) posting.
type idxEntry struct {
	val model.Value
	id  RowID
}

// Index is one secondary index. All fields are guarded by the owning
// Table's mutex: writes under t.mu.Lock, lookups under t.mu.RLock (lookups
// never mutate — the pending buffer is scanned linearly, not merged).
type Index struct {
	attr   string
	label  string // "table.attr" for ScanInfo, set by buildIndexLocked
	pinned bool   // explicitly created; never cold-dropped

	hits     uint64 // scans that chose this index
	lastHits uint64 // hits as of the previous vacuum
	strikes  int    // consecutive vacuums without new hits

	sorted  []idxEntry // ordered by entryCmp
	pending []idxEntry // recent inserts, unordered
	odd     []idxEntry // NaN floats and list values
}

// oddValue reports values excluded from the main structures: NaN floats
// (Compare-equal to every numeric) and lists (Compare can be 0 without
// Equal, or error against a same-rank neighbor, breaking binary search).
func oddValue(v model.Value) bool {
	if v.Kind() == model.KindList {
		return true
	}
	f, ok := v.AsFloat()
	return ok && math.IsNaN(f)
}

// valRank mirrors the kind ranking of model.Less (null, bool, numeric,
// string, time, bytes, list, ref) so window searches can locate the
// literal's comparison class inside the sorted run.
func valRank(v model.Value) int {
	switch v.Kind() {
	case model.KindNull:
		return 0
	case model.KindBool:
		return 1
	case model.KindInt, model.KindFloat:
		return 2
	case model.KindString:
		return 3
	case model.KindTime:
		return 4
	case model.KindBytes:
		return 5
	case model.KindList:
		return 6
	case model.KindRef:
		return 7
	}
	return 8
}

// entryCmp orders the sorted run: by comparison class, then by
// model.Compare inside it (total there, odd values being excluded), then by
// RowID. It is model.Less's order with the id as tie-break.
func entryCmp(a, b idxEntry) int {
	if ra, rb := valRank(a.val), valRank(b.val); ra != rb {
		return cmp.Compare(ra, rb)
	}
	if c, err := model.Compare(a.val, b.val); err == nil && c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// addLocked inserts one posting. Caller holds the table write lock.
func (ix *Index) addLocked(v model.Value, id RowID) {
	e := idxEntry{val: v, id: id}
	if oddValue(v) {
		ix.odd = append(ix.odd, e)
		return
	}
	ix.pending = append(ix.pending, e)
	if len(ix.pending) >= pendingMergeLimit {
		ix.mergeLocked()
	}
}

// mergeLocked folds the pending buffer into the sorted run: the buffer is
// sorted on its own and merged in place from the back, each buffered posting
// shifting the part of the run above it up as one block. The run is moved
// (from the smallest buffered posting up) but never re-sorted: O(n) bytes
// and O(p log n) comparisons for a buffer of p.
func (ix *Index) mergeLocked() {
	p := ix.pending
	slices.SortFunc(p, entryCmp)
	end := len(ix.sorted) // run postings not yet in their final place
	ix.sorted = slices.Grow(ix.sorted, len(p))[:end+len(p)]
	for j := len(p) - 1; j >= 0; j-- {
		pos, _ := slices.BinarySearchFunc(ix.sorted[:end], p[j], entryCmp)
		copy(ix.sorted[pos+j+1:], ix.sorted[pos:end])
		ix.sorted[pos+j] = p[j]
		end = pos
	}
	ix.pending = p[:0]
}

func (ix *Index) entries() int {
	return len(ix.sorted) + len(ix.pending) + len(ix.odd)
}

// window returns the bounds [lo, hi) of the part of the sorted run that can
// satisfy op against lit under model.Compare (0, 0 when none can). Searches
// stay inside the literal's comparison class (same valRank), where Compare
// is total and consistent with the sort order; NaN literals degenerate to
// the whole numeric class for "=" and empty windows for orderings — exactly
// the evaluator's semantics.
func (ix *Index) window(op string, lit model.Value) (lo, hi int) {
	n := len(ix.sorted)
	rl := valRank(lit)
	classLo := sort.Search(n, func(i int) bool { return valRank(ix.sorted[i].val) >= rl })
	classHi := sort.Search(n, func(i int) bool { return valRank(ix.sorted[i].val) > rl })
	cmp := func(i int) int {
		c, err := model.Compare(ix.sorted[i].val, lit)
		if err != nil {
			return 0 // unreachable: same class, odd values excluded
		}
		return c
	}
	span := classHi - classLo
	geq := func() int {
		return classLo + sort.Search(span, func(k int) bool { return cmp(classLo+k) >= 0 })
	}
	gt := func() int {
		return classLo + sort.Search(span, func(k int) bool { return cmp(classLo+k) > 0 })
	}
	switch op {
	case "=":
		lo, hi = geq(), gt()
	case "<":
		lo, hi = classLo, geq()
	case "<=":
		lo, hi = classLo, gt()
	case ">":
		lo, hi = gt(), classHi
	case ">=":
		lo, hi = geq(), classHi
	}
	if lo >= hi {
		return 0, 0
	}
	return lo, hi
}

// pendingMatches mirrors the evaluator on one buffered posting: Compare
// for orderings and "=", Equal for IN membership. pending never holds odd
// values, so Compare against a same-class literal cannot error; a
// cross-class error means "no match", as in the evaluator.
func pendingMatches(p ZonePred, v model.Value) bool {
	if p.Op == "in" {
		for _, w := range p.Vals {
			if model.Equal(v, w) {
				return true
			}
		}
		return false
	}
	c, err := model.Compare(v, p.Val)
	if err != nil {
		return false
	}
	switch p.Op {
	case "=":
		return c == 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return true // unknown op: stay a superset
}

// candidates returns a sorted, deduplicated superset of the RowIDs whose
// visible record can satisfy every conjunct of ps: the one chooseIndexLocked
// chose, or the two bounds of a range, whose windows are intersected.
// Caller holds the table read lock.
func (ix *Index) candidates(ps []ZonePred) []RowID {
	p := ps[0]
	ids := make([]RowID, 0, 64)
	add := func(es []idxEntry) {
		for _, e := range es {
			ids = append(ids, e.id)
		}
	}
	if p.Op == "in" {
		for _, v := range p.Vals {
			lo, hi := ix.window("=", v)
			add(ix.sorted[lo:hi])
		}
	} else {
		lo, hi := 0, len(ix.sorted)
		for _, b := range ps {
			l, h := ix.window(b.Op, b.Val)
			lo, hi = max(lo, l), min(hi, h)
		}
		if lo < hi {
			add(ix.sorted[lo:hi])
		}
	}
	for _, e := range ix.pending {
		if !slices.ContainsFunc(ps, func(p ZonePred) bool { return !pendingMatches(p, e.val) }) {
			ids = append(ids, e.id)
		}
	}
	add(ix.odd)
	slices.Sort(ids)
	return slices.Compact(ids)
}

// IndexStat is the introspection row surfaced through the facade and the
// CLI's \indexes command.
type IndexStat struct {
	Table string
	Attr  string
	// Kind is always "sorted", the one index structure. It stays because
	// the benchmark module reads it.
	Kind    string
	Entries int
	Hits    uint64
	Auto    bool
}

// ScanOptions disables individual access-path features, for differential
// testing and engine configuration.
type ScanOptions struct {
	NoPrune bool // keep every segment even when its zone map refutes a pred
	NoIndex bool // never use a secondary index
	NoAuto  bool // don't record accesses or auto-create indexes
	// Ctx cancels the scan cooperatively: the cursor checks it between zone
	// segments and ends once it is done. Nil never cancels.
	Ctx context.Context
}

// ScanInfo reports what a pushed-down scan actually did.
type ScanInfo struct {
	Index    string // "table.attr", or "" for a plain zone scan
	Segments int    // zone segments considered
	Pruned   int    // segments skipped by zone-map refutation
}

func (t *Table) initCurationLocked() {
	if t.zones == nil {
		t.zones = make(map[uint64]*zoneSeg)
	}
	if t.indexes == nil {
		t.indexes = make(map[string]*Index)
	}
	if t.access == nil {
		t.access = make(map[string]uint64)
	}
}

// noteWriteLocked maintains zone maps and indexes for one written version.
// Caller holds the table write lock (or is the single-threaded recovery).
func (t *Table) noteWriteLocked(id RowID, rec model.Record, newRow bool) {
	if rec == nil {
		return
	}
	t.initCurationLocked()
	seg := zoneSegFor(id)
	z := t.zones[seg]
	if z == nil {
		z = &zoneSeg{attrs: make(map[string]*zoneAttr)}
		t.zones[seg] = z
	}
	z.note(rec, newRow)
	for _, ix := range t.indexes {
		v := rec.Get(ix.attr)
		if v.IsNull() {
			continue
		}
		ix.addLocked(v, id)
	}
}

// buildIndexLocked (re)builds ix from every retained version, so the index
// answers correctly as-of any still-readable CSN. It is the one build path —
// auto-create, Vacuum, recovery and CreateIndex: it collects the postings in
// one pass and sorts them once.
func (t *Table) buildIndexLocked(ix *Index) {
	ix.label = t.name + "." + ix.attr
	ix.sorted, ix.pending, ix.odd = nil, nil, nil
	n := 0
	for _, r := range t.rows {
		n += len(r.versions)
	}
	run := make([]idxEntry, 0, n)
	for id, r := range t.rows {
		for _, ver := range r.versions {
			if ver.rec == nil {
				continue
			}
			v := ver.rec.Get(ix.attr)
			switch {
			case v.IsNull():
			case oddValue(v):
				ix.odd = append(ix.odd, idxEntry{val: v, id: id})
			default:
				run = append(run, idxEntry{val: v, id: id})
			}
		}
	}
	slices.SortFunc(run, entryCmp)
	ix.sorted = run
}

// rebuildZonesLocked recomputes zone maps exactly from the retained
// versions — the only point where deletes and vacuumed history narrow the
// statistics back down.
func (t *Table) rebuildZonesLocked() {
	t.zones = make(map[uint64]*zoneSeg)
	for id, r := range t.rows {
		seg := zoneSegFor(id)
		newRow := true
		for _, ver := range r.versions {
			if ver.rec == nil {
				continue
			}
			z := t.zones[seg]
			if z == nil {
				z = &zoneSeg{attrs: make(map[string]*zoneAttr)}
				t.zones[seg] = z
			}
			z.note(ver.rec, newRow)
			newRow = false
		}
	}
}

// vacuumIndexesLocked rebuilds surviving indexes from the just-vacuumed
// version chains and drops auto-created indexes that went cold (no new
// hits across indexColdStrikes consecutive vacuums). The access counter is
// dropped with the index, so an unused attribute must re-earn its index.
func (t *Table) vacuumIndexesLocked() {
	for attr, ix := range t.indexes {
		if !ix.pinned {
			if ix.hits == ix.lastHits {
				ix.strikes++
			} else {
				ix.strikes = 0
			}
			ix.lastHits = ix.hits
			if ix.strikes >= indexColdStrikes {
				delete(t.indexes, attr)
				delete(t.access, attr)
				continue
			}
		}
		t.buildIndexLocked(ix)
	}
}

// maybeAutoIndexLocked creates the indexes whose access counters tripped
// the threshold.
func (t *Table) maybeAutoIndexLocked(preds []ZonePred) {
	for _, p := range preds {
		if t.access[p.Attr] < autoIndexAccesses || t.live < autoIndexMinRows {
			continue
		}
		if _, ok := t.indexes[p.Attr]; ok {
			continue
		}
		ix := &Index{attr: p.Attr}
		t.indexes[p.Attr] = ix
		t.buildIndexLocked(ix)
	}
}

// chooseIndexLocked picks the best (index, predicate) pair: equality beats
// IN beats range. An equality against a NaN literal needs no exception:
// window("=", NaN) spans the whole numeric class, which is what the
// evaluator's Compare matches.
func (t *Table) chooseIndexLocked(preds []ZonePred) (*Index, []ZonePred) {
	var best *Index
	bestScore, bestAt := -1, 0
	for i, p := range preds {
		ix := t.indexes[p.Attr]
		if ix == nil {
			continue
		}
		score := 0
		switch p.Op {
		case "=":
			score = 2
		case "in":
			score = 1
		}
		if score > bestScore {
			bestScore, best, bestAt = score, ix, i
		}
	}
	if best == nil {
		return nil, nil
	}
	bestPred := preds[bestAt]
	if bestScore == 0 {
		// One bound of a range: take the opposite bound on the same
		// attribute too, so the scan gathers the range and not the
		// half-line ("<" and "<=" start alike, and so do ">" and ">=").
		for _, p := range preds {
			if p.Attr == bestPred.Attr && (p.Op[0] == '<' || p.Op[0] == '>') && p.Op[0] != bestPred.Op[0] {
				return best, []ZonePred{bestPred, p}
			}
		}
	}
	return best, preds[bestAt : bestAt+1 : bestAt+1]
}

// restoreIndexLocked recreates one index from a checkpoint snapshot's
// persisted catalog (recovery.go): same attribute, pin, and hit count,
// rebuilt over the recovered rows so a hot index serves its first
// post-restart scan instead of being re-learned from cold counters.
func (t *Table) restoreIndexLocked(spec idxSpec) {
	if _, ok := t.indexes[spec.attr]; ok {
		return
	}
	ix := &Index{attr: spec.attr, pinned: spec.pinned, hits: spec.hits, lastHits: spec.hits}
	t.indexes[spec.attr] = ix
	t.buildIndexLocked(ix)
}

// CreateIndex builds a pinned index on attr. Auto-curation normally makes
// this unnecessary; it exists for tests and deliberate pinning.
func (t *Table) CreateIndex(attr string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.initCurationLocked()
	if _, ok := t.indexes[attr]; ok {
		return fmt.Errorf("storage: %s: index on %q already exists", t.name, attr)
	}
	ix := &Index{attr: attr, pinned: true}
	t.indexes[attr] = ix
	t.buildIndexLocked(ix)
	return nil
}

// IndexStats lists the table's indexes, sorted by attribute.
func (t *Table) IndexStats() []IndexStat {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]IndexStat, 0, len(t.indexes))
	for attr, ix := range t.indexes {
		out = append(out, IndexStat{
			Table:   t.name,
			Attr:    attr,
			Kind:    "sorted",
			Entries: ix.entries(),
			Hits:    ix.hits,
			Auto:    !ix.pinned,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Attr < out[j].Attr })
	return out
}

// IndexStats lists every index in the store, sorted by (table, attr).
func (s *Store) IndexStats() []IndexStat {
	var out []IndexStat
	for _, name := range s.Tables() {
		if t, ok := s.Table(name); ok {
			out = append(out, t.IndexStats()...)
		}
	}
	return out
}

// ScanWhere opens the pushed-down scan: its cursor yields the rows visible
// at csn that can satisfy the conjunction of preds, in RowID order, one
// zone segment a chunk, skipping the segments the zone maps refute. The
// yielded set is a superset of the matching rows (candidates come from a
// superset index and conservative zone maps), so callers re-apply the full
// predicate. Opening drives self-curation, once per scan: accesses are
// counted, indexes auto-created and chosen, and the candidate RowIDs
// gathered here.
func (t *Table) ScanWhere(csn CSN, preds []ZonePred, opt ScanOptions) Cursor {
	var info ScanInfo
	var idx *Index
	var idxPreds []ZonePred
	t.mu.Lock()
	t.initCurationLocked()
	if !opt.NoAuto {
		for _, p := range preds {
			t.access[p.Attr]++
		}
		t.maybeAutoIndexLocked(preds)
	}
	if !opt.NoIndex {
		idx, idxPreds = t.chooseIndexLocked(preds)
		if idx != nil {
			idx.hits++
		}
	}
	t.mu.Unlock()

	var ids []RowID
	if idx != nil {
		t.mu.RLock()
		info.Index = idx.label
		ids = idx.candidates(idxPreds)
		t.mu.RUnlock()
	} else {
		t.mu.RLock()
		ids = make([]RowID, 0, len(t.rows))
		for id := range t.rows {
			ids = append(ids, id)
		}
		t.mu.RUnlock()
		slices.Sort(ids)
	}
	return Cursor{t: t, ctx: opt.Ctx, csn: csn, ids: ids, preds: preds, prune: !opt.NoPrune, info: info}
}

// segRefutedLocked reports whether any conjunct is refuted by the
// segment's zone map. A missing zone map never prunes.
func (t *Table) segRefutedLocked(seg uint64, preds []ZonePred) bool {
	z := t.zones[seg]
	if z == nil {
		return false
	}
	for _, p := range preds {
		if z.refutes(p) {
			return true
		}
	}
	return false
}
