package curate

import (
	"fmt"
	"slices"
	"sort"

	"scdb/internal/datagen"
	"scdb/internal/model"
	"scdb/internal/storage"
)

// Durability of the relation and semantic layers. The instance layer
// persists through the store's log; the graph, merges, and inferences are
// *derived* state. Rather than persisting the graph structurally, the
// pipeline records what it consumed — source order, link specs, and texts
// — as ordinary system rows, and Rebuild replays curation over the stored
// records on open. Entity resolution, link discovery, extraction, and
// inference re-derive the same enriched model deterministically.
//
// Non-durable by design: predicted edges (EnrichPredictedLinks) — they are
// statistical derivations, re-derivable on demand.

// System tables recording the replay inputs.
const (
	OrderTable = "_curate_order"
	LinksTable = "_curate_links"
	TextsTable = "_curate_texts"
)

// recordIngestMeta persists what Ingest needs for replay: the source's
// first-ingest order, its links and its texts. Every row goes through the
// batch write path, link and text rows a chunk at a time. Caller holds p.mu.
func (p *Pipeline) recordIngestMeta(source string, links []datagen.LinkSpec, texts []string) error {
	ot, err := p.store.EnsureTable(OrderTable)
	if err != nil {
		return err
	}
	if !p.seenSources[source] {
		p.seenSources[source] = true
		p.seq++
		if _, err := ot.InsertBatch([]model.Record{{
			"seq":    model.Int(int64(p.seq)),
			"source": model.String(source),
		}}); err != nil {
			return err
		}
	}
	if len(links) > 0 {
		lt, err := p.store.EnsureTable(LinksTable)
		if err != nil {
			return err
		}
		recs := make([]model.Record, len(links))
		for i, l := range links {
			p.seq++
			rec := model.Record{
				"seq":       model.Int(int64(p.seq)),
				"source":    model.String(source),
				"from_key":  model.String(l.FromKey),
				"predicate": model.String(l.Predicate),
				"conf":      model.Float(l.Confidence),
			}
			if l.ToKey != "" {
				rec["to_key"] = model.String(l.ToKey)
			} else {
				rec["literal"] = l.Literal
			}
			recs[i] = rec
		}
		if err := p.insertChunks(lt, recs); err != nil {
			return err
		}
	}
	if len(texts) > 0 {
		tt, err := p.store.EnsureTable(TextsTable)
		if err != nil {
			return err
		}
		recs := make([]model.Record, len(texts))
		for i, text := range texts {
			p.seq++
			recs[i] = model.Record{
				"seq":    model.Int(int64(p.seq)),
				"source": model.String(source),
				"text":   model.String(text),
			}
		}
		if err := p.insertChunks(tt, recs); err != nil {
			return err
		}
	}
	return nil
}

// insertChunks writes recs through InsertBatch a chunk at a time.
func (p *Pipeline) insertChunks(t *storage.Table, recs []model.Record) error {
	for chunk := range slices.Chunk(recs, p.chunk) {
		if _, err := t.InsertBatch(chunk); err != nil {
			return err
		}
	}
	return nil
}

// RebuildFromStore re-derives the relation and semantic layers from the
// instance layer: sources are replayed in first-ingest order, each source's
// stored records through the live relate stage (relateChunk) a chunk at a
// time, then its recorded links and texts. Call once on open, before any
// new ingest.
func (p *Pipeline) RebuildFromStore() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	order, maxSeq, err := p.loadOrder()
	if err != nil {
		return err
	}
	if len(order) == 0 {
		return nil
	}
	links, texts, linkSeq, err := p.loadReplayInputs()
	if err != nil {
		return err
	}
	if linkSeq > maxSeq {
		maxSeq = linkSeq
	}
	var touched []model.EntityID
	for _, source := range order {
		tb, ok := p.store.Table(source)
		if !ok {
			continue
		}
		// A row is its entity's attributes as it is: the graph borrows it,
		// as it does a live arrival's.
		var arrivals []arrival
		tb.Scan(func(_ storage.RowID, rec model.Record) bool {
			key, ok := rec.Get(model.KeyAttr).AsString()
			if !ok || key == "" {
				return true // transactional rows are instance-only
			}
			a := arrival{key: key, attrs: rec}
			if l, ok := rec.Get(model.TypesAttr).AsList(); ok {
				for _, tv := range l {
					if s, ok := tv.AsString(); ok {
						a.types = append(a.types, s)
					}
				}
			}
			arrivals = append(arrivals, a)
			return true
		})
		for chunk := range slices.Chunk(arrivals, p.chunk) {
			if _, _, err := p.relateChunk(source, chunk, &touched); err != nil {
				return fmt.Errorf("curate: rebuild of %q: %w", source, err)
			}
		}
		if err := p.integrate(source, links[source], texts[source], &touched); err != nil {
			return fmt.Errorf("curate: rebuild of %q: %w", source, err)
		}
	}
	p.seq = maxSeq
	p.reasoner.MaterializeEntities(touched)
	return nil
}

// loadOrder reads the first-ingest order of sources.
func (p *Pipeline) loadOrder() ([]string, int, error) {
	tb, ok := p.store.Table(OrderTable)
	if !ok {
		return nil, 0, nil
	}
	type entry struct {
		seq    int64
		source string
	}
	var entries []entry
	maxSeq := 0
	tb.Scan(func(_ storage.RowID, rec model.Record) bool {
		seq, _ := rec.Get("seq").AsInt()
		src, _ := rec.Get("source").AsString()
		if src != "" {
			entries = append(entries, entry{seq, src})
		}
		if int(seq) > maxSeq {
			maxSeq = int(seq)
		}
		return true
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.source)
	}
	return out, maxSeq, nil
}

// loadReplayInputs reads the recorded link specs and texts per source.
func (p *Pipeline) loadReplayInputs() (map[string][]datagen.LinkSpec, map[string][]string, int, error) {
	links := map[string][]datagen.LinkSpec{}
	texts := map[string][]string{}
	maxSeq := 0
	type seqLink struct {
		seq  int64
		spec datagen.LinkSpec
	}
	bySource := map[string][]seqLink{}
	if tb, ok := p.store.Table(LinksTable); ok {
		tb.Scan(func(_ storage.RowID, rec model.Record) bool {
			seq, _ := rec.Get("seq").AsInt()
			src, _ := rec.Get("source").AsString()
			spec := datagen.LinkSpec{}
			spec.FromKey, _ = rec.Get("from_key").AsString()
			spec.Predicate, _ = rec.Get("predicate").AsString()
			spec.ToKey, _ = rec.Get("to_key").AsString()
			spec.Literal = rec.Get("literal")
			conf, _ := rec.Get("conf").AsFloat()
			spec.Confidence = conf
			bySource[src] = append(bySource[src], seqLink{seq, spec})
			if int(seq) > maxSeq {
				maxSeq = int(seq)
			}
			return true
		})
	}
	for src, sl := range bySource {
		sort.Slice(sl, func(i, j int) bool { return sl[i].seq < sl[j].seq })
		for _, l := range sl {
			links[src] = append(links[src], l.spec)
		}
	}
	type seqText struct {
		seq  int64
		text string
	}
	textBySource := map[string][]seqText{}
	if tb, ok := p.store.Table(TextsTable); ok {
		tb.Scan(func(_ storage.RowID, rec model.Record) bool {
			seq, _ := rec.Get("seq").AsInt()
			src, _ := rec.Get("source").AsString()
			text, _ := rec.Get("text").AsString()
			textBySource[src] = append(textBySource[src], seqText{seq, text})
			if int(seq) > maxSeq {
				maxSeq = int(seq)
			}
			return true
		})
	}
	for src, st := range textBySource {
		sort.Slice(st, func(i, j int) bool { return st[i].seq < st[j].seq })
		for _, t := range st {
			texts[src] = append(texts[src], t.text)
		}
	}
	return links, texts, maxSeq, nil
}
