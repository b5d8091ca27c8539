// Package datagen produces the deterministic synthetic datasets the
// reproduction runs on — the substitution DESIGN.md documents for the
// paper's external sources (DrugBank, CTD, UniProt, multi-country clinical
// trials, IoT/social streams). Every generator takes an explicit seed and
// returns identical output for identical inputs.
package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"scdb/internal/model"
	"scdb/internal/ontology"
)

// EntitySpec is one entity as a source describes it (source-local key,
// asserted types, attributes).
type EntitySpec struct {
	Key   string
	Types []string
	Attrs model.Record
}

// LinkSpec is one relation a source asserts. ToKey targets an entity of
// the same dataset; a zero ToKey with a non-null Literal is a
// literal-valued edge.
type LinkSpec struct {
	FromKey    string
	Predicate  string
	ToKey      string
	Literal    model.Value
	Confidence float64
}

// Dataset is everything one source contributes.
type Dataset struct {
	Source   string
	Entities []EntitySpec
	Links    []LinkSpec
	// Texts carries unstructured documents (for extraction), may be nil.
	Texts []string
}

// LifeSciAxioms is the Figure-2 TBox, one axiom a line (ontology.Parse's
// format): the chemical/disease taxonomies, their disjointness, the Drug ⊑
// ∃hasTarget.Gene existential, and the targets/affects role hierarchy.
const LifeSciAxioms = `
sub Approved_Drugs Drug
sub Drug Chemical
sub Carboxylic_Acids Chemical
sub Heterocyclic Chemical
sub Phenylpropionates Carboxylic_Acids
sub Neoplasms Disease
sub Immune_System Disease
sub Joint_Diseases Disease
sub Autoimmune Immune_System
sub Arthritis Joint_Diseases
sub Rheumatoid_Arthritis Arthritis
sub Rheumatoid_Arthritis Autoimmune
sub Sarcoma Neoplasms
sub Osteosarcoma Sarcoma
disjoint Chemical Disease
disjoint Gene Chemical
disjoint Gene Disease
exists Drug hasTarget Gene
subrole targets hasTarget
subrole targets affects
inverse targets targetedBy
domain targets Drug
range targets Gene
range treats Disease
concept Gene
`

// PopulationAxioms is the Warfarin example's disjoint population classes.
const PopulationAxioms = `
sub White Population
sub Asian Population
sub Black Population
disjoint White Asian
disjoint White Black
disjoint Asian Black
`

// LifeSciOntology parses LifeSciAxioms.
func LifeSciOntology() *ontology.Ontology { return parsed(LifeSciAxioms) }

// PopulationOntology parses PopulationAxioms.
func PopulationOntology() *ontology.Ontology { return parsed(PopulationAxioms) }

func parsed(axioms string) *ontology.Ontology {
	o := ontology.New()
	if err := o.Parse(strings.NewReader(axioms)); err != nil {
		panic(err) // the constants above parse
	}
	return o
}

// LifeSci generates the three Figure-2 sources. The canonical paper
// entities and edges are always present; nDrugs/nGenes/nDiseases add
// synthetic bulk around them (0 for just the canon). Cross-source
// duplicates (the same drug/gene under different keys and schemas) are
// included so entity resolution has real work.
func LifeSci(seed int64, nDrugs, nGenes, nDiseases int) []Dataset {
	r := rand.New(rand.NewSource(seed))

	drugbank := Dataset{Source: "drugbank"}
	ctd := Dataset{Source: "ctd"}
	uniprot := Dataset{Source: "uniprot"}

	// --- canonical Figure-2 content -----------------------------------
	canonDrugs := []struct {
		key, name, class string
	}{
		{"DB00682", "Warfarin", "Approved Drugs"},
		{"DB01050", "Ibuprofen", "Phenylpropionates"},
		{"DB00316", "Acetaminophen", "Approved Drugs"},
		{"DB00563", "Methotrexate", "Heterocyclic"},
		{"DB01118", "Aminopterin", "Heterocyclic"},
	}
	for _, d := range canonDrugs {
		drugbank.Entities = append(drugbank.Entities, EntitySpec{
			Key:   d.key,
			Types: []string{"Drug", d.class},
			Attrs: model.Record{"name": model.String(d.name)},
		})
	}
	canonGenes := []struct{ key, symbol, function string }{
		{"P35354", "PTGS2", "prostaglandin synthase"},
		{"P00374", "DHFR", "limits cell growth"},
		{"P04637", "TP53", "tumor suppressor"},
	}
	for _, g := range canonGenes {
		uniprot.Entities = append(uniprot.Entities, EntitySpec{
			Key:   g.key,
			Types: []string{"Gene"},
			Attrs: model.Record{"symbol": model.String(g.symbol), "function": model.String(g.function)},
		})
	}
	// CTD mirrors genes and diseases under its own schema (names, not
	// accessions) — the duplicates ER must merge.
	for _, g := range canonGenes {
		ctd.Entities = append(ctd.Entities, EntitySpec{
			Key:   "gene:" + g.symbol,
			Types: []string{"Gene"},
			Attrs: model.Record{"gene_symbol": model.String(g.symbol)},
		})
	}
	canonDiseases := []struct{ key, name, class string }{
		{"mesh:D001172", "Rheumatoid Arthritis", "Rheumatoid Arthritis"},
		{"mesh:D012516", "Osteosarcoma", "Osteosarcoma"},
		{"mesh:D004617", "Embolism", "Disease"},
		{"mesh:D005334", "Relief Fever", "Disease"},
	}
	for _, d := range canonDiseases {
		ctd.Entities = append(ctd.Entities, EntitySpec{
			Key:   d.key,
			Types: []string{d.class},
			Attrs: model.Record{"disease_name": model.String(d.name)},
		})
	}
	// DrugBank's drug → target/treatment rows (Figure 2's table).
	drugbank.Links = append(drugbank.Links,
		LinkSpec{FromKey: "DB01050", Predicate: "targets_symbol", Literal: model.String("PTGS2"), Confidence: 1},
		LinkSpec{FromKey: "DB00316", Predicate: "targets_symbol", Literal: model.String("PTGS2"), Confidence: 1},
		LinkSpec{FromKey: "DB00563", Predicate: "targets_symbol", Literal: model.String("DHFR"), Confidence: 1},
		LinkSpec{FromKey: "DB00682", Predicate: "targets_symbol", Literal: model.String("TP53"), Confidence: 1},
		LinkSpec{FromKey: "DB00682", Predicate: "treats_name", Literal: model.String("Embolism"), Confidence: 1},
		LinkSpec{FromKey: "DB01050", Predicate: "treats_name", Literal: model.String("Rheumatoid Arthritis"), Confidence: 1},
		LinkSpec{FromKey: "DB00316", Predicate: "treats_name", Literal: model.String("Relief Fever"), Confidence: 1},
		LinkSpec{FromKey: "DB00563", Predicate: "treats_name", Literal: model.String("Osteosarcoma"), Confidence: 1},
	)
	// CTD: gene-gene interaction and gene-disease association (Figure 2).
	ctd.Links = append(ctd.Links,
		LinkSpec{FromKey: "gene:PTGS2", Predicate: "interactsWith", ToKey: "gene:TP53", Confidence: 1},
		LinkSpec{FromKey: "gene:TP53", Predicate: "associatedWith", ToKey: "mesh:D012516", Confidence: 1},
	)
	// Unstructured abstracts: the extraction path (instance layer).
	ctd.Texts = []string{
		"Methotrexate treats Rheumatoid Arthritis. Methotrexate targets DHFR.",
		"Ibuprofen targets PTGS2; Acetaminophen targets PTGS2.",
		"Warfarin treats Embolism.",
	}

	// --- synthetic bulk -------------------------------------------------
	for i := 0; i < nGenes; i++ {
		sym := fmt.Sprintf("GEN%04d", i)
		uniprot.Entities = append(uniprot.Entities, EntitySpec{
			Key:   fmt.Sprintf("U%05d", i),
			Types: []string{"Gene"},
			Attrs: model.Record{"symbol": model.String(sym), "function": model.String(randFunction(r))},
		})
		if r.Float64() < 0.5 {
			ctd.Entities = append(ctd.Entities, EntitySpec{
				Key:   "gene:" + sym,
				Types: []string{"Gene"},
				Attrs: model.Record{"gene_symbol": model.String(sym)},
			})
		}
	}
	for i := 0; i < nDiseases; i++ {
		name := fmt.Sprintf("syndrome %04d", i)
		class := []string{"Disease", "Neoplasms", "Joint Diseases", "Autoimmune"}[r.Intn(4)]
		ctd.Entities = append(ctd.Entities, EntitySpec{
			Key:   fmt.Sprintf("mesh:S%05d", i),
			Types: []string{class},
			Attrs: model.Record{"disease_name": model.String(name)},
		})
	}
	for i := 0; i < nDrugs; i++ {
		name := fmt.Sprintf("compound %04d", i)
		class := []string{"Approved Drugs", "Heterocyclic", "Phenylpropionates"}[r.Intn(3)]
		key := fmt.Sprintf("DBX%05d", i)
		drugbank.Entities = append(drugbank.Entities, EntitySpec{
			Key:   key,
			Types: []string{"Drug", class},
			Attrs: model.Record{"name": model.String(name)},
		})
		if nGenes > 0 {
			sym := fmt.Sprintf("GEN%04d", r.Intn(nGenes))
			drugbank.Links = append(drugbank.Links, LinkSpec{
				FromKey: key, Predicate: "targets_symbol", Literal: model.String(sym), Confidence: 1,
			})
		}
		if nDiseases > 0 && r.Float64() < 0.7 {
			drugbank.Links = append(drugbank.Links, LinkSpec{
				FromKey: key, Predicate: "treats_name",
				Literal:    model.String(fmt.Sprintf("syndrome %04d", r.Intn(nDiseases))),
				Confidence: 1,
			})
		}
	}
	return []Dataset{drugbank, ctd, uniprot}
}

func randFunction(r *rand.Rand) string {
	verbs := []string{"regulates", "inhibits", "activates", "binds", "transports"}
	nouns := []string{"cell growth", "protein folding", "signal transduction", "dna repair", "lipid metabolism"}
	return verbs[r.Intn(len(verbs))] + " " + nouns[r.Intn(len(nouns))]
}

// TrialSource is one country's clinical-trial dataset for the Warfarin
// example: internally consistent, demographically biased.
type TrialSource struct {
	Source     string
	Population string  // the context class
	Dose       float64 // the effective dose this population's trials report
	Records    []model.Record
}

// ClinicalTrials generates the paper's Section 4.2 scenario: per-population
// sources whose reported effective Warfarin doses differ (5.1 White / 3.4
// Asian / 6.1 Black, as in the paper), each with n supporting trial
// records jittered around the source's dose.
func ClinicalTrials(seed int64, recordsPerSource int) []TrialSource {
	r := rand.New(rand.NewSource(seed))
	defs := []struct {
		source, pop string
		dose        float64
	}{
		{"trials-us", "White", 5.1},
		{"trials-asia", "Asian", 3.4},
		{"trials-africa", "Black", 6.1},
	}
	out := make([]TrialSource, 0, len(defs))
	for _, d := range defs {
		ts := TrialSource{Source: d.source, Population: d.pop, Dose: d.dose}
		for i := 0; i < recordsPerSource; i++ {
			ts.Records = append(ts.Records, model.Record{
				"trial":      model.String(fmt.Sprintf("%s-%04d", d.source, i)),
				"drug":       model.String("Warfarin"),
				"population": model.String(d.pop),
				"dose_mg":    model.Float(d.dose + (r.Float64()-0.5)*0.2),
				"outcome":    model.String([]string{"effective", "effective", "effective", "adverse"}[r.Intn(4)]),
			})
		}
		out = append(out, ts)
	}
	return out
}

// DirtyPair names two keys that denote the same real-world entity
// (ground truth for ER experiments).
type DirtyPair struct {
	KeyA, KeyB string
}

// DirtyTables generates ER benchmark sources: nSources tables over the
// same universe of real entities, each covering overlap fraction of the
// universe, with per-record attribute noise (typos/token drops) at the
// given rate. Ground-truth duplicate pairs (cross-source) are returned.
func DirtyTables(seed int64, nSources, universe int, overlap, noise float64) ([]Dataset, []DirtyPair) {
	r := rand.New(rand.NewSource(seed))
	names := make([]string, universe)
	for i := range names {
		names[i] = fmt.Sprintf("%s %s corporation %04d",
			[]string{"acme", "globex", "initech", "umbrella", "stark", "wayne", "cyberdyne", "tyrell"}[r.Intn(8)],
			[]string{"trading", "logistics", "systems", "dynamics", "labs"}[r.Intn(5)], i)
	}
	firstKey := map[int]string{} // universe index → first source key
	var truth []DirtyPair
	var sets []Dataset
	for s := 0; s < nSources; s++ {
		ds := Dataset{Source: fmt.Sprintf("src%02d", s)}
		for u := 0; u < universe; u++ {
			if r.Float64() > overlap && s > 0 {
				continue // this source doesn't cover u
			}
			key := fmt.Sprintf("src%02d:%04d", s, u)
			name := names[u]
			if r.Float64() < noise {
				name = perturb(r, name)
			}
			ds.Entities = append(ds.Entities, EntitySpec{
				Key:   key,
				Types: []string{"Org"},
				Attrs: model.Record{
					attrName(s): model.String(name),
					"region":    model.String([]string{"emea", "apac", "amer"}[u%3]),
				},
			})
			if prev, ok := firstKey[u]; ok {
				truth = append(truth, DirtyPair{KeyA: prev, KeyB: key})
			} else {
				firstKey[u] = key
			}
		}
		sets = append(sets, ds)
	}
	return sets, truth
}

// attrName varies the schema across sources (cross-schema ER).
func attrName(source int) string {
	return []string{"name", "company", "org_name", "legal_name"}[source%4]
}

// perturb introduces a small typo: swap, drop, or duplicate a character.
func perturb(r *rand.Rand, s string) string {
	if len(s) < 4 {
		return s
	}
	b := []byte(s)
	i := 1 + r.Intn(len(b)-2)
	switch r.Intn(3) {
	case 0:
		b[i], b[i+1] = b[i+1], b[i]
	case 1:
		b = append(b[:i], b[i+1:]...)
	default:
		b = append(b[:i+1], b[i:]...)
	}
	return string(b)
}

// Stream generates a deterministic sequence of single-entity datasets
// mimicking devices/posts arriving one at a time, with duplicates across
// "platforms" so incremental ER keeps working.
func Stream(seed int64, n int) []Dataset {
	r := rand.New(rand.NewSource(seed))
	var out []Dataset
	for i := 0; i < n; i++ {
		device := fmt.Sprintf("sensor unit %04d", r.Intn(n/2+1))
		platform := []string{"iot-hub", "social-feed", "edge-gw"}[r.Intn(3)]
		out = append(out, Dataset{
			Source: platform,
			Entities: []EntitySpec{{
				Key:   fmt.Sprintf("%s:%06d", platform, i),
				Types: []string{"Device"},
				Attrs: model.Record{
					"label":   model.String(device),
					"reading": model.Float(20 + r.Float64()*10),
					"seq":     model.Int(int64(i)),
				},
			}},
		})
	}
	return out
}

// Station codes are digit-free on purpose — the fuzzy similarity
// measures are withheld when numeric tokens disagree, so a typo inside
// "st0042" would trip that identifier guard instead of exercising
// approximate matching. Each station is named by a 4-letter base-6 code
// (a short, precise token — the only blocking key that distinguishes
// stations) plus the code spelled out in words (trigram-rich embedding
// ballast). Each code position draws from its own six-word list, so the
// word set uniquely identifies the code (repeated letters cannot collapse
// two stations into one trigram set), and words are pairwise ≥7 edits
// apart within a list, so two distinct stations always score below the
// resolution threshold while a one-character code typo keeps a true
// duplicate well above it.
var (
	codeLetters = "bcdfgh"
	codeWords   = [4][6]string{
		{"fennel", "saffron", "rosemary", "wisteria", "edelweiss", "quillback"},
		{"russet", "gentian", "oleander", "driftwood", "jacaranda", "yellowtail"},
		{"cinder", "hemlock", "obsidian", "birchwood", "ultramarine", "zucchini"},
		{"basalt", "gardenia", "anemone", "whirlpool", "ironweed", "snowdrop"},
	}
)

// siteCode renders a station index (< 1296) as its 4-letter base-6 code
// and the code's spelled-out words.
func siteCode(station int) (string, [4]string) {
	var code [4]byte
	var words [4]string
	for i := 3; i >= 0; i-- {
		d := station % 6
		station /= 6
		code[i] = codeLetters[d]
		words[i] = codeWords[i][d]
	}
	return string(code[:]), words
}

// perturbCode injects one early-character typo (drop or duplicate — one
// edit) into a station code: the worst case for prefix blocking, which
// loses the only distinguishing block key, while edit-distance and
// trigram similarity of the full label barely move.
func perturbCode(r *rand.Rand, code string) string {
	b := []byte(code)
	p := 1 + r.Intn(2)
	if r.Intn(2) == 0 {
		return string(append(b[:p:p], b[p+1:]...)) // drop
	}
	return string(append(b[:p+1:p+1], append([]byte{b[p]}, b[p+1:]...)...)) // duplicate
}

// IoTSensors generates the high-cardinality ER stress corpus: nGateways
// gateways each report every one of nStations field stations (< 1296 for
// unique codes), rounds times over — near-duplicate readings under
// stable per-gateway keys, so repeat rounds re-deliver every key. With
// probability noise a report's station code takes an early-character
// typo, the regime where token-prefix blocking goes blind — the damaged
// code hashes into a different block, and every other label token is so
// common its block overflows the per-key cap — but embedding-based
// candidate generation does not, because the spelled-out code dominates
// the trigram features. Ground-truth cross-gateway duplicate pairs are
// returned for recall measurement.
func IoTSensors(seed int64, nGateways, nStations, rounds int, noise float64) ([]Dataset, []DirtyPair) {
	r := rand.New(rand.NewSource(seed))
	labelAttr := []string{"label", "sensor_name", "station_label", "descriptor"}
	var truth []DirtyPair
	for st := 0; st < nStations; st++ {
		for g := 1; g < nGateways; g++ {
			truth = append(truth, DirtyPair{
				KeyA: fmt.Sprintf("gw%02d:st%04d", 0, st),
				KeyB: fmt.Sprintf("gw%02d:st%04d", g, st),
			})
		}
	}
	var sets []Dataset
	for round := 0; round < rounds; round++ {
		for g := 0; g < nGateways; g++ {
			ds := Dataset{Source: fmt.Sprintf("gw%02d", g)}
			for st := 0; st < nStations; st++ {
				code, words := siteCode(st)
				if r.Float64() < noise {
					code = perturbCode(r, code)
				}
				label := fmt.Sprintf("station %s %s %s %s %s", code, words[0], words[1], words[2], words[3])
				ds.Entities = append(ds.Entities, EntitySpec{
					Key:   fmt.Sprintf("gw%02d:st%04d", g, st),
					Types: []string{"Device"},
					Attrs: model.Record{
						labelAttr[g%len(labelAttr)]: model.String(label),
						"reading":                   model.Float(15 + r.Float64()*20),
					},
				})
			}
			sets = append(sets, ds)
		}
	}
	return sets, truth
}
