// Lifesci reproduces Figure 2 of the paper: three heterogeneous
// life-science sources (DrugBank-, CTD-, and UniProt-like) are fused into
// one enriched model — entity resolution merges the cross-source gene
// records, link discovery turns literal gene symbols into edges,
// information extraction reads the abstracts, and the reasoner derives the
// paper's example inference (Acetaminophen must have a target because
// Drug ⊑ ∃hasTarget.Gene).
package main

import (
	"fmt"
	"log"

	"scdb"
)

func main() {
	db, err := scdb.Open(scdb.Options{
		Axioms:    scdb.LifeSciAxioms,
		LinkRules: scdb.LifeSciLinkRules(),
		Patterns:  scdb.LifeSciPatterns(),
	})
	must(err)
	defer db.Close()

	fmt.Println("Ingesting the three Figure-2 sources with synthetic bulk...")
	for _, src := range scdb.LifeSciSample(7, 200, 120, 80) {
		must(db.Ingest(src))
	}
	st := db.Stats()
	fmt.Printf("Curated: %d entities, %d edges, %d ER merges, %d inferred types\n\n",
		st.Entities, st.Edges, st.Merges, st.InferredTypes)

	// The Figure-2 discovery chain: which drugs are connected to bone
	// cancer? Methotrexate treats it directly; Warfarin reaches it through
	// its target gene TP53 and CTD's gene-disease association.
	q := `SELECT name FROM Drug AS d WHERE REACHES(d._id, 'Osteosarcoma', 3) ORDER BY name WITH SEMANTICS`
	rows, info, err := db.QueryInfo(q)
	must(err)
	fmt.Println("Drugs reaching Osteosarcoma within 3 hops:")
	for _, r := range rows.Data {
		fmt.Printf("  %v\n", r[0])
	}
	fmt.Printf("(plan estimated cost %.0f)\n\n", info.EstimatedCost)

	// The paper's example inference: no source asserts a target for
	// Aminopterin, yet the ontology's existential restriction proves one
	// must exist. Acetaminophen's witness, in contrast, was discharged by
	// the extracted "Acetaminophen targets PTGS2" sentence.
	fmt.Println("Existential witnesses (knowledge the database knows it lacks):")
	rows, err = db.Query("SELECT entity, role, filler, because FROM witnesses()")
	must(err)
	for _, w := range rows.Data {
		fmt.Printf("  %s ⊑ ∃%s.%s   (via %s)\n", w[0], w[1], w[2], w[3])
	}

	// Semantic query optimization (OS.3): the ontology proves a query
	// empty without touching data.
	info, err = db.Explain(`SELECT name FROM Drug AS d WHERE ISA(d._id, 'Osteosarcoma') WITH SEMANTICS`)
	must(err)
	fmt.Println("\nEXPLAIN of 'drugs that are bone cancers' (disjoint concepts):")
	fmt.Print(info.Plan)
	for _, rule := range info.Rules {
		fmt.Println("  rewrite:", rule)
	}

	// And the subsumption collapse: asking for Drugs that are Chemicals is
	// asking for Drugs.
	info, err = db.Explain(`SELECT name FROM Drug AS d WHERE ISA(d._id, 'Chemical') WITH SEMANTICS`)
	must(err)
	fmt.Println("\nEXPLAIN of 'drugs that are chemicals' (redundant predicate):")
	fmt.Print(info.Plan)
	for _, rule := range info.Rules {
		fmt.Println("  rewrite:", rule)
	}

	// Source richness (FS.2): who contributes the most information?
	rows, err = db.Query("SELECT source, score FROM richness() ORDER BY source")
	must(err)
	fmt.Println("\nSource richness:")
	for _, r := range rows.Data {
		fmt.Printf("  %-12s %.3f\n", r[0], r[1])
	}

	// The statistical semantic layer (FS.4): where should Aminopterin's
	// missing target be looked for? Aminopterin shares the Heterocyclic
	// class with Methotrexate, so co-occurrence statistics point at its
	// known targets.
	rows, err = db.Query(`SELECT "from", "to", confidence FROM suggest_links('Aminopterin', 'targets', 3)`)
	must(err)
	fmt.Println("\nPredicted targets for Aminopterin (statistical layer):")
	for _, s := range rows.Data {
		fmt.Printf("  %s -[targets]-> %-12s confidence %.2f\n", s[0], s[1], s[2])
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
