package ontology

import (
	"fmt"
	"strings"
	"testing"
)

// lifesci builds the Figure-2 style ontology used across the tests.
func lifesci() *Ontology {
	o := New()
	o.SubConceptOf("Approved Drugs", "Drug")
	o.SubConceptOf("Drug", "Chemical")
	o.SubConceptOf("Carboxylic Acids", "Chemical")
	o.SubConceptOf("Neoplasms", "Disease")
	o.SubConceptOf("Joint Diseases", "Disease")
	o.SubConceptOf("Autoimmune", "Disease")
	o.SubConceptOf("Arthritis", "Joint Diseases")
	o.SubConceptOf("Rheumatoid Arthritis", "Arthritis")
	o.SubConceptOf("Rheumatoid Arthritis", "Autoimmune")
	o.SubConceptOf("Osteosarcoma", "Neoplasms")
	o.Disjoint("Chemical", "Disease")
	o.AddExistential("Drug", "hasTarget", "Gene")
	o.SubRoleOf("targets", "affects")
	o.Transitive("subClassOf")
	o.InverseOf("targets", "targetedBy")
	o.Domain("targets", "Drug")
	o.Range("targets", "Gene")
	return o
}

func TestSubsumption(t *testing.T) {
	o := lifesci()
	cases := []struct {
		d, c string
		want bool
	}{
		{"Chemical", "Approved Drugs", true},
		{"Drug", "Approved Drugs", true},
		{"Drug", "Drug", true},
		{"Approved Drugs", "Drug", false},
		{"Disease", "Rheumatoid Arthritis", true},
		{"Autoimmune", "Rheumatoid Arthritis", true},
		{"Gene", "Drug", false},
		{"Disease", "Chemical", false},
	}
	for _, c := range cases {
		if got := o.Subsumes(c.d, c.c); got != c.want {
			t.Errorf("Subsumes(%q, %q) = %v, want %v", c.d, c.c, got, c.want)
		}
	}
}

func TestAncestorsDescendantsChildren(t *testing.T) {
	o := lifesci()
	anc := o.Ancestors("Rheumatoid Arthritis")
	want := []string{"Arthritis", "Autoimmune", "Disease", "Joint Diseases"}
	if strings.Join(anc, ",") != strings.Join(want, ",") {
		t.Errorf("Ancestors = %v, want %v", anc, want)
	}
	var desc []string
	for _, c := range o.Concepts() {
		if c != "Disease" && o.Subsumes("Disease", c) {
			desc = append(desc, c)
		}
	}
	if len(desc) != 6 {
		t.Errorf("descendants of Disease = %v", desc)
	}
	ch := o.Children("Disease")
	if strings.Join(ch, ",") != "Autoimmune,Joint Diseases,Neoplasms" {
		t.Errorf("Children = %v", ch)
	}
}

func TestDisjointness(t *testing.T) {
	o := lifesci()
	if !o.AreDisjoint("Chemical", "Disease") {
		t.Error("direct disjointness lost")
	}
	// Inherited: Drug ⊑ Chemical, Osteosarcoma ⊑ Disease.
	if !o.AreDisjoint("Drug", "Osteosarcoma") {
		t.Error("inherited disjointness must hold")
	}
	if o.AreDisjoint("Drug", "Approved Drugs") {
		t.Error("sub/super concepts are not disjoint")
	}
	if o.AreDisjoint("Arthritis", "Autoimmune") {
		t.Error("overlapping disease classes are not disjoint")
	}
}

// TestAreDisjointAllocatesNothing: a disjointness check reads the cached
// ancestor sets in place, whether an axiom decides it or none applies.
func TestAreDisjointAllocatesNothing(t *testing.T) {
	o := lifesci()
	for _, tc := range []struct {
		c, d string
		want bool
	}{
		{"Approved Drugs", "Rheumatoid Arthritis", true}, // inherited Chemical ⊓ Disease
		{"Arthritis", "Autoimmune", false},               // ancestors, no axiom
		{"Approved Drugs", "Drug", false},
	} {
		if got := o.AreDisjoint(tc.c, tc.d); got != tc.want { // also warms the ancestor cache
			t.Fatalf("AreDisjoint(%q, %q) = %v, want %v", tc.c, tc.d, got, tc.want)
		}
		if a := testing.AllocsPerRun(100, func() { o.AreDisjoint(tc.c, tc.d) }); a != 0 {
			t.Errorf("AreDisjoint(%q, %q): %.0f allocations, want 0", tc.c, tc.d, a)
		}
	}
}

// TestExistentialsAllocatesNothing: a warm call returns the answer cached
// beside the ancestor sets (3 objects a call when it was rebuilt each
// time), and a mutation drops it.
func TestExistentialsAllocatesNothing(t *testing.T) {
	o := lifesci()
	want := fmt.Sprint(o.Existentials("Approved Drugs")) // also warms the cache
	if a := testing.AllocsPerRun(100, func() { o.Existentials("Approved Drugs") }); a != 0 {
		t.Errorf("Existentials(Approved Drugs): %.0f allocations, want 0", a)
	}
	if got := fmt.Sprint(o.Existentials("Approved Drugs")); got != want {
		t.Errorf("a warm call answers %s, a cold one %s", got, want)
	}
	o.AddExistential("Drug", "treats", "Disease")
	if got := o.Existentials("Approved Drugs"); len(got) != 2 || got[1] != (Existential{Role: "treats", Filler: "Disease"}) {
		t.Errorf("after a new axiom on an ancestor: %v", got)
	}
}

func TestSatisfiability(t *testing.T) {
	o := lifesci()
	if !o.Satisfiable("Rheumatoid Arthritis") {
		t.Error("RA must be satisfiable")
	}
	// A concept under both Chemical and Disease is unsatisfiable.
	o.SubConceptOf("Weird", "Drug")
	o.SubConceptOf("Weird", "Osteosarcoma")
	if o.Satisfiable("Weird") {
		t.Error("Weird ⊑ Chemical ⊓ Disease must be unsatisfiable")
	}
	if !o.AreDisjoint("Drug", "Neoplasms") {
		t.Error("conjunction of disjoint concepts must be unsatisfiable")
	}
	if o.AreDisjoint("Arthritis", "Autoimmune") || !o.Satisfiable("Arthritis") || !o.Satisfiable("Autoimmune") {
		t.Error("overlapping conjunction must be satisfiable")
	}
}

func TestDisjointPartition(t *testing.T) {
	o := New()
	o.SubConceptOf("White", "Population")
	o.SubConceptOf("Asian", "Population")
	o.SubConceptOf("Black", "Population")
	o.Disjoint("White", "Asian")
	o.Disjoint("White", "Black")
	o.Disjoint("Asian", "Black")
	part := o.DisjointPartition("Population")
	if strings.Join(part, ",") != "Asian,Black,White" {
		t.Errorf("DisjointPartition = %v", part)
	}
	// Without pairwise disjointness there is no usable partition.
	o2 := New()
	o2.SubConceptOf("A", "P")
	o2.SubConceptOf("B", "P")
	if o2.DisjointPartition("P") != nil {
		t.Error("non-disjoint children must yield nil partition")
	}
}

func TestExistentials(t *testing.T) {
	o := lifesci()
	ex := o.Existentials("Approved Drugs")
	if len(ex) != 1 || ex[0].Role != "hasTarget" || ex[0].Filler != "Gene" {
		t.Errorf("Existentials inherited = %v", ex)
	}
	if got := o.Existentials("Disease"); got != nil {
		t.Errorf("Disease existentials = %v", got)
	}
	// Duplicates collapse.
	o.AddExistential("Drug", "hasTarget", "Gene")
	if len(o.Existentials("Drug")) != 1 {
		t.Error("duplicate existential must collapse")
	}
}

func TestRoles(t *testing.T) {
	o := lifesci()
	if !o.SubsumesRole("affects", "targets") {
		t.Error("targets ⊑ affects")
	}
	if o.SubsumesRole("targets", "affects") {
		t.Error("affects does not specialize targets")
	}
	if !o.SubsumesRole("targets", "targets") {
		t.Error("role subsumes itself")
	}
	if !isTransitive(o, "subClassOf") || isTransitive(o, "targets") {
		t.Error("transitivity flags wrong")
	}
	if inv, ok := inverse(o, "targets"); !ok || inv != "targetedBy" {
		t.Error("inverse lost")
	}
	if inv, ok := inverse(o, "targetedBy"); !ok || inv != "targets" {
		t.Error("inverse must be symmetric")
	}
	if _, ok := inverse(o, "affects"); ok {
		t.Error("affects has no inverse")
	}
	if got := o.DomainsOf("targets"); len(got) != 1 || got[0] != "Drug" {
		t.Errorf("DomainsOf = %v", got)
	}
	if got := o.RangesOf("targets"); len(got) != 1 || got[0] != "Gene" {
		t.Errorf("RangesOf = %v", got)
	}
}

func TestRoleDomainInheritance(t *testing.T) {
	o := New()
	o.SubRoleOf("targets", "affects")
	o.Domain("affects", "Chemical")
	got := o.DomainsOf("targets")
	if len(got) != 1 || got[0] != "Chemical" {
		t.Errorf("domain must inherit via role hierarchy: %v", got)
	}
}

func TestSubsumptionCycleIsEquivalence(t *testing.T) {
	o := New()
	o.SubConceptOf("A", "B")
	o.SubConceptOf("B", "A")
	if !o.Subsumes("A", "B") || !o.Subsumes("B", "A") {
		t.Error("cyclic subsumption must behave as equivalence")
	}
	// And it must not hang.
	o.SubConceptOf("B", "C")
	if !o.Subsumes("C", "A") {
		t.Error("closure through cycle broken")
	}
}

func TestInstanceCounts(t *testing.T) {
	o := lifesci()
	if _, ok := o.InstanceCount("Disease"); ok {
		t.Error("no stats yet")
	}
	o.SetInstanceCount("Neoplasms", 100)
	o.SetInstanceCount("Joint Diseases", 50)
	o.SetInstanceCount("Autoimmune", 20)
	if n, ok := o.InstanceCount("Neoplasms"); !ok || n != 100 {
		t.Errorf("direct count = %d %v", n, ok)
	}
	// Parent without stats sums children.
	if n, ok := o.InstanceCount("Disease"); !ok || n != 170 {
		t.Errorf("inferred parent count = %d %v, want 170", n, ok)
	}
	if _, ok := o.InstanceCount("Gene"); ok {
		t.Error("Gene has no stats anywhere")
	}
}

func TestVersionAndCacheInvalidation(t *testing.T) {
	o := New()
	o.SubConceptOf("A", "B")
	v := o.Version()
	if !o.Subsumes("B", "A") {
		t.Fatal("A ⊑ B")
	}
	// Mutation after a cached closure must invalidate it.
	o.SubConceptOf("B", "C")
	if o.Version() == v {
		t.Error("version must bump")
	}
	if !o.Subsumes("C", "A") {
		t.Error("closure cache must be invalidated on mutation")
	}
}

func TestParseLinesRoundTrip(t *testing.T) {
	src := `
# life science fragment
sub Drug Chemical
sub Approved_Drugs Drug
disjoint Chemical Disease
exists Drug hasTarget Gene
subrole targets affects
trans partOf
inverse targets targetedBy
domain targets Drug
range targets Gene
concept Orphan
`
	o := New()
	if err := o.Parse(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if !o.Subsumes("Chemical", "Approved Drugs") {
		t.Error("parsed hierarchy broken")
	}
	if !o.AreDisjoint("Drug", "Disease") {
		t.Error("parsed disjointness broken")
	}
	if !o.HasConcept("Orphan") {
		t.Error("concept declaration lost")
	}
	if !isTransitive(o, "partOf") {
		t.Error("parsed transitivity broken")
	}

	// Lines keeps every axiom and drops the comment, as the catalog stores
	// them; parsed again they give the same ontology.
	lines, err := Lines(src)
	if err != nil || len(lines) != 10 {
		t.Fatalf("Lines = %q, %v", lines, err)
	}
	o2 := New()
	if err := o2.Parse(strings.NewReader(strings.Join(lines, "\n"))); err != nil {
		t.Fatalf("re-parse of lines: %v\n%s", err, lines)
	}
	if !o2.Subsumes("Chemical", "Approved Drugs") || !o2.AreDisjoint("Drug", "Disease") ||
		!isTransitive(o2, "partOf") || !o2.HasConcept("Orphan") {
		t.Error("lines/parse round trip lost axioms")
	}
	if _, err := Lines(src + "sub Drug\n"); err == nil {
		t.Error("a line that does not parse must fail the text")
	}
	if inv, ok := inverse(o2, "targetedBy"); !ok || inv != "targets" {
		t.Error("round trip lost inverse")
	}
}

func TestParseErrors(t *testing.T) {
	o := New()
	if err := o.Parse(strings.NewReader("nonsense line here maybe")); err == nil {
		t.Error("unparseable line must error")
	}
	if err := o.Parse(strings.NewReader("sub OnlyOne")); err == nil {
		t.Error("wrong arity must error")
	}
}

// isTransitive and inverse read a role's parsed trans and inverse axioms.
func isTransitive(o *Ontology, r string) bool { return o.roles[r] != nil && o.roles[r].transitive }

func inverse(o *Ontology, r string) (string, bool) {
	if o.roles[r] == nil || o.roles[r].inverse == "" {
		return "", false
	}
	return o.roles[r].inverse, true
}
