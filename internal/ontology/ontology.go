// Package ontology implements the TBox and RBox of the semantic layer
// (paper Section 3.3): concept inclusion axioms (C ⊑ D), concept
// disjointness, role inclusion (R ⊑ P), role transitivity and inverses,
// domain/range axioms, and existential restrictions (C ⊑ ∃R.D) — the
// fragment of SHIN the paper's examples exercise.
//
// Sub-roles are read by the reasoner and, under WITH SEMANTICS, by SCQL's
// REACHES and LINKED. Transitive and inverse roles are parsed and stored,
// but nothing reads them yet.
//
// The ontology is itself data: the catalog stores its axioms as rows of a
// system table, honouring the paper's unification of data and meta-data.
// This package holds the in-memory, classification-ready form.
package ontology

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Existential is a restriction C ⊑ ∃R.D: every instance of the concept has
// at least one R-edge to some instance of Filler. The paper's example: Drug
// ⊑ ∃hasTarget.Gene lets the database infer that Acetaminophen has a target
// even before the specific gene is discovered.
type Existential struct {
	Role   string
	Filler string
}

// concept is the TBox node for one named concept.
type concept struct {
	name         string
	parents      map[string]bool // direct C ⊑ D
	disjoint     map[string]bool // direct disjointness declarations
	existentials []Existential
	instances    int // optional statistics for the optimizer
}

// role is the RBox node for one named role.
type role struct {
	name       string
	parents    map[string]bool // direct R ⊑ P
	transitive bool
	inverse    string
	domain     []string
	rng        []string
}

// Ontology is a mutable TBox+RBox. It is safe for concurrent use. Ancestor
// closures are cached and invalidated on mutation.
type Ontology struct {
	mu       sync.RWMutex
	concepts map[string]*concept
	roles    map[string]*role
	version  uint64

	// closure caches, rebuilt lazily
	ancestorCache map[string]map[string]bool
	roleAncCache  map[string]map[string]bool
	existCache    map[string][]Existential
}

// New creates an empty ontology.
func New() *Ontology {
	return &Ontology{
		concepts: make(map[string]*concept),
		roles:    make(map[string]*role),
	}
}

// Version returns the mutation counter.
func (o *Ontology) Version() uint64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.version
}

func (o *Ontology) conceptLocked(name string) *concept {
	c, ok := o.concepts[name]
	if !ok {
		c = &concept{name: name, parents: map[string]bool{}, disjoint: map[string]bool{}}
		o.concepts[name] = c
	}
	return c
}

func (o *Ontology) roleLocked(name string) *role {
	r, ok := o.roles[name]
	if !ok {
		r = &role{name: name, parents: map[string]bool{}}
		o.roles[name] = r
	}
	return r
}

func (o *Ontology) invalidateLocked() {
	o.version++
	o.ancestorCache = nil
	o.roleAncCache = nil
	o.existCache = nil
}

// DeclareConcept ensures the concept exists (useful for leaf concepts with
// no axioms).
func (o *Ontology) DeclareConcept(name string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.conceptLocked(name)
	o.invalidateLocked()
}

// SubConceptOf asserts C ⊑ D.
func (o *Ontology) SubConceptOf(c, d string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.conceptLocked(c).parents[d] = true
	o.conceptLocked(d)
	o.invalidateLocked()
}

// Disjoint asserts that the two concepts share no instances. Disjointness
// is inherited by subconcepts.
func (o *Ontology) Disjoint(c, d string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.conceptLocked(c).disjoint[d] = true
	o.conceptLocked(d).disjoint[c] = true
	o.invalidateLocked()
}

// AddExistential asserts C ⊑ ∃R.D.
func (o *Ontology) AddExistential(c, r, filler string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	cn := o.conceptLocked(c)
	for _, e := range cn.existentials {
		if e.Role == r && e.Filler == filler {
			return
		}
	}
	cn.existentials = append(cn.existentials, Existential{Role: r, Filler: filler})
	o.conceptLocked(filler)
	o.roleLocked(r)
	o.invalidateLocked()
}

// SubRoleOf asserts R ⊑ P.
func (o *Ontology) SubRoleOf(r, p string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.roleLocked(r).parents[p] = true
	o.roleLocked(p)
	o.invalidateLocked()
}

// Transitive marks the role transitive.
func (o *Ontology) Transitive(r string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.roleLocked(r).transitive = true
	o.invalidateLocked()
}

// InverseOf asserts that r and s are inverse roles.
func (o *Ontology) InverseOf(r, s string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.roleLocked(r).inverse = s
	o.roleLocked(s).inverse = r
	o.invalidateLocked()
}

// Domain asserts that subjects of the role belong to the concept.
func (o *Ontology) Domain(r, c string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.roleLocked(r).domain = appendUnique(o.roles[r].domain, c)
	o.conceptLocked(c)
	o.invalidateLocked()
}

// Range asserts that entity-valued objects of the role belong to the
// concept.
func (o *Ontology) Range(r, c string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.roleLocked(r).rng = appendUnique(o.roles[r].rng, c)
	o.conceptLocked(c)
	o.invalidateLocked()
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// HasConcept reports whether the concept is known to the TBox.
func (o *Ontology) HasConcept(name string) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	_, ok := o.concepts[name]
	return ok
}

// Concepts returns all concept names, sorted.
func (o *Ontology) Concepts() []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	names := make([]string, 0, len(o.concepts))
	for n := range o.concepts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Ancestors returns every concept D with C ⊑* D (excluding C itself unless
// C participates in a subsumption cycle), sorted.
func (o *Ontology) Ancestors(c string) []string {
	set := o.ancestorSet(c)
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ancestorSet returns the (cached) strict-or-cyclic ancestor closure.
func (o *Ontology) ancestorSet(c string) map[string]bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.ancestorSetLocked(c)
}

func (o *Ontology) ancestorSetLocked(c string) map[string]bool {
	if o.ancestorCache == nil {
		o.ancestorCache = make(map[string]map[string]bool)
	}
	if s, ok := o.ancestorCache[c]; ok {
		return s
	}
	set := make(map[string]bool)
	var visit func(string)
	visit = func(n string) {
		cn, ok := o.concepts[n]
		if !ok {
			return
		}
		for p := range cn.parents {
			if !set[p] {
				set[p] = true
				visit(p)
			}
		}
	}
	visit(c)
	o.ancestorCache[c] = set
	return set
}

// Subsumes reports whether C ⊑* D (every C is a D). A concept subsumes
// itself.
func (o *Ontology) Subsumes(d, c string) bool {
	if c == d {
		return true
	}
	return o.ancestorSet(c)[d]
}

// Children returns the direct subconcepts of d, sorted.
func (o *Ontology) Children(d string) []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	var res []string
	for n, c := range o.concepts {
		if c.parents[d] {
			res = append(res, n)
		}
	}
	sort.Strings(res)
	return res
}

// AreDisjoint reports whether the two concepts are disjoint, directly or
// through inherited declarations on any pair of ancestors.
func (o *Ontology) AreDisjoint(c, d string) bool {
	ca := o.ancestorSet(c)
	da := o.ancestorSet(d)
	o.mu.RLock()
	defer o.mu.RUnlock()
	// The cached ancestor sets are read in place, so a check allocates
	// nothing: the reasoner asks it for every pair of an entity's types.
	disjointFromD := func(a string) bool {
		an, ok := o.concepts[a]
		if !ok || len(an.disjoint) == 0 {
			return false
		}
		if an.disjoint[d] {
			return true
		}
		for b := range da {
			if an.disjoint[b] {
				return true
			}
		}
		return false
	}
	if disjointFromD(c) {
		return true
	}
	for a := range ca {
		if disjointFromD(a) {
			return true
		}
	}
	return false
}

func keys(m map[string]bool) []string {
	s := make([]string, 0, len(m))
	for k := range m {
		s = append(s, k)
	}
	return s
}

// Satisfiable reports whether the concept can have instances: false iff its
// ancestor closure (plus itself) contains a disjoint pair, in which case
// the optimizer can rewrite any query over it to the empty result (OS.3).
func (o *Ontology) Satisfiable(c string) bool {
	all := append(keys(o.ancestorSet(c)), c)
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if o.AreDisjoint(all[i], all[j]) {
				return false
			}
		}
	}
	return true
}

// DisjointPartition returns the direct children of d that are pairwise
// disjoint — the "disjoint classes of population" the context-aware query
// model drills down into (FS.6: ethnicity classes under Population for the
// Warfarin query). If fewer than two children are pairwise disjoint it
// returns nil.
func (o *Ontology) DisjointPartition(d string) []string {
	children := o.Children(d)
	var part []string
	for _, c := range children {
		ok := true
		for _, p := range part {
			if !o.AreDisjoint(c, p) {
				ok = false
				break
			}
		}
		if ok {
			part = append(part, c)
		}
	}
	if len(part) < 2 {
		return nil
	}
	return part
}

// Existentials returns the existential restrictions that apply to the
// concept, including those inherited from ancestors. The answer is cached
// beside the ancestor sets; callers only read it.
func (o *Ontology) Existentials(c string) []Existential {
	o.mu.Lock()
	defer o.mu.Unlock()
	if res, ok := o.existCache[c]; ok {
		return res
	}
	all := append(keys(o.ancestorSetLocked(c)), c)
	var res []Existential
	seen := map[Existential]bool{}
	sort.Strings(all)
	for _, n := range all {
		cn, ok := o.concepts[n]
		if !ok {
			continue
		}
		for _, e := range cn.existentials {
			if !seen[e] {
				seen[e] = true
				res = append(res, e)
			}
		}
	}
	if o.existCache == nil {
		o.existCache = make(map[string][]Existential)
	}
	o.existCache[c] = res
	return res
}

// roleAncestors returns the (cached) set of roles P with R ⊑* P,
// excluding R. Callers only read it.
func (o *Ontology) roleAncestors(r string) map[string]bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.roleAncCache == nil {
		o.roleAncCache = make(map[string]map[string]bool)
	}
	set, ok := o.roleAncCache[r]
	if !ok {
		set = make(map[string]bool)
		var visit func(string)
		visit = func(n string) {
			rn, ok := o.roles[n]
			if !ok {
				return
			}
			for p := range rn.parents {
				if !set[p] {
					set[p] = true
					visit(p)
				}
			}
		}
		visit(r)
		o.roleAncCache[r] = set
	}
	return set
}

// SubsumesRole reports whether R ⊑* P. A role subsumes itself. It is the
// one reading of the role hierarchy: the reasoner's and WITH SEMANTICS'.
func (o *Ontology) SubsumesRole(p, r string) bool { return p == r || o.roleAncestors(r)[p] }

// DomainsOf returns the declared domains of the role, including those of
// its role ancestors.
func (o *Ontology) DomainsOf(r string) []string {
	return o.inherited(r, func(rn *role) []string { return rn.domain })
}

// RangesOf returns the declared ranges of the role, including those of its
// role ancestors.
func (o *Ontology) RangesOf(r string) []string {
	return o.inherited(r, func(rn *role) []string { return rn.rng })
}

// inherited collects what of lists for r and its role ancestors, sorted
// and without repeats.
func (o *Ontology) inherited(r string, of func(*role) []string) []string {
	anc := o.roleAncestors(r)
	o.mu.RLock()
	defer o.mu.RUnlock()
	var res []string
	for n, rn := range o.roles {
		if n == r || anc[n] {
			for _, c := range of(rn) {
				res = appendUnique(res, c)
			}
		}
	}
	sort.Strings(res)
	return res
}

// SetInstanceCount records the observed number of instances of a concept;
// the optimizer uses these statistics (and, when a concept lacks one,
// infers bounds from sub/superconcepts — OS.3).
func (o *Ontology) SetInstanceCount(c string, n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.conceptLocked(c).instances = n
}

// InstanceCount returns the recorded instance count. When the concept has
// no direct statistic, the sum of its direct children's counts is used
// (classes partition their parent approximately); 0 with ok=false means no
// information at all.
func (o *Ontology) InstanceCount(c string) (int, bool) {
	o.mu.RLock()
	cn, ok := o.concepts[c]
	n := 0
	if ok {
		n = cn.instances
	}
	o.mu.RUnlock()
	if !ok {
		return 0, false
	}
	if n > 0 {
		return n, true
	}
	sum := 0
	for _, child := range o.Children(c) {
		if cn, ok := o.InstanceCount(child); ok {
			sum += cn
		}
	}
	if sum > 0 {
		return sum, true
	}
	return 0, false
}

// Parse loads axioms from a simple line-oriented text format, one axiom per
// line (blank lines and #-comments ignored):
//
//	concept C            declare concept
//	sub C D              C ⊑ D
//	disjoint C D         C and D are disjoint
//	exists C R D         C ⊑ ∃R.D
//	subrole R P          R ⊑ P
//	trans R              R is transitive
//	inverse R S          R and S are inverses
//	domain R C           subjects of R are C
//	range R C            objects of R are C
//
// Names containing spaces use underscores in the file ("Approved_Drugs").
func (o *Ontology) Parse(r io.Reader) error {
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		unescape := func(s string) string { return strings.ReplaceAll(s, "_", " ") }
		switch {
		case f[0] == "concept" && len(f) == 2:
			o.DeclareConcept(unescape(f[1]))
		case f[0] == "sub" && len(f) == 3:
			o.SubConceptOf(unescape(f[1]), unescape(f[2]))
		case f[0] == "disjoint" && len(f) == 3:
			o.Disjoint(unescape(f[1]), unescape(f[2]))
		case f[0] == "exists" && len(f) == 4:
			o.AddExistential(unescape(f[1]), unescape(f[2]), unescape(f[3]))
		case f[0] == "subrole" && len(f) == 3:
			o.SubRoleOf(unescape(f[1]), unescape(f[2]))
		case f[0] == "trans" && len(f) == 2:
			o.Transitive(unescape(f[1]))
		case f[0] == "inverse" && len(f) == 3:
			o.InverseOf(unescape(f[1]), unescape(f[2]))
		case f[0] == "domain" && len(f) == 3:
			o.Domain(unescape(f[1]), unescape(f[2]))
		case f[0] == "range" && len(f) == 3:
			o.Range(unescape(f[1]), unescape(f[2]))
		default:
			return fmt.Errorf("ontology: line %d: cannot parse %q", line, text)
		}
	}
	return sc.Err()
}

// Lines returns text's axioms in the Parse format, one a line, each with
// its words single-spaced, blank and comment lines dropped. It parses them
// into a throwaway ontology first, so a line that does not parse fails the
// whole text.
func Lines(text string) ([]string, error) {
	if err := New().Parse(strings.NewReader(text)); err != nil {
		return nil, err
	}
	var lines []string
	for _, l := range strings.Split(text, "\n") {
		if f := strings.Fields(l); len(f) > 0 && !strings.HasPrefix(f[0], "#") {
			lines = append(lines, strings.Join(f, " "))
		}
	}
	return lines, nil
}
