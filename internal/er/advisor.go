package er

// EntityView is the read-only projection of a candidate entity handed to a
// CurationAdvisor: the source name, the sorted deduplicated normalized
// value tokens, and the normalized attribute texts sorted by name. The
// slices are shared with the resolver's index and must not be mutated. The
// entity's graph ID is deliberately absent — pair review runs before the
// arriving entity's ID is assigned on the parallel scoring path, and an
// ID-dependent verdict would break the serial/parallel equivalence.
type EntityView struct {
	Source string
	Tokens []string
	Attrs  Attrs
}

// CurationAdvisor decides whether a scored candidate pair is a duplicate.
// It is the pluggable seam for richer curation models — a learned matcher,
// source-pair rules, or an (offline-distilled) LLM verdict table — while
// the default stays a plain threshold over the pair score.
//
// Accept must be pure and deterministic: it is called from parallel
// scoring workers against immutable snapshots, and the pipeline's
// serial-vs-parallel differential guarantees (and tests) that corpus
// answers are byte-identical for every parallelism setting. An advisor
// that consults mutable state or randomness voids that property. Verdicts
// are still applied in strict record order, so an advisor never sees
// un-committed merges.
type CurationAdvisor interface {
	// Name identifies the advisor in stats and traces.
	Name() string
	// Accept reports whether the pair (with its pairScore) is a match.
	Accept(a, b EntityView, score float64) bool
}

// ThresholdAdvisor is the default CurationAdvisor: accept exactly when the
// pair score reaches the threshold — the classical behavior the rest of
// the resolver's guarantees are calibrated against. Its verdict needs a
// score's exact value only at or above the threshold, so a resolver with
// it scores a pair only that far (pairScore's floor): a rejected pair's
// score is some value below the threshold. Any other advisor is handed
// every score exact.
type ThresholdAdvisor struct {
	Threshold float64
}

// Name implements CurationAdvisor.
func (t ThresholdAdvisor) Name() string { return "threshold" }

// Accept implements CurationAdvisor.
func (t ThresholdAdvisor) Accept(_, _ EntityView, score float64) bool {
	return score >= t.Threshold
}

// view projects an indexed entity for advisor review (no copies; see
// EntityView's sharing contract).
func view(ix *indexed) EntityView {
	return EntityView{Source: ix.source, Tokens: ix.tokens, Attrs: ix.attrs}
}
