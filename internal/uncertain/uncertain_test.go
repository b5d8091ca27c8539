package uncertain

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"scdb/internal/model"
)

func TestCondEvalAndString(t *testing.T) {
	a := Assignment{"x": 1, "y": 0}
	cases := []struct {
		c    *Cond
		want bool
	}{
		{True(), true},
		{Eq("x", 1), true},
		{Eq("x", 0), false},
		{Eq("y", 0), true},
		{Eq("z", 0), true}, // an absent variable takes alternative 0
		{Eq("z", 1), false},
	}
	for i, c := range cases {
		if got := c.c.Eval(a); got != c.want {
			t.Errorf("case %d under %v = %v, want %v", i, a, got, c.want)
		}
	}
}

func TestSpaceDeclarations(t *testing.T) {
	s := NewSpace()
	if err := s.AddBool("x", 0.3); err != nil {
		t.Fatal(err)
	}
	if err := s.AddBool("x", 0.5); err == nil {
		t.Error("duplicate variable must fail")
	}
	if err := s.AddChoice("bad", nil); err == nil {
		t.Error("empty domain must fail")
	}
	if err := s.AddChoice("bad2", []float64{0.5, 0.4}); err == nil {
		t.Error("probabilities must sum to 1")
	}
	if err := s.AddChoice("bad3", []float64{1.5, -0.5}); err == nil {
		t.Error("negative probability must fail")
	}
	if err := s.AddChoice("y", []float64{0.2, 0.3, 0.5}); err != nil {
		t.Fatal(err)
	}
	if s.NumWorlds() != 6 {
		t.Errorf("NumWorlds = %d", s.NumWorlds())
	}
}

func TestEnumWorldsSumsToOne(t *testing.T) {
	s := NewSpace()
	s.AddBool("a", 0.25)
	s.AddChoice("b", []float64{0.1, 0.9})
	s.AddChoice("c", []float64{0.5, 0.25, 0.25})
	total := 0.0
	worlds := 0
	s.EnumWorlds(func(a Assignment, p float64) bool {
		total += p
		worlds++
		return true
	})
	if worlds != 12 {
		t.Errorf("worlds = %d", worlds)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("probabilities sum to %g", total)
	}
}

func TestEnumWorldsSkipsZeroProb(t *testing.T) {
	s := NewSpace()
	s.AddChoice("a", []float64{0, 1})
	n := 0
	s.EnumWorlds(func(a Assignment, p float64) bool {
		n++
		if a["a"] != 1 {
			t.Error("zero-probability alternative enumerated")
		}
		return true
	})
	if n != 1 {
		t.Errorf("worlds = %d", n)
	}
}

func TestCondProbExactAndSampled(t *testing.T) {
	c := NewCTable("t")
	c.AddProbabilistic(model.Record{"v": model.Int(1)}, 0.3)
	c.AddProbabilistic(model.Record{"v": model.Int(2)}, 0.5)
	both := func(recs []model.Record) bool { return len(recs) == 2 }
	either := func(recs []model.Record) bool { return len(recs) >= 1 }
	// P(x ∧ y) = 0.15, P(x ∨ y) = 0.65
	if p := c.QueryProb(both); math.Abs(p-0.15) > 1e-12 {
		t.Errorf("P(x∧y) = %g", p)
	}
	if p := c.QueryProb(either); math.Abs(p-0.65) > 1e-12 {
		t.Errorf("P(x∨y) = %g", p)
	}
	if p := c.QueryProbSampled(either, 20000, 1); math.Abs(p-0.65) > 0.02 {
		t.Errorf("sampled P = %g, want ≈0.65", p)
	}
}

func TestWorldProb(t *testing.T) {
	s := NewSpace()
	s.AddBool("x", 0.3)
	s.AddChoice("y", []float64{0.2, 0.8})
	got := map[[2]int]float64{}
	s.EnumWorlds(func(a Assignment, p float64) bool {
		got[[2]int{a["x"], a["y"]}] = p
		return true
	})
	if p := got[[2]int{1, 0}]; math.Abs(p-0.06) > 1e-12 {
		t.Errorf("P(x=1, y=0) = %g", p)
	}
	if len(got) != 4 {
		t.Errorf("worlds = %v", got)
	}
}

// has reports whether some record's attribute attr equals want.
func has(attr string, want model.Value) func([]model.Record) bool {
	return func(recs []model.Record) bool {
		for _, r := range recs {
			if model.Equal(r[attr], want) {
				return true
			}
		}
		return false
	}
}

func TestCTableCertainAndProbabilistic(t *testing.T) {
	c := NewCTable("drugs")
	c.AddConditioned(model.Record{"name": model.String("Warfarin")}, True())
	if _, err := c.AddProbabilistic(model.Record{"name": model.String("Maybe")}, 0.4); err != nil {
		t.Fatal(err)
	}
	if p := c.QueryProb(has("name", model.String("Warfarin"))); p != 1 {
		t.Errorf("certain tuple prob = %g", p)
	}
	if p := c.QueryProb(has("name", model.String("Maybe"))); math.Abs(p-0.4) > 1e-12 {
		t.Errorf("probabilistic tuple prob = %g", p)
	}
	if p := c.QueryProb(has("name", model.String("Absent"))); p != 0 {
		t.Errorf("absent tuple prob = %g", p)
	}
}

func TestCTableMarkedNulls(t *testing.T) {
	// An incomplete record: dosage is unknown, 3 candidate completions.
	c := NewCTable("trials")
	_, err := c.AddWithNull(
		model.Record{"drug": model.String("Warfarin")},
		"dosage",
		[]model.Value{model.Float(3.4), model.Float(5.1), model.Float(6.1)},
		[]float64{0.25, 0.5, 0.25},
	)
	if err != nil {
		t.Fatal(err)
	}
	// In every world exactly one completion exists.
	if c.QueryProb(func(recs []model.Record) bool { return len(recs) == 1 }) != 1 {
		t.Error("exactly one tuple per world")
	}
	p := c.QueryProb(func(recs []model.Record) bool {
		f, _ := recs[0]["dosage"].AsFloat()
		return f > 5.0
	})
	if math.Abs(p-0.75) > 1e-12 {
		t.Errorf("P(dosage > 5.0) = %g, want 0.75", p)
	}
	// The static record keeps the null.
	if !c.Tuples[0].Rec["dosage"].IsNull() {
		t.Error("static record must hold null")
	}
}

// TestCertainPossible: a query is certain when it holds with probability
// 1 and possible when with probability above 0.
func TestCertainPossible(t *testing.T) {
	c := NewCTable("t")
	c.AddConditioned(model.Record{"v": model.Int(1)}, True())
	c.AddProbabilistic(model.Record{"v": model.Int(2)}, 0.5)
	for _, q := range []struct {
		v        int64
		certain  bool
		possible bool
	}{{1, true, true}, {2, false, true}, {3, false, false}} {
		p := c.QueryProb(has("v", model.Int(q.v)))
		if (p == 1) != q.certain || (p > 0) != q.possible {
			t.Errorf("v=%d: P = %g, want certain %v, possible %v", q.v, p, q.certain, q.possible)
		}
	}
}

// TestSelectThreeValued: a predicate over a marked null is Unknown on the
// static record; per-world evaluation resolves it.
func TestSelectThreeValued(t *testing.T) {
	c := NewCTable("t")
	c.AddConditioned(model.Record{"v": model.Int(10)}, True())
	c.AddWithNull(model.Record{}, "v",
		[]model.Value{model.Int(0), model.Int(20)}, []float64{0.5, 0.5})
	over5 := func(r model.Record) model.Truth {
		v := r.Get("v")
		if v.IsNull() {
			return model.Unknown
		}
		i, _ := v.AsInt()
		return model.TruthOf(i > 5)
	}
	if got := over5(c.Tuples[1].Rec); got != model.Unknown {
		t.Errorf("static null-holding record: %v, want unknown", got)
	}
	// The null tuple satisfies v > 5 only in the world where it is 20.
	p := c.QueryProb(func(recs []model.Record) bool {
		n := 0
		for _, r := range recs {
			if over5(r) == model.True {
				n++
			}
		}
		return n == 2
	})
	if math.Abs(p-0.5) > 1e-12 {
		t.Errorf("P(both satisfy per world) = %g, want 0.5", p)
	}
}

// TestProject: a query that reads an attribute sees a marked null's
// valuation in every world; one that reads another does not.
func TestProject(t *testing.T) {
	c := NewCTable("t")
	c.AddConditioned(model.Record{"a": model.Int(1), "b": model.Int(2)}, True())
	c.AddWithNull(model.Record{"a": model.Int(3)}, "b",
		[]model.Value{model.Int(4)}, []float64{1})
	project := func(attr string) string {
		return fmt.Sprint(c.Answers(func(recs []model.Record) []model.Value {
			var out []model.Value
			for _, r := range recs {
				out = append(out, r[attr])
			}
			return out
		}))
	}
	if got := project("a"); got != "[{1 1} {3 1}]" {
		t.Errorf("a = %s", got)
	}
	if got := project("b"); got != "[{2 1} {4 1}]" {
		t.Errorf("b = %s, want the null valued 4", got)
	}
}

// TestCTableJoin: a join runs on each world's complete instance, so a
// drug-trial pair exists exactly where both operands do.
func TestCTableJoin(t *testing.T) {
	c := NewCTable("drugs+trials")
	c.AddProbabilistic(model.Record{"drug": model.String("Warfarin"), "class": model.String("anticoagulant")}, 0.8)
	c.AddConditioned(model.Record{"drug": model.String("Warfarin"), "dose": model.Float(5.1)}, True())
	c.AddConditioned(model.Record{"drug": model.String("Ibuprofen"), "dose": model.Float(200)}, True())
	pairs := func(recs []model.Record) []model.Value {
		var out []model.Value
		for _, d := range recs {
			for _, tr := range recs {
				if !d.Get("class").IsNull() && !tr.Get("dose").IsNull() && model.Equal(d["drug"], tr["drug"]) {
					out = append(out, model.List(d["class"], tr["dose"]))
				}
			}
		}
		return out
	}
	ans := c.Answers(pairs)
	if len(ans) != 1 || math.Abs(ans[0].Prob-0.8) > 1e-12 ||
		!model.Equal(ans[0].Value, model.List(model.String("anticoagulant"), model.Float(5.1))) {
		t.Errorf("pairs = %v, want (anticoagulant, 5.1) with P 0.8", ans)
	}
}

func TestAnswersDistribution(t *testing.T) {
	// The Warfarin dosage question as a c-table: one source per world view.
	c := NewCTable("dosage")
	c.AddWithNull(model.Record{"drug": model.String("Warfarin")}, "dose",
		[]model.Value{model.Float(3.4), model.Float(5.1), model.Float(6.1)},
		[]float64{0.3, 0.4, 0.3})
	ans := c.Answers(func(recs []model.Record) []model.Value {
		var out []model.Value
		for _, r := range recs {
			out = append(out, r["dose"])
		}
		return out
	})
	if len(ans) != 3 {
		t.Fatalf("answers = %v", ans)
	}
	if f, _ := ans[0].Value.AsFloat(); f != 5.1 || math.Abs(ans[0].Prob-0.4) > 1e-12 {
		t.Errorf("top answer = %v", ans[0])
	}
	if got := c.Answers(func(recs []model.Record) []model.Value {
		return []model.Value{recs[0]["drug"]}
	}); len(got) != 1 || !model.Equal(got[0].Value, model.String("Warfarin")) || got[0].Prob != 1 {
		t.Errorf("drug answers = %v, want Warfarin in every world", got)
	}
}

func TestSampledQueryProbConverges(t *testing.T) {
	c := NewCTable("t")
	for i := 0; i < 8; i++ {
		c.AddProbabilistic(model.Record{"i": model.Int(int64(i))}, 0.5)
	}
	q := func(recs []model.Record) bool { return len(recs) >= 4 }
	exact := c.QueryProb(q)
	sampled := c.QueryProbSampled(q, 20000, 7)
	if math.Abs(exact-sampled) > 0.02 {
		t.Errorf("exact %g vs sampled %g", exact, sampled)
	}
}

func TestPropertyCondProbDeMorgan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewCTable("t")
		for i := 0; i < 3; i++ {
			c.AddProbabilistic(model.Record{"i": model.Int(int64(i))}, r.Float64())
		}
		q1 := has("i", model.Int(0))
		q2 := func(recs []model.Record) bool { return has("i", model.Int(1))(recs) || !has("i", model.Int(2))(recs) }
		not := func(q func([]model.Record) bool) func([]model.Record) bool {
			return func(recs []model.Record) bool { return !q(recs) }
		}
		// P(¬(q1∧q2)) == P(¬q1 ∨ ¬q2)
		lhs := c.QueryProb(not(func(recs []model.Record) bool { return q1(recs) && q2(recs) }))
		rhs := c.QueryProb(func(recs []model.Record) bool { return not(q1)(recs) || not(q2)(recs) })
		if math.Abs(lhs-rhs) > 1e-9 {
			return false
		}
		// Complement law: the worlds' probabilities sum to 1.
		return math.Abs(c.QueryProb(q1)+c.QueryProb(not(q1))-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAnswersProbsBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewCTable("t")
		for i := 0; i < 4; i++ {
			c.AddProbabilistic(model.Record{"v": model.Int(int64(r.Intn(3)))}, r.Float64())
		}
		ans := c.Answers(func(recs []model.Record) []model.Value {
			var out []model.Value
			for _, rec := range recs {
				out = append(out, rec["v"])
			}
			return out
		})
		for _, a := range ans {
			if a.Prob < -1e-9 || a.Prob > 1+1e-9 {
				return false
			}
		}
		// Sorted by descending probability.
		for i := 1; i < len(ans); i++ {
			if ans[i].Prob > ans[i-1].Prob+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
