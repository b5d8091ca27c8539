package bench

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"E-F2", "E-FS1", "E-FS10", "E-FS11", "E-FS2", "E-FS3",
		"E-FS4", "E-FS5", "E-FS6", "E-FS7", "E-FS8", "E-FS9",
		"E-OS1", "E-OS2", "E-OS3", "E-OS4",
	}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("experiment[%d] = %s, want %s", i, e.ID, want[i])
		}
	}
	if _, ok := ByID("E-FS10"); !ok {
		t.Error("ByID failed")
	}
	if _, ok := ByID("E-XX"); ok {
		t.Error("ByID of unknown must fail")
	}
}

// TestAllExperimentsRunAndHold runs every experiment and checks its
// verdict does not report a mismatch — the repository-level statement that
// every reproduced claim's shape holds.
func TestAllExperimentsRunAndHold(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds-long; skipped with -short")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl := e.Run()
			if tbl == nil {
				t.Fatal("nil table")
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			if strings.Contains(tbl.Verdict, "MISMATCH") {
				t.Errorf("verdict: %s\n%s", tbl.Verdict, tbl.Render())
			}
			// Render must not panic and must include the header.
			out := tbl.Render()
			for _, h := range tbl.Header {
				if !strings.Contains(out, h) {
					t.Errorf("render missing header %q", h)
				}
			}
		})
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID: "X", Title: "demo", Claim: "c",
		Header:  []string{"a", "long-header"},
		Rows:    [][]string{{"1", "2"}, {"333333", "4"}},
		Verdict: "ok",
	}
	out := tbl.Render()
	for _, want := range []string{"== X — demo ==", "claim: c", "long-header", "333333", "verdict: ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
