package scdb

import (
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// docFiles are the documents whose links must stay alive. ISSUE.md and
// the reference dumps (PAPER/PAPERS/SNIPPETS) are working notes, not
// part of the documented surface.
var docFiles = []string{"README.md", "DESIGN.md", "OPERATIONS.md", "EXPERIMENTS.md", "ROADMAP.md"}

// mdLink matches inline markdown links; images and autolinks are out of
// scope. Reference-style links are not used in this repo.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// githubAnchor reduces a heading to the fragment GitHub generates for
// it: lowercase, punctuation dropped, spaces and hyphens kept as
// hyphens.
func githubAnchor(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(heading)) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ', r == '-':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// anchorsOf collects the generated fragment for every ATX heading.
func anchorsOf(body string) map[string]bool {
	anchors := map[string]bool{}
	inFence := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		text := strings.TrimLeft(line, "#")
		// Strip inline markup that GitHub drops from fragments.
		text = strings.NewReplacer("`", "", "*", "", `"`, "", "'", "", ".", "",
			",", "", ":", "", "(", "", ")", "", "/", "", "§", "", "—", "").Replace(text)
		anchors[githubAnchor(text)] = true
	}
	return anchors
}

// TestDocsLinks fails on dead relative links in the top-level docs:
// links to files that do not exist, and fragment links to headings that
// do not exist. External links are not fetched.
func TestDocsLinks(t *testing.T) {
	bodies := map[string]string{}
	for _, name := range docFiles {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("doc listed but unreadable: %v", err)
		}
		bodies[name] = string(b)
	}
	for _, name := range docFiles {
		for _, m := range mdLink.FindAllStringSubmatch(bodies[name], -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			file, frag, _ := strings.Cut(target, "#")
			if file != "" {
				if strings.Contains(file, "%20") {
					t.Errorf("%s: link %q has an escaped space; rename the target", name, target)
					continue
				}
				if _, err := os.Stat(filepath.FromSlash(file)); err != nil {
					t.Errorf("%s: dead link %q: %v", name, target, err)
					continue
				}
			}
			if frag == "" {
				continue
			}
			// A fragment must name a heading in the linked file (or in
			// this file for bare #fragments). Only .md targets carry
			// checkable headings.
			host := name
			if file != "" {
				host = file
			}
			if !strings.HasSuffix(host, ".md") {
				continue
			}
			body, ok := bodies[host]
			if !ok {
				b, err := os.ReadFile(filepath.FromSlash(host))
				if err != nil {
					t.Errorf("%s: link %q: %v", name, target, err)
					continue
				}
				body = string(b)
				bodies[host] = body
			}
			if !anchorsOf(body)[frag] {
				t.Errorf("%s: link %q points at a missing heading (#%s in %s)",
					name, target, frag, host)
			}
		}
	}
}

// TestDesignTOCComplete fails when a top-level DESIGN.md section is
// missing from its table of contents — the failure mode where a new
// section lands but never becomes navigable.
func TestDesignTOCComplete(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	inFence := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "## ") {
			continue
		}
		heading := strings.TrimPrefix(line, "## ")
		if !strings.Contains(body, "](#"+githubAnchor(heading)+")") {
			t.Errorf("DESIGN.md section %q is not linked from the TOC", heading)
		}
	}
}

// TestPackagesDocumented requires a package doc comment on every
// shipped package: internal/*, client, and each cmd binary.
func TestPackagesDocumented(t *testing.T) {
	dirs := []string{".", "client"}
	for _, parent := range []string{"internal", "cmd"} {
		ents, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.IsDir() {
				dirs = append(dirs, filepath.Join(parent, e.Name()))
			}
		}
	}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		documented, hasGo := false, false
		for _, path := range matches {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			hasGo = true
			f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if hasGo && !documented {
			t.Errorf("package %s has no package doc comment", dir)
		}
	}
}

// usageFlag matches one flag in the usage text the flag package prints.
var usageFlag = regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`)

// flagRow matches a row of an OPERATIONS.md flag table.
var flagRow = regexp.MustCompile("(?m)^\\| `-([a-z][a-z0-9-]*)` \\|")

// TestOperationsCoversServingFlags requires every flag of the two
// serving binaries to appear in OPERATIONS.md as `-name`, so a new
// flag cannot ship undocumented, and every flag-table row to name a flag
// one of them registers, so a deleted flag's row cannot linger. It asks
// each binary for its usage, so it sees the flag set the binary registers
// wherever the definitions live.
func TestOperationsCoversServingFlags(t *testing.T) {
	ops, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, cmd := range []string{"./cmd/scdb-server", "./cmd/scdb-router"} {
		usage, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "run", cmd, "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", cmd, err, usage)
		}
		flags := usageFlag.FindAllStringSubmatch(string(usage), -1)
		if len(flags) < 5 {
			t.Fatalf("%s -h lists %d flags; regexp stale?\n%s", cmd, len(flags), usage)
		}
		for _, m := range flags {
			registered[m[1]] = true
			if !strings.Contains(string(ops), "`-"+m[1]+"`") {
				t.Errorf("flag -%s of %s is not documented in OPERATIONS.md", m[1], cmd)
			}
		}
	}
	rows := flagRow.FindAllStringSubmatch(string(ops), -1)
	if len(rows) < 5 {
		t.Fatalf("OPERATIONS.md has %d flag-table rows; regexp stale?", len(rows))
	}
	for _, m := range rows {
		if !registered[m[1]] {
			t.Errorf("OPERATIONS.md documents -%s, which neither serving binary registers", m[1])
		}
	}
}
