package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"strings"
	"testing"
)

// TestAnalyzerFixtures drives every analyzer over its testdata fixture
// package. Each `// want "rx"` comment demands a diagnostic on its line
// whose message matches the regexp; any diagnostic without a matching want
// (or vice versa) fails the test. The fixtures also cover justified and
// unjustified //machlint:allow suppressions.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			runFixture(t, a)
		})
	}
}

var wantRx = regexp.MustCompile(`"([^"]*)"`)

func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	loader := NewLoader()
	units, err := loader.LoadDir("testdata/src/"+a.Name, "testdata/src/"+a.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 {
		t.Fatalf("fixture loaded as %d units, want 1", len(units))
	}
	u := units[0]
	for _, terr := range u.TypeErrors {
		t.Errorf("fixture must type-check cleanly: %v", terr)
	}
	diags, _ := runUnit(u, DefaultConfig(), []*Analyzer{a}, CollectFacts(units))

	// Collect want expectations per line. Block-comment wants
	// (/* want "rx" */) let a fixture line that is itself a //machlint
	// directive still carry an expectation.
	type want struct {
		rx  *regexp.Regexp
		hit bool
	}
	wants := map[int][]*want{}
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSuffix(text, "*/")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				line := u.Fset.Position(c.Pos()).Line
				for _, m := range wantRx.FindAllStringSubmatch(text, -1) {
					wants[line] = append(wants[line], &want{rx: regexp.MustCompile(m[1])})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture for %s has no want annotations", a.Name)
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants[d.Pos.Line] {
			if !w.hit && w.rx.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s", d)
		}
	}
	for line, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("line %d: missing diagnostic matching %q", line, w.rx)
			}
		}
	}
}

// TestSeededViolationsExitNonzero pins the acceptance contract: a tree
// seeded with one violation per check makes the full pipeline report
// findings and Main return exit code 1, with every check represented.
func TestSeededViolationsExitNonzero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := Main(".", []string{"./testdata/src/seeded"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("Main = %d on seeded violations, want 1 (stderr: %s)", code, stderr.String())
	}
	out := stdout.String()
	for _, a := range Analyzers() {
		if !strings.Contains(out, " "+a.Name+": ") {
			t.Errorf("seeded run missing a %s finding:\n%s", a.Name, out)
		}
	}
}

// TestCleanPackageExitsZero is the other half of the exit-code contract.
func TestCleanPackageExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main(".", []string{"./testdata/src/clean"}, &stdout, &stderr); code != 0 {
		t.Fatalf("Main = %d on clean package, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

// TestChecksFlag covers -checks subsetting and unknown-check rejection.
func TestChecksFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// Only maprange enabled: the seeded floateq/errdrop/... violations
	// must not be reported.
	code := Main(".", []string{"-checks", "maprange", "./testdata/src/seeded"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("Main = %d, want 1", code)
	}
	if strings.Contains(stdout.String(), "floateq") {
		t.Errorf("-checks maprange still reported floateq:\n%s", stdout.String())
	}
	if code := Main(".", []string{"-checks", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown check: Main = %d, want 2", code)
	}
}

// TestDefaultConfigScoping pins the package-scoped policy: globalrand
// guards the simulation core but not the benchmark harness or the CLIs.
func TestDefaultConfigScoping(t *testing.T) {
	cfg := DefaultConfig()
	gr := cfg.rule("globalrand")
	for _, path := range []string{"internal/hfl", "internal/fed", "internal/mobility", "internal/nn", "internal/tensor", "internal/sampling"} {
		if !gr.appliesTo(path) {
			t.Errorf("globalrand must apply to %s", path)
		}
	}
	for _, path := range []string{"internal/bench", "cmd/machsim", "cmd", "examples/quickstart"} {
		if gr.appliesTo(path) {
			t.Errorf("globalrand must not apply to %s", path)
		}
	}
	// Prefix matching is segment-aware: cmdx is not under cmd.
	if !cfg.rule("floateq").appliesTo("cmdx") {
		t.Error("floateq should apply to cmdx")
	}
	if pathMatch("cmdx", []string{"cmd"}) {
		t.Error("pathMatch must not treat cmdx as under cmd")
	}
	only := &Rule{Enabled: true, Only: []string{"internal"}, Skip: []string{"internal/bench"}}
	if !only.appliesTo("internal/hfl") || only.appliesTo("internal/bench") || only.appliesTo("cmd") {
		t.Error("Only/Skip composition broken")
	}
	if (&Rule{}).appliesTo("internal/hfl") {
		t.Error("disabled rule must not apply")
	}
	if cfg.rule("nosuch").appliesTo("internal/hfl") {
		t.Error("unknown checks must resolve to the disabled rule")
	}
}

// TestSuppressionParsing pins the directive grammar: multi-check lists,
// required justifications, and same-line vs line-above placement.
func TestSuppressionParsing(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //machlint:allow floateq,errdrop zero is a sentinel here
	//machlint:allow maprange
	_ = 2
	/* machlint:allow maprange block comments work too */
	_ = 3
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sups := parseSuppressions(fset, f)
	if len(sups) != 3 {
		t.Fatalf("parsed %d suppressions, want 3: %+v", len(sups), sups)
	}
	if got := sups[0].checks; len(got) != 2 || got[0] != "floateq" || got[1] != "errdrop" {
		t.Errorf("multi-check list parsed as %v", got)
	}
	if sups[0].reason != "zero is a sentinel here" {
		t.Errorf("reason parsed as %q", sups[0].reason)
	}
	if sups[1].reason != "" {
		t.Errorf("bare directive should have empty reason, got %q", sups[1].reason)
	}
}

// TestSuppressionIndex verifies justified directives cover their own line
// and the next, and unjustified ones cover nothing.
func TestSuppressionIndex(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //machlint:allow floateq justified trailing
	//machlint:allow maprange justified standalone
	_ = 2
	//machlint:allow errdrop
	_ = 3
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	idx := buildSuppressionIndex(&Unit{Path: "p", Fset: fset, Files: []*ast.File{f}})
	diag := func(line int, check string) Diagnostic {
		return Diagnostic{Pos: token.Position{Filename: "p.go", Line: line}, Check: check}
	}
	if !idx.suppressed(diag(4, "floateq")) {
		t.Error("trailing justified directive must suppress its own line")
	}
	if !idx.suppressed(diag(6, "maprange")) {
		t.Error("standalone justified directive must suppress the next line")
	}
	if idx.suppressed(diag(4, "errdrop")) {
		t.Error("directive must only suppress its named checks")
	}
	if idx.suppressed(diag(8, "errdrop")) {
		t.Error("unjustified directive must suppress nothing")
	}
}

// TestExpandPatterns verifies recursive walks skip testdata while explicit
// paths honor it, and that results are stable.
func TestExpandPatterns(t *testing.T) {
	dirs, err := ExpandPatterns(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("recursive walk must skip testdata, got %s", d)
		}
	}
	explicit, err := ExpandPatterns(".", []string{"testdata/src/clean", "./testdata/src/clean"})
	if err != nil {
		t.Fatal(err)
	}
	if len(explicit) != 1 || explicit[0] != "testdata/src/clean" {
		t.Errorf("explicit testdata pattern = %v, want the deduplicated dir", explicit)
	}
}

// TestDiagnosticString pins the parseable output format editors rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "a/b.go", Line: 7, Column: 3},
		Check:   "maprange",
		Message: "m",
	}
	if got, want := d.String(), "a/b.go:7:3: maprange: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestSortDiagnostics pins stable ordering across files, lines and checks.
func TestSortDiagnostics(t *testing.T) {
	mk := func(file string, line, col int, check string) Diagnostic {
		return Diagnostic{Pos: token.Position{Filename: file, Line: line, Column: col}, Check: check}
	}
	diags := []Diagnostic{
		mk("b.go", 1, 1, "floateq"),
		mk("a.go", 9, 1, "maprange"),
		mk("a.go", 2, 5, "floateq"),
		mk("a.go", 2, 5, "errdrop"),
	}
	sortDiagnostics(diags)
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d:%s", d.Pos.Filename, d.Pos.Line, d.Check))
	}
	want := []string{"a.go:2:errdrop", "a.go:2:floateq", "a.go:9:maprange", "b.go:1:floateq"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestLoadDirHonoursBuildConstraints loads a package whose two files declare
// the same symbols under complementary //go:build lines. Exactly one belongs
// to the host build; parsing both would type-check as redeclarations and the
// resulting TypeErrors could hide findings.
func TestLoadDirHonoursBuildConstraints(t *testing.T) {
	units, err := NewLoader().LoadDir("testdata/src/buildtags", "testdata/src/buildtags")
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 {
		t.Fatalf("fixture loaded as %d units, want 1", len(units))
	}
	u := units[0]
	for _, terr := range u.TypeErrors {
		t.Errorf("constrained twins must load as one declaration set: %v", terr)
	}
	if len(u.Files) != 2 {
		t.Errorf("loaded %d files, want 2 (use.go and the host's twin)", len(u.Files))
	}
}
