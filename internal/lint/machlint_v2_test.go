package lint

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCrossUnitFactPropagation is the driver-level contract of the fact
// index: the //machlint:noalias contract on tensor.MatMulInto is declared
// in internal/tensor, and the violating call lives in a different package
// (testdata/src/factuse). Finding it requires the facts collected from the
// defining unit to resolve for a types.Func reached through an import.
func TestCrossUnitFactPropagation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Keep([]string{"intoalias"})
	r := &Runner{Root: "../..", Config: cfg}
	diags, err := r.Run([]string{"internal/tensor", "internal/lint/testdata/src/factuse"})
	if err != nil {
		t.Fatal(err)
	}
	var hit []string
	for _, d := range diags {
		hit = append(hit, d.String())
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly the factuse aliasing finding, got %d:\n%s", len(diags), strings.Join(hit, "\n"))
	}
	d := diags[0]
	if !strings.Contains(d.Pos.Filename, "factuse") || d.Check != "intoalias" ||
		!strings.Contains(d.Message, "may alias") || !strings.Contains(d.Message, "MatMulInto") {
		t.Fatalf("unexpected finding: %s", d)
	}
}

// TestStaleSuppressionAudit verifies a justified //machlint:allow that
// waives nothing is reported, and only when its check actually ran there.
func TestStaleSuppressionAudit(t *testing.T) {
	r := &Runner{Root: ".", Config: DefaultConfig()}
	diags, err := r.Run([]string{"testdata/src/stalesup"})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Check != "allow" || !strings.Contains(diags[0].Message, "stale suppression") {
		t.Fatalf("want one stale-suppression finding, got %v", diags)
	}

	// With floateq disabled the suppression's check never ran, so the
	// directive must not be called stale.
	cfg := DefaultConfig()
	cfg.Keep([]string{"maprange"})
	r = &Runner{Root: ".", Config: cfg}
	diags, err = r.Run([]string{"testdata/src/stalesup"})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("disabled check must not trigger the audit, got %v", diags)
	}
}

// TestParseEscapeLine pins the -gcflags=-m output grammar the allocfree
// check depends on.
func TestParseEscapeLine(t *testing.T) {
	cases := []struct {
		line string
		keep bool
	}{
		{"internal/hfl/run.go:10:5: make([]float64, n) escapes to heap:", true},
		{"internal/hfl/run.go:10:5: moved to heap: buf", true},
		{"internal/hfl/run.go:10:5: buf does not escape", false},
		{"internal/hfl/run.go:10:5: can inline edgeDecide", false},
		{"# github.com/mach-fl/mach/internal/hfl", false},
		{"go: downloading something", false},
		{"internal/hfl/run.go:10: malformed, no column", false},
	}
	for _, c := range cases {
		site, ok := parseEscapeLine(".", c.line)
		if ok != c.keep {
			t.Errorf("parseEscapeLine(%q) kept=%v, want %v", c.line, ok, c.keep)
		}
		if ok && (site.line != 10 || site.pos.Line != 10) {
			t.Errorf("parseEscapeLine(%q) line = %d, want 10", c.line, site.line)
		}
	}
}

// TestAllocBudgetRoundTrip covers the budget file format: comments,
// blanks, and write/read symmetry.
func TestAllocBudgetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allocs.txt")
	counts := map[string]int{
		"internal/hfl.(*Engine).edgeDecide": 3,
		"internal/sampling.EdgeSamplingInto": 0,
	}
	if err := WriteAllocBudget(path, counts); err != nil {
		t.Fatal(err)
	}
	budget, err := ReadAllocBudget(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(budget) != 2 || budget["internal/hfl.(*Engine).edgeDecide"].Count != 3 {
		t.Fatalf("round trip lost data: %+v", budget)
	}
	if missing, err := ReadAllocBudget(filepath.Join(t.TempDir(), "nope.txt")); err != nil || len(missing) != 0 {
		t.Fatalf("missing budget must read as empty, got %v, %v", missing, err)
	}
	if err := os.WriteFile(path, []byte("too many fields here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAllocBudget(path); err == nil {
		t.Fatal("malformed budget line must error")
	}
}

// TestAllocFreeIntegration drives the escape-analysis phase end to end
// over the compiled fixture: regeneration, a clean run against the written
// budget, and the three failure modes (over budget, stale entry, orphan
// entry).
func TestAllocFreeIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real compiler")
	}
	budget := filepath.Join(t.TempDir(), "allocs.txt")
	newRunner := func() *Runner {
		return &Runner{Root: ".", Config: DefaultConfig(), AllocBudget: budget}
	}
	pats := []string{"testdata/src/allocfree"}

	if _, err := newRunner().WriteAllocs(pats); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(budget)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.Contains(text, "testdata/src/allocfree.SumInPlace 0") {
		t.Fatalf("budget missing the allocation-free function:\n%s", text)
	}
	if !strings.Contains(text, "testdata/src/allocfree.LeakyAppend") || strings.Contains(text, "LeakyAppend 0") {
		t.Fatalf("budget must record LeakyAppend's allocation site(s):\n%s", text)
	}
	if strings.Contains(text, "Unannotated") {
		t.Fatalf("unannotated functions must stay out of the budget:\n%s", text)
	}

	diags, err := newRunner().Run(pats)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("fresh budget must lint clean, got %v", diags)
	}

	check := func(mutate func(string) string, wantSub string) {
		t.Helper()
		if err := os.WriteFile(budget, []byte(mutate(text)), 0o644); err != nil {
			t.Fatal(err)
		}
		diags, err := newRunner().Run(pats)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, d := range diags {
			if d.Check == AllocFreeName && strings.Contains(d.Message, wantSub) {
				found = true
			}
		}
		if !found {
			t.Fatalf("want an allocfree finding containing %q, got %v", wantSub, diags)
		}
	}
	// Over budget: LeakyAppend committed to zero sites.
	check(func(s string) string {
		return strings.ReplaceAll(s, "LeakyAppend 1", "LeakyAppend 0")
	}, "heap-allocation site(s), budget 0")
	// Stale: budget says more sites than the code has.
	check(func(s string) string {
		return strings.ReplaceAll(s, "LeakyAppend 1", "LeakyAppend 5")
	}, "stale budget")
	// Orphan: entry for a function without the annotation — exactly what
	// deleting //machlint:allocfree from a covered hot path produces.
	check(func(s string) string {
		return s + "testdata/src/allocfree.Ghost 2\n"
	}, "no //machlint:allocfree function")
}

// TestBuildLedger pins the ledger format and its hard-error contract.
func TestBuildLedger(t *testing.T) {
	text, err := BuildLedger(".", []string{"testdata/src/intoalias"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "testdata/src/intoalias/a.go intoalias x1 — fixture pins that a justified waiver silences the finding") {
		t.Fatalf("ledger missing the fixture suppression:\n%s", text)
	}
	if !strings.Contains(text, "# total: 1 suppression(s)") {
		t.Fatalf("ledger total wrong:\n%s", text)
	}
	// The maprange fixture deliberately contains an unjustified directive;
	// the ledger must refuse to inventory it.
	if _, err := BuildLedger(".", []string{"testdata/src/maprange"}); err == nil {
		t.Fatal("BuildLedger must reject unjustified directives")
	}
}

// TestLedgerFlagMatchesCommitted is the CI gate in miniature: regenerating
// the ledger over the whole repo must reproduce the committed file
// byte-for-byte.
func TestLedgerFlagMatchesCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("walks the whole repository")
	}
	var stdout, stderr bytes.Buffer
	if code := Main("../..", []string{"-ledger", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("machlint -ledger = %d (stderr: %s)", code, stderr.String())
	}
	committed, err := os.ReadFile("../../lint_ledger.txt")
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(committed) {
		t.Fatalf("committed lint_ledger.txt is stale; regenerate with make lint-ledger")
	}
}

// TestTreeCleanAtHead is the golden acceptance gate: machlint over the
// whole repository — all nine AST analyzers, the allocfree escape phase
// against the committed budget, and the suppression audit — reports
// nothing.
func TestTreeCleanAtHead(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole repository")
	}
	var stdout, stderr bytes.Buffer
	if code := Main("../..", []string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("machlint ./... = %d at HEAD, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

// TestDeadExportFixture drives the deadexport phase over its fixture module
// (testdata/src/deadexport: an internal package, its test file, a command
// that uses part of it, and a ledger with one live entry, one used again and
// one whose identifier is gone) and pins the ledger failure modes plus the
// exemptions.
func TestDeadExportFixture(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Keep([]string{DeadExportName})
	r := &Runner{Root: "testdata/src/deadexport", Config: cfg}
	diags, err := r.Run([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib.OnlyTests is exported but no non-test file",
		"internal/lib.Orphan is exported but no non-test file",
		"internal/lib.Recursive is exported but no non-test file",
		"stale ledger: internal/lib.Gone is used by non-test code now, or gone",
		"stale ledger: internal/lib.Revived is used by non-test code now, or gone",
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.String())
	}
	if len(diags) != len(want) {
		t.Fatalf("want %d findings, got %d:\n%s", len(want), len(diags), strings.Join(got, "\n"))
	}
	for _, w := range want {
		if !strings.Contains(strings.Join(got, "\n"), w) {
			t.Errorf("missing finding %q in:\n%s", w, strings.Join(got, "\n"))
		}
	}

	// A subset run cannot see every use, so the check stays silent.
	if diags, err = r.Run([]string{"internal/lib"}); err != nil || len(diags) != 0 {
		t.Fatalf("subset run: %v, %v", diags, err)
	}

	// The ledger a tree writes is the ledger it reads back clean.
	path := filepath.Join(t.TempDir(), "dead.txt")
	dead := map[string]token.Position{"internal/lib.OnlyTests": {}, "internal/lib.Orphan": {}}
	if err := writeDeadExportLedger(path, dead); err != nil {
		t.Fatal(err)
	}
	ledger, err := readDeadExportLedger(path)
	if err != nil || len(ledger) != 2 || ledger["internal/lib.Orphan"] == 0 {
		t.Fatalf("ledger round trip: %v, %v", ledger, err)
	}
}

// TestAllChecks pins the check inventory the CLI validates against.
func TestAllChecks(t *testing.T) {
	checks := AllChecks()
	if len(checks) != len(Analyzers())+2 {
		t.Fatalf("AllChecks has %d entries for %d analyzers + allocfree + deadexport", len(checks), len(Analyzers()))
	}
	set := map[string]bool{}
	for _, c := range checks {
		set[c] = true
	}
	for _, want := range []string{"randshare", "intoalias", "selectdet", "allocfree", "deadexport", "maprange"} {
		if !set[want] {
			t.Fatalf("AllChecks missing %q: %v", want, checks)
		}
	}
}
