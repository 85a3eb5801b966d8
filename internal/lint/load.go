package lint

import (
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/mach-fl/mach/internal/det"
)

// Unit is one type-checked body of files: a package together with its
// in-package test files (exactly what `go test` compiles), or an external
// foo_test package. Analyzers run per unit.
type Unit struct {
	// Path is the slash-separated package directory relative to the lint
	// root.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// TypeErrors collects non-fatal type-checker complaints. Analysis
	// still runs on the partial information; the driver surfaces these as
	// warnings because missing type info can hide findings.
	TypeErrors []error
}

// Loader parses and type-checks package directories. It resolves imports
// from source via the standard library's source importer (module-aware
// through go/build), so the whole pipeline stays dependency-free. One
// Loader caches imported packages across LoadDir calls; it is not safe for
// concurrent use.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
	// ctxt decides which files belong to the build: the host GOOS/GOARCH
	// and the default tags, the same context the source importer resolves
	// imports with.
	ctxt build.Context
}

func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil), ctxt: build.Default}
}

// LoadDir parses the .go files in dir that the host build would compile —
// file-name suffixes and //go:build lines are honoured, so an _amd64.go /
// generic twin pair loads as one set of declarations, not a redeclaration —
// and type-checks them as up to two units: the primary package (including
// in-package tests) and, when present, the external _test package. path is
// the package path recorded on the units.
func (l *Loader) LoadDir(dir, path string) ([]*Unit, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: read %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		match, err := l.ctxt.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("lint: build constraints of %s: %w", filepath.Join(dir, name), err)
		}
		if match {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	byPkg := map[string][]*ast.File{}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		byPkg[f.Name.Name] = append(byPkg[f.Name.Name], f)
	}
	if len(byPkg) == 0 {
		return nil, nil
	}

	// The primary package is the one not named *_test; its in-package
	// test files share its name and are type-checked with it, exactly as
	// `go test` compiles them.
	var units []*Unit
	for _, pkgName := range det.SortedKeys(byPkg) {
		if strings.HasSuffix(pkgName, "_test") {
			base := strings.TrimSuffix(pkgName, "_test")
			if _, ok := byPkg[base]; ok {
				continue // handled below as the external test unit
			}
		}
		units = append(units, l.check(path, pkgName, byPkg[pkgName]))
		if ext, ok := byPkg[pkgName+"_test"]; ok {
			units = append(units, l.check(path, pkgName+"_test", ext))
		}
	}
	return units, nil
}

func (l *Loader) check(path, pkgName string, files []*ast.File) *Unit {
	u := &Unit{Path: path, Fset: l.fset, Files: files}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { u.TypeErrors = append(u.TypeErrors, err) },
	}
	// Check never fully fails here: the Error hook swallows problems so
	// analysis can proceed on whatever type information survived.
	//machlint:allow errdrop the Error hook above already collected every type error; Check's summary error is redundant
	pkg, _ := conf.Check(pkgName, l.fset, files, info)
	u.Pkg = pkg
	u.Info = info
	return u
}

// ExpandPatterns resolves package patterns relative to root into a sorted
// list of package directories (relative, slash-separated). A trailing
// "/..." walks recursively; testdata, vendor and hidden/underscore
// directories are skipped during walks but honored when named explicitly.
func ExpandPatterns(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(rel string) {
		rel = filepath.ToSlash(filepath.Clean(rel))
		if !seen[rel] {
			seen[rel] = true
			dirs = append(dirs, rel)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		base := filepath.Join(root, filepath.FromSlash(pat))
		fi, err := os.Stat(base)
		if err != nil {
			return nil, fmt.Errorf("lint: pattern %q: %w", pat, err)
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q is not a directory", pat)
		}
		if !recursive {
			if hasGoFiles(base) {
				add(pat)
			}
			continue
		}
		err = filepath.WalkDir(base, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				rel, err := filepath.Rel(root, p)
				if err != nil {
					return err
				}
				add(rel)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: walk %q: %w", pat, err)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}

// Runner ties the loader, configuration and analyzer set together.
type Runner struct {
	// Root is the directory patterns are resolved against (the module
	// root when invoked via `make lint`).
	Root   string
	Config *Config
	// Stderr receives type-checker warnings; nil silences them.
	Stderr io.Writer
	// AllocBudget overrides the allocfree budget file location — relative
	// to Root unless absolute. Empty means DefaultAllocBudgetPath. Tests
	// use this to point fixture runs at fixture budgets.
	AllocBudget string
}

// Run lints the packages matched by patterns and returns the surviving
// findings, sorted by position.
func (r *Runner) Run(patterns []string) ([]Diagnostic, error) {
	return r.run(patterns, "")
}

// WriteAllocs regenerates the allocfree budget file from the current tree
// (the -write-allocs flag) and returns the non-allocfree findings.
func (r *Runner) WriteAllocs(patterns []string) ([]Diagnostic, error) {
	return r.run(patterns, AllocFreeName)
}

// WriteDeadExports regenerates the deadexport ledger from the current tree
// (the -write-deadexports flag) and returns the other checks' findings.
func (r *Runner) WriteDeadExports(patterns []string) ([]Diagnostic, error) {
	return r.run(patterns, DeadExportName)
}

// run is the two-phase driver. Phase one loads and type-checks every
// matched package, collects the cross-unit function facts, and applies the
// AST analyzers per unit. Phase two — gated on the allocfree rule and on
// there being anything to check — compiles the matched packages with
// -gcflags=-m and audits the escape sites of annotated functions against
// the committed budget. Phase three, on whole-tree runs, audits the dead
// exports against their ledger. Finally every justified-but-unused
// suppression in scope of a check that actually ran is reported as stale.
// write names the check whose committed file to regenerate instead of audit.
func (r *Runner) run(patterns []string, write string) ([]Diagnostic, error) {
	dirs, err := ExpandPatterns(r.Root, patterns)
	if err != nil {
		return nil, err
	}
	loader := NewLoader()
	var units []*Unit
	for _, dir := range dirs {
		dirUnits, err := loader.LoadDir(filepath.Join(r.Root, filepath.FromSlash(dir)), dir)
		if err != nil {
			return nil, err
		}
		for _, u := range dirUnits {
			if r.Stderr != nil {
				for _, terr := range u.TypeErrors {
					fmt.Fprintf(r.Stderr, "machlint: warning: %s: %v\n", dir, terr)
				}
			}
			units = append(units, u)
		}
	}

	facts := CollectFacts(units)
	analyzers := Analyzers()
	var diags []Diagnostic
	merged := newSuppressionIndex()
	for _, u := range units {
		unitDiags, idx := runUnit(u, r.Config, analyzers, facts)
		diags = append(diags, unitDiags...)
		merged.merge(idx)
	}

	// A regeneration run audits neither committed file, so either can be
	// rewritten while the other is stale.
	escapeRan := false
	if write != DeadExportName {
		var afDiags []Diagnostic
		escapeRan, afDiags, err = r.allocFreePhase(loader.fset, facts, dirs, merged, write == AllocFreeName)
		if err != nil {
			return nil, err
		}
		diags = append(diags, afDiags...)
	}

	wholeTree := len(patterns) == 1 && (patterns[0] == "./..." || patterns[0] == "...")
	if rule := r.Config.rule(DeadExportName); rule.Enabled && wholeTree && write != AllocFreeName {
		dead := deadExports(units, rule)
		ledgerPath := filepath.Join(r.Root, DefaultDeadExportPath)
		if write == DeadExportName {
			return diags, writeDeadExportLedger(ledgerPath, dead)
		}
		ledger, err := readDeadExportLedger(ledgerPath)
		if err != nil {
			return nil, err
		}
		diags = append(diags, checkDeadExports(dead, ledger, DefaultDeadExportPath)...)
	}

	diags = append(diags, merged.unusedDiags(func(s *suppression, check string) bool {
		rule := r.Config.rule(check)
		if !rule.appliesTo(s.path) || (rule.SkipTests && s.isTest) {
			return false
		}
		if check == AllocFreeName {
			return escapeRan
		}
		return true
	})...)
	sortDiagnostics(diags)
	return diags, nil
}

// allocFreePhase runs the escape-analysis check when it can produce
// findings: the rule is enabled and the tree has //machlint:allocfree
// annotations, a budget file, or an explicit regeneration request. The
// gate keeps annotation-free invocations (fixture tests, subset runs) from
// paying for a compile.
func (r *Runner) allocFreePhase(fset *token.FileSet, facts *Facts, dirs []string, merged *suppressionIndex, writeAllocs bool) (bool, []Diagnostic, error) {
	if !r.Config.rule(AllocFreeName).Enabled {
		return false, nil, nil
	}
	hasAnnotations := false
	for _, ff := range facts.All {
		if ff.AllocFree {
			hasAnnotations = true
			break
		}
	}
	display := r.AllocBudget
	if display == "" {
		display = DefaultAllocBudgetPath
	}
	budgetPath := display
	if !filepath.IsAbs(budgetPath) {
		budgetPath = filepath.Join(r.Root, budgetPath)
	}
	_, statErr := os.Stat(budgetPath)
	if !hasAnnotations && statErr != nil && !writeAllocs {
		return false, nil, nil
	}
	sites, err := runEscapeAnalysis(r.Root, dirs)
	if err != nil {
		return false, nil, err
	}
	counts, first := countEscapes(facts, sites)
	if writeAllocs {
		// Regeneration audits nothing, so allocfree suppressions must not
		// be called stale on this pass: report escapeRan=false.
		return false, nil, WriteAllocBudget(budgetPath, counts)
	}
	budget, err := ReadAllocBudget(budgetPath)
	if err != nil {
		return false, nil, err
	}
	var kept []Diagnostic
	for _, d := range checkAllocBudget(fset, facts, counts, first, budget, display, dirs) {
		if !merged.suppressed(d) {
			kept = append(kept, d)
		}
	}
	return true, kept, nil
}

// Main is the machlint CLI: it parses flags and patterns out of args,
// lints, prints findings to stdout, and returns the process exit code
// (0 clean, 1 findings, 2 usage or load failure). cmd/machlint is a thin
// wrapper; keeping the logic here makes the nonzero-exit contract
// testable.
func Main(root string, args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("machlint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	checks := flags.String("checks", "", "comma-separated subset of checks to run (default: all)")
	ledger := flags.Bool("ledger", false, "print the //machlint:allow suppression ledger to stdout and exit (redirect to "+DefaultLedgerPath+")")
	writeAllocs := flags.Bool("write-allocs", false, "regenerate the allocfree budget file ("+DefaultAllocBudgetPath+") from the current tree")
	writeDead := flags.Bool("write-deadexports", false, "regenerate the deadexport ledger ("+DefaultDeadExportPath+") from the current tree")
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: machlint [-checks c1,c2] [-ledger | -write-allocs | -write-deadexports] [packages]\n\nchecks:\n")
		for _, a := range Analyzers() {
			fmt.Fprintf(stderr, "  %-11s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "  %-11s %s\n", AllocFreeName, AllocFreeDoc)
		fmt.Fprintf(stderr, "  %-11s %s\n", DeadExportName, DeadExportDoc)
		fmt.Fprintf(stderr, "\nfunction annotations: //machlint:noalias <p,q>..., //machlint:aliasok <why>, //machlint:allocfree\nsuppression: //machlint:allow <check>[,<check>...] <justification>\n\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}
	cfg := DefaultConfig()
	if *checks != "" {
		names := strings.Split(*checks, ",")
		known := allChecksSet()
		for _, n := range names {
			if !known[strings.TrimSpace(n)] {
				fmt.Fprintf(stderr, "machlint: unknown check %q (known: %s)\n", strings.TrimSpace(n), strings.Join(AllChecks(), ", "))
				return 2
			}
		}
		cfg.Keep(names)
	}
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if *ledger {
		text, err := BuildLedger(root, patterns)
		if err != nil {
			fmt.Fprintf(stderr, "machlint: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, text)
		return 0
	}
	r := &Runner{Root: root, Config: cfg, Stderr: stderr}
	var diags []Diagnostic
	var err error
	switch {
	case *writeAllocs:
		diags, err = r.WriteAllocs(patterns)
	case *writeDead:
		diags, err = r.WriteDeadExports(patterns)
	default:
		diags, err = r.Run(patterns)
	}
	if err != nil {
		fmt.Fprintf(stderr, "machlint: %v\n", err)
		return 2
	}
	if *writeAllocs {
		fmt.Fprintf(stderr, "machlint: wrote %s\n", DefaultAllocBudgetPath)
	}
	if *writeDead {
		fmt.Fprintf(stderr, "machlint: wrote %s\n", DefaultDeadExportPath)
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "machlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
