package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"strings"

	"github.com/mach-fl/mach/internal/det"
)

// The deadexport check finds exported package-level identifiers — funcs,
// types, vars, consts — that the rule's packages (internal/) declare in
// non-test files and that no non-test file of the module uses: API kept
// alive only by its own tests. Methods and fields are exempt (net/rpc
// handlers and interface satisfaction reach them by reflection). A use
// inside the identifier's own declaration, or as the receiver of one of its
// methods, does not count. Like allocfree it is a whole-run phase, not a
// per-unit Analyzer: it needs every use in the module in view, so the driver
// runs it only on a whole-tree run (./...).
//
// Known findings live in the committed ledger (lint_deadexports.txt, one
// "<pkgdir>.<Name>" per line). A finding missing from the ledger and a ledger
// entry that is no finding any more (used again, or gone) both fail, so the
// ledger is an exact inventory that deletions shrink; regenerate it with
// `machlint -write-deadexports`.
const (
	DeadExportName = "deadexport"
	DeadExportDoc  = "exported identifiers under internal/ that only tests use, beyond the committed ledger (whole-tree runs only)"

	// DefaultDeadExportPath is the committed ledger, relative to the lint
	// root.
	DefaultDeadExportPath = "lint_deadexports.txt"
)

// deadExports returns the rule's exported package-level declarations that
// nothing uses, keyed "<pkgdir>.<Name>", with their positions. Objects are
// matched across units by declaration position, which is stable between a
// unit's own parse and the source importer's (see Facts).
func deadExports(units []*Unit, rule *Rule) map[string]token.Position {
	type decl struct {
		key string
		pos token.Position
	}
	decls := map[string]decl{} // declaration posKey → candidate
	used := map[string]bool{}  // declaration posKeys with a counted use
	for _, u := range units {
		for _, f := range u.Files {
			if isTestFile(u.Fset, f) {
				continue
			}
			for _, d := range f.Decls {
				own := map[string]bool{}
				if rule.appliesTo(u.Path) {
					for _, id := range declaredNames(d) {
						if id.IsExported() {
							pos := u.Fset.Position(id.Pos())
							own[posKey(pos)] = true
							decls[posKey(pos)] = decl{u.Path + "." + id.Name, pos}
						}
					}
				}
				var recv *ast.FieldList
				if fd, ok := d.(*ast.FuncDecl); ok {
					recv = fd.Recv
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if fl, ok := n.(*ast.FieldList); ok && fl == recv {
						return false // a method's receiver is no use of its type
					}
					if id, ok := n.(*ast.Ident); ok {
						if obj := u.Info.Uses[id]; obj != nil && obj.Pos().IsValid() {
							if k := posKey(u.Fset.Position(obj.Pos())); !own[k] {
								used[k] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	dead := map[string]token.Position{}
	for pk, d := range decls {
		if !used[pk] {
			dead[d.key] = d.pos
		}
	}
	return dead
}

// declaredNames lists the package-level identifiers a declaration
// introduces; methods introduce none.
func declaredNames(decl ast.Decl) []*ast.Ident {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []*ast.Ident{d.Name}
		}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

// readDeadExportLedger parses the ledger into key → line; a missing file is
// an empty ledger.
func readDeadExportLedger(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("lint: deadexport ledger: %w", err)
	}
	out := map[string]int{}
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			out[line] = i + 1
		}
	}
	return out, nil
}

// checkDeadExports compares the tree's dead exports against the ledger.
func checkDeadExports(dead map[string]token.Position, ledger map[string]int, ledgerPath string) []Diagnostic {
	var diags []Diagnostic
	for _, k := range det.SortedKeys(dead) {
		if _, ok := ledger[k]; !ok {
			diags = append(diags, Diagnostic{Pos: dead[k], Check: DeadExportName,
				Message: fmt.Sprintf("%s is exported but no non-test file of the module uses it; delete or unexport it (do not grow %s)", k, ledgerPath)})
		}
	}
	for _, k := range det.SortedKeys(ledger) {
		if _, ok := dead[k]; !ok {
			diags = append(diags, Diagnostic{Pos: token.Position{Filename: ledgerPath, Line: ledger[k], Column: 1}, Check: DeadExportName,
				Message: fmt.Sprintf("stale ledger: %s is used by non-test code now, or gone; regenerate with machlint -write-deadexports", k)})
		}
	}
	return diags
}

// writeDeadExportLedger regenerates the ledger from the tree's dead exports.
func writeDeadExportLedger(path string, dead map[string]token.Position) error {
	var b strings.Builder
	b.WriteString("# machlint deadexport ledger — exported identifiers under internal/ that no\n")
	b.WriteString("# non-test file of the module uses. The list may only shrink: delete or\n")
	b.WriteString("# unexport, then regenerate with `machlint -write-deadexports` (or\n")
	b.WriteString("# `make lint-ledger`); make check fails on any drift.\n")
	for _, k := range det.SortedKeys(dead) {
		b.WriteString(k + "\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
