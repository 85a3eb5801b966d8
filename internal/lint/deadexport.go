package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"strings"

	"github.com/mach-fl/mach/internal/det"
)

// The deadexport check finds exported declarations under internal/ and in
// the module's root package (the facade) — funcs, types, vars, consts and
// methods — that no non-test file of the module uses: API kept alive only
// by its own tests. A facade alias is live only when a program of the
// module uses it, so the facade keeps nothing alive that no program
// reaches. A use inside the declaration itself, or as the receiver of one
// of a type's methods, does not count. A method is also exempt when
// something other than a selector reaches it:
//   - its type (or a pointer to it) implements an interface the module
//     declares, spells out, or imports from any package in its import
//     closure (error, fmt.Stringer, io.Writer, nn.Layer, ...), and the
//     method is one of that interface's;
//   - its type is registered with net/rpc, which dispatches by reflection.
//
// Struct fields stay exempt. Like allocfree it is a whole-run phase, not a
// per-unit Analyzer: it needs every use in the module in view, so the
// driver runs it only on a whole-tree run (./...).
//
// Known findings live in the committed ledger (lint_deadexports.txt, one
// "<pkgdir>.<Name>" or "<pkgdir>.<Type>.<Method>" per line; the root
// package's pkgdir is its name). A finding missing from the ledger and a
// ledger entry that is no finding any more (used again, or gone) both fail,
// so the ledger is an exact inventory that deletions shrink; regenerate it
// with `machlint -write-deadexports`.
const (
	DeadExportName = "deadexport"
	DeadExportDoc  = "exported identifiers and methods under internal/ and in the root package that only tests use, beyond the committed ledger (whole-tree runs only)"

	// DefaultDeadExportPath is the committed ledger, relative to the lint
	// root.
	DefaultDeadExportPath = "lint_deadexports.txt"
)

// deadExports returns the rule's exported declarations that nothing uses,
// keyed "<pkgdir>.<Name>" or "<pkgdir>.<Type>.<Method>", with their
// positions. Objects are matched across units by declaration position,
// which is stable between a unit's own parse and the source importer's (see
// Facts).
func deadExports(units []*Unit, rule *Rule) map[string]token.Position {
	type decl struct {
		key string
		pos token.Position
	}
	decls := map[string]decl{} // declaration posKey → candidate
	used := map[string]bool{}  // declaration posKeys with a counted use
	r := reach{ifaces: map[string][]string{}, imported: map[*types.Package]bool{}}
	for _, u := range units {
		for _, f := range u.Files {
			if isTestFile(u.Fset, f) {
				continue
			}
			r.scan(u, f)
			prefix := u.Path
			if prefix == "." {
				prefix = u.Pkg.Name() // the facade's entries read "mach.Name"
			}
			for _, d := range f.Decls {
				own := map[string]bool{}
				if rule.appliesTo(u.Path) {
					for name, id := range declaredNames(d, u.Info) {
						if id.IsExported() {
							pos := u.Fset.Position(id.Pos())
							own[posKey(pos)] = true
							decls[posKey(pos)] = decl{prefix + "." + name, pos}
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
	for k := range r.exemptMethods() {
		used[k] = true
	}
	dead := map[string]token.Position{}
	for pk, d := range decls {
		if !used[pk] {
			dead[d.key] = d.pos
		}
	}
	return dead
}

// declaredNames maps the names a declaration introduces — "Name" for
// package-level identifiers, "Type.Method" for a method — to their
// identifiers.
func declaredNames(decl ast.Decl, info *types.Info) map[string]*ast.Ident {
	ids := map[string]*ast.Ident{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			ids[d.Name.Name] = d.Name
		} else if fn, ok := info.Defs[d.Name].(*types.Func); ok {
			if t := namedOf(fn.Type().(*types.Signature).Recv().Type()); t != nil {
				ids[t.Obj().Name()+"."+d.Name.Name] = d.Name
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				ids[s.Name.Name] = s.Name
			case *ast.ValueSpec:
				for _, id := range s.Names {
					ids[id.Name] = id
				}
			}
		}
	}
	return ids
}

// namedOf returns the named type t is or points to, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// reach gathers what calls a method without a selector naming it: the
// interfaces in view, checked against the module's named types, and the
// types registered with net/rpc, all of whose methods are reachable.
type reach struct {
	fset     *token.FileSet
	concrete []*types.Named      // the module's non-interface named types
	ifaces   map[string][]string // an interface's joined method signatures → them
	open     []*types.Named      // types registered with net/rpc
	imported map[*types.Package]bool
}

// scan records one non-test file's imports, interface types, named types
// and net/rpc registrations.
func (r *reach) scan(u *Unit, f *ast.File) {
	r.fset = u.Fset
	for _, spec := range f.Imports {
		if pn := u.Info.PkgNameOf(spec); pn != nil {
			r.importClosure(pn.Imported())
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.InterfaceType:
			if it, ok := u.Info.TypeOf(n).(*types.Interface); ok {
				r.addInterface(it)
			}
		case *ast.TypeSpec:
			tn, ok := u.Info.Defs[n.Name].(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				break
			}
			if named := namedOf(tn.Type()); named != nil && !tn.IsAlias() {
				r.concrete = append(r.concrete, named)
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || len(n.Args) == 0 {
				break
			}
			if fn, ok := u.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "net/rpc" &&
				(fn.Name() == "Register" || fn.Name() == "RegisterName") {
				if named := namedOf(u.Info.TypeOf(n.Args[len(n.Args)-1])); named != nil {
					r.open = append(r.open, named)
				}
			}
		}
		return true
	})
}

// importClosure adds the package-level interfaces of every package in
// pkg's import closure.
func (r *reach) importClosure(pkg *types.Package) {
	if r.imported[pkg] {
		return
	}
	r.imported[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				r.addInterface(it)
			}
		}
	}
	for _, imp := range pkg.Imports() {
		r.importClosure(imp)
	}
}

func (r *reach) addInterface(it *types.Interface) {
	var sigs []string
	for i := 0; i < it.NumMethods(); i++ {
		sigs = append(sigs, methodSig(it.Method(i)))
	}
	if len(sigs) > 0 {
		r.ifaces[strings.Join(sigs, ";")] = sigs
	}
}

// exemptMethods returns the posKeys of every method an interface or
// net/rpc reaches.
func (r *reach) exemptMethods() map[string]bool {
	exempt := map[string]bool{}
	for _, named := range r.open {
		mset := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < mset.Len(); i++ {
			exempt[posKey(r.fset.Position(mset.At(i).Obj().Pos()))] = true
		}
	}
	for _, named := range r.concrete {
		mset := types.NewMethodSet(types.NewPointer(named))
		has := map[string]token.Pos{}
		for i := 0; i < mset.Len(); i++ {
			has[methodSig(mset.At(i).Obj().(*types.Func))] = mset.At(i).Obj().Pos()
		}
	next:
		for _, sigs := range r.ifaces {
			for _, s := range sigs {
				if _, ok := has[s]; !ok {
					continue next
				}
			}
			for _, s := range sigs {
				exempt[posKey(r.fset.Position(has[s]))] = true
			}
		}
	}
	return exempt
}

// methodSig spells a method's name and signature with packages by name, so
// a unit's own view of a type and the source importer's compare equal.
func methodSig(m *types.Func) string {
	sig := m.Type().(*types.Signature)
	q := func(p *types.Package) string { return p.Name() }
	var b strings.Builder
	b.WriteString(m.Name())
	for _, t := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for i := 0; i < t.Len(); i++ {
			b.WriteString(types.TypeString(t.At(i).Type(), q) + ",")
		}
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// deadEntry is one deadexport ledger line: where it sits, and the text
// after its "#" naming what keeps the export (a test in another package, a
// roadmap item).
type deadEntry struct {
	line int
	why  string
}

// readDeadExportLedger parses the ledger into key → entry; a missing file is
// an empty ledger.
func readDeadExportLedger(path string) (map[string]deadEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("lint: deadexport ledger: %w", err)
	}
	out := map[string]deadEntry{}
	for i, line := range strings.Split(string(data), "\n") {
		key, why, _ := strings.Cut(line, "#")
		if key = strings.TrimSpace(key); key != "" {
			out[key] = deadEntry{i + 1, strings.TrimSpace(why)}
		}
	}
	return out, nil
}

// checkDeadExports compares the tree's dead exports against the ledger.
func checkDeadExports(dead map[string]token.Position, ledger map[string]deadEntry, ledgerPath string) []Diagnostic {
	var diags []Diagnostic
	for _, k := range det.SortedKeys(dead) {
		if _, ok := ledger[k]; !ok {
			diags = append(diags, Diagnostic{Pos: dead[k], Check: DeadExportName,
				Message: fmt.Sprintf("%s is exported but no non-test file of the module uses it; delete or unexport it (do not grow %s)", k, ledgerPath)})
		}
	}
	for _, k := range det.SortedKeys(ledger) {
		pos := token.Position{Filename: ledgerPath, Line: ledger[k].line, Column: 1}
		if _, ok := dead[k]; !ok {
			diags = append(diags, Diagnostic{Pos: pos, Check: DeadExportName,
				Message: fmt.Sprintf("stale ledger: %s is used by non-test code now, or gone; regenerate with machlint -write-deadexports", k)})
		} else if ledger[k].why == "" {
			diags = append(diags, Diagnostic{Pos: pos, Check: DeadExportName,
				Message: fmt.Sprintf("ledger entry %s names nothing that keeps it; append \"# <the test or roadmap item that needs it>\"", k)})
		}
	}
	return diags
}

// writeDeadExportLedger regenerates the ledger from the tree's dead exports,
// keeping the reason of every entry the old ledger already carried.
func writeDeadExportLedger(path string, dead map[string]token.Position) error {
	old, err := readDeadExportLedger(path)
	if err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("# machlint deadexport ledger — exported identifiers and methods under\n")
	b.WriteString("# internal/ and in the root package that no non-test file of the module\n")
	b.WriteString("# uses, each followed by \"# <what keeps it>\". The list may only shrink:\n")
	b.WriteString("# delete or unexport, then regenerate with `machlint -write-deadexports`\n")
	b.WriteString("# (or `make lint-ledger`); make check fails on any drift.\n")
	for _, k := range det.SortedKeys(dead) {
		b.WriteString(k)
		if why := old[k].why; why != "" {
			b.WriteString("  # " + why)
		}
		b.WriteString("\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
