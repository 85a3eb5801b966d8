package mach_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	testNameRe   = regexp.MustCompile(`(?:^|[^.\w])((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(\*?)`)
	codeSpanRe   = regexp.MustCompile("`([^`\n]+)`")
	selectorRe   = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	sectionRe    = regexp.MustCompile(`§\s?(\d+(?:\.\d+)*)`)
	designCiteRe = regexp.MustCompile(`DESIGN(?:\.md)?,?\s+§\s?\d+(?:\.\d+)*(?:(?:,\s*|\s+and\s+|/)§\s?\d+(?:\.\d+)*)*`)
	headingRe    = regexp.MustCompile(`(?m)^#+\s+(\d+(?:\.\d+)*)\.?\s`)
)

// TestDocCitationsResolve holds the docs to the tree. They cite it in three
// forms, and each must resolve:
//
//   - a Test/Benchmark/Fuzz name (a trailing * cites a prefix) is a func the
//     module declares;
//   - a backticked pkg.Ident or pkg.Ident.Member of a module package names a
//     declaration of that package: a top-level name, then a method, field or
//     interface method of that type (promoted through embedding and aliases
//     included). A backticked file name of the tree (`hfl.go`) and a metric
//     of BENCHMARK.json (`hfl.train_share`) are not identifiers;
//   - a §n in DESIGN.md, and a "DESIGN.md §n" (or "DESIGN §n", with ", §m"
//     lists) in README.md, a Go comment, a script or the Makefile, is a
//     numbered heading of DESIGN.md.
func TestDocCitationsResolve(t *testing.T) {
	tree := loadTree(t)
	design := readDoc(t, "DESIGN.md")
	headings := map[string]bool{}
	for _, m := range headingRe.FindAllStringSubmatch(design, -1) {
		headings[m[1]] = true
	}
	checkSections := func(where string, cites []string) {
		for _, c := range cites {
			for _, m := range sectionRe.FindAllStringSubmatch(c, -1) {
				if !headings[m[1]] {
					t.Errorf("%s cites DESIGN.md §%s, which has no such heading", where, m[1])
				}
			}
		}
	}

	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text := design
		if doc != "DESIGN.md" {
			text = readDoc(t, doc)
		}
		for _, m := range testNameRe.FindAllStringSubmatch(text, -1) {
			if !tree.declaresFunc(m[1], m[2] == "*") {
				t.Errorf("%s cites %s%s, which no func declares", doc, m[1], m[2])
			}
		}
		for _, span := range codeSpanRe.FindAllStringSubmatch(text, -1) {
			for _, m := range selectorRe.FindAllStringSubmatch(span[1], -1) {
				if msg := tree.resolve(m[1], m[2], m[3]); msg != "" {
					t.Errorf("%s cites `%s`: %s", doc, strings.TrimSuffix(m[1]+"."+m[2]+"."+m[3], "."), msg)
				}
			}
		}
		cites := designCiteRe.FindAllString(text, -1)
		if doc == "DESIGN.md" {
			cites = []string{text}
		}
		checkSections(doc, cites)
	}
	for _, c := range tree.comments {
		checkSections(c.where, designCiteRe.FindAllString(c.text, -1))
	}
}

// docTree is what the citation check reads from the module's files.
type docTree struct {
	funcs    map[string]bool    // top-level funcs without a receiver
	pkgs     map[string]*docPkg // by package name; main packages left out
	files    map[string]bool    // base names of every file in the tree
	metrics  map[string]bool    // BENCHMARK.json metric names
	comments []docText          // every Go comment group, every script and the Makefile
}

type docPkg struct {
	names   map[string]bool
	members map[string]map[string]bool // type → its methods, fields and interface methods
	embeds  map[string][]typeRef       // type → embedded types and its alias target
}

type typeRef struct{ pkg, name string }

type docText struct{ where, text string }

func loadTree(t *testing.T) *docTree {
	t.Helper()
	tree := &docTree{funcs: map[string]bool{}, pkgs: map[string]*docPkg{}, files: map[string]bool{}, metrics: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		tree.files[name] = true
		switch {
		case strings.HasSuffix(name, ".go"):
		case strings.HasSuffix(name, ".sh") || name == "Makefile":
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			tree.comments = append(tree.comments, docText{path, string(b)})
			return nil
		default:
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			tree.comments = append(tree.comments, docText{fset.Position(cg.Pos()).String(), cg.Text()})
		}
		pkgName := strings.TrimSuffix(f.Name.Name, "_test")
		imports := map[string]string{}
		for _, im := range f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			local := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p[strings.LastIndex(p, "/")+1:]
		}
		tree.addFile(pkgName, f, imports)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(readDoc(t, "BENCHMARK.json")), &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		tree.metrics[m.Name] = true
	}
	delete(tree.pkgs, "main")
	return tree
}

func (tr *docTree) pkg(name string) *docPkg {
	p := tr.pkgs[name]
	if p == nil {
		p = &docPkg{names: map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]typeRef{}}
		tr.pkgs[name] = p
	}
	return p
}

func (p *docPkg) member(typ, name string) {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	p.members[typ][name] = true
}

// typeName reads T, *T, T[...] and pkg.T; pkg is "" for the file's own.
func typeName(e ast.Expr, imports map[string]string) (typeRef, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		return typeRef{name: x.Name}, true
	case *ast.StarExpr:
		return typeName(x.X, imports)
	case *ast.IndexExpr:
		return typeName(x.X, imports)
	case *ast.IndexListExpr:
		return typeName(x.X, imports)
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
			return typeRef{pkg: imports[id.Name], name: x.Sel.Name}, true
		}
	}
	return typeRef{}, false
}

func (tr *docTree) addFile(pkgName string, f *ast.File, imports map[string]string) {
	p := tr.pkg(pkgName)
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.names[d.Name.Name] = true
				tr.funcs[d.Name.Name] = true
			} else if r, ok := typeName(d.Recv.List[0].Type, imports); ok {
				p.member(r.name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.names[n.Name] = true
					}
				case *ast.TypeSpec:
					p.names[s.Name.Name] = true
					tr.addType(p, pkgName, s, imports)
				}
			}
		}
	}
}

func (tr *docTree) addType(p *docPkg, pkgName string, s *ast.TypeSpec, imports map[string]string) {
	typ := s.Name.Name
	var fields []*ast.Field
	switch x := s.Type.(type) {
	case *ast.StructType:
		fields = x.Fields.List
	case *ast.InterfaceType:
		fields = x.Methods.List
	default:
		if r, ok := typeName(s.Type, imports); ok && s.Assign.IsValid() {
			if r.pkg == "" {
				r.pkg = pkgName
			}
			p.embeds[typ] = append(p.embeds[typ], r)
		}
	}
	for _, fl := range fields {
		for _, n := range fl.Names {
			p.member(typ, n.Name)
		}
		if len(fl.Names) == 0 {
			if r, ok := typeName(fl.Type, imports); ok {
				p.member(typ, r.name)
				if r.pkg == "" {
					r.pkg = pkgName
				}
				p.embeds[typ] = append(p.embeds[typ], r)
			}
		}
	}
	if p.members[typ] == nil { // a type with no members still resolves as one
		p.members[typ] = map[string]bool{}
	}
}

func (tr *docTree) declaresFunc(name string, prefix bool) bool {
	if !prefix {
		return tr.funcs[name]
	}
	for f := range tr.funcs {
		if strings.HasPrefix(f, name) {
			return true
		}
	}
	return false
}

// resolve returns "" when pkg.ident[.member] names a declaration, or why not.
// Names of no module package are not citations of the tree.
func (tr *docTree) resolve(pkg, ident, member string) string {
	p := tr.pkgs[pkg]
	if p == nil || tr.metrics[pkg+"."+ident] || (member == "" && tr.files[pkg+"."+ident]) {
		return ""
	}
	if !p.names[ident] {
		return "package " + pkg + " declares no " + ident
	}
	if member == "" || tr.hasMember(pkg, ident, member, 0) {
		return ""
	}
	if _, isType := p.members[ident]; !isType {
		return pkg + "." + ident + " is not a type, so it has no member " + member
	}
	return pkg + "." + ident + " has no method or field " + member
}

func (tr *docTree) hasMember(pkg, typ, member string, depth int) bool {
	p := tr.pkgs[pkg]
	if p == nil || depth > 8 {
		return false
	}
	if p.members[typ][member] {
		return true
	}
	for _, e := range p.embeds[typ] {
		if tr.hasMember(e.pkg, e.name, member, depth+1) {
			return true
		}
	}
	return false
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
