package lint

import (
	"go/ast"
	"go/types"
)

// GlobalRand forbids the ambient-state read that silently breaks
// reproducibility inside the simulation core: package-level math/rand
// functions, which draw from a shared, unseeded source. Randomness must flow
// through a seeded *rand.Rand threaded from the config. Wall-clock reads are
// walltime's to report.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "global math/rand draw inside the deterministic simulation core",
	Run:  runGlobalRand,
}

// randConstructors are the math/rand (and /v2) package-level functions
// that build explicit, seedable state rather than drawing from the global
// source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2 sources
}

func runGlobalRand(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgIdent, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.ObjectOf(pkgIdent).(*types.PkgName)
			if !ok {
				return true
			}
			// Only package-level functions are hazards; type references
			// (rand.Rand) and anything reached through a value (r.Intn)
			// are fine.
			fn, ok := p.ObjectOf(sel.Sel).(*types.Func)
			if !ok {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			if path := pn.Imported().Path(); (path == "math/rand" || path == "math/rand/v2") && !randConstructors[fn.Name()] {
				p.Reportf(sel.Pos(), "%s.%s draws from the shared global source; thread a seeded *rand.Rand from the config instead", pkgIdent.Name, fn.Name())
			}
			return true
		})
	}
}
