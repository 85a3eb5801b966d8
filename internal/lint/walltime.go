package lint

import (
	"go/ast"
	"go/types"
)

// WallTime forbids direct wall-clock reads (time.Now / time.Since /
// time.Until) everywhere outside internal/telemetry. Hot paths measure time
// through the telemetry clock (telemetry.Now on an injected sink, nil-safe
// and syscall-free when telemetry is off), and harness/CLI code stamps wall
// time via telemetry.WallNow/WallSince — keeping internal/telemetry/clock.go
// the repo's single sanctioned clock site, so determinism and disabled-mode
// overhead are auditable in one place.
var WallTime = &Analyzer{
	Name: "walltime",
	Doc:  "direct wall-clock read outside internal/telemetry",
	Run:  runWallTime,
}

// clockFuncs are the time package functions that read the wall clock.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runWallTime(p *Pass) {
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
			if !ok || pn.Imported().Path() != "time" {
				return true
			}
			fn, ok := p.ObjectOf(sel.Sel).(*types.Func)
			if !ok || !clockFuncs[fn.Name()] {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			p.Reportf(sel.Pos(), "wall-clock read %s.%s outside internal/telemetry; use the telemetry clock (telemetry.Now on a sink, or telemetry.WallNow/WallSince in harness code)", pkgIdent.Name, fn.Name())
			return true
		})
	}
}
