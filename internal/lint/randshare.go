package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// RandShare enforces the two halves of the repo's RNG-ownership invariant
// (DESIGN.md §5 phase 1, §7 pooled decide state):
//
//  1. Seed provenance: every explicit source must be derived from the run
//     seed through internal/det's seed table. rand.NewSource /
//     (*rand.Rand).Seed with a compile-time constant argument forks a
//     stream the config's Seed does not control — the exact bug class
//     behind "identically seeded runs differ". Seed arithmetic (seed+k,
//     seed+id*311) is controlled by Seed but collides across roles: two
//     additive recipes meet wherever their offsets do. A plain value or a
//     call (mix(seed, t), rng.Int63()) passes — except a seed-table call:
//     the keyed streams (det.DeviceBatch, det.EdgeCoin, …) restart per
//     (step, device) and per (step, edge), so they run on the one-word
//     det.Stream, and rand.NewSource / rand.NewPCG over one of them outside
//     internal/det puts a 607-word register back behind every key. det.NewRand is the
//     constructor; det.ModelInit, one stream a run, stays on math/rand.
//  2. Goroutine ownership: a *rand.Rand local must be owned by exactly one
//     goroutine-spawning scope. A rand captured by two spawned closures,
//     by a closure spawned in a loop (a go statement, or a pool task handed
//     to parallel's Group.Go or Group.GoIndex), or used by both a spawned
//     closure and its parent after the spawn, is drawn from concurrently —
//     draw order, and
//     therefore every downstream decision, becomes scheduler-dependent.
//
// Struct-field rands (pooled edgeDecideState) are out of scope here: those
// are owned by index-partitioned state and guarded by the engine's
// serial-order contract, which the runtime determinism tests pin.
var RandShare = &Analyzer{
	Name: "randshare",
	Doc:  "constant-seeded or goroutine-shared *rand.Rand in the simulation core",
	Run:  runRandShare,
}

func runRandShare(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				p.checkConstSeed(n)
			case *ast.FuncDecl:
				if n.Body != nil {
					p.checkRandCaptures(n.Body)
				}
			}
			return true
		})
	}
}

// checkConstSeed flags rand.NewSource / rand.NewPCG / (*rand.Rand).Seed
// calls whose seed arguments are compile-time constants or arithmetic, and
// the two constructors over a keyed seed-table stream.
func (p *Pass) checkConstSeed(call *ast.CallExpr) {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkg := fn.Pkg().Path()
	if pkg != "math/rand" && pkg != "math/rand/v2" {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	name := fn.Name()
	seedTaking := false
	if sig.Recv() != nil {
		seedTaking = name == "Seed"
	} else {
		seedTaking = name == "NewSource" || name == "NewPCG"
	}
	if !seedTaking {
		return
	}
	for _, arg := range call.Args {
		if tv, ok := p.Info.Types[arg]; ok && tv.Value != nil {
			p.Reportf(arg.Pos(), "%s seeded with constant %s; derive the seed from the run seed (internal/det) so the stream is controlled by Config.Seed", name, tv.Value)
		} else if isArithmetic(p, arg) && !pathMatch(p.Path, seedArithmeticOK) {
			p.Reportf(arg.Pos(), "%s seeded with seed arithmetic; additive recipes collide across streams — take the seed from internal/det's seed table", name)
		} else if stream := keyedStream(p, arg); stream != "" && name != "Seed" && !pathMatch(p.Path, []string{"internal/det"}) {
			p.Reportf(arg.Pos(), "%s over det.%s builds a math/rand register per keyed stream; use det.NewRand", name, stream)
		}
	}
}

// seedArithmeticOK lists where seed arithmetic stays legal: the benchmark
// harness offsets its workload seed once per world input (test set, mobility
// source), streams no seed-table entry names.
var seedArithmeticOK = []string{"benchmark"}

// unwrapConversions strips parentheses and type conversions from e.
func unwrapConversions(p *Pass, e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			if tv, ok := p.Info.Types[x.Fun]; !ok || !tv.IsType() || len(x.Args) != 1 {
				return e
			}
			e = x.Args[0]
		default:
			return e
		}
	}
}

// isArithmetic reports whether e, under parentheses and type conversions, is
// a binary expression.
func isArithmetic(p *Pass, e ast.Expr) bool {
	_, ok := unwrapConversions(p, e).(*ast.BinaryExpr)
	return ok
}

// keyedStream names the seed-table function e calls, under parentheses and
// type conversions, when it is one of internal/det's keyed streams — every
// int64-returning entry but ModelInit and the raw Mix.
func keyedStream(p *Pass, e ast.Expr) string {
	call, ok := unwrapConversions(p, e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || !strings.HasSuffix("/"+fn.Pkg().Path(), "/internal/det") {
		return ""
	}
	if fn.Name() == "ModelInit" || fn.Name() == "Mix" {
		return ""
	}
	return fn.Name()
}

// spawnKind classifies how a function literal leaves its parent goroutine.
type spawnKind int

const (
	spawnNone   spawnKind = iota
	spawnSingle           // `go func(){...}()` or a parallel.Group task outside a loop
	spawnMulti            // spawned inside a loop
)

// randUse records where a *rand.Rand variable was referenced.
type randUse struct {
	lit      *ast.FuncLit // innermost spawned literal, nil = parent scope
	pos      token.Pos
	spawnPos token.Pos // position of the spawn site (valid when lit != nil)
	multi    bool
}

// checkRandCaptures walks one function body tracking which spawned
// closures capture which locally-declared *rand.Rand variables.
func (p *Pass) checkRandCaptures(body *ast.BlockStmt) {
	// Pass 1: find locally declared *rand.Rand variables.
	rngVars := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			return true
		}
		if v, ok := obj.(*types.Var); ok && isRandRandPtr(v.Type()) {
			rngVars[obj] = true
		}
		return true
	})
	if len(rngVars) == 0 {
		return
	}

	// Pass 2: walk with an explicit stack so every identifier use knows
	// its innermost spawned literal and the loop depth at the spawn site.
	type frame struct {
		node     *ast.FuncLit // the literal this frame was pushed for
		owner    *ast.FuncLit // the spawned literal uses are attributed to
		kind     spawnKind
		spawnPos token.Pos
	}
	var (
		stack     []ast.Node
		frames    []frame
		loopDepth int
		spawned   = map[*ast.FuncLit]frame{}
		uses      = map[types.Object][]randUse{}
		order     []types.Object // first-use order, for deterministic reports
	)
	markSpawn := func(lit *ast.FuncLit, kind spawnKind, pos token.Pos) {
		if kind == spawnSingle && loopDepth > 0 {
			kind = spawnMulti
		}
		spawned[lit] = frame{node: lit, owner: lit, kind: kind, spawnPos: pos}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch top.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loopDepth--
			case *ast.FuncLit:
				if frames[len(frames)-1].node == top {
					frames = frames[:len(frames)-1]
				}
			}
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				markSpawn(lit, spawnSingle, n.Pos())
			}
		case *ast.CallExpr:
			if kind := spawnerKind(p, n); kind != spawnNone {
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						markSpawn(lit, kind, n.Pos())
					}
				}
			}
		case *ast.FuncLit:
			if fr, ok := spawned[n]; ok {
				frames = append(frames, fr)
			} else {
				// Non-spawned literals run on whichever goroutine calls
				// them; inherit the enclosing frame's ownership (parent by
				// default) while still popping on this node.
				var fr frame
				if len(frames) > 0 {
					fr = frames[len(frames)-1]
				}
				fr.node = n
				frames = append(frames, fr)
			}
		case *ast.Ident:
			obj := p.Info.Uses[n]
			if obj == nil || !rngVars[obj] {
				return true
			}
			u := randUse{pos: n.Pos()}
			if len(frames) > 0 {
				if fr := frames[len(frames)-1]; fr.kind != spawnNone {
					u.lit = fr.owner
					u.spawnPos = fr.spawnPos
					u.multi = fr.kind == spawnMulti
				}
			}
			if len(uses[obj]) == 0 {
				order = append(order, obj)
			}
			uses[obj] = append(uses[obj], u)
		}
		return true
	})

	for _, obj := range order {
		p.reportRandSharing(obj, uses[obj])
	}
}

// reportRandSharing applies the ownership rules to one variable's uses.
func (p *Pass) reportRandSharing(obj types.Object, uses []randUse) {
	var (
		firstLit   *ast.FuncLit
		firstInLit randUse
	)
	for _, u := range uses {
		if u.lit == nil {
			continue
		}
		if u.multi {
			p.Reportf(u.pos, "*rand.Rand %s is captured by a closure that runs on multiple goroutines (spawned in a loop or a parallel fan-out); give each goroutine its own det-seeded stream", obj.Name())
			return
		}
		if firstLit == nil {
			firstLit, firstInLit = u.lit, u
			continue
		}
		if u.lit != firstLit {
			p.Reportf(u.pos, "*rand.Rand %s is captured by more than one goroutine-spawning closure; draws interleave nondeterministically — give each goroutine its own det-seeded stream", obj.Name())
			return
		}
	}
	if firstLit == nil {
		return
	}
	// One spawned capture: parent uses lexically after the spawn race the
	// goroutine's draws. Uses before the spawn are seed-and-hand-off
	// initialization and stay legal.
	for _, u := range uses {
		if u.lit == nil && u.pos > firstInLit.spawnPos {
			p.Reportf(firstInLit.pos, "*rand.Rand %s is used by this spawned goroutine and by its parent scope after the spawn; hand the stream off completely or derive a second one from internal/det", obj.Name())
			return
		}
	}
}

// spawnerKind recognizes the repo's worker-pool entry points: a function
// literal passed to (*parallel.Group).Go or GoIndex executes on exactly one
// pool worker per call.
func spawnerKind(p *Pass, call *ast.CallExpr) spawnKind {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || !isParallelPkg(fn.Pkg().Path()) {
		return spawnNone
	}
	if fn.Name() == "Go" || fn.Name() == "GoIndex" {
		return spawnSingle
	}
	return spawnNone
}

func isParallelPkg(path string) bool {
	return path == "parallel" || strings.HasSuffix(path, "/parallel")
}

// isRandRandPtr reports whether t is *math/rand.Rand (either rand version).
func isRandRandPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Name() != "Rand" {
		return false
	}
	pkg := obj.Pkg().Path()
	return pkg == "math/rand" || pkg == "math/rand/v2"
}
