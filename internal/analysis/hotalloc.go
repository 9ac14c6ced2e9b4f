package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags per-pair allocation patterns in inner loops — the code
// paths internal/block, internal/simjoin, and internal/feature run once
// per candidate pair, where an avoidable allocation multiplies by |L|×|R|.
// Three patterns are reported, each per function body (closures are
// independent units):
//
//   - an un-preallocated slice (var s []T, s := []T{}, s := make([]T, 0))
//     grown by append inside a loop nested two deep, or inside any loop
//     when the declaration itself already sits in a loop.
//   - fmt.Sprintf/fmt.Sprint in a loop nested two deep: per-pair
//     formatting; hoist it or build keys with strconv/Builder.
//   - non-constant string concatenation in a loop nested two deep.
//   - make() inside a closure passed to parallel.ForEach: it runs once
//     per task, so the scratch allocates per element. Per-worker scratch
//     belongs outside the closure, indexed by the shard argument of
//     parallel.ForEachShard or parallel.Chunks (whose closure runs once
//     per chunk and is therefore exempt).
//
// Cold paths (error formatting) and intentionally lazy slices opt out
// with //emlint:allow hotalloc -- reason.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			for _, unit := range funcUnits(f) {
				checkHotAllocUnit(pass, unit)
			}
		}
	},
}

func checkHotAllocUnit(pass *Pass, unit funcUnit) {
	checkPrealloc(pass, unit)
	checkInnerLoopTransients(pass, unit)
	checkParallelTaskAllocs(pass, unit)
}

// parallelPkg is the import path of the fan-out layer whose per-task entry
// points checkParallelTaskAllocs watches.
const parallelPkg = "repro/internal/parallel"

// perTaskEntryPoints are the parallel entry points whose closure argument
// executes once per task (per input element). ForEachShard and Chunks are
// absent: their shard argument exists so scratch can live outside the
// closure, and a Chunks closure runs once per chunk, where a chunk's own
// buffer belongs.
var perTaskEntryPoints = map[string]bool{"ForEach": true}

// checkParallelTaskAllocs reports make() calls inside function literals
// passed to the per-task parallel entry points. Anything made there is
// remade n times; hoist it per worker (ForEachShard) or per chunk (Chunks).
func checkParallelTaskAllocs(pass *Pass, unit funcUnit) {
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch v := n.(type) {
		case nil, *ast.FuncLit:
			// Nested literals are independent units; any parallel calls
			// inside them are found when funcUnits yields that body.
			return
		case *ast.CallExpr:
			fn := calleeFunc(pass.Info, v)
			if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == parallelPkg &&
				perTaskEntryPoints[fn.Name()] && len(v.Args) > 0 {
				if lit, ok := v.Args[len(v.Args)-1].(*ast.FuncLit); ok {
					reportTaskClosureMakes(pass, fn.Name(), lit)
					// The literal was handled here; skip it in the outer
					// walk but keep scanning the other arguments.
					for _, a := range v.Args[:len(v.Args)-1] {
						walk(a)
					}
					return
				}
			}
		}
		children(n, func(c ast.Node) { walk(c) })
	}
	walk(unit.body)
}

// reportTaskClosureMakes flags every make() under the per-task closure
// body, including inside literals nested within it — those still execute
// (and so allocate) per task when called.
func reportTaskClosureMakes(pass *Pass, entry string, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "make" {
			return true
		}
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		pass.Reportf(call.Pos(), "make inside a parallel.%s closure allocates once per task; keep scratch per worker via parallel.ForEachShard or per chunk via parallel.Chunks (//emlint:allow hotalloc -- reason to keep)", entry)
		return true
	})
}

// checkInnerLoopTransients reports Sprintf/Sprint calls and string
// concatenation at loop depth >= 2 of the unit.
func checkInnerLoopTransients(pass *Pass, unit funcUnit) {
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		switch v := n.(type) {
		case nil, *ast.FuncLit:
			return
		case *ast.ForStmt, *ast.RangeStmt:
			depth++
		case *ast.CallExpr:
			if depth >= 2 {
				if fn := calleeFunc(pass.Info, v); fn != nil && fn.Pkg() != nil &&
					fn.Pkg().Path() == "fmt" && (fn.Name() == "Sprintf" || fn.Name() == "Sprint") {
					pass.Reportf(v.Pos(), "fmt.%s allocates per inner-loop iteration; hoist the formatting or use strconv/strings.Builder (//emlint:allow hotalloc -- reason to keep)", fn.Name())
				}
			}
		case *ast.BinaryExpr:
			if depth >= 2 && v.Op == token.ADD && isStringExpr(pass.Info, v) && pass.Info.Types[v].Value == nil {
				pass.Reportf(v.Pos(), "string concatenation allocates per inner-loop iteration; build with strings.Builder or hoist (//emlint:allow hotalloc -- reason to keep)")
				return // don't re-report each + of a chain
			}
		}
		children(n, func(c ast.Node) { walk(c, depth) })
	}
	walk(unit.body, 0)
}

// children visits the direct AST children of n.
func children(n ast.Node, visit func(ast.Node)) {
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if first {
			first = false
			return true
		}
		visit(m)
		return false
	})
}

// isStringExpr reports whether e has (possibly named) string type.
func isStringExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// preallocCandidate is one un-preallocated slice declaration.
type preallocCandidate struct {
	obj types.Object
	// stmt is the whole declaration statement the diagnostic anchors at.
	stmt ast.Stmt
	// inLoop records whether the declaration itself sits inside a loop.
	inLoop bool
	// blockStmts is the statement list the declaration belongs to, and
	// index its position there, for locating the adjacent loop.
	blockStmts []ast.Stmt
	index      int
}

// checkPrealloc finds un-preallocated slice declarations grown by append
// in a qualifying loop and reports them.
func checkPrealloc(pass *Pass, unit funcUnit) {
	var cands []preallocCandidate
	var scan func(n ast.Node, depth int)
	scan = func(n ast.Node, depth int) {
		switch v := n.(type) {
		case nil, *ast.FuncLit:
			return
		case *ast.ForStmt, *ast.RangeStmt:
			depth++
		case *ast.BlockStmt:
			for i, stmt := range v.List {
				if obj := uninitSliceDecl(pass, stmt); obj != nil {
					cands = append(cands, preallocCandidate{
						obj: obj, stmt: stmt,
						inLoop: depth > 0, blockStmts: v.List, index: i,
					})
				}
			}
		}
		children(n, func(c ast.Node) { scan(c, depth) })
	}
	scan(unit.body, 0)

	for _, c := range cands {
		appendDepth := adjacentGrowthDepth(pass, c)
		// Per-pair shape: append nested two deep, or any append loop when
		// the declaration re-executes per outer iteration.
		if appendDepth == 0 || (appendDepth < 2 && !c.inLoop) {
			continue
		}
		pass.Reportf(c.stmt.Pos(), "slice grown by append in a per-pair inner loop without preallocation; size it with make([]T, 0, n) (//emlint:allow hotalloc -- reason if the size is unknowable)")
	}
}

// uninitSliceDecl matches the un-preallocated slice declaration forms and
// returns the declared object, or nil.
func uninitSliceDecl(pass *Pass, stmt ast.Stmt) types.Object {
	switch v := stmt.(type) {
	case *ast.DeclStmt:
		gd, ok := v.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR || len(gd.Specs) != 1 {
			return nil
		}
		spec, ok := gd.Specs[0].(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || len(spec.Values) != 0 {
			return nil
		}
		at, ok := spec.Type.(*ast.ArrayType)
		if !ok || at.Len != nil {
			return nil
		}
		return pass.Info.Defs[spec.Names[0]]
	case *ast.AssignStmt:
		if v.Tok != token.DEFINE || len(v.Lhs) != 1 || len(v.Rhs) != 1 {
			return nil
		}
		id, ok := v.Lhs[0].(*ast.Ident)
		if !ok {
			return nil
		}
		switch rhs := ast.Unparen(v.Rhs[0]).(type) {
		case *ast.CompositeLit:
			at, ok := rhs.Type.(*ast.ArrayType)
			if !ok || at.Len != nil || len(rhs.Elts) != 0 {
				return nil
			}
			return pass.Info.Defs[id]
		case *ast.CallExpr:
			// make([]T, 0) with no capacity argument.
			if fn, ok := ast.Unparen(rhs.Fun).(*ast.Ident); !ok || fn.Name != "make" {
				return nil
			} else if _, isBuiltin := pass.Info.Uses[fn].(*types.Builtin); !isBuiltin {
				return nil
			}
			if len(rhs.Args) != 2 {
				return nil
			}
			at, ok := rhs.Args[0].(*ast.ArrayType)
			if !ok || at.Len != nil {
				return nil
			}
			if lit, ok := rhs.Args[1].(*ast.BasicLit); !ok || lit.Value != "0" {
				return nil
			}
			return pass.Info.Defs[id]
		}
	}
	return nil
}

// adjacentGrowthDepth finds the first loop following the declaration in
// its block that appends to the declared slice and returns the nesting
// depth of the deepest such append within it (1 = directly in the loop
// body), or 0 when no following loop grows the slice.
func adjacentGrowthDepth(pass *Pass, c preallocCandidate) int {
	for _, stmt := range c.blockStmts[c.index+1:] {
		switch stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
		default:
			continue
		}
		if depth := deepestAppendDepth(pass, stmt, c.obj); depth > 0 {
			return depth
		}
	}
	return 0
}

// deepestAppendDepth returns the maximum loop-nesting depth (counting the
// root loop as 1) of `obj = append(obj, ...)` statements under the loop,
// or 0 when none exists. Nested function literals are skipped.
func deepestAppendDepth(pass *Pass, loop ast.Stmt, obj types.Object) int {
	maxDepth := 0
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		switch v := n.(type) {
		case nil, *ast.FuncLit:
			return
		case *ast.ForStmt, *ast.RangeStmt:
			depth++
		case *ast.CallExpr:
			if isBuiltinAppend(pass.Info, v) && len(v.Args) > 0 &&
				objOf(pass.Info, v.Args[0]) == obj && depth > maxDepth {
				maxDepth = depth
			}
		}
		children(n, func(m ast.Node) { walk(m, depth) })
	}
	walk(loop, 0)
	return maxDepth
}

// isBuiltinAppend reports whether the call invokes the append built-in.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}
