// contracts.go is the performance-contract annotation layer: the
// //emlint:zeroalloc and //emlint:hotpath doc-comment directives, modeled
// on the //emlint:allow grammar (allow.go). zeroalloc promises the function
// allocates nothing per call, and allocguard requires a testing.AllocsPerRun
// guard that measures it; hotpath promises the function stays within the
// compiler's inlining budget, and inlinecheck asks the compiler.
package analysis

import (
	"go/ast"
	"strings"
)

// Contract directives. Like allow directives they must start the comment
// line exactly; trailing text after a space is a free-form note.
const (
	zeroallocDirective = "//emlint:zeroalloc"
	hotpathDirective   = "//emlint:hotpath"
)

// contract is one annotated function: the declaration and which promises
// it makes.
type contract struct {
	decl      *ast.FuncDecl
	zeroalloc bool
	hotpath   bool
}

// name renders the function's diagnostic name: Func for package-level
// functions, (*T).Method / T.Method for methods — matching the spelling
// the compiler's inlining diagnostics use.
func (c contract) name() string {
	fd := c.decl
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		return "(*" + baseTypeName(star.X) + ")." + fd.Name.Name
	}
	return baseTypeName(recv) + "." + fd.Name.Name
}

// baseTypeName renders the receiver base type, dropping type parameters.
func baseTypeName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.IndexExpr:
		return baseTypeName(v.X)
	case *ast.IndexListExpr:
		return baseTypeName(v.X)
	}
	return ""
}

// isDirective reports whether a comment line is the directive, optionally
// followed by a note after a space or tab.
func isDirective(text, directive string) bool {
	rest, ok := strings.CutPrefix(text, directive)
	return ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t')
}

// collectContracts gathers the contract-annotated function declarations of
// the given files. Only doc-comment directives count: a contract scopes a
// whole function, never a line.
func collectContracts(files []*ast.File) []contract {
	var out []contract
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Body == nil {
				continue
			}
			c := contract{decl: fd}
			for _, line := range fd.Doc.List {
				c.zeroalloc = c.zeroalloc || isDirective(line.Text, zeroallocDirective)
				c.hotpath = c.hotpath || isDirective(line.Text, hotpathDirective)
			}
			if c.zeroalloc || c.hotpath {
				out = append(out, c)
			}
		}
	}
	return out
}
