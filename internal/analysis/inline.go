// inline.go holds the //emlint:hotpath contract against the compiler's own
// inlining decision — the one allocation-adjacent property no test can
// observe, so the one check that shells out: `go build -gcflags=-m=2` over
// a package carrying hotpath contracts, failing on a "cannot inline"
// verdict at a contract function's declaration. The build cache replays
// compiler output for unchanged packages, so a repeat run costs one cache
// probe. Verdicts belong to the toolchain go.mod pins.
package analysis

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// InlineCheck verifies that every //emlint:hotpath function stays within
// the inlining budget. Packages without one spawn no build.
var InlineCheck = &Analyzer{
	Name: "inlinecheck",
	Run: func(pass *Pass) {
		var hot []contract
		for _, c := range collectContracts(pass.Files) {
			if c.hotpath {
				hot = append(hot, c)
			}
		}
		if len(hot) == 0 {
			return
		}
		refused, err := inlineRefusals(filepath.Dir(pass.Fset.Position(hot[0].decl.Pos()).Filename))
		if err != nil {
			pass.Reportf(hot[0].decl.Pos(), "inlinecheck: %v", err)
			return
		}
		for _, c := range hot {
			pos := pass.Fset.Position(c.decl.Pos())
			if msg, ok := refused[filepath.Base(pos.Filename)+":"+strconv.Itoa(pos.Line)]; ok {
				pass.Reportf(c.decl.Pos(), "hotpath contract of %s violated: %s", c.name(), msg)
			}
		}
	},
}

// inlineRefusals builds the package in dir with -gcflags=-m=2 and returns
// its "cannot inline" verdicts keyed by "file.go:line" (the compiler
// reports them at the declaration). Files of other packages — generic
// instantiations can surface them — are dropped.
func inlineRefusals(dir string) (map[string]string, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m=2", ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m=2 in %s: %v\n%s", dir, err, out)
	}
	refused := make(map[string]string)
	for _, line := range strings.Split(string(out), "\n") {
		// ./file.go:line:col: message
		file, rest, ok1 := strings.Cut(line, ".go:")
		lineNo, rest, ok2 := strings.Cut(rest, ":")
		_, msg, ok3 := strings.Cut(rest, ": ")
		if ok1 && ok2 && ok3 && !strings.Contains(strings.TrimPrefix(file, "./"), "/") &&
			strings.HasPrefix(msg, "cannot inline ") {
			refused[filepath.Base(file)+".go:"+lineNo] = msg
		}
	}
	return refused, nil
}
