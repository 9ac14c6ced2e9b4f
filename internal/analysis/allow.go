package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// allowDirective is the comment prefix that suppresses a diagnostic:
//
//	//emlint:allow check1,check2 -- justification
//
// The directive covers its own line and the line directly below it (so it
// works both trailing the flagged code and on the line above it). When it
// appears in the doc comment of a top-level declaration it covers the
// whole declaration, which is how long-lived worker loops and timing
// functions opt out wholesale.
const allowDirective = "//emlint:allow"

// allowRange permits one check on lines [from, to] of a file. pos is the
// directive comment's own position and used records whether any diagnostic
// of the run actually landed in the range — the staleallow audit reports
// ranges that stayed unused.
type allowRange struct {
	check    string
	from, to int
	pos      token.Position
	used     bool
}

// allowSet maps a filename to its permitted ranges.
type allowSet map[string][]*allowRange

// allows reports whether the diagnostic falls inside a permitted range for
// its check, marking every matching range as having earned its keep (two
// directives covering the same line both count as exercised rather than
// flapping on evaluation order).
func (s allowSet) allows(d Diagnostic) bool {
	hit := false
	for _, r := range s[d.Pos.Filename] {
		if r.check == d.Check && d.Pos.Line >= r.from && d.Pos.Line <= r.to {
			r.used = true
			hit = true
		}
	}
	return hit
}

// stale returns a staleallow diagnostic for every directive range that
// suppressed nothing, restricted to checks the run actually executed (a
// directive for a check outside the list might suppress plenty on a fuller
// run), and for every directive naming something that is no check of the
// suite at all — what a deleted or misspelled analyzer leaves behind, and
// otherwise accepted silently forever. Directives for staleallow itself are
// exempt: they exist to pin a deliberately-dormant directive and are used
// precisely when nothing fires.
func (s allowSet) stale(executed map[string]bool) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, ranges := range s {
		for _, r := range ranges {
			var msg string
			switch {
			case !known[r.check]:
				msg = "allow directive names " + r.check + ", which is not a check of the suite; remove it"
			case r.used || r.check == StaleAllow.Name || !executed[r.check]:
				continue
			default:
				msg = "allow directive for " + r.check + " suppresses no diagnostic; remove it"
			}
			out = append(out, Diagnostic{Pos: r.pos, Check: StaleAllow.Name, Message: msg})
		}
	}
	return out
}

// parseAllow extracts the check names from one directive comment, or nil
// if the comment is not a directive.
func parseAllow(text string) []string {
	if !isDirective(text, allowDirective) {
		return nil
	}
	rest := text[len(allowDirective):]
	// Strip the justification ("-- why") and split the check list.
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = rest[:i]
	}
	var checks []string
	for _, c := range strings.Split(rest, ",") {
		if c = strings.TrimSpace(c); c != "" {
			checks = append(checks, c)
		}
	}
	return checks
}

// collectAllows gathers every allow directive of the package.
func collectAllows(pkg *Package) allowSet {
	set := make(allowSet)
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		// Directives inside a top-level declaration's doc comment cover
		// the declaration's full line range.
		docOf := make(map[*ast.CommentGroup][2]int)
		for _, decl := range f.Decls {
			var doc *ast.CommentGroup
			switch d := decl.(type) {
			case *ast.FuncDecl:
				doc = d.Doc
			case *ast.GenDecl:
				doc = d.Doc
			}
			if doc != nil {
				docOf[doc] = [2]int{
					pkg.Fset.Position(decl.Pos()).Line,
					pkg.Fset.Position(decl.End()).Line,
				}
			}
		}
		for _, group := range f.Comments {
			span, isDoc := docOf[group]
			for _, c := range group.List {
				checks := parseAllow(c.Text)
				if checks == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				from, to := pos.Line, pos.Line+1
				if isDoc {
					from, to = span[0], span[1]
				}
				for _, check := range checks {
					set[filename] = append(set[filename], &allowRange{check: check, from: from, to: to, pos: pos})
				}
			}
		}
	}
	return set
}
