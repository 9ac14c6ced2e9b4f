package analysis

// StaleAllow audits the suppression directives themselves: an
// //emlint:allow directive whose check ran over the package but suppressed
// no diagnostic is dead weight — usually the flagged code was refactored
// and the escape hatch outlived it — and so is one naming a check the
// suite does not have (a typo, or the residue of a deleted analyzer).
// Reporting both keeps the allow inventory honest: every surviving
// directive marks a real, currently-firing diagnostic someone chose to
// accept.
//
// The analyzer body is empty on purpose: usage tracking lives in
// runProgram, which knows which directives matched after every
// other analyzer has reported. Listing StaleAllow in the suite is what
// switches the audit on; directives citing checks outside the executed
// list are never reported (a run of a subset cannot tell if they still
// earn their keep).
var StaleAllow = &Analyzer{
	Name:  "staleallow",
	Tests: true,
	Run:   func(pass *Pass) {},
}
