package analysis

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// tempModule writes a throwaway module and returns a loader rooted at it.
func tempModule(t *testing.T, files map[string]string) *Loader {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module fixturemod\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLoadSkipsForeignBuildTags proves constraint handling by making the
// excluded files type-invalid: if either the //go:build file or the
// _GOOS-suffix file were parsed into the package, type-checking would fail.
func TestLoadSkipsForeignBuildTags(t *testing.T) {
	foreignOS := "windows"
	l := tempModule(t, map[string]string{
		"pkg/ok.go": "package pkg\n\nfunc Ok() int { return 1 }\n",
		"pkg/tagged.go": "//go:build " + foreignOS + "\n\npackage pkg\n\n" +
			"func Broken() int { return undefinedOnPurpose }\n",
		"pkg/suffix_" + foreignOS + ".go": "package pkg\n\n" +
			"func AlsoBroken() int { return undefinedOnPurpose }\n",
		"pkg/ignored.go": "//go:build ignore\n\npackage pkg\n\n" +
			"func Scratch() int { return undefinedOnPurpose }\n",
		// A release tag the toolchain does not have yet is unsatisfied.
		"pkg/future.go": "//go:build go1.999\n\npackage pkg\n\n" +
			"func Future() int { return undefinedOnPurpose }\n",
	})
	prog, err := l.LoadProgram("fixturemod/pkg")
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	pkg := prog.Root
	if len(pkg.Files) != 1 {
		t.Fatalf("got %d files, want 1 (constrained files must be skipped)", len(pkg.Files))
	}
}

// TestLoadMatchingBuildTag keeps files whose constraint matches the host.
func TestLoadMatchingBuildTag(t *testing.T) {
	l := tempModule(t, map[string]string{
		"pkg/ok.go": "package pkg\n\nfunc Ok() int { return Extra() }\n",
		"pkg/tagged.go": "//go:build linux || darwin || windows || freebsd || netbsd || openbsd || solaris || aix || dragonfly || illumos || plan9 || js || wasip1 || android || ios\n\n" +
			"package pkg\n\nfunc Extra() int { return 2 }\n",
	})
	prog, err := l.LoadProgram("fixturemod/pkg")
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	pkg := prog.Root
	if len(pkg.Files) != 2 {
		t.Fatalf("got %d files, want 2 (matching constraint must be kept)", len(pkg.Files))
	}
}

// TestLoadUnixBuildTag: `unix` is a tag the go tool derives from GOOS, not
// one of GOOS's values; a file gated on it is compiled on linux, so the
// loader must analyze it (a naked go statement there is still a finding).
func TestLoadUnixBuildTag(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the unix tag is only known to hold on linux")
	}
	l := tempModule(t, map[string]string{
		"pkg/ok.go":   "package pkg\n\nfunc Ok() int { return Extra() }\n",
		"pkg/unix.go": "//go:build unix\n\npackage pkg\n\nfunc Extra() int { return 2 }\n",
	})
	prog, err := l.LoadProgram("fixturemod/pkg")
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	pkg := prog.Root
	if len(pkg.Files) != 2 {
		t.Fatalf("got %d files, want 2 (the unix-gated file is part of the linux build)", len(pkg.Files))
	}
}

// TestLoadTestOnlyPackage loads a directory holding nothing but _test.go
// files: the test group becomes the analysis unit instead of an error.
func TestLoadTestOnlyPackage(t *testing.T) {
	l := tempModule(t, map[string]string{
		"pkg/pkg_test.go": "package pkg\n\nimport \"testing\"\n\n" +
			"func TestNothing(t *testing.T) { t.Log(\"ok\") }\n",
	})
	prog, err := l.LoadProgram("fixturemod/pkg")
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	pkg := prog.Root
	if len(pkg.Files) != 1 || pkg.Types.Name() != "pkg" {
		t.Fatalf("files=%d name=%q, want the test-only group", len(pkg.Files), pkg.Types.Name())
	}
}

// TestLoadTypeErrorIsError: a package that does not type-check must come
// back as an error, never a panic or a partial package.
func TestLoadTypeErrorIsError(t *testing.T) {
	l := tempModule(t, map[string]string{
		"pkg/bad.go": "package pkg\n\nfunc Bad() int { return undefinedSymbol }\n",
	})
	prog, err := l.LoadProgram("fixturemod/pkg")
	if err == nil {
		t.Fatalf("LoadProgram returned %+v, want type-check error", prog)
	}
	if !strings.Contains(err.Error(), "undefinedSymbol") {
		t.Fatalf("error does not name the failure: %v", err)
	}
}

// TestLoadParseErrorIsError: syntactically broken source is an error too.
func TestLoadParseErrorIsError(t *testing.T) {
	l := tempModule(t, map[string]string{
		"pkg/bad.go": "package pkg\n\nfunc Bad( {\n",
	})
	if _, err := l.LoadProgram("fixturemod/pkg"); err == nil {
		t.Fatal("LoadProgram accepted a parse error")
	}
}

// TestMatchFileName: the _GOOS/_GOARCH filename rule is the go tool's, as
// seen through the loader's directory scan.
func TestMatchFileName(t *testing.T) {
	// Pick an OS that is guaranteed foreign to the host so the negative
	// cases hold on any platform.
	foreign := "windows"
	if runtime.GOOS == "windows" {
		foreign = "linux"
	}
	cases := map[string]bool{
		"plain.go":                      true,
		"name_" + runtime.GOOS + ".go":  true,
		"name_" + foreign + ".go":       false,
		"name_" + foreign + "_s390x.go": false,
		"name_test.go":                  true,
		"deep_blue.go":                  true, // "blue" is neither an OS nor an arch
	}
	files := make(map[string]string)
	for name := range cases {
		files["pkg/"+name] = "package pkg\n"
	}
	l := tempModule(t, files)
	parsed, err := l.parseDir(filepath.Join(l.Root, "pkg"), true)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, f := range parsed {
		got[filepath.Base(l.Fset.Position(f.Pos()).Filename)] = true
	}
	for name, want := range cases {
		if got[name] != want {
			t.Errorf("%s: loaded = %v, want %v", name, got[name], want)
		}
	}
}
