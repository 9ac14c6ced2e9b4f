package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunFlagSurface pins the driver's whole option surface: exactly four
// flags, and a usage string that names every artifact.
func TestRunFlagSurface(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-h exit = %d, want 2", code)
	}
	var flags []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			flags = append(flags, strings.Fields(name)[0])
		}
	}
	if got, want := strings.Join(flags, " "), "exp metrics seed workers"; got != want {
		t.Fatalf("flags = %q, want %q\n%s", got, want, stderr.String())
	}
	for _, e := range artifacts {
		if !strings.Contains(stderr.String(), e.name+"|") {
			t.Errorf("-exp usage does not list %q", e.name)
		}
	}
}

// TestArtifacts pins the -exp all list: the nine paper artifacts, each
// resolvable by name.
func TestArtifacts(t *testing.T) {
	want := "table3 table4 guide table1 smurf mlrules blockers concurrency table2"
	var names []string
	for _, e := range artifacts {
		if e.title == "" || e.run == nil {
			t.Errorf("artifact %q is incomplete", e.name)
		}
		names = append(names, e.name)
	}
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("artifacts = %q, want %q", got, want)
	}
}

func TestRunCheapArtifacts(t *testing.T) {
	for _, name := range []string{"table3", "table4"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-exp", name}, &stdout, &stderr); code != 0 {
			t.Fatalf("-exp %s exit = %d, stderr:\n%s", name, code, stderr.String())
		}
		if lines := strings.Count(stdout.String(), "\n"); lines < 5 {
			t.Errorf("-exp %s printed only %d lines:\n%s", name, lines, stdout.String())
		}
	}
}

// TestRunUnknownExperiment covers the retired bench names too: they are
// unknown experiments like any other, not silently accepted.
func TestRunUnknownExperiment(t *testing.T) {
	for _, name := range []string{"serve", "parallel", "tokens", "obsbench", "nosuch", ""} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-exp", name}, &stdout, &stderr); code != 1 {
			t.Errorf("-exp %q exit = %d, want 1", name, code)
		}
		if !strings.Contains(stderr.String(), "unknown experiment") {
			t.Errorf("-exp %q stderr = %q, want the unknown-experiment message", name, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-exp %q printed to stdout: %q", name, stdout.String())
		}
	}
}
