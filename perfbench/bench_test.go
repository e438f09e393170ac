package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tetrisjoin/internal/workload"
)

// buildTetrisd compiles the server the benchmark drives.
func buildTetrisd(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs tetrisd")
	}
	bin := filepath.Join(t.TempDir(), "tetrisd")
	if out, err := exec.Command("go", "build", "-o", bin, "tetrisjoin/cmd/tetrisd").CombinedOutput(); err != nil {
		t.Fatalf("building tetrisd: %v\n%s", err, out)
	}
	return bin
}

// runTriangle serves one small triangle statement for a fraction of a
// second, after letting corrupt change its reference answer.
func runTriangle(t *testing.T, bin string, corrupt func(*stmt)) *outcome {
	t.Helper()
	spec := workloadSpec{
		name:  "triangle",
		flags: []string{"-max-concurrent", "1", "-parallel", "1"},
		conns: 1,
		run: func(b *bench) (*outcome, error) {
			s, err := newStmt("tri", "preloaded", workload.TriangleAGMStar(8, 4))
			if err != nil {
				return nil, err
			}
			corrupt(s)
			return b.runServed([]*stmt{s})
		},
	}
	b := &bench{tetrisd: bin, work: t.TempDir(), seed: 1, seconds: 0.3, spec: spec}
	o, err := b.runWorkload()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestWrongReferenceFailsTheRun(t *testing.T) {
	bin := buildTetrisd(t)

	o := runTriangle(t, bin, func(*stmt) {})
	if !o.correct() || o.failed != 0 {
		t.Fatalf("clean run reported defects: %v", o.defects)
	}

	o = runTriangle(t, bin, func(s *stmt) { s.want.sum++ })
	if o.correct() {
		t.Fatal("a wrong reference answer left the run correct")
	}
	if o.failed == 0 || o.failed != o.attempted {
		t.Fatalf("failed %d of %d requests; want every checked request to fail", o.failed, o.attempted)
	}
	if !strings.Contains(o.defects[0], "reference") {
		t.Fatalf("defect does not name the reference: %q", o.defects[0])
	}
}

func TestRepeatCountsCompareAcrossRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "counts.json")
	first := &outcome{}
	first.count("resolutions.x", 42)
	first.checkRepeatCounts(path)
	if !first.correct() {
		t.Fatalf("first run: %v", first.defects)
	}

	same := &outcome{}
	same.count("resolutions.x", 42)
	same.checkRepeatCounts(path)
	if !same.correct() {
		t.Fatalf("identical rerun: %v", same.defects)
	}

	changed := &outcome{}
	changed.count("resolutions.x", 43)
	changed.checkRepeatCounts(path)
	if changed.correct() {
		t.Fatal("a changed exact count was not reported")
	}

	within := &outcome{}
	within.count("k", 1)
	within.count("k", 2)
	if within.correct() {
		t.Fatal("a count that changed within one run was not reported")
	}
}
