package main

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

func TestPercentileSupport(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	if v, ok := percentile(xs, 0.5); v != 50 || !ok {
		t.Fatalf("p50 = %v, %v; want 50, true", v, ok)
	}
	if v, ok := percentile(xs, 0.9); v != 90 || !ok {
		t.Fatalf("p90 = %v, %v; want 90 supported (10 beyond)", v, ok)
	}
	if _, ok := percentile(xs, 0.91); ok {
		t.Fatal("p91 of 100 samples has 9 beyond; want unsupported")
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Fatal("p99 of 100 samples must be unsupported")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("empty sample must be unsupported")
	}
	if xs[0] != 100 {
		t.Fatal("percentile sorted its input in place")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Fatalf("geomean(1,100) = %v", g)
	}
	if g := geomean([]float64{2, 0}); g != 0 {
		t.Fatalf("geomean with a zero = %v, want 0", g)
	}
	// Two families: {1, 100} (geomean 10) and {1000}; a family counts
	// once whatever its number of instances.
	if g := familyGeomean([][]int{{0, 2}, {1}}, []float64{1, 1000, 100}); math.Abs(g-100) > 1e-9 {
		t.Fatalf("familyGeomean = %v, want 100", g)
	}
}

func TestFamiliesAndSchedule(t *testing.T) {
	var stmts []*stmt
	for _, id := range []string{"agmstar", "path0", "ztri0", "path1", "ztri1", "ztri2"} {
		stmts = append(stmts, &stmt{id: id})
	}
	groups := families(stmts)
	want := [][]int{{0}, {1, 3}, {2, 4, 5}}
	if fmt.Sprint(groups) != fmt.Sprint(want) {
		t.Fatalf("families = %v, want %v", groups, want)
	}
	// Every round visits each family once; a family's instances take
	// turns.
	sched := newSchedule(1, groups)
	perStmt := make([]int, len(stmts))
	for r := 0; r < 6; r++ {
		seen := map[int]bool{}
		for k := 0; k < len(groups); k++ {
			i := sched.next()
			perStmt[i]++
			for g, members := range groups {
				if slices.Contains(members, i) {
					if seen[g] {
						t.Fatalf("round %d visits family %d twice", r, g)
					}
					seen[g] = true
				}
			}
		}
	}
	if fmt.Sprint(perStmt) != fmt.Sprint([]int{6, 3, 2, 3, 2, 2}) {
		t.Fatalf("requests per statement = %v", perStmt)
	}
}

func TestSelfTime(t *testing.T) {
	p := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"sticking out", []interval{{-50, 10}, {90, 150}}, 80},
		{"outside", []interval{{200, 300}}, 100},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(p, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestParseTuple(t *testing.T) {
	c := &conn{}
	got, err := c.parseTuple([]byte(`{"tuple":[0,12,4095,18446744073709551615]}` + "\n"))
	if err != nil || len(got) != 4 || got[0] != 0 || got[1] != 12 || got[2] != 4095 || got[3] != math.MaxUint64 {
		t.Fatalf("parseTuple = %v, %v", got, err)
	}
	for _, bad := range []string{`{"tuple":[1,,2]}`, `{"tuple":[1,2`, `{"tuple":[-1]}`, `{"tuple":[]}`, `{"tuple":[18446744073709551616]}`} {
		if _, err := c.parseTuple([]byte(bad)); err == nil {
			t.Errorf("parseTuple(%s) accepted a malformed line", bad)
		}
	}
}
