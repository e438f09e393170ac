package boxtree

import (
	"math/rand"
	"sync"
	"testing"

	"tetrisjoin/internal/dyadic"
)

// pinnedProbe is one split half b on dim whose parent's full probe
// missed, with the full probe's answer for b.
type pinnedProbe struct {
	b    dyadic.Box
	dim  int
	want dyadic.Box // nil when ContainsSuperset(b) misses
}

// randPinnedTree builds an n-dimensional tree of depth-d boxes by mixing
// plain Insert with InsertSubsuming, whose sweep deletes the stored boxes
// the new one contains.
func randPinnedTree(r *rand.Rand, n int, d uint8, boxes int) *Tree {
	tr := New(n)
	for i := 0; i < boxes; i++ {
		if r.Intn(2) == 0 {
			tr.Insert(randBox(r, n, d))
		} else {
			tr.InsertSubsuming(randBox(r, n, d))
		}
	}
	return tr
}

// randPinnedProbes draws up to count split halves that satisfy the
// parent-miss promise: a parent whose full probe misses, split on a
// dimension it can still be split on. Half the candidates are random;
// the other half sit inside a stored box with that box's exact component
// on the split dimension, so many of them hit.
func randPinnedProbes(r *rand.Rand, tr *Tree, d uint8, count int) []pinnedProbe {
	stored := tr.All()
	var out []pinnedProbe
	for attempt := 0; attempt < 50*count && len(out) < count; attempt++ {
		n := tr.Dims()
		b := randBox(r, n, d)
		dim := r.Intn(n)
		if len(stored) > 0 && r.Intn(2) == 0 {
			x := stored[r.Intn(len(stored))]
			for i := range b {
				b[i] = x[i]
				if i != dim {
					for b[i].Len < d && r.Intn(3) > 0 {
						b[i] = b[i].Child(uint64(r.Intn(2)))
					}
				}
			}
		}
		if b[dim].Len == 0 {
			continue
		}
		parent := b.Clone()
		parent[dim] = b[dim].Parent()
		if _, ok := tr.ContainsSuperset(parent); ok {
			continue
		}
		want, _ := tr.ContainsSuperset(b)
		out = append(out, pinnedProbe{b: b, dim: dim, want: want})
	}
	return out
}

func checkPinned(t *testing.T, tr *Tree, p pinnedProbe) {
	t.Helper()
	got, ok := tr.ContainsSupersetPinned(p.b, p.dim)
	if ok != (p.want != nil) || (ok && !got.Equal(p.want)) {
		t.Errorf("ContainsSupersetPinned(%s, %d) = %v, %v; ContainsSuperset = %v", p.b, p.dim, got, ok, p.want)
	}
}

// TestPinnedProbeMatchesFullProbe: on random 2–4-D trees, the pinned
// probe of a split half whose parent missed returns exactly the box the
// full probe returns — the refinement changes no witness.
func TestPinnedProbeMatchesFullProbe(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	probes, hits := 0, 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + trial%3
		d := uint8(3 + r.Intn(3))
		tr := randPinnedTree(r, n, d, 20+r.Intn(200))
		for _, p := range randPinnedProbes(r, tr, d, 200) {
			checkPinned(t, tr, p)
			probes++
			if p.want != nil {
				hits++
			}
		}
	}
	if probes < 3000 || hits < probes/10 {
		t.Fatalf("%d probes, %d hits: the property is barely exercised", probes, hits)
	}
	t.Logf("%d probes, %d hits", probes, hits)
}

// TestPinnedProbeRestriction: without the promise, the pinned probe
// returns the lexicographically least stored superset whose pinned
// component equals the probe's, checked against brute force.
func TestPinnedProbeRestriction(t *testing.T) {
	const n, d = 3, 4
	r := rand.New(rand.NewSource(8))
	tr := New(n)
	var ref []dyadic.Box
	for i := 0; i < 300; i++ {
		b := randBox(r, n, d)
		if tr.Insert(b) {
			ref = append(ref, b)
		}
	}
	for i := 0; i < 2000; i++ {
		b := randBox(r, n, d)
		dim := r.Intn(n+1) - 1
		var want dyadic.Box
		for _, x := range ref {
			if x.Contains(b) && (dim < 0 || x[dim] == b[dim]) && (want == nil || lengthsLess(x, want)) {
				want = x
			}
		}
		got, ok := tr.ContainsSupersetPinned(b, dim)
		if ok != (want != nil) || (ok && !got.Equal(want)) {
			t.Fatalf("ContainsSupersetPinned(%s, %d) = %v, %v; want %v", b, dim, got, ok, want)
		}
	}
}

// TestStampMoves: the stamp moves on every Insert that stores a box and
// every sweep that deletes one, and on nothing else — not on probes, not
// on an InsertSubsuming the tree already covers, not on a duplicate
// Insert or a sweep that finds nothing to delete.
func TestStampMoves(t *testing.T) {
	tr := New(2)
	moved := func(name string, want bool, op func()) {
		t.Helper()
		before := tr.Stamp()
		op()
		if got := tr.Stamp() != before; got != want {
			t.Errorf("%s: stamp moved = %v, want %v", name, got, want)
		}
	}
	moved("Insert", true, func() { tr.Insert(mustBox("00,01")) })
	moved("Insert", true, func() { tr.Insert(mustBox("01,1")) })
	moved("duplicate Insert", false, func() { tr.Insert(mustBox("01,1")) })
	moved("ContainsSuperset", false, func() { tr.ContainsSuperset(mustBox("01,11")) })
	moved("ContainsSupersetPinned", false, func() { tr.ContainsSupersetPinned(mustBox("01,11"), 1) })
	moved("covered InsertSubsuming", false, func() { tr.InsertSubsuming(mustBox("01,10")) })
	moved("empty sweep", false, func() { tr.DeleteContainedIn(mustBox("1,λ")) })
	moved("InsertSubsuming", true, func() { tr.InsertSubsuming(mustBox("1,λ")) })

	// A deleting sweep moves the stamp on its own, before the insert.
	before := tr.Stamp()
	if tr.DeleteContainedInBudget(mustBox("0,λ"), subsumeBudget) != 2 {
		t.Fatal("sweep did not delete the two boxes under 0,λ")
	}
	if tr.Stamp() == before {
		t.Error("deleting sweep did not move the stamp")
	}
	moved("InsertUncovered", true, func() { tr.InsertUncovered(mustBox("0,λ")) })
	moved("Reset", true, tr.Reset)
}

// TestPinnedProbeConcurrent: four goroutines probe one shared tree, full
// and pinned; probes write nothing, so this is race-free (run under
// -race) and every answer matches the one computed up front.
func TestPinnedProbeConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	const d = 5
	tr := randPinnedTree(r, 3, d, 300)
	probes := randPinnedProbes(r, tr, d, 400)
	stamp := tr.Stamp()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(probes); i += 4 {
				checkPinned(t, tr, probes[i])
				_, _ = tr.ContainsSuperset(probes[i].b)
				_ = tr.Stamp()
			}
		}(w)
	}
	wg.Wait()
	if tr.Stamp() != stamp {
		t.Error("probes moved the stamp")
	}
}
