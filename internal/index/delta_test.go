package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"tetrisjoin/internal/dyadic"
	"tetrisjoin/internal/relation"
)

// randomRelation builds a relation over a small 2-attribute domain so
// tests can enumerate every point.
func randomRelation(t *testing.T, name string, n int, d uint8, seed int64) *relation.Relation {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rel := relation.MustNewUniform(name, []string{"A", "B"}, d)
	for i := 0; i < n; i++ {
		rel.MustInsert(uint64(r.Intn(1<<d)), uint64(r.Intn(1<<d)))
	}
	rel.Tuples()
	return rel
}

// checkIndexContract exhaustively verifies the oracle contract of ix
// against its relation over the full (small) domain: GapsAt(p) is empty
// iff p is a tuple; every box GapsAt returns contains p and no tuple;
// and AllGaps covers exactly the complement.
func checkIndexContract(t *testing.T, label string, ix Index) {
	t.Helper()
	rel := ix.Relation()
	depths := rel.Depths()
	all := ix.AllGaps()
	for _, b := range all {
		if err := b.Check(depths); err != nil {
			t.Fatalf("%s: AllGaps returned invalid box %v: %v", label, b, err)
		}
	}
	cur := ix.NewCursor()
	point := make([]uint64, rel.Arity())
	var walk func(dim int)
	walk = func(dim int) {
		if dim < rel.Arity() {
			for v := uint64(0); v < 1<<depths[dim]; v++ {
				point[dim] = v
				walk(dim + 1)
			}
			return
		}
		isTuple := rel.Contains(point...)
		gaps := cur.GapsAt(point)
		if isTuple && len(gaps) != 0 {
			t.Fatalf("%s: GapsAt(%v) returned %d boxes for a tuple", label, point, len(gaps))
		}
		if !isTuple && len(gaps) == 0 {
			t.Fatalf("%s: GapsAt(%v) empty for a non-tuple", label, point)
		}
		for _, g := range gaps {
			if err := g.Check(depths); err != nil {
				t.Fatalf("%s: GapsAt(%v) invalid box %v: %v", label, point, g, err)
			}
			if !g.ContainsPoint(point, depths) {
				t.Fatalf("%s: GapsAt(%v) box %v does not contain the probe", label, point, g)
			}
			for _, tup := range rel.Tuples() {
				if g.ContainsPoint(tup, depths) {
					t.Fatalf("%s: GapsAt(%v) box %v contains tuple %v", label, point, g, tup)
				}
			}
		}
		covered := false
		for _, b := range all {
			if b.ContainsPoint(point, depths) {
				covered = true
				if isTuple {
					t.Fatalf("%s: AllGaps box %v covers tuple %v", label, b, point)
				}
			}
		}
		if !isTuple && !covered {
			t.Fatalf("%s: AllGaps does not cover non-tuple %v", label, point)
		}
	}
	walk(0)
	// Gap validity for probed boxes: no gap box may contain any tuple.
	for _, tup := range rel.Tuples() {
		for _, b := range all {
			if b.ContainsPoint(tup, depths) {
				t.Fatalf("%s: gap box %v contains tuple %v", label, b, tup)
			}
		}
	}
}

// deriveStep publishes a write on cur and derives the registry for it,
// returning the new snapshot, the new set and the layered count.
func deriveStep(t *testing.T, set *Set, cur, next *relation.Relation) (*Set, int) {
	t.Helper()
	d, ok := next.DeltaSince(cur.Version())
	if !ok {
		t.Fatal("delta unavailable")
	}
	derived, layered, err := set.Derive(next, d)
	if err != nil {
		t.Fatal(err)
	}
	return derived, layered
}

// Each family, derived over a delete, an append, and an append on top
// of the delete, satisfies the new version's contract — and the
// composed write is still one delta deep.
func TestDeltaLayersMatchFreshBuilds(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		base := randomRelation(t, "R", 20, 4, seed)
		rng := rand.New(rand.NewSource(seed + 100))

		// Inserted tuples disjoint from base; deleted tuples from base.
		var ins []relation.Tuple
		for len(ins) < 3 {
			cand := relation.Tuple{uint64(rng.Intn(16)), uint64(rng.Intn(16))}
			if !base.Contains(cand...) {
				ins = append(ins, cand)
			}
		}
		del := []relation.Tuple{base.Tuples()[0], base.Tuples()[len(base.Tuples())/2]}
		afterDel, err := base.WithDeleted(del...)
		if err != nil {
			t.Fatal(err)
		}
		afterIns, err := base.WithInserted(ins...)
		if err != nil {
			t.Fatal(err)
		}
		chained, err := afterDel.WithInserted(ins...)
		if err != nil {
			t.Fatal(err)
		}

		for _, spec := range []Spec{BTreeSpec(), BTreeSpec("B", "A"), DyadicSpec(), KDTreeSpec()} {
			set := NewSet(base, nil)
			if err := set.Ensure(spec); err != nil {
				t.Fatal(err)
			}
			delSet, _ := deriveStep(t, set, base, afterDel)
			insSet, _ := deriveStep(t, set, base, afterIns)
			chainSet, _ := deriveStep(t, delSet, afterDel, chained)
			for label, s := range map[string]*Set{"deleted": delSet, "appended": insSet, "chained": chainSet} {
				ix, _, err := s.Get(spec)
				if err != nil {
					t.Fatal(err)
				}
				checkIndexContract(t, fmt.Sprintf("%s/%s seed=%d", spec.Key(), label, seed), ix)
				if s.MaxLayerDepth() != 1 {
					t.Fatalf("%s/%s: depth %d, want 1: %s", spec.Key(), label, s.MaxLayerDepth(), ix.Kind())
				}
			}
		}
	}
}

func TestSetDeriveLayersAndCounts(t *testing.T) {
	base := randomRelation(t, "R", 30, 4, 7)
	var builds atomic.Int64
	set := NewSet(base, &builds)
	if err := set.Ensure(BTreeSpec(), BTreeSpec("B", "A"), DyadicSpec()); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 3 {
		t.Fatalf("eager builds = %d, want 3", builds.Load())
	}

	// A 1-tuple append patches every carried spec: 3 O(1)-sized
	// constructions, zero full rebuilds.
	var ins relation.Tuple
	for v := uint64(0); ; v++ {
		if !base.Contains(v%16, v/16) {
			ins = relation.Tuple{v % 16, v / 16}
			break
		}
	}
	next, err := base.WithInserted(ins)
	if err != nil {
		t.Fatal(err)
	}
	derived, layered := deriveStep(t, set, base, next)
	if layered != 3 {
		t.Fatalf("layered=%d, want 3", layered)
	}
	if builds.Load() != 6 {
		t.Fatalf("builds after derive = %d, want 6 (3 eager + 3 deltas)", builds.Load())
	}
	if derived.Len() != 3 {
		t.Fatalf("derived set holds %d specs, want 3", derived.Len())
	}
	ix, built, err := derived.Get(BTreeSpec())
	if err != nil || built {
		t.Fatalf("derived Get rebuilt (built=%v err=%v)", built, err)
	}
	if derived.MaxLayerDepth() != 1 || derived.DeltaLen() != 1 {
		t.Fatalf("derived depth %d delta %d, want 1/1: %s", derived.MaxLayerDepth(), derived.DeltaLen(), ix.Kind())
	}
	checkIndexContract(t, "derived/btree", ix)

	// An empty delta (duplicate append) re-points without charging builds.
	dup, err := next.WithInserted(ins)
	if err != nil {
		t.Fatal(err)
	}
	before := builds.Load()
	rebasedSet, layered := deriveStep(t, derived, next, dup)
	if layered != 0 || builds.Load() != before {
		t.Fatalf("empty delta charged work: layered=%d builds+=%d", layered, builds.Load()-before)
	}
	ix, _, err = rebasedSet.Get(BTreeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Relation() != dup {
		t.Fatal("re-pointed index must report the new snapshot")
	}

	// A delta past WorthPatching still derives in place — folding it
	// flat is the catalog's job, not Derive's — and stays one deep.
	var bulk []relation.Tuple
	for v := uint64(0); len(bulk) < 12; v++ {
		cand := relation.Tuple{v % 16, (v / 16) % 16}
		if !dup.Contains(cand...) {
			bulk = append(bulk, cand)
		}
	}
	big, err := dup.WithInserted(bulk...)
	if err != nil {
		t.Fatal(err)
	}
	bigSet, layered := deriveStep(t, rebasedSet, dup, big)
	if layered != 3 || bigSet.MaxLayerDepth() != 1 {
		t.Fatalf("bulk delta: layered=%d depth=%d, want 3/1", layered, bigSet.MaxLayerDepth())
	}
	if WorthPatching(bigSet.DeltaLen(), big.Len()) {
		t.Fatalf("net delta %d of %d tuples still worth patching", bigSet.DeltaLen(), big.Len())
	}
}

// TestDeriveNetDeltaProperty runs random write scripts through
// Set.Derive — appends, deletes, a deleted tuple re-appended, an
// appended tuple deleted again, empty deltas — over every family, with
// one spec added on demand mid-script so the set mixes two bases.
// After every write each held index must satisfy the oracle contract
// over the whole domain and carry at most one net delta, whose size is
// exactly the symmetric difference to its base.
func TestDeriveNetDeltaProperty(t *testing.T) {
	specs := []Spec{BTreeSpec("A", "B"), BTreeSpec("B", "A"), DyadicSpec(), KDTreeSpec()}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cur := randomRelation(t, "R", 24, 4, seed+50)
		set := NewSet(cur, nil)
		if err := set.Ensure(specs[:3]...); err != nil {
			t.Fatal(err)
		}
		baseOf := map[string]*relation.Relation{}
		for _, s := range specs[:3] {
			baseOf[s.Key()] = cur
		}
		var appended, deleted []relation.Tuple
		randTuple := func() relation.Tuple { return relation.Tuple{uint64(rng.Intn(16)), uint64(rng.Intn(16))} }
		pick := func(ts []relation.Tuple) relation.Tuple { return ts[rng.Intn(len(ts))] }
		for step := 0; step < 30; step++ {
			var next *relation.Relation
			var err error
			var desc string
			switch k := rng.Intn(6); {
			case k == 0 && len(deleted) > 0:
				tup := pick(deleted)
				desc = fmt.Sprintf("re-append %v", tup)
				next, err = cur.WithInserted(tup)
			case k == 1 && len(appended) > 0:
				tup := pick(appended)
				desc = fmt.Sprintf("delete appended %v", tup)
				next, err = cur.WithDeleted(tup)
			case k == 2 && cur.Len() > 0:
				tup := pick(cur.Tuples())
				desc = fmt.Sprintf("delete %v", tup)
				next, err = cur.WithDeleted(tup)
				deleted = append(deleted, tup)
			case k == 3 && cur.Len() > 0:
				tup := pick(cur.Tuples())
				desc = fmt.Sprintf("empty append %v", tup)
				next, err = cur.WithInserted(tup)
			default:
				batch := []relation.Tuple{randTuple(), randTuple()}
				desc = fmt.Sprintf("append %v", batch)
				next, err = cur.WithInserted(batch...)
				appended = append(appended, batch...)
			}
			if err != nil {
				t.Fatal(err)
			}
			set, _ = deriveStep(t, set, cur, next)
			cur = next
			if step == 10 {
				if err := set.Ensure(specs[3]); err != nil {
					t.Fatal(err)
				}
				baseOf[specs[3].Key()] = cur
			}
			if set.MaxLayerDepth() > 1 {
				t.Fatalf("seed %d step %d (%s): depth %d", seed, step, desc, set.MaxLayerDepth())
			}
			for _, s := range set.SpecList() {
				ix, built, err := set.Get(s)
				if err != nil || built {
					t.Fatalf("seed %d step %d: Get(%s) built=%v err=%v", seed, step, s.Key(), built, err)
				}
				label := fmt.Sprintf("seed %d step %d (%s) %s", seed, step, desc, ix.Kind())
				checkIndexContract(t, label, ix)
				want := symmetricDifference(baseOf[s.Key()], cur)
				got := 0
				if p, ok := ix.(*Patched); ok {
					got = p.net.Len()
					checkInsertIndex(t, label, p)
				}
				if got != want {
					t.Fatalf("%s: net delta %d tuples, want %d", label, got, want)
				}
			}
		}
	}
}

// checkInsertIndex pins a patched index's insert index to exactly the
// net inserts.
func checkInsertIndex(t *testing.T, label string, p *Patched) {
	t.Helper()
	if len(p.net.Inserted) == 0 {
		if p.ins != nil {
			t.Fatalf("%s: insert index without inserts", label)
		}
		return
	}
	if !reflect.DeepEqual(p.ins.Relation().Tuples(), p.net.Inserted) {
		t.Fatalf("%s: insert index covers %v, net inserts are %v", label, p.ins.Relation().Tuples(), p.net.Inserted)
	}
}

// symmetricDifference counts the tuples in exactly one of a and b.
func symmetricDifference(a, b *relation.Relation) int {
	n := 0
	for _, t := range a.Tuples() {
		if !b.Contains(t...) {
			n++
		}
	}
	for _, t := range b.Tuples() {
		if !a.Contains(t...) {
			n++
		}
	}
	return n
}

// A tombstone probes to its own unit box, a live tuple to nothing, and
// the full gap set covers the tombstone.
func TestTombstonesProbe(t *testing.T) {
	base := randomRelation(t, "R", 10, 3, 3)
	set := NewSet(base, nil)
	if err := set.Ensure(BTreeSpec()); err != nil {
		t.Fatal(err)
	}
	del := base.Tuples()[1]
	next, err := base.WithDeleted(del)
	if err != nil {
		t.Fatal(err)
	}
	derived, _ := deriveStep(t, set, base, next)
	ix, _, err := derived.Get(BTreeSpec())
	if err != nil {
		t.Fatal(err)
	}
	cur := ix.NewCursor()
	g := cur.GapsAt(del)
	if len(g) != 1 {
		t.Fatalf("tombstone probe returned %d boxes, want 1", len(g))
	}
	want := dyadic.Point(del, next.Depths())
	if !g[0].Equal(want) {
		t.Fatalf("tombstone gap %v, want %v", g[0], want)
	}
	if got := cur.GapsAt(next.Tuples()[0]); len(got) != 0 {
		t.Fatalf("tombstone probe on live tuple returned %v", got)
	}
	covered := false
	for _, b := range ix.AllGaps() {
		covered = covered || b.ContainsPoint(del, next.Depths())
	}
	if !covered {
		t.Fatalf("AllGaps leaves the tombstone %v uncovered", del)
	}
}
