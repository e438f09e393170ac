package relation

import (
	"math/rand"
	"testing"
)

func tuplesEqual(t *testing.T, got, want []Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d tuples %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		if Compare(got[i], want[i]) != 0 {
			t.Fatalf("tuple %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func newRS(t *testing.T, tuples ...Tuple) *Relation {
	t.Helper()
	r := MustNewUniform("R", []string{"A", "B"}, 4)
	if err := r.InsertAll(tuples...); err != nil {
		t.Fatal(err)
	}
	r.Tuples()
	return r
}

func TestDeltaSinceSingleStep(t *testing.T) {
	r := newRS(t, Tuple{1, 1}, Tuple{2, 2})
	v0 := r.Version()
	r1, err := r.WithInserted(Tuple{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := r1.DeltaSince(v0)
	if !ok {
		t.Fatal("DeltaSince across one step not reconstructible")
	}
	tuplesEqual(t, d.Inserted, []Tuple{{3, 3}})
	tuplesEqual(t, d.Deleted, nil)
	if d.Mixed() || d.Empty() || d.Len() != 1 {
		t.Fatalf("delta shape wrong: %+v", d)
	}
}

// A delete of a tuple that is not present must contribute nothing: the
// delta is effective, not a replay of the request.
func TestDeltaSinceDeleteAbsent(t *testing.T) {
	r := newRS(t, Tuple{1, 1})
	v0 := r.Version()
	r1, err := r.WithDeleted(Tuple{9, 9})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Version() == v0 {
		t.Fatal("derivation must still bump the version")
	}
	d, ok := r1.DeltaSince(v0)
	if !ok || !d.Empty() {
		t.Fatalf("absent delete: want empty delta, got %+v ok=%v", d, ok)
	}
	if r1.Len() != 1 {
		t.Fatalf("tuples changed: %v", r1.Tuples())
	}
}

// An append of an already-present tuple is likewise a no-op delta.
func TestDeltaSinceAppendDuplicate(t *testing.T) {
	r := newRS(t, Tuple{1, 1}, Tuple{2, 2})
	v0 := r.Version()
	r1, err := r.WithInserted(Tuple{2, 2}, Tuple{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := r1.DeltaSince(v0)
	if !ok || !d.Empty() {
		t.Fatalf("duplicate append: want empty delta, got %+v ok=%v", d, ok)
	}
	if r1.Len() != 2 {
		t.Fatalf("duplicate append changed cardinality: %v", r1.Tuples())
	}
}

func TestDeltaSinceSameVersion(t *testing.T) {
	r := newRS(t, Tuple{1, 1})
	d, ok := r.DeltaSince(r.Version())
	if !ok || !d.Empty() {
		t.Fatalf("self delta: want empty, got %+v ok=%v", d, ok)
	}
}

// Composition across three and more chained versions: cancelling
// insert/delete pairs drop out, surviving changes accumulate, and every
// intermediate version remains a valid DeltaSince origin.
func TestDeltaSinceChained(t *testing.T) {
	r0 := newRS(t, Tuple{1, 1}, Tuple{2, 2})
	v0 := r0.Version()
	r1, err := r0.WithInserted(Tuple{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	v1 := r1.Version()
	r2, err := r1.WithDeleted(Tuple{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	v2 := r2.Version()
	r3, err := r2.WithInserted(Tuple{1, 1}, Tuple{4, 4})
	if err != nil {
		t.Fatal(err)
	}

	d, ok := r3.DeltaSince(v0)
	if !ok {
		t.Fatal("span v0..v3 not reconstructible")
	}
	// {1,1} was deleted then re-inserted: cancels. Net: +{3,3}, +{4,4}.
	tuplesEqual(t, d.Inserted, []Tuple{{3, 3}, {4, 4}})
	tuplesEqual(t, d.Deleted, nil)

	d, ok = r3.DeltaSince(v1)
	if !ok {
		t.Fatal("span v1..v3 not reconstructible")
	}
	tuplesEqual(t, d.Inserted, []Tuple{{4, 4}})
	tuplesEqual(t, d.Deleted, nil)

	d, ok = r3.DeltaSince(v2)
	if !ok {
		t.Fatal("span v2..v3 not reconstructible")
	}
	tuplesEqual(t, d.Inserted, []Tuple{{1, 1}, {4, 4}})
	tuplesEqual(t, d.Deleted, nil)

	// A mixed net delta: delete one original, keep an insert.
	r4, err := r3.WithDeleted(Tuple{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	d, ok = r4.DeltaSince(v0)
	if !ok {
		t.Fatal("span v0..v4 not reconstructible")
	}
	tuplesEqual(t, d.Inserted, []Tuple{{3, 3}, {4, 4}})
	tuplesEqual(t, d.Deleted, []Tuple{{2, 2}})
	if !d.Mixed() {
		t.Fatal("net delta should be mixed")
	}
}

// Unknown origins and severed lineage must report not-ok, never a wrong
// delta.
func TestDeltaSinceUnavailable(t *testing.T) {
	r := newRS(t, Tuple{1, 1})
	if _, ok := r.DeltaSince(r.Version() + 1000); ok {
		t.Fatal("unknown version must not be reconstructible")
	}
	v0 := r.Version()
	r1, err := r.WithInserted(Tuple{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// An in-place Insert severs the lineage: the delta from v0 is no
	// longer trustworthy and must be reported unavailable.
	r1.MustInsert(5, 5)
	if _, ok := r1.DeltaSince(v0); ok {
		t.Fatal("in-place Insert must sever the lineage")
	}
}

// The lineage window is bounded: spans inside the window compose, spans
// beyond it report unavailable instead of growing memory without bound.
func TestDeltaSinceWindow(t *testing.T) {
	r := newRS(t, Tuple{0, 0})
	origin := r.Version()
	cur := r
	versions := []uint64{origin}
	for i := 1; i <= maxLineage+8; i++ {
		next, err := cur.WithInserted(Tuple{uint64(i % 16), uint64(i / 16)})
		if err != nil {
			t.Fatal(err)
		}
		cur = next
		versions = append(versions, cur.Version())
	}
	if _, ok := cur.DeltaSince(origin); ok {
		t.Fatalf("span of %d steps exceeds the %d-step window and must be unavailable", maxLineage+8, maxLineage)
	}
	recent := versions[len(versions)-maxLineage+1]
	d, ok := cur.DeltaSince(recent)
	if !ok {
		t.Fatalf("span of %d steps inside the window must be reconstructible", maxLineage-2)
	}
	if len(d.Deleted) != 0 {
		t.Fatalf("append-only chain reported deletions: %+v", d)
	}
}

// Random write scripts: every DeltaSince span (composed step by step
// with Delta.Then) equals the symmetric difference of the two versions.
func TestDeltaSinceMatchesSetDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randTuple := func() Tuple { return Tuple{uint64(rng.Intn(6)), uint64(rng.Intn(6))} }
	for trial := 0; trial < 20; trial++ {
		versions := []*Relation{newRS(t, randTuple(), randTuple(), randTuple())}
		for step := 0; step < 12; step++ {
			cur := versions[len(versions)-1]
			var next *Relation
			var err error
			if rng.Intn(2) == 0 {
				next, err = cur.WithInserted(randTuple(), randTuple())
			} else {
				next, err = cur.WithDeleted(randTuple(), randTuple(), randTuple())
			}
			if err != nil {
				t.Fatal(err)
			}
			versions = append(versions, next)
		}
		last := versions[len(versions)-1]
		for _, from := range versions {
			d, ok := last.DeltaSince(from.Version())
			if !ok {
				t.Fatalf("trial %d: span unavailable", trial)
			}
			tuplesEqual(t, d.Inserted, minus(last, from))
			tuplesEqual(t, d.Deleted, minus(from, last))
		}
	}
}

// minus returns the sorted tuples of a that are not in b.
func minus(a, b *Relation) []Tuple {
	var out []Tuple
	for _, t := range a.Tuples() {
		if !b.Contains(t...) {
			out = append(out, t)
		}
	}
	return out
}
