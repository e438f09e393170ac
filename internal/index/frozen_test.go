package index

import (
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"tetrisjoin/internal/dyadic"
	"tetrisjoin/internal/relation"
)

func frozenRandomRelation(t *testing.T, rng *rand.Rand, name string, arity, depth, n int) *relation.Relation {
	t.Helper()
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = string(rune('A' + i))
	}
	rel := relation.MustNewUniform(name, attrs, uint8(depth))
	for i := 0; i < n; i++ {
		vals := make([]uint64, arity)
		for j := range vals {
			vals[j] = rng.Uint64() & (1<<depth - 1)
		}
		rel.MustInsert(vals...)
	}
	return rel
}

func gapKeys(boxes []dyadic.Box) []string {
	keys := make([]string, len(boxes))
	for i, b := range boxes {
		keys[i] = b.Key()
	}
	sort.Strings(keys)
	return keys
}

// TestFreezeLoadDifferential freezes and reloads every family and
// checks the loaded index is observationally identical to the built
// one: same AllGaps set, same GapsAt answer on a probe sweep.
func TestFreezeLoadDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		arity := 2 + rng.Intn(2)
		depth := 3 + rng.Intn(4)
		n := rng.Intn(60)
		rel := frozenRandomRelation(t, rng, "R", arity, depth, n)
		specs := []Spec{BTreeSpec(), DyadicSpec(), KDTreeSpec()}
		if arity == 3 {
			specs = append(specs, BTreeSpec("C", "A", "B"))
		}
		for _, spec := range specs {
			built, err := spec.Build(rel)
			if err != nil {
				t.Fatal(err)
			}
			words, ok := FreezeIndex(built)
			if !ok {
				t.Fatalf("FreezeIndex(%s) not freezable", spec.Key())
			}
			loaded, err := LoadIndex(rel, spec, words)
			if err != nil {
				t.Fatalf("LoadIndex(%s): %v", spec.Key(), err)
			}
			if loaded.Kind() != built.Kind() {
				t.Fatalf("kind %q != %q", loaded.Kind(), built.Kind())
			}
			if !reflect.DeepEqual(gapKeys(built.AllGaps()), gapKeys(loaded.AllGaps())) {
				t.Fatalf("trial %d %s: AllGaps diverges after freeze/load", trial, spec.Key())
			}
			cb, cl := built.NewCursor(), loaded.NewCursor()
			point := make([]uint64, arity)
			for probe := 0; probe < 200; probe++ {
				for j := range point {
					point[j] = rng.Uint64() & (1<<depth - 1)
				}
				gb := append([]dyadic.Box(nil), cb.GapsAt(point)...)
				gl := cl.GapsAt(point)
				if len(gb) != len(gl) {
					t.Fatalf("trial %d %s: GapsAt(%v) count %d != %d", trial, spec.Key(), point, len(gb), len(gl))
				}
				for i := range gb {
					if !gb[i].Equal(gl[i]) {
						t.Fatalf("trial %d %s: GapsAt(%v) box %v != %v", trial, spec.Key(), point, gb[i], gl[i])
					}
				}
			}
		}
	}
}

// TestFreezeUnwrapsRebased: an index re-pointed at a new snapshot with
// the same tuple set (an empty net delta) freezes to its flat base.
func TestFreezeUnwrapsRebased(t *testing.T) {
	rel := relation.MustNewUniform("R", []string{"A", "B"}, 4)
	rel.MustInsert(1, 2)
	rel.MustInsert(3, 4)
	next, err := rel.WithInserted(relation.Tuple{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	set := NewSet(rel, nil)
	set.Ensure(BTreeSpec())
	derived, _, err := set.Derive(next, relation.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	ix, _, _ := derived.Get(BTreeSpec())
	words, ok := FreezeIndex(ix)
	if !ok {
		t.Fatalf("re-pointed index %s not freezable", ix.Kind())
	}
	if _, err := SortedFromWords(next, words); err != nil {
		t.Fatalf("load of re-pointed freeze: %v", err)
	}
}

// TestFreezeRejectsLayered: an index carrying a net delta reports
// not-freezable, so the durable layer knows to fold it flat first.
func TestFreezeRejectsLayered(t *testing.T) {
	rel := relation.MustNewUniform("R", []string{"A", "B"}, 4)
	rel.MustInsert(1, 2)
	next, err := rel.WithInserted(relation.Tuple{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := next.DeltaSince(rel.Version())
	set := NewSet(rel, nil)
	set.Ensure(BTreeSpec())
	derived, _, err := set.Derive(next, d)
	if err != nil {
		t.Fatal(err)
	}
	layered, _, _ := derived.Get(BTreeSpec())
	if _, ok := FreezeIndex(layered); ok {
		t.Fatal("layered index claimed to be freezable")
	}
}

// TestSetPut: Put registers under the canonical key without charging
// the build counter; a later Get finds the loaded index.
func TestSetPut(t *testing.T) {
	rel := relation.MustNewUniform("R", []string{"A", "B"}, 4)
	rel.MustInsert(2, 3)
	var builds atomic.Int64
	s := NewSet(rel, &builds)

	ix := MustSorted(rel) // schema order
	if err := s.Put(BTreeSpec(), ix); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 0 {
		t.Fatalf("Put charged the build counter: %d", builds.Load())
	}
	// Get by explicit schema-order names must hit the canonical slot.
	got, built, err := s.Get(BTreeSpec("A", "B"))
	if err != nil {
		t.Fatal(err)
	}
	if built || got != Index(ix) {
		t.Fatalf("Get after Put rebuilt (built=%v)", built)
	}
	if builds.Load() != 0 {
		t.Fatalf("Get after Put charged the counter: %d", builds.Load())
	}

	other := relation.MustNewUniform("S", []string{"A", "B"}, 4)
	if err := s.Put(BTreeSpec(), MustSorted(other)); err == nil {
		t.Fatal("Put accepted an index over a different relation")
	}
}

// TestLoadRejectsCorruptSlabs flips words in frozen slabs and checks
// every mutation is rejected (or at minimum never accepted silently as
// a different valid index — here all mutations must error because the
// formats are fully validated).
func TestLoadRejectsCorruptSlabs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rel := frozenRandomRelation(t, rng, "R", 2, 5, 40)
	for _, spec := range []Spec{BTreeSpec(), DyadicSpec(), KDTreeSpec()} {
		built, err := spec.Build(rel)
		if err != nil {
			t.Fatal(err)
		}
		clean, _ := FreezeIndex(built)
		if _, err := LoadIndex(rel, spec, clean); err != nil {
			t.Fatalf("clean %s slab rejected: %v", spec.Key(), err)
		}
		rejected := 0
		for trial := 0; trial < 200; trial++ {
			words := append([]uint64(nil), clean...)
			switch rng.Intn(3) {
			case 0:
				words = words[:rng.Intn(len(words))]
			case 1:
				words[rng.Intn(len(words))] ^= 1 << uint(rng.Intn(64))
			case 2:
				words[rng.Intn(len(words))] = rng.Uint64()
			}
			if _, err := LoadIndex(rel, spec, words); err != nil {
				rejected++
			}
		}
		// Some single-bit flips hit semantically-irrelevant words (e.g.
		// a value flip that keeps ordering); require the vast majority
		// rejected, and all truncations.
		if rejected < 100 {
			t.Fatalf("%s: only %d/200 corruptions rejected", spec.Key(), rejected)
		}
	}
}
