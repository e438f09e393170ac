package index

import (
	"fmt"

	"tetrisjoin/internal/relation"
)

// This file is the index side of segment-backed durability: every base
// index family serializes to a flat word slab (AppendWords) and loads
// back (FromWords) with structural validation but no reconstruction —
// the load path performs zero index builds, which is what lets a
// segment-backed restart keep Stats.IndexBuilds at zero. An index
// carrying a net delta is not serialized directly; a checkpoint folds
// the registry flat first (catalog.Catalog.Fold).

// Sorted.AppendWords serializes the sorted index: arity, the attribute
// order as schema positions, the tuple count, then the reordered tuple
// values as one flat slab.
func (s *Sorted) AppendWords(dst []uint64) []uint64 {
	dst = append(dst, uint64(len(s.order)))
	for _, pos := range s.order {
		dst = append(dst, uint64(pos))
	}
	dst = append(dst, uint64(len(s.tuples)))
	for _, t := range s.tuples {
		dst = append(dst, t...)
	}
	return dst
}

// SortedFromWords rebuilds a Sorted over rel from an AppendWords slab.
// Tuple headers alias the slab (no per-value copy, no re-sort); the
// slab is validated structurally — order must be a permutation of the
// schema, the tuple count must match the relation, values must respect
// domain bounds, and rows must be strictly increasing in index order —
// so a corrupt slab is rejected rather than mis-probed.
func SortedFromWords(rel *relation.Relation, words []uint64) (*Sorted, error) {
	k := rel.Arity()
	if len(words) < 1 || words[0] != uint64(k) {
		return nil, fmt.Errorf("index: sorted slab arity mismatch for %s", rel.Name())
	}
	if len(words) < 2+k {
		return nil, fmt.Errorf("index: sorted slab too short for %s", rel.Name())
	}
	order := make([]int, k)
	seen := make([]bool, k)
	for i := 0; i < k; i++ {
		pos := words[1+i]
		if pos >= uint64(k) || seen[pos] {
			return nil, fmt.Errorf("index: sorted slab order is not a permutation for %s", rel.Name())
		}
		seen[pos] = true
		order[i] = int(pos)
	}
	n := words[1+k]
	body := words[2+k:]
	if uint64(len(body)) != n*uint64(k) || int(n) != rel.Len() {
		return nil, fmt.Errorf("index: sorted slab has %d rows over %d words, relation %s has %d tuples", n, len(body), rel.Name(), rel.Len())
	}
	inv := make([]int, k)
	depths := make([]uint8, k)
	for lvl, pos := range order {
		inv[pos] = lvl
		depths[lvl] = rel.Depths()[pos]
	}
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		t := relation.Tuple(body[uint64(i)*uint64(k) : uint64(i+1)*uint64(k) : uint64(i+1)*uint64(k)])
		for lvl, v := range t {
			if depths[lvl] < 64 && v >= 1<<depths[lvl] {
				return nil, fmt.Errorf("index: sorted slab row %d exceeds domain for %s", i, rel.Name())
			}
		}
		if i > 0 && relation.Compare(tuples[i-1], t) >= 0 {
			return nil, fmt.Errorf("index: sorted slab not strictly sorted at row %d for %s", i, rel.Name())
		}
		tuples[i] = t
	}
	return &Sorted{rel: rel, order: order, inv: inv, depths: depths, tuples: tuples}, nil
}

// FreezeIndex serializes a built index into a word slab, reporting
// false for shapes that have no flat form: a Patched index carrying a
// net delta (the durable layer folds those flat first). A Patched index
// with an empty net delta freezes as its base — the identical tuple set.
func FreezeIndex(ix Index) ([]uint64, bool) {
	if p, ok := ix.(*Patched); ok && p.net.Empty() {
		ix = p.base
	}
	switch t := ix.(type) {
	case *Sorted:
		return t.AppendWords(nil), true
	case *Dyadic:
		return t.AppendWords(nil), true
	case *KDTree:
		return t.AppendWords(nil), true
	default:
		return nil, false
	}
}

// LoadIndex deserializes a FreezeIndex slab back into an index over
// rel, dispatching on the spec's family. The result is registered
// under the same (relation, order, family) key the build path would
// use — see Set.Put.
func LoadIndex(rel *relation.Relation, spec Spec, words []uint64) (Index, error) {
	switch spec.Family {
	case BTreeFamily:
		return SortedFromWords(rel, words)
	case DyadicFamily:
		return DyadicFromWords(rel, words)
	case KDTreeFamily:
		return KDTreeFromWords(rel, words)
	default:
		return nil, fmt.Errorf("index: cannot load unknown family %v", spec.Family)
	}
}

// Put registers a pre-built index under the spec — the load-from-
// segment path. The index must cover this set's relation snapshot;
// unlike Get, Put never charges the build counter (nothing was built).
func (s *Set) Put(spec Spec, ix Index) error {
	if ix.Relation() != s.rel {
		return fmt.Errorf("index: Put of an index over a different relation snapshot")
	}
	s.put(s.canonical(spec), ix)
	return nil
}
