package relation

import "sort"

// Delta is the symmetric difference between two versions of one
// relation lineage: the tuples present in the newer version but not the
// older (Inserted) and vice versa (Deleted). Both slices are sorted in
// Compare order, deduplicated, and disjoint; tuples are shared with the
// versions they came from and must not be mutated.
//
// Deltas are *effective*: a WithInserted of a tuple already present, or
// a WithDeleted of a tuple already absent, contributes nothing. The
// incremental-maintenance pipeline depends on this — a net index delta
// built from Inserted/Deleted must describe exactly the tuples whose
// membership changed, or its gap certificates would be wrong.
type Delta struct {
	Inserted []Tuple
	Deleted  []Tuple
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool { return len(d.Inserted) == 0 && len(d.Deleted) == 0 }

// Len returns the total number of changed tuples.
func (d Delta) Len() int { return len(d.Inserted) + len(d.Deleted) }

// Mixed reports whether the delta carries both insertions and
// deletions. The catalog's maintenance patch rule handles pure deltas
// per step; a mixed one (an append and a delete folded into one
// DeltaSince span) triggers its exact fallback to full recomputation.
func (d Delta) Mixed() bool { return len(d.Inserted) > 0 && len(d.Deleted) > 0 }

// lineageStep records one derivation edge of a relation's version
// history: the version it was derived from and the effective tuple
// changes of that step. Steps carry no pointer to the parent relation,
// so old versions stay garbage-collectable; a derived relation keeps a
// bounded suffix of its ancestry's steps (maxLineage), beyond which
// DeltaSince reports the span as unavailable and callers fall back to
// treating the relation as wholly new.
type lineageStep struct {
	from, to uint64
	ins, del []Tuple
}

// maxLineage bounds how many derivation steps a relation retains. The
// cap trades DeltaSince reach against memory: each retained step holds
// only its changed tuples, and versions older than the window simply
// stop being delta-reachable (the catalog then recomputes rather than
// patches). 64 comfortably covers any realistic refresh cadence.
const maxLineage = 64

// DeltaSince returns the effective tuple changes from the given older
// version of this relation's lineage to the receiver, composing the
// recorded derivation steps. The second result is false when the span
// is not reconstructible: version is not an ancestor within the
// retained lineage window, or the lineage was severed by an in-place
// Insert.
func (r *Relation) DeltaSince(version uint64) (Delta, bool) {
	if version == r.version {
		return Delta{}, true
	}
	start := -1
	for i := len(r.lineage) - 1; i >= 0; i-- {
		if r.lineage[i].from == version {
			start = i
			break
		}
	}
	if start < 0 {
		return Delta{}, false
	}
	var d Delta
	for _, step := range r.lineage[start:] {
		d = d.Then(Delta{Inserted: step.ins, Deleted: step.del})
	}
	return d, true
}

// Then composes the delta with a later one of the same lineage — e
// effective against the version d leads to — into the net delta from
// d's origin to e's target. An insert in e cancels a deletion in d, a
// delete in e cancels an insertion in d, everything else accumulates.
// This is the one composition rule of the engine: DeltaSince folds the
// lineage steps with it, and the index layer folds each write into a
// base index's net delta with it. Linear in the sizes of both deltas;
// the result owns fresh slices (the tuples stay shared).
func (d Delta) Then(e Delta) Delta {
	return Delta{
		Inserted: composeHalf(d.Inserted, e.Deleted, e.Inserted, d.Deleted),
		Deleted:  composeHalf(d.Deleted, e.Inserted, e.Deleted, d.Inserted),
	}
}

// composeHalf returns (keep ∖ drop) ∪ (add ∖ skip) in one merge pass
// over sorted inputs; the two parts are disjoint. Nil when empty.
func composeHalf(keep, drop, add, skip []Tuple) []Tuple {
	if len(keep)+len(add) == 0 {
		return nil
	}
	out := make([]Tuple, 0, len(keep)+len(add))
	for len(keep) > 0 || len(add) > 0 {
		if len(add) == 0 || len(keep) > 0 && Compare(keep[0], add[0]) < 0 {
			if !advanceTo(&drop, keep[0]) {
				out = append(out, keep[0])
			}
			keep = keep[1:]
		} else {
			if !advanceTo(&skip, add[0]) {
				out = append(out, add[0])
			}
			add = add[1:]
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// advanceTo moves the sorted slice *s past every tuple below t and
// reports whether t is its next tuple.
func advanceTo(s *[]Tuple, t Tuple) bool {
	for len(*s) > 0 && Compare((*s)[0], t) < 0 {
		*s = (*s)[1:]
	}
	return len(*s) > 0 && Compare((*s)[0], t) == 0
}

// appendLineage records a derivation step on a freshly derived version,
// inheriting the parent's retained steps up to the window cap. The
// parent's slice is copied, never aliased: two versions derived from
// one parent must not race appending into shared backing storage.
func (r *Relation) appendLineage(parent *Relation, ins, del []Tuple) {
	keep := parent.lineage
	if len(keep) >= maxLineage {
		keep = keep[len(keep)-maxLineage+1:]
	}
	lineage := make([]lineageStep, 0, len(keep)+1)
	lineage = append(lineage, keep...)
	r.lineage = append(lineage, lineageStep{
		from: parent.version,
		to:   r.version,
		ins:  ins,
		del:  del,
	})
}

// tupleKey encodes a tuple's values as a byte string for map keys.
func tupleKey(t Tuple) string {
	buf := make([]byte, 0, len(t)*8)
	for _, v := range t {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return string(buf)
}

func sortTuples(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool { return Compare(ts[i], ts[j]) < 0 })
}
