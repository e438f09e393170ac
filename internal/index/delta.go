// Delta index builds: the index of a relation version as a flat build
// over an earlier base snapshot plus ONE net delta since that base, so
// a k-tuple write costs a small construction instead of an O(N)
// rebuild.
//
// The net delta splits the current snapshot as rel = (base \ T) ∪ I,
// with the inserted tuples I disjoint from the base and the tombstones
// T ⊆ base. Gap certificates move in opposite directions under the two
// halves:
//
//   - Deletion only grows the empty space: every gap box of the base is
//     still a gap box of base \ T, and each tombstone is a point gap.
//
//   - Insertion shrinks it: a base gap may contain an inserted tuple, so
//     the base gaps alone are NOT valid. What is valid is every pairwise
//     meet: comp(base ∪ I) = comp(base) ∩ comp(I), and the meet of two
//     dyadic boxes is itself a dyadic box (per dimension the intervals
//     are nested or disjoint). Patched realizes the meet lazily at probe
//     time against a spec-built index over I — both probes return boxes
//     containing the probe point, so every pairwise meet is non-empty
//     and contains it.
//
// Together comp(rel) = (comp(base) ∩ comp(I)) ∪ T, exactly, so GapsAt
// is empty iff the probe point is a tuple of rel. AllGaps, which must
// also union to precisely the complement of rel, enumerates a flat
// build instead of the meet product (see Patched.AllGaps). Set.Derive folds each write into the
// existing net delta (relation.Delta.Then), so a delta never stacks on
// a delta; replacing base plus delta by a fresh flat build is the
// catalog's fold, run once the delta stops being WorthPatching.
package index

import (
	"fmt"
	"sort"

	"tetrisjoin/internal/dyadic"
	"tetrisjoin/internal/relation"
)

// WorthPatching is the one "delta worth patching" rule: a delta of k
// changed tuples against a snapshot of n tuples is patched while it
// stays within a quarter of n. Past it, a flat rebuild (the catalog's
// fold) or a full recomputation (a maintained statement's fallback) is
// the cheaper steady state.
func WorthPatching(k, n int) bool { return k*4 <= n }

// Patched is an index over the current snapshot made of a flat build
// over an earlier base snapshot plus the net delta between the two.
// Construct it only through Set.Derive, which keeps the delta's
// invariants: Inserted tuples are absent from the base, Deleted tuples
// (the tombstones) are base tuples absent from the current snapshot.
type Patched struct {
	rel  *relation.Relation // the current snapshot
	spec Spec               // what base and ins were built from
	base Index              // flat build over the base snapshot
	net  relation.Delta     // rel minus base, both halves sorted
	ins  Index              // spec-built over net.Inserted; nil when empty
}

// Relation implements Index.
func (p *Patched) Relation() *relation.Relation { return p.rel }

// Kind implements Index.
func (p *Patched) Kind() string {
	return fmt.Sprintf("patched(%s,+%d,-%d)", p.base.Kind(), len(p.net.Inserted), len(p.net.Deleted))
}

// AllGaps implements Index: the gap set of a flat build of the same
// spec over the current snapshot — exactly comp(rel), at the cost of
// one build. Enumerating the meet product instead would pair every base
// gap with every insert gap: quadratic in a delta that may reach a
// quarter of the snapshot.
func (p *Patched) AllGaps() []dyadic.Box {
	flat, err := p.spec.Build(p.rel)
	if err != nil {
		// The same spec built the base over the same schema.
		panic(fmt.Sprintf("index: rebuilding %s over %s: %v", p.spec.Key(), p.rel.Name(), err))
	}
	return flat.AllGaps()
}

// patchedCursor probes the base and the insert index and meets their
// results. The two member cursors are distinct flat indexes' cursors,
// so their result scratch never aliases.
type patchedCursor struct {
	p     *Patched
	base  Cursor
	ins   Cursor            // nil when the delta inserts nothing
	arena []dyadic.Interval // storage for built meets, reused
	out   []dyadic.Box
}

// NewCursor implements Index.
func (p *Patched) NewCursor() Cursor {
	c := &patchedCursor{p: p, base: p.base.NewCursor()}
	if p.ins != nil {
		c.ins = p.ins.NewCursor()
	}
	return c
}

// GapsAt implements Cursor: a tombstone's unit box, or the meet of the
// base probe with the insert probe. Results (which may alias the member
// cursors' scratch) are valid until the next call.
func (c *patchedCursor) GapsAt(point []uint64) []dyadic.Box {
	c.out = c.out[:0]
	c.arena = c.arena[:0]
	if del := c.p.net.Deleted; len(del) > 0 {
		i := sort.Search(len(del), func(i int) bool { return relation.Compare(del[i], point) >= 0 })
		if i < len(del) && relation.Compare(del[i], point) == 0 {
			depths := c.p.rel.Depths()
			for d, v := range point {
				c.arena = append(c.arena, dyadic.Unit(v, depths[d]))
			}
			return append(c.out, dyadic.Box(c.arena))
		}
	}
	bg := c.base.GapsAt(point)
	if len(bg) == 0 || c.ins == nil {
		return bg // a live base tuple, or nothing inserted to meet with
	}
	ig := c.ins.GapsAt(point)
	if len(ig) == 0 {
		return nil // an inserted tuple
	}
	for _, g := range bg {
		for _, h := range ig {
			// Both boxes contain the probe point, so per dimension the
			// intervals are nested and the meet takes the deeper one.
			// Usually one box is the deeper in every dimension and is the
			// meet itself; only a mixed meet is built in the arena.
			var m dyadic.Box
			switch {
			case h.Contains(g):
				m = g
			case g.Contains(h):
				m = h
			default:
				mark := len(c.arena)
				for d := range g {
					if g[d].Contains(h[d]) {
						c.arena = append(c.arena, h[d])
					} else {
						c.arena = append(c.arena, g[d])
					}
				}
				m = dyadic.Box(c.arena[mark:len(c.arena):len(c.arena)])
			}
			if !containsBox(c.out, m) {
				c.out = append(c.out, m)
			}
		}
	}
	return c.out
}

// containsBox reports whether boxes holds a box equal to b; probe
// results are a handful of boxes, so a scan beats any set.
func containsBox(boxes []dyadic.Box, b dyadic.Box) bool {
	for _, o := range boxes {
		if o.Equal(b) {
			return true
		}
	}
	return false
}
