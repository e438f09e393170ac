package index

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"tetrisjoin/internal/relation"
)

// Family names an index family a Spec can ask for.
type Family int

const (
	// BTreeFamily is the Sorted (B-tree/trie) index in a chosen attribute
	// order.
	BTreeFamily Family = iota
	// DyadicFamily is the dyadic-tree (quadtree-like) index.
	DyadicFamily
	// KDTreeFamily is the median-split k-d tree index.
	KDTreeFamily
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case BTreeFamily:
		return "btree"
	case DyadicFamily:
		return "dyadic"
	case KDTreeFamily:
		return "kdtree"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// ParseFamily parses a Family.String() name back into the Family; the
// round-trip the durable catalog's checkpoint files depend on.
func ParseFamily(s string) (Family, error) {
	switch s {
	case "btree":
		return BTreeFamily, nil
	case "dyadic":
		return DyadicFamily, nil
	case "kdtree":
		return KDTreeFamily, nil
	default:
		return 0, fmt.Errorf("index: unknown family %q", s)
	}
}

// Spec describes an index to build or look up: the family plus, for the
// order-sensitive B-tree family, the attribute order. A Spec is the unit
// of the catalog's index registry — the catalog records which specs each
// relation maintains, builds them once per relation version at ingest
// time, and resolves ad-hoc orders through the same registry with
// build-on-demand.
type Spec struct {
	// Family selects the index family.
	Family Family
	// Order is the attribute-name order for BTreeFamily (empty = schema
	// order). Ignored by the order-insensitive families.
	Order []string
}

// BTreeSpec describes a sorted index in the given attribute order.
func BTreeSpec(order ...string) Spec { return Spec{Family: BTreeFamily, Order: order} }

// DyadicSpec describes a dyadic-tree index.
func DyadicSpec() Spec { return Spec{Family: DyadicFamily} }

// KDTreeSpec describes a k-d tree index.
func KDTreeSpec() Spec { return Spec{Family: KDTreeFamily} }

// Key returns the spec's canonical identity, e.g. "btree(B,A)" or
// "dyadic". Two specs with equal keys describe the same index over a
// given relation.
func (s Spec) Key() string {
	if s.Family == BTreeFamily {
		return "btree(" + strings.Join(s.Order, ",") + ")"
	}
	return s.Family.String()
}

// Build constructs the described index over the relation.
func (s Spec) Build(rel *relation.Relation) (Index, error) {
	switch s.Family {
	case BTreeFamily:
		return NewSorted(rel, s.Order...)
	case DyadicFamily:
		return NewDyadic(rel), nil
	case KDTreeFamily:
		return NewKDTree(rel), nil
	default:
		return nil, fmt.Errorf("index: unknown family %v", s.Family)
	}
}

// Set is the per-relation-version index registry: a concurrency-safe
// collection of built indexes keyed by Spec. All indexes in a set cover
// one immutable relation snapshot; each spec is built at most once and
// shared read-only afterwards (indexes are immutable, per-worker state
// lives in cursors). Builds are counted through the shared counter the
// set was created with, which is how the catalog proves that prepared
// executions perform zero index construction.
type Set struct {
	rel    *relation.Relation
	builds *atomic.Int64 // shared build counter, may be nil

	mu    sync.RWMutex
	byKey map[string]setEntry
}

// setEntry keeps the built index together with the spec that described
// it, so SpecList can hand exact specs (not parsed-back keys) to a new
// relation version's registry.
type setEntry struct {
	ix   Index
	spec Spec
}

// NewSet returns an empty registry over the relation. builds, when
// non-nil, is incremented once per index actually constructed (eager or
// on-demand).
func NewSet(rel *relation.Relation, builds *atomic.Int64) *Set {
	return &Set{rel: rel, builds: builds, byKey: map[string]setEntry{}}
}

// Relation returns the registry's relation snapshot.
func (s *Set) Relation() *relation.Relation { return s.rel }

// canonical resolves a spec against the set's relation so equivalent
// specs share one cache slot: an empty B-tree order means schema order,
// and without this a maintained BTreeSpec() would never be found by a
// query demanding the same order by explicit attribute names.
func (s *Set) canonical(spec Spec) Spec {
	if spec.Family == BTreeFamily && len(spec.Order) == 0 {
		spec.Order = s.rel.Attrs()
	}
	return spec
}

// Get returns the index described by the spec, building and caching it
// on first use. Concurrent Gets are safe; a spec is built at most once.
func (s *Set) Get(spec Spec) (Index, bool, error) {
	spec = s.canonical(spec)
	key := spec.Key()
	s.mu.RLock()
	e, ok := s.byKey[key]
	s.mu.RUnlock()
	if ok {
		return e.ix, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byKey[key]; ok {
		return e.ix, false, nil
	}
	ix, err := spec.Build(s.rel)
	if err != nil {
		return nil, false, err
	}
	s.byKey[key] = setEntry{ix: ix, spec: spec}
	if s.builds != nil {
		s.builds.Add(1)
	}
	return ix, true, nil
}

// Ensure builds every given spec that is not present yet (the eager
// ingest-time path).
func (s *Set) Ensure(specs ...Spec) error {
	for _, spec := range specs {
		if _, _, err := s.Get(spec); err != nil {
			return err
		}
	}
	return nil
}

// DeltaLen reports the largest net delta — inserted plus tombstoned
// tuples — any held index carries over its flat base: 0 when every
// index is flat or only re-pointed at an unchanged tuple set. The
// catalog's fold trigger.
func (s *Set) DeltaLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, e := range s.byKey {
		if p, ok := e.ix.(*Patched); ok {
			n = max(n, p.net.Len())
		}
	}
	return n
}

// MaxLayerDepth reports how many deltas the deepest held index stacks
// over its flat base: 1 when some index carries a net delta, else 0.
// Derive never stacks a second one.
func (s *Set) MaxLayerDepth() int {
	if s.DeltaLen() > 0 {
		return 1
	}
	return 0
}

// Derive builds the index registry for the next version of this set's
// relation from the write d that produced it. Every held spec carries
// over in the one delta shape: its flat base stays, d is composed into
// the net delta since that base (inserts cancel tombstones, deletes
// cancel inserts), and the insert index is rebuilt over the net inserts
// when they changed. Derive never rebuilds flat; that is the catalog's
// fold. Returns the new set plus how many specs took a delta
// construction — each charges the shared build counter once — and an
// empty d charges nothing: only the snapshot pointer moves.
func (s *Set) Derive(next *relation.Relation, d relation.Delta) (_ *Set, layered int, err error) {
	s.mu.RLock()
	entries := make([]setEntry, 0, len(s.byKey))
	for _, e := range s.byKey {
		entries = append(entries, e)
	}
	s.mu.RUnlock()

	// Specs over one base snapshot share its net delta and the relation
	// over its inserts; each builds its own insert index (a B-tree spec
	// needs its own order).
	type netDelta struct {
		net    relation.Delta
		insRel *relation.Relation // nil when the inserts did not change
	}
	byBase := map[*relation.Relation]netDelta{}
	out := NewSet(next, s.builds)
	for _, e := range entries {
		prev, ok := e.ix.(*Patched)
		if !ok {
			prev = &Patched{base: e.ix}
		}
		nd, ok := byBase[prev.base.Relation()]
		if !ok {
			nd.net = prev.net.Then(d)
			// Without new inserts the insert set can only shrink, so an
			// equal length means it is unchanged.
			if len(nd.net.Inserted) > 0 && (len(d.Inserted) > 0 || len(nd.net.Inserted) != len(prev.net.Inserted)) {
				// The net inserts are sorted and distinct: lay them out as a
				// tuple slab and adopt it, no per-tuple copy or re-sort.
				words := make([]uint64, 1, 1+len(nd.net.Inserted)*next.Arity())
				words[0] = uint64(len(nd.net.Inserted))
				for _, t := range nd.net.Inserted {
					words = append(words, t...)
				}
				rel, err := relation.FromWords(next.Name()+"+delta", next.Attrs(), next.Depths(), words)
				if err != nil {
					return nil, 0, err
				}
				nd.insRel = rel
			}
			byBase[prev.base.Relation()] = nd
		}
		p := &Patched{rel: next, spec: e.spec, base: prev.base, net: nd.net, ins: prev.ins}
		if len(nd.net.Inserted) == 0 {
			p.ins = nil
		} else if nd.insRel != nil {
			if p.ins, err = e.spec.Build(nd.insRel); err != nil {
				return nil, 0, err
			}
		}
		out.put(e.spec, p)
		if !d.Empty() {
			layered++
			if s.builds != nil {
				s.builds.Add(1)
			}
		}
	}
	return out, layered, nil
}

// put stores a pre-built index under its spec (the Derive path; Get
// remains the build-on-demand path).
func (s *Set) put(spec Spec, ix Index) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byKey[spec.Key()] = setEntry{ix: ix, spec: spec}
}

// Specs returns the keys of the indexes currently held, sorted order not
// guaranteed; for introspection and tests.
func (s *Set) Specs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.byKey))
	for k := range s.byKey {
		keys = append(keys, k)
	}
	return keys
}

// SpecList returns the exact specs of the indexes currently held — what
// a registry over a new version of the relation should maintain. Unlike
// Specs it never round-trips through key strings, so attribute names
// are preserved verbatim.
func (s *Set) SpecList() []Spec {
	s.mu.RLock()
	defer s.mu.RUnlock()
	specs := make([]Spec, 0, len(s.byKey))
	for _, e := range s.byKey {
		specs = append(specs, e.spec)
	}
	return specs
}

// Len returns the number of indexes held.
func (s *Set) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byKey)
}
