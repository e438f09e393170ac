// Package relation provides the relational substrate of the join engine:
// named attributes over discrete ordered domains, tuples of uint64
// values, and relation instances stored as sorted, deduplicated tuple
// sets (paper Section 3.1).
//
// Domains are the integer ranges [0, 2^d) of the paper's dyadic framing;
// Encoder maps arbitrary ordered values (strings, signed ints) onto them
// for applications whose data is not already integral.
package relation

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"tetrisjoin/internal/dyadic"
)

// Tuple is a row of attribute values in schema order.
type Tuple []uint64

// Compare orders tuples lexicographically.
func Compare(a, b Tuple) int {
	for i := range a {
		if i >= len(b) {
			return 1
		}
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	if len(a) < len(b) {
		return -1
	}
	return 0
}

// idCounter and stateCounter are the process-wide sources of relation
// identity and version stamps. Both only ever increase, so an (ID,
// Version) pair names exactly one observable tuple-set state.
var (
	idCounter    atomic.Uint64
	stateCounter atomic.Uint64
)

// Relation is an instance of a relational schema: a set of tuples over
// named attributes, each with a bit depth bounding its domain.
//
// Every relation carries a stable identity (ID, assigned at creation and
// inherited by versions derived via WithInserted/WithDeleted) and a
// version stamp (Version, bumped on every mutation or derivation). The
// stamps let long-lived callers — the catalog's prepared-plan cache in
// particular — key immutable artifacts by the exact tuple-set state they
// were built against: no two distinct states in a process ever share an
// (ID, Version) pair.
type Relation struct {
	name    string
	id      uint64
	version uint64
	attrs   []string
	depths  []uint8
	tuples  []Tuple
	sorted  bool
	// lineage retains a bounded window of derivation steps (parent
	// version + effective tuple changes), the substrate of DeltaSince.
	// Pointer-free by design: old versions are not kept alive by new
	// ones. Severed (nil) after an in-place Insert.
	lineage []lineageStep

	// stats caches the per-snapshot statistics summary (stats.go),
	// recomputed when the version stamp moves past the cached one.
	statsMu sync.Mutex
	stats   *Stats
}

// New creates an empty relation with the given name, attribute names and
// per-attribute bit depths (domain sizes 2^depth).
func New(name string, attrs []string, depths []uint8) (*Relation, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation: %s has no attributes", name)
	}
	if len(attrs) != len(depths) {
		return nil, fmt.Errorf("relation: %s has %d attributes but %d depths", name, len(attrs), len(depths))
	}
	seen := map[string]bool{}
	for _, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("relation: %s has an empty attribute name", name)
		}
		if seen[a] {
			return nil, fmt.Errorf("relation: %s repeats attribute %s", name, a)
		}
		seen[a] = true
	}
	for i, d := range depths {
		if d == 0 || d > dyadic.MaxDepth {
			return nil, fmt.Errorf("relation: %s attribute %s has invalid depth %d", name, attrs[i], d)
		}
	}
	return &Relation{
		name:    name,
		id:      idCounter.Add(1),
		version: stateCounter.Add(1),
		attrs:   append([]string(nil), attrs...),
		depths:  append([]uint8(nil), depths...),
		sorted:  true,
	}, nil
}

// MustNew is New that panics on error; for tests and fixtures.
func MustNew(name string, attrs []string, depths []uint8) *Relation {
	r, err := New(name, attrs, depths)
	if err != nil {
		panic(err)
	}
	return r
}

// NewUniform is New with a single depth shared by every attribute.
func NewUniform(name string, attrs []string, depth uint8) (*Relation, error) {
	depths := make([]uint8, len(attrs))
	for i := range depths {
		depths[i] = depth
	}
	return New(name, attrs, depths)
}

// MustNewUniform is NewUniform that panics on error.
func MustNewUniform(name string, attrs []string, depth uint8) *Relation {
	r, err := NewUniform(name, attrs, depth)
	if err != nil {
		panic(err)
	}
	return r
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// ID returns the relation's stable identity: assigned at creation,
// shared by every version derived through WithInserted/WithDeleted, and
// never reused within a process.
func (r *Relation) ID() uint64 { return r.id }

// Version returns the relation's modification stamp. It increases with
// every Insert and every derived version; distinct tuple-set states of
// any relation in the process never share a stamp, so (ID, Version) is
// a sound cache key for artifacts built against this exact state.
func (r *Relation) Version() uint64 { return r.version }

// Attrs returns the attribute names in schema order.
func (r *Relation) Attrs() []string { return r.attrs }

// Depths returns the per-attribute bit depths in schema order.
func (r *Relation) Depths() []uint8 { return r.depths }

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.attrs) }

// Len returns the number of tuples. The relation is deduplicated lazily,
// so Len forces normalization.
func (r *Relation) Len() int { r.normalize(); return len(r.tuples) }

// Insert adds a tuple. Values must fit the attribute depths.
func (r *Relation) Insert(values ...uint64) error {
	if len(values) != len(r.attrs) {
		return fmt.Errorf("relation: %s insert arity %d, want %d", r.name, len(values), len(r.attrs))
	}
	for i, v := range values {
		if r.depths[i] < 64 && v >= 1<<r.depths[i] {
			return fmt.Errorf("relation: %s value %d exceeds depth %d of attribute %s", r.name, v, r.depths[i], r.attrs[i])
		}
	}
	t := make(Tuple, len(values))
	copy(t, values)
	r.tuples = append(r.tuples, t)
	r.sorted = false
	r.version = stateCounter.Add(1)
	// An in-place mutation changes the tuple set without recording a
	// derivation step, so any retained lineage no longer describes how
	// this state arose: sever it rather than let DeltaSince lie.
	r.lineage = nil
	return nil
}

// MustInsert is Insert that panics on error.
func (r *Relation) MustInsert(values ...uint64) {
	if err := r.Insert(values...); err != nil {
		panic(err)
	}
}

// InsertAll adds many tuples, failing on the first invalid one.
func (r *Relation) InsertAll(tuples ...Tuple) error {
	for _, t := range tuples {
		if err := r.Insert(t...); err != nil {
			return err
		}
	}
	return nil
}

// normalize sorts and deduplicates the tuple set.
func (r *Relation) normalize() {
	if r.sorted {
		return
	}
	sort.Slice(r.tuples, func(i, j int) bool { return Compare(r.tuples[i], r.tuples[j]) < 0 })
	dedup := r.tuples[:0]
	for i, t := range r.tuples {
		if i == 0 || Compare(t, r.tuples[i-1]) != 0 {
			dedup = append(dedup, t)
		}
	}
	r.tuples = dedup
	r.sorted = true
}

// Tuples returns the sorted, deduplicated tuples. The returned slice is
// shared; callers must not modify it.
func (r *Relation) Tuples() []Tuple { r.normalize(); return r.tuples }

// Contains reports whether the tuple is in the relation.
func (r *Relation) Contains(values ...uint64) bool {
	r.normalize()
	i := sort.Search(len(r.tuples), func(i int) bool {
		return Compare(r.tuples[i], values) >= 0
	})
	return i < len(r.tuples) && Compare(r.tuples[i], values) == 0
}

// AttrIndex returns the position of the named attribute, or -1.
func (r *Relation) AttrIndex(name string) int {
	for i, a := range r.attrs {
		if a == name {
			return i
		}
	}
	return -1
}

// Project returns a new relation over the named attribute subset (a
// permutation of a subset of this relation's attributes).
func (r *Relation) Project(name string, attrs []string) (*Relation, error) {
	idx := make([]int, len(attrs))
	depths := make([]uint8, len(attrs))
	for i, a := range attrs {
		j := r.AttrIndex(a)
		if j < 0 {
			return nil, fmt.Errorf("relation: %s has no attribute %s", r.name, a)
		}
		idx[i] = j
		depths[i] = r.depths[j]
	}
	out, err := New(name, attrs, depths)
	if err != nil {
		return nil, err
	}
	for _, t := range r.Tuples() {
		vals := make([]uint64, len(idx))
		for i, j := range idx {
			vals[i] = t[j]
		}
		if err := out.Insert(vals...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Reordered returns the tuples permuted into the given attribute order
// and sorted lexicographically in that order. order must be a
// permutation of the schema's attribute positions.
func (r *Relation) Reordered(order []int) ([]Tuple, error) {
	if len(order) != len(r.attrs) {
		return nil, fmt.Errorf("relation: order has %d entries, want %d", len(order), len(r.attrs))
	}
	seen := make([]bool, len(r.attrs))
	for _, j := range order {
		if j < 0 || j >= len(r.attrs) || seen[j] {
			return nil, fmt.Errorf("relation: order %v is not a permutation", order)
		}
		seen[j] = true
	}
	src := r.Tuples()
	// Carve every permuted tuple from one flat backing array: index
	// construction runs once per query execution, so its cost should be
	// two allocations, not one per tuple.
	k := len(order)
	flat := make([]uint64, len(src)*k)
	out := make([]Tuple, len(src))
	for i, t := range src {
		perm := flat[i*k : (i+1)*k : (i+1)*k]
		for c, j := range order {
			perm[c] = t[j]
		}
		out[i] = perm
	}
	// The identity permutation keeps the tuples' sorted schema order.
	if !slices.IsSorted(order) {
		slices.SortFunc(out, Compare)
	}
	return out, nil
}

// Clone returns an independent deep copy with the given name.
func (r *Relation) Clone(name string) *Relation {
	c := MustNew(name, r.attrs, r.depths)
	for _, t := range r.Tuples() {
		c.MustInsert(t...)
	}
	return c
}

// derive returns a new version of the relation: same name, schema and
// identity, a fresh version stamp, and its own tuple slice (the Tuple
// values themselves are shared — they are never mutated in place). The
// receiver is normalized first so published versions stay safe for
// concurrent readers: a derived version never re-sorts its parent.
func (r *Relation) derive(extra int) *Relation {
	r.normalize()
	tuples := make([]Tuple, len(r.tuples), len(r.tuples)+extra)
	copy(tuples, r.tuples)
	return &Relation{
		name:    r.name,
		id:      r.id,
		version: stateCounter.Add(1),
		attrs:   r.attrs,
		depths:  r.depths,
		tuples:  tuples,
		sorted:  true,
	}
}

// WithInserted returns a new version of the relation with the tuples
// appended (deduplicated as usual). The receiver is unchanged, so
// readers holding it — index structures, running queries — keep seeing
// the old state: this is the append half of the catalog's copy-on-write
// ingest. The derivation is recorded in the new version's lineage with
// its effective delta (tuples actually added), which is what DeltaSince
// reconstructs.
func (r *Relation) WithInserted(tuples ...Tuple) (*Relation, error) {
	next := r.derive(len(tuples))
	seen := map[string]bool{}
	var ins []Tuple
	for _, t := range tuples {
		if err := next.Insert(t...); err != nil {
			return nil, err
		}
		// Insert severed the lineage field of next, but next has none yet;
		// record the effective insertions against the parent's state.
		if k := tupleKey(t); !r.Contains(t...) && !seen[k] {
			seen[k] = true
			ins = append(ins, next.tuples[len(next.tuples)-1])
		}
	}
	next.normalize()
	sortTuples(ins)
	next.appendLineage(r, ins, nil)
	return next, nil
}

// WithDeleted returns a new version of the relation with the given
// tuples removed (tuples not present are ignored). The receiver is
// unchanged; this is the delete half of copy-on-write ingest.
func (r *Relation) WithDeleted(tuples ...Tuple) (*Relation, error) {
	drop := make([]Tuple, len(tuples))
	for i, t := range tuples {
		if len(t) != len(r.attrs) {
			return nil, fmt.Errorf("relation: %s delete arity %d, want %d", r.name, len(t), len(r.attrs))
		}
		drop[i] = t
	}
	sort.Slice(drop, func(i, j int) bool { return Compare(drop[i], drop[j]) < 0 })
	next := r.derive(0)
	kept := next.tuples[:0]
	var del []Tuple
	for _, t := range next.tuples {
		i := sort.Search(len(drop), func(i int) bool { return Compare(drop[i], t) >= 0 })
		if i < len(drop) && Compare(drop[i], t) == 0 {
			del = append(del, t) // effective: present and asked to go
			continue
		}
		kept = append(kept, t)
	}
	next.tuples = kept
	next.appendLineage(r, nil, del)
	return next, nil
}
