package balance

import (
	"fmt"
	"math"

	"tetrisjoin/internal/dyadic"
)

// Lift is the Balance map of Appendix F.5: it carries n-dimensional boxes
// into a (2n-2)-dimensional space in which the first n-2 base attributes
// A_1 … A_{n-2} are each split into a partition-prefix attribute A'_i and
// a within-layer suffix attribute A”_i. The lifted coordinate layout is
// exactly the splitting attribute order used by Tetris-…-LB:
//
//	(A'_1, …, A'_{n-2}, A_n, A_{n-1}, A''_{n-2}, …, A''_1)
//
// so that running the lifted problem with the identity SAO realizes
// Algorithm 5.
type Lift struct {
	n          int     // base dimensionality (n >= 3)
	baseDepths []uint8 // base per-dimension depths
	parts      []Partition
	depths     []uint8 // lifted per-dimension depths
}

// NewLift builds the Balance map for the given base depths and one
// balanced partition per split attribute; parts must have length n-2.
func NewLift(baseDepths []uint8, parts []Partition) (*Lift, error) {
	n := len(baseDepths)
	if n < 3 {
		return nil, fmt.Errorf("balance: Lift requires at least 3 dimensions, got %d", n)
	}
	if len(parts) != n-2 {
		return nil, fmt.Errorf("balance: need %d partitions, got %d", n-2, len(parts))
	}
	for i, p := range parts {
		if p.Depth() != baseDepths[i] {
			return nil, fmt.Errorf("balance: partition %d has depth %d, dimension has %d", i, p.Depth(), baseDepths[i])
		}
	}
	l := &Lift{n: n, baseDepths: baseDepths, parts: parts}
	l.depths = make([]uint8, 2*n-2)
	for i := 0; i < n-2; i++ {
		l.depths[i] = baseDepths[i]       // A'_i
		l.depths[2*n-3-i] = baseDepths[i] // A''_i
	}
	l.depths[n-2] = baseDepths[n-1] // A_n
	l.depths[n-1] = baseDepths[n-2] // A_{n-1}
	return l, nil
}

// LiftFromBoxes builds partitions from the component intervals of the
// given base boxes — target √|boxes| per Definition F.3 — and returns the
// corresponding Lift.
func LiftFromBoxes(baseDepths []uint8, boxes []dyadic.Box) (*Lift, error) {
	n := len(baseDepths)
	if n < 3 {
		return nil, fmt.Errorf("balance: Lift requires at least 3 dimensions, got %d", n)
	}
	target := int(math.Sqrt(float64(len(boxes))))
	parts := make([]Partition, n-2)
	for i := 0; i < n-2; i++ {
		comps := make([]dyadic.Interval, 0, len(boxes))
		for _, b := range boxes {
			comps = append(comps, b[i])
		}
		parts[i] = Balanced(comps, baseDepths[i], target)
	}
	return NewLift(baseDepths, parts)
}

// Dims returns the lifted dimensionality 2n-2.
func (l *Lift) Dims() int { return 2*l.n - 2 }

// Depths returns the lifted per-dimension depths.
func (l *Lift) Depths() []uint8 { return l.depths }

// Box lifts a base box into the 2n-2 dimensional space.
func (l *Lift) Box(b dyadic.Box) dyadic.Box {
	if len(b) != l.n {
		panic("balance: lifting box of wrong dimension")
	}
	out := make(dyadic.Box, 2*l.n-2)
	for i := 0; i < l.n-2; i++ {
		x1, x2 := l.parts[i].Split(b[i])
		out[i] = x1
		out[2*l.n-3-i] = x2
	}
	out[l.n-2] = b[l.n-1]
	out[l.n-1] = b[l.n-2]
	return out
}

// Point lifts a base tuple; the result is the box Balance(⟨t⟩) — the
// equivalence class of lifted unit points that decode to t. (The A'_i
// component is the partition element containing t_i and the A”_i
// component carries the remaining bits; trailing bits of the lifted
// space are unconstrained.)
func (l *Lift) Point(t []uint64) dyadic.Box {
	if len(t) != l.n {
		panic("balance: lifting point of wrong dimension")
	}
	b := make(dyadic.Box, l.n)
	for i, v := range t {
		b[i] = dyadic.Unit(v, l.baseDepths[i])
	}
	return l.Box(b)
}

// DecodePoint maps a lifted unit point back to the base tuple it
// represents: for each split attribute, the partition element containing
// the A'_i value supplies the leading bits and the high bits of the A”_i
// value supply the rest.
func (l *Lift) DecodePoint(lifted []uint64) []uint64 {
	if len(lifted) != 2*l.n-2 {
		panic("balance: decoding point of wrong dimension")
	}
	t := make([]uint64, l.n)
	for i := 0; i < l.n-2; i++ {
		d := l.baseDepths[i]
		elem := l.parts[i].ElementAt(lifted[i])
		rest := d - elem.Len
		t[i] = elem.Bits<<rest | lifted[2*l.n-3-i]>>elem.Len
		if rest == 0 {
			t[i] = elem.Bits
		}
	}
	t[l.n-1] = lifted[l.n-2]
	t[l.n-2] = lifted[l.n-1]
	return t
}
