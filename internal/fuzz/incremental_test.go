package fuzz

import (
	"math/rand"
	"strings"
	"testing"

	"tetrisjoin/internal/baseline"
	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
)

// TestIncrementalMaintainedAllFamilies is the acceptance sweep for
// incremental maintenance: for every workload family, a maintained
// statement driven through a seeded random append/delete script must
// stay byte-identical to a from-scratch recompute after every refresh —
// across pure-append spans (patched), pure-delete spans (patched),
// folded mixed spans (exact recompute fallback), duplicate appends and
// absent deletes (no-op deltas).
func TestIncrementalMaintainedAllFamilies(t *testing.T) {
	for name, q := range workloadFamilies() {
		cat := catalog.New()
		seen := map[string]bool{}
		var names []string
		var atomTexts []string
		for _, a := range q.Atoms() {
			if !seen[a.Relation.Name()] {
				seen[a.Relation.Name()] = true
				names = append(names, a.Relation.Name())
				// The families build their relations outside the catalog;
				// clone so the shared workload instances stay pristine.
				if _, err := cat.Ingest(a.Relation.Clone(a.Relation.Name())); err != nil {
					t.Fatalf("%s: ingest: %v", name, err)
				}
			}
			atomTexts = append(atomTexts, a.Relation.Name()+"("+strings.Join(a.Vars, ",")+")")
		}
		text := strings.Join(atomTexts, ", ")

		m, err := cat.Maintain(text, join.Options{Mode: core.Preloaded})
		if err != nil {
			t.Fatalf("%s: maintain: %v", name, err)
		}
		sao := m.Plan().SAOVars()

		rng := rand.New(rand.NewSource(int64(len(name)) * 1315423911))
		script := newWriteScript(rng)
		for op := 0; op < 10; op++ {
			relName := names[rng.Intn(len(names))]
			desc, err := script.mutate(cat, relName)
			if err != nil {
				t.Fatalf("%s: op %d (%s): %v", name, op, desc, err)
			}
			if op%4 == 1 { // fold occasionally: multi-write spans
				continue
			}
			cat.WaitCompactions()
			res, err := m.Execute(join.Options{})
			if err != nil {
				t.Fatalf("%s: refresh after op %d (%s): %v", name, op, desc, err)
			}
			cur, err := cat.Parse(text)
			if err != nil {
				t.Fatalf("%s: parse: %v", name, err)
			}
			scratch, err := join.Execute(cur, join.Options{Mode: core.Preloaded, Parallelism: 1, SAOVars: sao})
			if err != nil {
				t.Fatalf("%s: scratch after op %d: %v", name, op, err)
			}
			if d := baseline.FirstDivergence(res.Tuples, scratch.Tuples); d != nil {
				t.Fatalf("%s: op %d (%s, refresh=%s): maintained diverges from scratch at #%d: got %v, want %v (%d vs %d tuples)",
					name, op, desc, m.LastRefresh().Kind, d.Index, d.Got, d.Want, len(res.Tuples), len(scratch.Tuples))
			}
		}
		if m.Patches() == 0 {
			t.Errorf("%s: script never took the patch path (patches=0, recomputes=%d)", name, m.Recomputes())
		}
	}
}

// TestMaintainedDeltaCostBound pins the acceptance bound end to end on
// the workhorse acyclic instance: each 1-tuple append refreshes with
// index builds bounded by the changed atom count (here 1) and
// delta-sized lazily loaded boxes, never a full recompute.
func TestMaintainedDeltaCostBound(t *testing.T) {
	cat := catalog.New()
	r := rand.New(rand.NewSource(42))
	for _, rn := range []string{"R1", "R2", "R3"} {
		rel := relation.MustNewUniform(rn, []string{"X", "Y"}, 10)
		for i := 0; i < 400; i++ {
			rel.MustInsert(uint64(r.Intn(1<<10)), uint64(r.Intn(1<<10)))
		}
		if _, err := cat.Ingest(rel); err != nil {
			t.Fatal(err)
		}
	}
	text := "R1(A,B), R2(B,C), R3(C,D)"
	m, err := cat.Maintain(text, join.Options{Mode: core.Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	fullRun, err := cat.Execute(text, join.Options{Mode: core.Preloaded, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		tup := relation.Tuple{uint64(r.Intn(1 << 10)), uint64(r.Intn(1 << 10))}
		rel, _ := cat.Relation("R2")
		fresh := !rel.Contains(tup...)
		if _, err := cat.Append("R2", tup); err != nil {
			t.Fatal(err)
		}
		res, err := m.Execute(join.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !fresh {
			continue
		}
		if k := m.LastRefresh().Kind; k != "patched" {
			t.Fatalf("iteration %d: refresh kind %q, want patched", i, k)
		}
		if res.Stats.IndexBuilds > 1 {
			t.Fatalf("iteration %d: refresh built %d indexes, want <= 1 (one changed atom)", i, res.Stats.IndexBuilds)
		}
		// The pass's lazy loads are delta-sized: far below the full B(Q)
		// load a from-scratch Preloaded run pays.
		if res.Stats.BoxesLoaded*4 > fullRun.Stats.BoxesLoaded {
			t.Fatalf("iteration %d: delta pass loaded %d boxes, full run loads %d — not delta-sized",
				i, res.Stats.BoxesLoaded, fullRun.Stats.BoxesLoaded)
		}
	}
}
