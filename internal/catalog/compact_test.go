package catalog

import (
	"math/rand"
	"testing"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
)

// Compaction is an optimization, never a semantic change: results after
// a fold are byte-identical to a scratch recompute, and the fold leaves
// a registry within the patch rule serving the same specs.
func TestCompactionPreservesResultsAndSpecs(t *testing.T) {
	cat, text := pathCatalog(t, 60, 6, 11)
	if _, err := cat.Execute(text, join.Options{Mode: core.Preloaded, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	r2, _ := cat.Relation("R2")
	specsBefore := len(catSetFor(t, cat, r2).SpecList())

	r := rand.New(rand.NewSource(12))
	for i := 0; i < 30; i++ {
		if _, err := cat.Append("R2", relation.Tuple{uint64(r.Intn(64)), uint64(r.Intn(64))}); err != nil {
			t.Fatal(err)
		}
	}
	cat.WaitCompactions()
	if st := cat.Stats(); st.Compactions == 0 {
		t.Fatal("30 appends never compacted")
	}
	cur, _ := cat.Relation("R2")
	set := catSetFor(t, cat, cur)
	if !index.WorthPatching(set.DeltaLen(), cur.Len()) {
		t.Fatalf("post-compaction net delta %d of %d tuples is past the patch rule", set.DeltaLen(), cur.Len())
	}
	if got := len(set.SpecList()); got != specsBefore {
		t.Fatalf("compaction changed the maintained specs: %d, want %d", got, specsBefore)
	}

	res, err := cat.Execute(text, join.Options{Mode: core.Preloaded, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTuples(t, "post-compaction", res.Tuples, scratchRecompute(t, cat, text, res.SAO))
}

// The background fold fires exactly when a publish leaves a net delta
// past index.WorthPatching, and not one write earlier.
func TestCompactionWaitsForPatchRule(t *testing.T) {
	cat := New()
	rel := relation.MustNewUniform("R", []string{"X", "Y"}, 6)
	for i := uint64(0); i < 40; i++ {
		rel.MustInsert(i, i)
	}
	if _, err := cat.Ingest(rel, BTreeSpecFor(rel)); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); ; i++ {
		if _, err := cat.Append("R", relation.Tuple{i, i + 1}); err != nil {
			t.Fatal(err)
		}
		cat.WaitCompactions()
		cur, _ := cat.Relation("R")
		k := int(i) + 1
		if index.WorthPatching(k, cur.Len()) {
			if st := cat.Stats(); st.Compactions != 0 || st.CompactionBuilds != 0 {
				t.Fatalf("append %d: folded a delta of %d within the rule: %+v", k, k, st)
			}
			if d := catSetFor(t, cat, cur).DeltaLen(); d != k {
				t.Fatalf("append %d: net delta %d, want %d", k, d, k)
			}
			continue
		}
		if st := cat.Stats(); st.Compactions != 1 || st.CompactionBuilds != 1 {
			t.Fatalf("append %d: delta past the rule, stats %+v, want one fold of one spec", k, st)
		}
		if d := catSetFor(t, cat, cur).DeltaLen(); d != 0 {
			t.Fatalf("folded registry still carries a delta of %d", d)
		}
		return
	}
}
