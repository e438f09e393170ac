package core

import (
	"math/rand"
	"testing"
)

// workCounts is the slice of Stats that a pure speed-up of the
// knowledge-base probes must leave exactly as it was: every count the
// skeleton's search produces, not just its output.
type workCounts struct {
	Resolutions, Splits, CoverHits, OracleCalls, BoxesLoaded int64
	KnowledgeBase                                            int
	Outputs                                                  int64
}

func countsOf(s Stats) workCounts {
	return workCounts{s.Resolutions, s.Splits, s.CoverHits, s.OracleCalls, s.BoxesLoaded, s.KnowledgeBase, s.Outputs}
}

// pinnedInstances are the seeded instances TestWorkCountsPinned runs:
// dimension, per-dimension depth, gap-box count and seed.
var pinnedInstances = []struct {
	n     int
	d     uint8
	count int
	seed  int64
}{
	{3, 4, 30, 1},
	{3, 3, 12, 2},
	{4, 3, 40, 3},
	{2, 6, 25, 4},
}

// pinnedConfigs are the execution shapes whose work counts are pinned:
// each runs one instance (its oracle and gap boxes) and returns the
// result.
var pinnedConfigs = []struct {
	name string
	run  func(o *BoxOracle) (*Result, error)
}{
	{"preloaded-base", func(o *BoxOracle) (*Result, error) {
		base, err := BuildPreloadedBase(o, Options{})
		if err != nil {
			return nil, err
		}
		return Run(o, Options{Mode: Preloaded, Base: base})
	}},
	{"reloaded", func(o *BoxOracle) (*Result, error) {
		return Run(o, Options{Mode: Reloaded})
	}},
	{"reloaded-base", func(o *BoxOracle) (*Result, error) {
		// Prior knowledge over half the gap set: the maintained delta
		// shape, a Reloaded pass over a shared read-only base.
		half := MustBoxOracle(o.Depths(), o.AllGaps()[:o.Len()/2])
		base, err := BuildPreloadedBase(half, Options{})
		if err != nil {
			return nil, err
		}
		return Run(o, Options{Mode: Reloaded, Base: base})
	}},
	{"single-pass", func(o *BoxOracle) (*Result, error) {
		return Run(o, Options{Mode: Preloaded, SinglePass: true})
	}},
	{"no-cache", func(o *BoxOracle) (*Result, error) {
		return Run(o, Options{Mode: Reloaded, NoCache: true})
	}},
	{"shards-2", func(o *BoxOracle) (*Result, error) {
		// Static split (no stealing) so the per-shard work is a
		// deterministic function of the instance.
		return RunShards(func() Oracle { return o.Clone() }, Options{Mode: Reloaded, StealDepth: -1}, 2, 2)
	}},
}

// pinnedCounts holds, per config, the work counts of each pinned
// instance, recorded before the knowledge-base probes learned to skip
// the prefixes a parent's miss already ruled out. A probe refinement that
// answered a miss wrongly would add splits and resolutions without
// changing any output, which an output-only differential cannot see.
var pinnedCounts = map[string][]workCounts{
	// {Resolutions, Splits, CoverHits, OracleCalls, BoxesLoaded, KnowledgeBase, Outputs}
	"preloaded-base": {
		{340, 2845, 1366, 208, 30, 8, 208},
		{160, 1133, 693, 108, 12, 8, 108},
		{2298, 19124, 10382, 1402, 40, 33, 1402},
		{1410, 17010, 8787, 1300, 24, 14, 1300},
	},
	"reloaded": {
		{340, 2917, 1377, 214, 9, 1, 208},
		{160, 1187, 706, 114, 7, 1, 108},
		{2298, 19472, 10481, 1431, 33, 14, 1402},
		{1410, 17166, 8824, 1313, 15, 1, 1300},
	},
	"reloaded-base": {
		{340, 2893, 1374, 212, 7, 1, 208},
		{160, 1151, 697, 110, 2, 1, 108},
		{2298, 19328, 10435, 1419, 17, 4, 1402},
		{1410, 17082, 8803, 1306, 7, 1, 1300},
	},
	"single-pass": {
		{340, 349, 134, 0, 30, 1, 208},
		{160, 161, 53, 0, 12, 1, 108},
		{2298, 2300, 897, 0, 40, 14, 1402},
		{1410, 1410, 111, 0, 24, 1, 1300},
	},
	"no-cache": {
		{34267, 37334, 35304, 214, 9, 215, 208},
		{8764, 9887, 9310, 114, 7, 115, 108},
		{1634647, 1653843, 1642830, 1431, 33, 1434, 1402},
		{910094, 925850, 917508, 1313, 15, 1313, 1300},
	},
	"shards-2": {
		{339, 2713, 1377, 215, 12, 7, 208},
		{159, 1088, 665, 116, 10, 8, 108},
		{2297, 18128, 9737, 1439, 42, 27, 1402},
		{1409, 15852, 8388, 1313, 15, 3, 1300},
	},
}

// TestWorkCountsPinned holds the skeleton's exact work — resolutions,
// splits, cover hits, oracle calls, boxes loaded, knowledge-base size and
// outputs — to the recorded values under every execution shape.
func TestWorkCountsPinned(t *testing.T) {
	for _, cfg := range pinnedConfigs {
		want := pinnedCounts[cfg.name]
		if len(want) != len(pinnedInstances) {
			t.Fatalf("%s: %d pinned rows for %d instances", cfg.name, len(want), len(pinnedInstances))
		}
		for i, inst := range pinnedInstances {
			r := rand.New(rand.NewSource(inst.seed))
			o := MustBoxOracle(depthsOf(inst.n, inst.d), randBoxSet(r, inst.n, inst.d, inst.count))
			res, err := cfg.run(o)
			if err != nil {
				t.Fatalf("%s instance %d: %v", cfg.name, i, err)
			}
			if got := countsOf(res.Stats); got != want[i] {
				t.Errorf("%s instance %d: work counts %+v, pinned %+v", cfg.name, i, got, want[i])
			}
		}
	}
}
