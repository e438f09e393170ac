package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"tetrisjoin/internal/baseline"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
	"tetrisjoin/internal/workload"
)

// workloadSpec describes one traffic mix: how tetrisd is started and how
// the client drives it. The same facts are recorded in BENCHMARK.json.
type workloadSpec struct {
	name  string
	flags []string // tetrisd flags besides the listen addresses
	conns int
	run   func(*bench) (*outcome, error)
}

// parallel is the engine worker count per execution that the -parallel
// flag gives tetrisd (1 when the flag is absent).
func (w workloadSpec) parallel() int {
	for i, f := range w.flags {
		if f == "-parallel" && i+1 < len(w.flags) {
			if n, err := strconv.Atoi(w.flags[i+1]); err == nil {
				return n
			}
		}
	}
	return 1
}

var workloads = []workloadSpec{
	{
		name:  "read-prepared",
		flags: []string{"-max-concurrent", "2", "-parallel", "1"},
		conns: 2,
		run:   runReadPrepared,
	},
	{
		name:  "ingest-maintain",
		flags: []string{"-max-concurrent", "2", "-parallel", "1"}, // plus -data-dir
		conns: 2,
		run:   runIngestMaintain,
	},
	{
		name:  "exec-parallel",
		flags: []string{"-max-concurrent", "1", "-parallel", "2"},
		conns: 1,
		run:   runExecParallel,
	},
}

// stmt is one statement a workload serves: its query over relations
// renamed into the statement's own namespace, the protocol text and
// mode, and the reference answer computed off the clock.
type stmt struct {
	id   string
	text string
	mode string
	q    *join.Query
	rels []*relation.Relation // distinct relations, in first-use order

	want answer
	// seq is the order-dependent hash of a sequential run's tuple
	// sequence; checked only when checkSeq is set.
	seq      uint64
	checkSeq bool
}

// newStmt renames the query's relations to id_<name> (so statements
// never share catalog names), derives the protocol text, and computes
// the reference answer with GenericJoin.
func newStmt(id, mode string, q *join.Query) (*stmt, error) {
	s := &stmt{id: id, mode: mode}
	renamed := map[*relation.Relation]*relation.Relation{}
	var atoms []join.Atom
	var parts []string
	for _, a := range q.Atoms() {
		r, ok := renamed[a.Relation]
		if !ok {
			r = a.Relation.Clone(id + "_" + a.Relation.Name())
			renamed[a.Relation] = r
			s.rels = append(s.rels, r)
		}
		atoms = append(atoms, join.Atom{Relation: r, Vars: a.Vars})
		parts = append(parts, r.Name()+"("+strings.Join(a.Vars, ",")+")")
	}
	var err error
	if s.q, err = join.NewQuery(atoms...); err != nil {
		return nil, err
	}
	s.text = strings.Join(parts, ", ")
	s.want, err = reference(s.q)
	return s, err
}

// reference is the answer GenericJoin gives for q.
func reference(q *join.Query) (answer, error) {
	tuples, err := baseline.GenericJoin(q, nil)
	if err != nil {
		return answer{}, err
	}
	var a answer
	for _, t := range tuples {
		a.add(t)
	}
	return a, nil
}

// withSeqCheck records the tuple sequence a sequential in-process run
// of the statement produces under the given SAO, which every parallel
// execution must reproduce exactly.
func (s *stmt) withSeqCheck(sao []string) error {
	mode, err := core.ParseMode(s.mode)
	if err != nil {
		return err
	}
	res, err := join.Execute(s.q, join.Options{Mode: mode, SAOVars: sao, Parallelism: 1})
	if err != nil {
		return err
	}
	var seq uint64
	for _, t := range res.Tuples {
		seq = seqStep(seq, t)
	}
	s.seq, s.checkSeq = seq, true
	return nil
}

// loadLine is the protocol request that loads relation r.
func loadLine(r *relation.Relation) []byte {
	return mustJSON(map[string]any{
		"op": "load", "name": r.Name(), "attrs": r.Attrs(), "depths": r.Depths(),
		"tuples": r.Tuples(),
	})
}

// subSeed derives a per-instance generator seed from the run seed, so
// each seeded family gets independent data and the same --seed always
// gives the same inputs.
func subSeed(seed int64, salt int64) int64 { return seed*1_000_003 + salt }

// stmtDef names one statement of a workload's set before newStmt
// renames and checks it.
type stmtDef struct {
	id, mode string
	q        *join.Query
}

// readPreparedStmts is read-prepared's statement set: the Table 1 path,
// the AGM-hard star triangle, a skewed cyclic statement whose order the
// planner picks, and Zipf triangles. The seeded families come in
// several independent instances so one seed's luck does not set the
// workload's cost: one Zipf triangle instance takes 10–45 ms, the
// path instances of one seed stay within ~20% of each other. Each
// statement takes ~0.2–45 ms here.
func readPreparedStmts(seed int64) ([]*stmt, error) {
	defs := []stmtDef{
		{"agmstar", "preloaded", workload.TriangleAGMStar(64, 12)},
		{"skew4c", "reloaded", workload.SkewedFourCycle(1000, 12)},
	}
	for i := int64(0); i < 3; i++ {
		defs = append(defs, stmtDef{fmt.Sprintf("path%d", i), "preloaded", workload.PathQuery(3, 1000, 12, subSeed(seed, 10+i))})
	}
	for i := int64(0); i < 6; i++ {
		defs = append(defs, stmtDef{fmt.Sprintf("ztri%d", i), "reloaded", workload.ZipfTriangle(150, 12, 1.1, subSeed(seed, 20+i))})
	}
	var stmts []*stmt
	for _, d := range defs {
		s, err := newStmt(d.id, d.mode, d.q)
		if err != nil {
			return nil, fmt.Errorf("statement %s: %w", d.id, err)
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

// execParallelStmts is exec-parallel's set: skewed Reloaded statements
// whose work spreads unevenly over the output space, plus the dense
// triangle. A single Zipf instance's cost varies up to 2× between
// seeds, so each family comes in five small independent instances
// (~5–20 ms each at 2 workers) rather than one large one.
func execParallelStmts(seed int64) ([]*stmt, error) {
	defs := []stmtDef{{"dense", "reloaded", workload.TriangleDense(16, 8)}}
	for i := int64(0); i < 5; i++ {
		defs = append(defs,
			stmtDef{fmt.Sprintf("ztri%d", i), "reloaded", workload.ZipfTriangle(200, 12, 1.1, subSeed(seed, 30+i))},
			stmtDef{fmt.Sprintf("z4c%d", i), "reloaded", workload.ZipfFourCycle(100, 12, 1.1, subSeed(seed, 40+i))},
			stmtDef{fmt.Sprintf("zstar%d", i), "reloaded", workload.ZipfStar(2, 100, 12, 1.1, subSeed(seed, 50+i))})
	}
	var stmts []*stmt
	for _, d := range defs {
		s, err := newStmt(d.id, d.mode, d.q)
		if err != nil {
			return nil, fmt.Errorf("statement %s: %w", d.id, err)
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

// families groups statement indices by family, in first-use order. The
// instances of a seeded family are named <family><instance>, as ztri0,
// ztri1, ...; they are samples of one statement shape, and each family
// counts once in exec_p50_ms whatever its number of instances, so more
// instances lower the seed's share of the spread instead of raising the
// family's weight.
func families(stmts []*stmt) [][]int {
	var groups [][]int
	at := map[string]int{}
	for i, s := range stmts {
		f := strings.TrimRight(s.id, "0123456789")
		g, ok := at[f]
		if !ok {
			g = len(groups)
			at[f] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// schedule is a seeded closed-loop request order: rounds that each
// visit every family once, in a fresh random order, taking the family's
// instances in turn, so every family gets the same number of samples.
type schedule struct {
	rng    *rand.Rand
	groups [][]int
	turn   []int // per family, how many of its requests were scheduled
	round  []int
}

func newSchedule(seed int64, groups [][]int) *schedule {
	return &schedule{rng: rand.New(rand.NewSource(seed)), groups: groups, turn: make([]int, len(groups))}
}

func (s *schedule) next() int {
	if len(s.round) == 0 {
		s.round = s.rng.Perm(len(s.groups))
	}
	f := s.round[0]
	s.round = s.round[1:]
	g := s.groups[f]
	i := g[s.turn[f]%len(g)]
	s.turn[f]++
	return i
}
