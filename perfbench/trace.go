package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tetrisjoin/internal/boxtree"
	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/dyadic"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/join"
)

// span is one traced interval. Protocol-pass spans are client-side
// request spans (with the first-byte mark); direct-pass spans wrap one
// call into a layer's public function and carry the id of the request
// they replay and of the span that caused them.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Pass   string `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	First  int64  `json:"first_ns,omitempty"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// protocol records a request's client-side span and returns its id.
func (t *tracer) protocol(req int, name string, r reqRecord) int {
	s := span{ID: len(t.spans) + 1, Req: req, Pass: "protocol", Name: name,
		Start: t.ns(r.sent), End: t.ns(r.end)}
	if !r.first.IsZero() {
		s.First = t.ns(r.first)
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// call runs f inside a direct-pass span and returns the span.
func (t *tracer) call(name string, req, parent int, f func()) span {
	start := time.Now()
	f()
	end := time.Now()
	s := span{ID: len(t.spans) + 1, Parent: parent, Req: req, Pass: "direct", Name: name,
		Start: t.ns(start), End: t.ns(end)}
	t.spans = append(t.spans, s)
	return s
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func (b *bench) tracePath() string {
	return filepath.Join(b.work, fmt.Sprintf("trace-%s-%d.json", b.spec.name, b.seed))
}

// serverSelfMs is the protocol span's duration minus the part the
// direct-pass span of the same request covers, the latter placed at the
// start of the protocol span: what the server, the network and the
// client added around the layer call.
func serverSelfMs(protocol span, direct span) float64 {
	d := direct.dur()
	return float64(selfTime(interval{0, protocol.dur()}, []interval{{0, d}})) / 1e6
}

// acc accumulates a mean with its sample count.
type acc struct {
	sum float64
	n   int
}

func (a *acc) add(v float64) { a.sum += v; a.n++ }
func (a acc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// execAgg accumulates engine statistics over replayed executions.
type execAgg struct {
	n                                            int
	res, oracle, loaded, kb, cover, skel, steals float64
	balance                                      acc
}

func (e *execAgg) add(st core.Stats) {
	e.n++
	e.res += float64(st.Resolutions)
	e.oracle += float64(st.OracleCalls)
	e.loaded += float64(st.BoxesLoaded)
	e.kb += float64(st.KnowledgeBase)
	e.cover += float64(st.CoverHits)
	e.skel += float64(st.SkeletonCalls)
	e.steals += float64(st.Steals)
	if st.ParallelWorkers > 0 && st.Resolutions > 0 {
		mean := float64(st.Resolutions) / float64(st.ParallelWorkers)
		e.balance.add(float64(st.MaxWorkerResolutions) / mean)
	}
}

func (e *execAgg) report(o *outcome, parallel bool) {
	n := float64(e.n)
	o.addLayer("core.resolutions_per_exec", "count", e.res/n, e.n)
	o.addLayer("core.oracle_calls_per_exec", "count", e.oracle/n, e.n)
	o.addLayer("core.boxes_loaded_per_exec", "count", e.loaded/n, e.n)
	o.addLayer("core.kb_boxes", "count", e.kb/n, e.n)
	o.addLayer("core.cover_hit_ratio", "ratio", e.cover/math.Max(e.skel, 1), e.n)
	if parallel {
		o.addLayer("core.steals_per_exec", "count", e.steals/n, e.n)
		o.addLayer("core.balance", "ratio", e.balance.mean(), e.balance.n)
	}
}

// layerProbe times the layers' public functions on each of a workload's
// statements in turn, off the request path; every statement counts
// once in the means.
type layerProbe struct {
	t   *tracer
	rng *rand.Rand

	decideUs, preparePlanMs, baseBuildMs, preloadMs, runMs acc
	probeNs, gapsPerProbe, supersetNs                      acc
	buildMs, gapsAtNs                                      map[string]*acc
	runRes, runTime                                        float64 // over every core.Run, for ns_per_resolution
	estRatio                                               []float64
	seqRes                                                 float64 // one sequential run's resolutions per statement
}

func newLayerProbe(t *tracer, seed int64) *layerProbe {
	return &layerProbe{t: t, rng: rand.New(rand.NewSource(seed)),
		buildMs: map[string]*acc{}, gapsAtNs: map[string]*acc{}}
}

const probes = 2000

func (lp *layerProbe) randomPoint(depths []uint8) []uint64 {
	p := make([]uint64, len(depths))
	for i, d := range depths {
		p[i] = uint64(lp.rng.Int63n(1 << d))
	}
	return p
}

// probe measures one statement. req is the first request that executed
// it (spans are tagged with it); observed is the resolution count its
// replayed executions reported.
func (lp *layerProbe) probe(q *join.Query, modeName string, req int, observed float64) error {
	mode, err := core.ParseMode(modeName)
	if err != nil {
		return err
	}
	opts := join.Options{Mode: mode}
	parent := lp.t.call("direct.layers", req, 0, func() {}).ID
	ms := func(s span) float64 { return float64(s.dur()) / 1e6 }

	var d *join.Decision
	lp.decideUs.add(ms(lp.t.call("join.Decide", req, parent, func() { d, err = join.Decide(q, opts) })) * 1e3)
	if err != nil {
		return err
	}
	if d.Planned && observed > 0 {
		lp.estRatio = append(lp.estRatio, d.EstimatedResolutions/observed)
	}
	var plan *join.Plan
	lp.preparePlanMs.add(ms(lp.t.call("join.PreparePlan", req, parent, func() {
		plan, err = join.PreparePlan(q, join.Options{Mode: core.Preloaded}, join.NewIndexBuilder())
	})))
	if err != nil {
		return err
	}
	var base *core.PreparedBase
	lp.baseBuildMs.add(ms(lp.t.call("join.Plan.PreloadedBase", req, parent, func() { base, err = plan.PreloadedBase() })))
	if err != nil {
		return err
	}
	gaps := plan.AllGaps()
	n := len(q.Vars())
	tree := boxtree.New(n)
	lp.preloadMs.add(ms(lp.t.call("boxtree.InsertSubsuming", req, parent, func() {
		for _, g := range gaps {
			tree.InsertSubsuming(g)
		}
	})))

	// core.Run with the statement's own mode; Preloaded runs use the warm
	// base, as prepared executions do.
	runOpts := core.Options{Mode: mode, SAO: plan.SAO()}
	if mode == core.Preloaded {
		runOpts.Base = base
	}
	var res *core.Result
	for i := 0; i < 3; i++ {
		s := lp.t.call("core.Run", req, parent, func() { res, err = core.Run(plan.NewOracle(), runOpts) })
		if err != nil {
			return err
		}
		lp.runMs.add(ms(s))
		lp.runTime += float64(s.dur())
		lp.runRes += float64(res.Stats.Resolutions)
	}
	lp.seqRes += float64(res.Stats.Resolutions)

	points := make([][]uint64, probes)
	for i := range points {
		points[i] = lp.randomPoint(q.Depths())
	}
	oracle := plan.NewOracle()
	gapsSeen := 0
	s := lp.t.call("join.Oracle.GapsContaining", req, parent, func() {
		for _, p := range points {
			gapsSeen += len(oracle.GapsContaining(p))
		}
	})
	lp.probeNs.add(float64(s.dur()) / probes)
	lp.gapsPerProbe.add(float64(gapsSeen) / probes)

	boxes := make([]dyadic.Box, probes)
	for i, p := range points {
		boxes[i] = dyadic.Point(p, q.Depths())
	}
	s = lp.t.call("boxtree.ContainsSuperset", req, parent, func() {
		for _, b := range boxes {
			tree.ContainsSuperset(b)
		}
	})
	lp.supersetNs.add(float64(s.dur()) / probes)

	seen := map[any]bool{}
	for _, a := range q.Atoms() {
		rel := a.Relation
		if seen[rel] {
			continue
		}
		seen[rel] = true
		for _, spec := range []index.Spec{index.BTreeSpec(rel.Attrs()...), index.DyadicSpec(), index.KDTreeSpec()} {
			fam := spec.Family.String()
			if lp.buildMs[fam] == nil {
				lp.buildMs[fam], lp.gapsAtNs[fam] = &acc{}, &acc{}
			}
			var ix index.Index
			lp.buildMs[fam].add(ms(lp.t.call("index.Spec.Build."+fam, req, parent, func() { ix, err = spec.Build(rel) })))
			if err != nil {
				return err
			}
			cur := ix.NewCursor()
			relPoints := make([][]uint64, probes)
			for i := range relPoints {
				relPoints[i] = lp.randomPoint(rel.Depths())
			}
			s := lp.t.call("index.Cursor.GapsAt."+fam, req, parent, func() {
				for _, p := range relPoints {
					cur.GapsAt(p)
				}
			})
			lp.gapsAtNs[fam].add(float64(s.dur()) / probes)
		}
	}
	return nil
}

func (lp *layerProbe) report(o *outcome) {
	o.addLayer("planner.decide_us", "us", lp.decideUs.mean(), lp.decideUs.n)
	o.addLayer("join.prepare_plan_ms", "ms", lp.preparePlanMs.mean(), lp.preparePlanMs.n)
	o.addLayer("planner.estimate_ratio", "ratio", geomean(lp.estRatio), len(lp.estRatio))
	o.addLayer("core.base_build_ms", "ms", lp.baseBuildMs.mean(), lp.baseBuildMs.n)
	o.addLayer("boxtree.preload_ms", "ms", lp.preloadMs.mean(), lp.preloadMs.n)
	o.addLayer("core.run_ms", "ms", lp.runMs.mean(), lp.runMs.n)
	o.addLayer("core.ns_per_resolution", "ns", lp.runTime/math.Max(lp.runRes, 1), lp.runMs.n)
	o.addLayer("join.probe_ns", "ns", lp.probeNs.mean(), lp.probeNs.n*probes)
	o.addLayer("join.gaps_per_probe", "count", lp.gapsPerProbe.mean(), lp.gapsPerProbe.n*probes)
	o.addLayer("boxtree.superset_ns", "ns", lp.supersetNs.mean(), lp.supersetNs.n*probes)
	fams := make([]string, 0, len(lp.buildMs))
	for f := range lp.buildMs {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	for _, f := range fams {
		o.addLayer("index.build_ms."+f, "ms", lp.buildMs[f].mean(), lp.buildMs[f].n)
		o.addLayer("index.gapsat_ns."+f, "ns", lp.gapsAtNs[f].mean(), lp.gapsAtNs[f].n*probes)
	}
}

// protocolServerMetrics reports the server layer's protocol-side
// numbers for the timed requests, with /metrics deltas over the phase.
func protocolServerMetrics(o *outcome, recs []reqRecord, before, after map[string]float64) {
	var stream []float64
	var bytes, tuples int64
	for _, r := range recs {
		if r.tuples > 0 {
			stream = append(stream, float64(r.end.Sub(r.first).Nanoseconds())/1e6)
			bytes += r.tupleBytes
			tuples += r.tuples
		}
	}
	o.addLayer("server.stream_ms", "ms", median(stream), len(stream))
	o.addLayer("server.bytes_per_tuple", "bytes", float64(bytes)/math.Max(float64(tuples), 1), int(tuples))
	wait := sumSeries(after, "tetris_admission_wait_seconds_sum") - sumSeries(before, "tetris_admission_wait_seconds_sum")
	o.addLayer("server.admission_wait_ms", "ms", wait*1e3/math.Max(float64(len(recs)), 1), len(recs))
	shed := sumSeries(after, "tetris_admission_shed_total") - sumSeries(before, "tetris_admission_shed_total")
	o.addLayer("server.shed", "count", shed, len(recs))
}

// replayLimit bounds the direct pass's replay of the request sequence,
// which is enough for hundreds of executions and keeps a traced run
// within a few seconds of an untraced one.
func (b *bench) replayLimit() time.Duration {
	return min(time.Duration(b.seconds*float64(time.Second)/2), 5*time.Second)
}

// traceServed is the traced run's direct pass for read-prepared and
// exec-parallel: it replays the protocol pass's exec sequence through
// catalog.Prepared.Execute in process, then probes each statement's
// layers.
func (b *bench) traceServed(o *outcome, sv *served, stmts []*stmt, recs []reqRecord, before map[string]float64) error {
	after, err := sv.d.scrape()
	if err != nil {
		return err
	}
	protocolServerMetrics(o, recs, before, after)

	if len(recs) == 0 {
		return fmt.Errorf("no timed requests to replay")
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].sent.Before(recs[j].sent) })
	t := newTracer(recs[0].sent)
	cat := catalog.New()
	for _, s := range stmts {
		for _, r := range s.rels {
			if _, err := cat.Ingest(r.Clone(r.Name())); err != nil {
				return err
			}
		}
	}
	var prepare acc
	prepared := make([]*catalog.Prepared, len(stmts))
	for c := 0; c < b.spec.conns; c++ {
		for si, s := range stmts {
			mode, err := core.ParseMode(s.mode)
			if err != nil {
				return err
			}
			sp := t.call("catalog.Prepare", 0, 0, func() { prepared[si], err = cat.Prepare(s.text, join.Options{Mode: mode}) })
			if err != nil {
				return err
			}
			prepare.add(float64(sp.dur()) / 1e6)
		}
	}
	o.addLayer("catalog.prepare_ms", "ms", prepare.mean(), prepare.n)

	parallel := b.spec.parallel()
	var execMs, selfMs acc
	agg := &execAgg{}
	perStmt := make([]execAgg, len(stmts))
	firstReq := make([]int, len(stmts))
	limit := time.Now().Add(b.replayLimit())
	for i, r := range recs {
		if time.Now().After(limit) {
			break
		}
		req := i + 1
		pid := t.protocol(req, "exec", r)
		var res *join.Result
		sp := t.call("catalog.Prepared.Execute", req, pid, func() {
			res, err = prepared[r.stmt].Execute(join.Options{Parallelism: parallel})
		})
		if err != nil {
			return err
		}
		if firstReq[r.stmt] == 0 {
			firstReq[r.stmt] = req
		}
		execMs.add(float64(sp.dur()) / 1e6)
		selfMs.add(serverSelfMs(t.spans[pid-1], sp))
		agg.add(res.Stats)
		perStmt[r.stmt].add(res.Stats)
	}
	o.addLayer("catalog.execute_ms", "ms", execMs.mean(), execMs.n)
	o.addLayer("server.self_ms.exec", "ms", selfMs.mean(), selfMs.n)
	agg.report(o, parallel > 1)

	lp := newLayerProbe(t, subSeed(b.seed, 200))
	var parRes float64
	for si, s := range stmts {
		if perStmt[si].n == 0 {
			continue
		}
		observed := perStmt[si].res / float64(perStmt[si].n)
		if err := lp.probe(s.q, s.mode, firstReq[si], observed); err != nil {
			return err
		}
		parRes += observed
		if parallel == 1 {
			o.count("core.resolutions."+s.id, int64(observed))
		}
	}
	lp.report(o)
	if parallel > 1 {
		o.addLayer("core.parallel_resolution_ratio", "ratio", parRes/math.Max(lp.seqRes, 1), len(stmts))
	}
	return t.write(b.tracePath())
}
