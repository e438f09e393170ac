package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/durable"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
	"tetrisjoin/internal/wal"
)

// ingestTrace is ingest-maintain's protocol pass: every timed request in
// send order with its client-side span.
type ingestTrace struct {
	t    *tracer
	recs []reqRecord
	ids  []int // protocol span id per rec
}

func (b *bench) traceIngestProtocol(o *outcome, s *ingestSession, writes, reads []reqRecord, lateMs []float64, before map[string]float64) (*ingestTrace, error) {
	after, err := s.d.scrape()
	if err != nil {
		return nil, err
	}
	protocolServerMetrics(o, reads, before, after)
	late, ok := percentile(lateMs, 0.99)
	o.layers = append(o.layers, metric{name: "loadgen.late_p99_ms", unit: "ms", value: late, n: len(lateMs), ok: ok})
	o.addLayer("loadgen.late_max_ms", "ms", maxOf(lateMs), len(lateMs))

	recs := append(append([]reqRecord(nil), writes...), reads...)
	if len(recs) == 0 {
		return nil, fmt.Errorf("no timed requests to replay")
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].sent.Before(recs[j].sent) })
	tr := &ingestTrace{t: newTracer(recs[0].sent), recs: recs}
	for i, r := range recs {
		tr.ids = append(tr.ids, tr.t.protocol(i+1, r.op, r))
	}
	return tr, nil
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// traceIngestDirect replays the protocol pass's request sequence through
// a durable catalog in process — durable.Catalog.Append for appends,
// catalog.Maintained.Execute for refreshes, Prepare + Execute for ad-hoc
// queries — then measures the storage layers and each statement's
// engine layers.
func (b *bench) traceIngestDirect(o *outcome, in *ingestData, tr *ingestTrace) error {
	t := tr.t
	dir := filepath.Join(b.work, fmt.Sprintf("trace-data-%s-%d", b.spec.name, b.seed))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := durable.Open(filepath.Join(dir, "db"), durable.Options{})
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.Close()
		}
	}()
	for _, st := range []*stmt{in.path, in.tri} {
		for _, r := range st.rels {
			if _, err := d.Ingest(r.Clone(r.Name())); err != nil {
				return err
			}
		}
	}
	m, err := d.Maintain("m", in.path.text, join.Options{Mode: core.Reloaded})
	if err != nil {
		return err
	}
	modes := map[string]core.Mode{"written": core.Reloaded, "unwritten": core.Preloaded}
	texts := map[string]string{"written": in.written, "unwritten": in.tri.text}
	st0 := d.Stats()

	var (
		appendMs, withInsUs, refreshMs, prepareMs, execMs acc
		selfAppend, selfExec                              acc
		patched, refreshes, writes                        int
		walBytes, userAppended                            int64
		maxDepth                                          int
		agg                                               execAgg
		stmtRes                                           = map[string]*execAgg{"m": {}, "written": {}, "unwritten": {}}
		firstReq                                          = map[string]int{}
	)
	limit := time.Now().Add(b.replayLimit())
	for i, r := range tr.recs {
		if time.Now().After(limit) {
			break
		}
		req, pid := i+1, tr.ids[i]
		switch {
		case r.op == "append":
			w := in.writes[writes]
			writes++
			name := in.path.rels[w.rel].Name()
			tuples := make([]relation.Tuple, len(w.tuples))
			for k, tu := range w.tuples {
				tuples[k] = tu
			}
			cur, _ := d.Relation(name)
			sp := t.call("relation.WithInserted", req, pid, func() { _, err = cur.WithInserted(tuples...) })
			if err != nil {
				return err
			}
			withInsUs.add(float64(sp.dur()) / 1e3)
			walBefore := d.WAL().WALSize
			sp = t.call("durable.Catalog.Append", req, pid, func() { _, err = d.Append(name, tuples...) })
			if err != nil {
				return err
			}
			if grown := d.WAL().WALSize - walBefore; grown > 0 {
				walBytes += grown
				userAppended += int64(len(tuples) * 2 * 8)
			}
			appendMs.add(float64(sp.dur()) / 1e6)
			selfAppend.add(serverSelfMs(t.spans[pid-1], sp))
			if set := d.IndexSet(name); set != nil {
				maxDepth = max(maxDepth, set.MaxLayerDepth())
			}
		case r.op == "exec:m":
			var res *join.Result
			sp := t.call("catalog.Maintained.Execute", req, pid, func() { res, err = m.Execute(join.Options{}) })
			if err != nil {
				return err
			}
			refreshes++
			if m.LastRefresh().Kind == "patched" {
				patched++
			}
			refreshMs.add(float64(sp.dur()) / 1e6)
			selfExec.add(serverSelfMs(t.spans[pid-1], sp))
			agg.add(res.Stats)
			stmtRes["m"].add(res.Stats)
			if firstReq["m"] == 0 {
				firstReq["m"] = req
			}
		default: // query:written, query:unwritten
			_, kind, _ := strings.Cut(r.op, ":")
			var p *catalog.Prepared
			sp := t.call("catalog.Prepare", req, pid, func() { p, err = d.Prepare(texts[kind], join.Options{Mode: modes[kind]}) })
			if err != nil {
				return err
			}
			prepareMs.add(float64(sp.dur()) / 1e6)
			var res *join.Result
			sp2 := t.call("catalog.Prepared.Execute", req, pid, func() { res, err = p.Execute(join.Options{Parallelism: 1}) })
			if err != nil {
				return err
			}
			execMs.add(float64(sp2.dur()) / 1e6)
			agg.add(res.Stats)
			stmtRes[kind].add(res.Stats)
			if firstReq[kind] == 0 {
				firstReq[kind] = req
			}
		}
	}
	st1 := d.Stats()
	nw := float64(max(writes, 1))
	o.addLayer("server.self_ms.append", "ms", selfAppend.mean(), selfAppend.n)
	o.addLayer("server.self_ms.exec", "ms", selfExec.mean(), selfExec.n)
	o.addLayer("relation.with_inserted_us", "us", withInsUs.mean(), withInsUs.n)
	o.addLayer("durable.append_ms", "ms", appendMs.mean(), appendMs.n)
	o.addLayer("catalog.refresh_ms", "ms", refreshMs.mean(), refreshMs.n)
	o.addLayer("catalog.patch_ratio", "ratio", float64(patched)/math.Max(float64(refreshes), 1), refreshes)
	o.addLayer("catalog.prepare_ms", "ms", prepareMs.mean(), prepareMs.n)
	o.addLayer("catalog.plan_hit_ratio", "ratio",
		float64(st1.PlanHits-st0.PlanHits)/math.Max(float64(st1.PlanHits-st0.PlanHits+st1.PlanMisses-st0.PlanMisses), 1), prepareMs.n)
	o.addLayer("catalog.execute_ms", "ms", execMs.mean(), execMs.n)
	o.addLayer("catalog.delta_builds_per_write", "count", float64(st1.DeltaIndexBuilds-st0.DeltaIndexBuilds)/nw, writes)
	full := (st1.IndexBuilds - st1.DeltaIndexBuilds - st1.CompactionBuilds) - (st0.IndexBuilds - st0.DeltaIndexBuilds - st0.CompactionBuilds)
	o.addLayer("catalog.full_builds_per_write", "count", float64(full)/nw, writes)
	o.addLayer("catalog.compactions", "count", float64(st1.Compactions-st0.Compactions), writes)
	o.addLayer("index.max_layer_depth", "count", float64(maxDepth), writes)
	o.addLayer("wal.bytes_per_user_byte", "ratio", float64(walBytes)/math.Max(float64(userAppended), 1), writes)
	agg.report(o, false)

	// Checkpoint: time and the bytes of the files it wrote.
	files := func() map[string]int64 {
		out := map[string]int64{}
		filepath.Walk(filepath.Join(dir, "db"), func(p string, info os.FileInfo, err error) error {
			if err == nil && info.Mode().IsRegular() {
				out[p] = info.Size()
			}
			return nil
		})
		return out
	}
	old := files()
	sp := t.call("durable.Catalog.Checkpoint", 0, 0, func() { err = d.Checkpoint() })
	if err != nil {
		return err
	}
	var ckptBytes int64
	for p, size := range files() {
		if _, ok := old[p]; !ok {
			ckptBytes += size
		}
	}
	o.addLayer("durable.checkpoint_ms", "ms", float64(sp.dur())/1e6, 1)
	o.addLayer("durable.checkpoint_bytes", "bytes", float64(ckptBytes), 1)

	// Freeze and reload every index the catalog holds.
	var freezeMs, loadMs acc
	for _, st := range []*stmt{in.path, in.tri} {
		for _, r := range st.rels {
			set := d.IndexSet(r.Name())
			if set == nil {
				continue
			}
			for _, spec := range set.SpecList() {
				ix, _, err := set.Get(spec)
				if err != nil {
					return err
				}
				var words []uint64
				var ok bool
				sp := t.call("index.FreezeIndex", 0, 0, func() { words, ok = index.FreezeIndex(ix) })
				if !ok {
					continue
				}
				freezeMs.add(float64(sp.dur()) / 1e6)
				sp = t.call("index.LoadIndex", 0, 0, func() { _, err = index.LoadIndex(set.Relation(), spec, words) })
				if err != nil {
					return err
				}
				loadMs.add(float64(sp.dur()) / 1e6)
			}
		}
	}
	o.addLayer("index.freeze_ms", "ms", freezeMs.mean(), freezeMs.n)
	o.addLayer("index.load_ms", "ms", loadMs.mean(), loadMs.n)

	// Reopen: recovery from the checkpoint just taken.
	if err := d.Close(); err != nil {
		return err
	}
	d = nil
	var d2 *durable.Catalog
	sp = t.call("durable.Open", 0, 0, func() { d2, err = durable.Open(filepath.Join(dir, "db"), durable.Options{}) })
	if err != nil {
		return err
	}
	info := d2.Recovery()
	d2.Close()
	o.addLayer("durable.open_ms", "ms", float64(sp.dur())/1e6, 1)
	o.addLayer("durable.replayed", "count", float64(info.Replayed), 1)
	o.addLayer("durable.indexes_loaded", "count", float64(info.IndexesLoaded), 1)

	// The WAL alone: append + fsync of each write's payload.
	fsys, err := wal.NewDirFS(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	log, err := wal.OpenLog(fsys, "bench.wal", 0, 0)
	if err != nil {
		return err
	}
	var walMs acc
	for i := 0; i < min(writes, 100); i++ {
		payload := mustJSON(map[string]any{"op": "append", "name": "m_R1", "tuples": in.writes[i].tuples})
		sp := t.call("wal.Log.Append+Sync", 0, 0, func() {
			if _, _, err = log.Append(payload); err == nil {
				err = log.Sync()
			}
		})
		if err != nil {
			return err
		}
		walMs.add(float64(sp.dur()) / 1e6)
	}
	log.Close()
	o.addLayer("wal.append_sync_ms", "ms", walMs.mean(), walMs.n)

	// Engine layers of the three statements the reader runs.
	written, err := join.NewQuery(in.path.q.Atoms()[:2]...)
	if err != nil {
		return err
	}
	lp := newLayerProbe(t, subSeed(b.seed, 200))
	for _, x := range []struct {
		kind, mode string
		q          *join.Query
	}{{"m", "reloaded", in.path.q}, {"written", "reloaded", written}, {"unwritten", in.tri.mode, in.tri.q}} {
		e := stmtRes[x.kind]
		if e.n == 0 {
			continue
		}
		if err := lp.probe(x.q, x.mode, firstReq[x.kind], e.res/float64(e.n)); err != nil {
			return err
		}
	}
	lp.report(o)
	return t.write(b.tracePath())
}
