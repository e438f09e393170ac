package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
	"tetrisjoin/internal/workload"
)

const (
	// writeRate is the open-loop writer's append rate per second.
	writeRate = 20
	// restarts is how many kill -9 / restart cycles the restart phase
	// runs (enough for recover_ms's median to be supported), and
	// restartEvery how many acknowledged appends precede each kill.
	restarts     = 20
	restartEvery = 10
)

// ingestData is ingest-maintain's input: a maintained 3-path whose
// relations take every write, an unwritten triangle for ad-hoc queries,
// and the seeded append stream.
type ingestData struct {
	path   *stmt // maintained; relations m_R1..m_R3
	tri    *stmt // never written
	writes []ingestWrite
	// written is the ad-hoc query over two of the written relations.
	written string
}

type ingestWrite struct {
	rel    int // index into path.rels
	tuples [][]uint64
}

func newIngestData(seed int64, n int) (*ingestData, error) {
	path, err := newStmt("m", "reloaded", workload.PathQuery(3, 1000, 12, subSeed(seed, 60)))
	if err != nil {
		return nil, err
	}
	tri, err := newStmt("u", "preloaded", workload.TriangleAGMStar(64, 12))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 61)))
	writes := make([]ingestWrite, n)
	for i := range writes {
		w := ingestWrite{rel: i % len(path.rels)}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			w.tuples = append(w.tuples, []uint64{uint64(rng.Intn(1 << 12)), uint64(rng.Intn(1 << 12))})
		}
		writes[i] = w
	}
	a, b := path.q.Atoms()[0], path.q.Atoms()[1]
	written := fmt.Sprintf("%s(A1,A2), %s(A2,A3)", a.Relation.Name(), b.Relation.Name())
	return &ingestData{path: path, tri: tri, writes: writes, written: written}, nil
}

func (in *ingestData) appendLine(i int) []byte {
	w := in.writes[i]
	return mustJSON(map[string]any{"op": "append", "name": in.path.rels[w.rel].Name(), "tuples": w.tuples})
}

// model is the client's own copy of the written relations after a
// prefix of the write stream, with the reference answers over it.
type model struct {
	in   *ingestData
	memo map[string]answer
}

// relationsAt rebuilds the path's relations after the first k writes.
func (m *model) relationsAt(k int) []*relation.Relation {
	rels := make([]*relation.Relation, len(m.in.path.rels))
	for i, r := range m.in.path.rels {
		rels[i] = r.Clone(r.Name())
	}
	for _, w := range m.in.writes[:k] {
		for _, t := range w.tuples {
			rels[w.rel].MustInsert(t...)
		}
	}
	return rels
}

// answerAt is the reference answer of query kind ("m", "written", or
// "rel<i>") after the first k writes.
func (m *model) answerAt(kind string, k int) (answer, error) {
	key := kind + "@" + strconv.Itoa(k)
	if a, ok := m.memo[key]; ok {
		return a, nil
	}
	rels := m.relationsAt(k)
	var atoms []join.Atom
	switch kind {
	case "m":
		for i, a := range m.in.path.q.Atoms() {
			atoms = append(atoms, join.Atom{Relation: rels[i], Vars: a.Vars})
		}
	case "written":
		for i, a := range m.in.path.q.Atoms()[:2] {
			atoms = append(atoms, join.Atom{Relation: rels[i], Vars: a.Vars})
		}
	default:
		i, _ := strconv.Atoi(kind[len("rel"):])
		atoms = []join.Atom{{Relation: rels[i], Vars: []string{"X", "Y"}}}
	}
	q, err := join.NewQuery(atoms...)
	if err != nil {
		return answer{}, err
	}
	a, err := reference(q)
	if err != nil {
		return answer{}, err
	}
	m.memo[key] = a
	return a, nil
}

// matchesSome reports whether got is the answer after some prefix of
// length in [lo, hi].
func (m *model) matchesSome(kind string, got answer, lo, hi int) (bool, error) {
	for k := hi; k >= lo; k-- {
		a, err := m.answerAt(kind, k)
		if err != nil {
			return false, err
		}
		if a == got {
			return true, nil
		}
	}
	return false, nil
}

// ingestSession is a durable tetrisd with a writer and a reader
// connection.
type ingestSession struct {
	d       *daemon
	dir     string
	w, r    *conn
	initial []reply // maintain's first exec, then the two ad-hoc queries
}

func (b *bench) setupIngest(in *ingestData, dir string) (*ingestSession, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	d, err := b.start("-data-dir", dir)
	if err != nil {
		return nil, 0, err
	}
	s := &ingestSession{d: d, dir: dir}
	if s.w, err = dial(d.addr); err != nil {
		return nil, 0, err
	}
	if s.r, err = dial(d.addr); err != nil {
		return nil, 0, err
	}
	for _, st := range []*stmt{in.path, in.tri} {
		for _, rel := range st.rels {
			if _, err := s.w.do(loadLine(rel)); err != nil {
				return nil, 0, err
			}
		}
	}
	if _, err := s.r.do(mustJSON(map[string]any{"op": "maintain", "id": "m", "query": in.path.text, "mode": in.path.mode})); err != nil {
		return nil, 0, err
	}
	for _, line := range [][]byte{execLine(in.path), queryLine(in.written, "reloaded"), queryLine(in.tri.text, in.tri.mode)} {
		rep, err := s.r.do(line)
		if err != nil {
			return nil, 0, err
		}
		s.initial = append(s.initial, rep)
	}
	return s, time.Since(t0), nil
}

// setUpIngest sets a durable tetrisd up n times, each on a fresh data
// directory under base, adding each set-up's time to setups and
// checking its reads against the unwritten data, and returns the last
// session, still running.
func (b *bench) setUpIngest(o *outcome, mdl *model, base string, n int, setups *[]float64) (*ingestSession, error) {
	in := mdl.in
	wantM, err := mdl.answerAt("m", 0)
	if err != nil {
		return nil, err
	}
	wantW, err := mdl.answerAt("written", 0)
	if err != nil {
		return nil, err
	}
	var s *ingestSession
	for i := 0; i < n; i++ {
		if s != nil {
			s.close()
		}
		var took time.Duration
		if s, took, err = b.setupIngest(in, filepath.Join(base, strconv.Itoa(len(*setups)))); err != nil {
			return nil, err
		}
		*setups = append(*setups, took.Seconds())
		for j, want := range []answer{wantM, wantW, in.tri.want} {
			o.attempted++
			if got := s.initial[j].got; got != want {
				o.failed++
				o.defect("set-up read %s: tetrisd returned %v, reference %v", []string{"m", "written", "unwritten"}[j], got, want)
			}
		}
	}
	return s, nil
}

// close ends the connections and kills the server.
func (s *ingestSession) close() {
	s.w.close()
	s.r.close()
	s.d.kill()
}

func queryLine(text, mode string) []byte {
	return mustJSON(map[string]any{"op": "query", "query": text, "mode": mode})
}

// Reader request kinds, cycled in this order.
var readKinds = []string{"m", "written", "m", "unwritten"}

func runIngestMaintain(b *bench) (*outcome, error) {
	total := int(b.seconds*writeRate) + 2*writeRate + restarts*restartEvery
	in, err := newIngestData(b.seed, total)
	if err != nil {
		return nil, err
	}
	mdl := &model{in: in, memo: map[string]answer{}}
	o := &outcome{}
	base := filepath.Join(b.work, fmt.Sprintf("data-%s-%d", b.spec.name, b.seed))
	defer os.RemoveAll(base)

	// Half the set-ups run before the timed phase and the rest after the
	// restart phase, as on the served workloads.
	var setups []float64
	s, err := b.setUpIngest(o, mdl, base, setupRuns/2+1, &setups)
	if err != nil {
		return nil, err
	}
	o.count("setup.maintained_outputs", s.initial[0].resp.Outputs)

	// Timed phase: the writer sends on a fixed schedule over its own
	// connection (replies are read by a second goroutine, so a stall
	// queues later appends instead of delaying their send), while the
	// reader runs closed-loop.
	var before map[string]float64
	if b.trace {
		if before, err = s.d.scrape(); err != nil {
			return nil, err
		}
	}
	cpu0, err := s.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(time.Duration(b.seconds * float64(time.Second)))
	nWrites := int(b.seconds * writeRate)
	interval := time.Second / writeRate
	due := make([]time.Time, nWrites)
	sent := make([]time.Time, nWrites)
	acks := make([]reply, nWrites)
	var sendErr, recvErr, readErr error
	var reads []reqRecord
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // writer: send side
		defer wg.Done()
		for i := 0; i < nWrites; i++ {
			due[i] = start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(due[i]))
			if sent[i], sendErr = s.w.send(in.appendLine(i)); sendErr != nil {
				return
			}
		}
	}()
	go func() { // writer: receive side
		defer wg.Done()
		for i := 0; i < nWrites; i++ {
			if acks[i], recvErr = s.w.recv(); recvErr != nil {
				return
			}
		}
	}()
	go func() { // reader
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			kind := readKinds[i%len(readKinds)]
			var line []byte
			switch kind {
			case "m":
				line = execLine(in.path)
			case "written":
				line = queryLine(in.written, "reloaded")
			default:
				line = queryLine(in.tri.text, in.tri.mode)
			}
			rep, err := s.r.do(line)
			if err != nil && rep.end.IsZero() {
				readErr = err
				return
			}
			op := "query"
			if kind == "m" {
				op = "exec"
			}
			rec := record(-1, op+":"+kind, rep)
			rec.refused = err != nil
			reads = append(reads, rec)
		}
	}()
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	cpu1, err := s.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	if sendErr != nil {
		return nil, fmt.Errorf("writer: %w", sendErr)
	}
	if recvErr != nil {
		return nil, fmt.Errorf("writer: %w", recvErr)
	}
	if readErr != nil {
		return nil, fmt.Errorf("reader: %w", readErr)
	}

	// Off the clock: check every read against the prefixes of the write
	// stream it may reflect.
	var writes []reqRecord
	var appendMs, lateMs []float64
	for i := range acks {
		rec := record(-1, "append", acks[i])
		rec.sent = sent[i]
		writes = append(writes, rec)
		appendMs = append(appendMs, float64(acks[i].end.Sub(due[i]).Nanoseconds())/1e6)
		lateMs = append(lateMs, float64(sent[i].Sub(due[i]).Nanoseconds())/1e6)
		o.attempted++
		if !acks[i].resp.OK {
			o.failed++
			o.defect("append %d refused: %s", i, acks[i].resp.Err)
		}
	}
	byKind := map[string][]float64{}
	var tuples int64
	for i := range reads {
		r := &reads[i]
		_, kind, _ := strings.Cut(r.op, ":")
		o.attempted++
		if r.refused {
			o.failed++
			o.defect("%s refused", r.op)
			continue
		}
		byKind[kind] = append(byKind[kind], r.ms())
		if kind == "m" && i > 0 {
			after := "after_" + readKinds[(i-1)%len(readKinds)]
			byKind[after] = append(byKind[after], r.ms())
		}
		tuples += r.tuples
		// The answer reflects at least every write acknowledged before the
		// read was sent and at most every write sent before it returned.
		lo, hi := 0, 0
		for _, w := range writes {
			if !w.end.After(r.sent) {
				lo++
			}
			if w.sent.Before(r.end) {
				hi++
			}
		}
		var ok bool
		if kind == "unwritten" {
			ok = r.got == in.tri.want
		} else {
			ok, err = mdl.matchesSome(kind, r.got, lo, hi)
			if err != nil {
				return nil, err
			}
		}
		if !ok {
			o.failed++
			o.defect("%s: %v matches no write prefix in [%d, %d]", r.op, r.got, lo, hi)
		}
	}
	rss, err := s.d.peakRSSMB()
	if err != nil {
		return nil, err
	}

	// A refresh right after the ad-hoc query over the written relations
	// costs several times less than one after the query over the
	// unwritten ones, and the reader alternates the two; each context's
	// median is printed beside the pooled one.
	exec := byKind["m"]
	for _, after := range []string{"after_written", "after_unwritten"} {
		xs := byKind[after]
		v, ok := percentile(xs, 0.5)
		o.e2e = append(o.e2e, metric{name: "exec_p50_ms." + after, unit: "ms", value: v, n: len(xs), ok: ok})
	}
	o.addPercentile("exec_p50_ms", exec, 0.5)
	o.addPercentile("exec_p99_ms", exec, 0.99)
	o.addPercentile("append_p50_ms", appendMs, 0.5)
	o.addPercentile("append_p99_ms", appendMs, 0.99)
	o.addPercentile("refresh_p50_ms", exec, 0.5)
	o.addPercentile("refresh_p90_ms", exec, 0.9)
	qw, okW := percentile(byKind["written"], 0.5)
	qu, okU := percentile(byKind["unwritten"], 0.5)
	nq := len(byKind["written"]) + len(byKind["unwritten"])
	o.e2e = append(o.e2e,
		metric{name: "query_p50_ms.written", unit: "ms", value: qw, n: len(byKind["written"]), ok: okW},
		metric{name: "query_p50_ms.unwritten", unit: "ms", value: qu, n: len(byKind["unwritten"]), ok: okU},
		metric{name: "query_p50_ms", unit: "ms", value: geomean([]float64{qw, qu}), n: nq, ok: okW && okU})
	o.addPercentile("query_p90_ms", append(append([]float64(nil), byKind["written"]...), byKind["unwritten"]...), 0.9)
	nOps := len(writes) + len(reads)
	o.add("ops_per_s", "1/s", float64(nOps)/elapsed, nOps)
	o.add("tuples_per_s", "1/s", float64(tuples)/elapsed, len(reads))
	o.addCPU(cpu0, cpu1, nOps)
	o.add("rss_peak_mb", "MiB", rss, 1)

	var tr *ingestTrace
	if b.trace {
		if tr, err = b.traceIngestProtocol(o, s, writes, reads, lateMs, before); err != nil {
			return nil, err
		}
	}

	// Restart phase.
	s.w.close()
	s.r.close()
	next := nWrites
	var recoverMs []float64
	var rebuilt []float64
	d := s.d
	for round := 0; round < restarts; round++ {
		c, err := dial(d.addr)
		if err != nil {
			return nil, err
		}
		for j := 0; j < restartEvery; j++ {
			o.attempted++
			if _, err := c.do(in.appendLine(next)); err != nil {
				return nil, fmt.Errorf("restart phase append: %w", err)
			}
			next++
		}
		c.close()
		d.kill()
		killed := time.Now()
		if d, err = b.start("-data-dir", s.dir); err != nil {
			return nil, err
		}
		if c, err = dial(d.addr); err != nil {
			return nil, err
		}
		first, err := c.do(execLine(in.path))
		if err != nil {
			return nil, fmt.Errorf("first exec after restart: %w", err)
		}
		recoverMs = append(recoverMs, float64(first.end.Sub(killed).Nanoseconds())/1e6)
		n, err := recoveredRebuilt(d.log())
		if err != nil {
			return nil, err
		}
		rebuilt = append(rebuilt, float64(n))

		// Every acknowledged append is present, and the maintained
		// result matches a recompute over the client's copy.
		o.attempted++
		if ok, err := mdl.matchesSome("m", first.got, next, next); err != nil {
			return nil, err
		} else if !ok {
			o.failed++
			o.defect("restart %d: maintained result %v differs from the recompute over acknowledged writes", round, first.got)
		}
		for i, rel := range in.path.rels {
			rep, err := c.do(queryLine(rel.Name()+"(X,Y)", "reloaded"))
			if err != nil {
				return nil, err
			}
			o.attempted++
			if ok, err := mdl.matchesSome("rel"+strconv.Itoa(i), rep.got, next, next); err != nil {
				return nil, err
			} else if !ok {
				o.failed++
				o.defect("restart %d: %s lost acknowledged appends: %v", round, rel.Name(), rep.got)
			}
			o.count(fmt.Sprintf("tuples.%s.after%d", rel.Name(), next), rep.got.n)
		}
		if round == restarts-1 {
			if _, err := c.do([]byte(`{"op":"checkpoint"}`)); err != nil {
				return nil, err
			}
		}
		c.close()
	}
	o.addPercentile("recover_ms", recoverMs, 0.5)
	stored, err := dirBytes(s.dir)
	if err != nil {
		return nil, err
	}
	user := userBytes(mdl.relationsAt(next)) + userBytes(in.tri.rels)
	o.add("stored_bytes_per_user_byte", "ratio", float64(stored)/float64(user), 1)
	d.kill()
	last, err := b.setUpIngest(o, mdl, base, setupRuns-len(setups), &setups)
	if err != nil {
		return nil, err
	}
	last.close()
	o.add("setup_s", "s", median(setups), len(setups))
	if tr != nil {
		o.addLayer("durable.indexes_rebuilt", "count", median(rebuilt), len(rebuilt))
		if err := b.traceIngestDirect(o, in, tr); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// recoveredLine matches tetrisd's recovery summary on stderr.
var recoveredLine = regexp.MustCompile(`recovered .* (\d+) indexes loaded, (\d+) rebuilt`)

func recoveredRebuilt(log []string) (int, error) {
	for i := len(log) - 1; i >= 0; i-- {
		if m := recoveredLine.FindStringSubmatch(log[i]); m != nil {
			return strconv.Atoi(m[2])
		}
	}
	return 0, fmt.Errorf("no recovery line in tetrisd's log")
}

// userBytes is the size of the relations' tuples as 8-byte values.
func userBytes(rels []*relation.Relation) int64 {
	var n int64
	for _, r := range rels {
		n += int64(len(r.Tuples()) * len(r.Attrs()) * 8)
	}
	return n
}
