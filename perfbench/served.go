package main

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// setupRuns is how many times a run sets tetrisd up from scratch;
// setup_s is their median.
const setupRuns = 11

// reqRecord is the client-side span of one timed request.
type reqRecord struct {
	stmt             int // index into the workload's statement list (-1: none)
	op               string
	sent, first, end time.Time
	tuples           int64
	tupleBytes       int64
	resolutions      int64
	refused          bool
	got              answer
}

func (r reqRecord) ms() float64 { return float64(r.end.Sub(r.sent).Nanoseconds()) / 1e6 }

func record(stmt int, op string, r reply) reqRecord {
	return reqRecord{stmt: stmt, op: op, sent: r.sent, first: r.first, end: r.end,
		tuples: r.got.n, tupleBytes: r.tupleBytes, resolutions: r.resp.Resolutions, got: r.got}
}

func runReadPrepared(b *bench) (*outcome, error) {
	stmts, err := readPreparedStmts(b.seed)
	if err != nil {
		return nil, err
	}
	return b.runServed(stmts)
}

func runExecParallel(b *bench) (*outcome, error) {
	stmts, err := execParallelStmts(b.seed)
	if err != nil {
		return nil, err
	}
	return b.runServed(stmts)
}

// served is a tetrisd set up with every statement loaded, prepared on
// every connection and executed once.
type served struct {
	d     *daemon
	conns []*conn
	sao   [][]string // per statement, as prepared
	first []reply    // the set-up execution of each statement
}

func (b *bench) setupServed(stmts []*stmt) (*served, time.Duration, error) {
	t0 := time.Now()
	d, err := b.start()
	if err != nil {
		return nil, 0, err
	}
	sv := &served{d: d}
	for i := 0; i < b.spec.conns; i++ {
		c, err := dial(d.addr)
		if err != nil {
			return nil, 0, err
		}
		sv.conns = append(sv.conns, c)
	}
	for _, s := range stmts {
		for _, r := range s.rels {
			if _, err := sv.conns[0].do(loadLine(r)); err != nil {
				return nil, 0, err
			}
		}
	}
	for ci, c := range sv.conns {
		for _, s := range stmts {
			r, err := c.do(mustJSON(map[string]any{"op": "prepare", "id": s.id, "query": s.text, "mode": s.mode}))
			if err != nil {
				return nil, 0, err
			}
			if !slices.Equal(r.resp.Vars, s.q.Vars()) {
				return nil, 0, fmt.Errorf("%s: tetrisd output columns %v, reference %v", s.id, r.resp.Vars, s.q.Vars())
			}
			if ci == 0 {
				sv.sao = append(sv.sao, r.resp.SAO)
			}
		}
	}
	for _, s := range stmts {
		r, err := sv.conns[0].do(execLine(s))
		if err != nil {
			return nil, 0, err
		}
		sv.first = append(sv.first, r)
	}
	return sv, time.Since(t0), nil
}

// close ends the connections and kills the server.
func (sv *served) close() {
	for _, c := range sv.conns {
		c.close()
	}
	sv.d.kill()
}

func execLine(s *stmt) []byte { return mustJSON(map[string]any{"op": "exec", "id": s.id}) }

// checkAnswer compares one execution with the statement's reference.
func checkAnswer(s *stmt, r reply) error {
	if r.got != s.want {
		return fmt.Errorf("%s: tetrisd returned %v, reference %v", s.id, r.got, s.want)
	}
	if s.checkSeq && r.seq != s.seq {
		return fmt.Errorf("%s: tuple sequence differs from the sequential run's", s.id)
	}
	return nil
}

// setUpServed sets tetrisd up n times from scratch, adding each
// set-up's time to setups and checking its answers, and returns the
// last server, still running.
func (b *bench) setUpServed(o *outcome, stmts []*stmt, n int, setups *[]float64) (*served, error) {
	var sv *served
	for i := 0; i < n; i++ {
		if sv != nil {
			sv.close()
		}
		var took time.Duration
		var err error
		if sv, took, err = b.setupServed(stmts); err != nil {
			return nil, err
		}
		*setups = append(*setups, took.Seconds())
		// The first set-up of a parallel workload records the tuple
		// sequence of a sequential run under the SAOs tetrisd picked.
		if b.spec.parallel() > 1 && !stmts[0].checkSeq {
			for si, s := range stmts {
				if err := s.withSeqCheck(sv.sao[si]); err != nil {
					return nil, err
				}
			}
		}
		for si, s := range stmts {
			o.attempted++
			if err := checkAnswer(s, sv.first[si]); err != nil {
				o.failed++
				o.defect("set-up: %v", err)
			}
		}
	}
	return sv, nil
}

// runServed is the closed-loop load generator shared by read-prepared and
// exec-parallel: set up, then every connection sends exec requests in
// its own seeded order until the time is up. Parallel executions must
// reproduce the sequential run's tuple sequence.
func (b *bench) runServed(stmts []*stmt) (*outcome, error) {
	o := &outcome{}
	// Half the set-ups run before the timed phase and the rest after it,
	// so a slow spell of the shared machine that lasts a few seconds
	// does not set setup_s.
	var setups []float64
	sv, err := b.setUpServed(o, stmts, setupRuns/2+1, &setups)
	if err != nil {
		return nil, err
	}

	// Resolution counts repeat exactly only on the sequential engine; the
	// work-stealing executor's split points depend on timing.
	exactResolutions := b.spec.parallel() == 1
	for si, s := range stmts {
		o.count("outputs."+s.id, sv.first[si].resp.Outputs)
		if exactResolutions {
			o.count("resolutions."+s.id, sv.first[si].resp.Resolutions)
		}
	}

	type connResult struct {
		recs   []reqRecord
		errs   []string
		failed int64
		fatal  error
	}
	results := make([]connResult, len(sv.conns))
	var before map[string]float64
	if b.trace {
		var err error
		if before, err = sv.d.scrape(); err != nil {
			return nil, err
		}
	}
	cpu0, err := sv.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(time.Duration(b.seconds * float64(time.Second)))
	groups := families(stmts)
	var wg sync.WaitGroup
	for ci, c := range sv.conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			res := &results[ci]
			sched := newSchedule(subSeed(b.seed, int64(100+ci)), groups)
			for time.Now().Before(deadline) {
				si := sched.next()
				r, err := c.do(execLine(stmts[si]))
				if err != nil && r.end.IsZero() {
					res.fatal = err
					return
				}
				res.recs = append(res.recs, record(si, "exec", r))
				if err == nil {
					err = checkAnswer(stmts[si], r)
				}
				if err != nil {
					res.failed++
					res.errs = append(res.errs, err.Error())
				}
			}
		}(ci, c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	cpu1, err := sv.d.cpuSeconds()
	if err != nil {
		return nil, err
	}

	var recs []reqRecord
	for _, res := range results {
		if res.fatal != nil {
			return nil, res.fatal
		}
		recs = append(recs, res.recs...)
		o.failed += res.failed
		for _, e := range res.errs {
			o.defect("%s", e)
		}
	}
	o.attempted += int64(len(recs))
	for _, r := range recs {
		s := stmts[r.stmt]
		if exactResolutions {
			o.count("resolutions."+s.id, r.resolutions)
		}
	}

	perStmt := make([][]float64, len(stmts))
	var all []float64
	var tuples int64
	for _, r := range recs {
		perStmt[r.stmt] = append(perStmt[r.stmt], r.ms())
		all = append(all, r.ms())
		tuples += r.tuples
	}
	var medians []float64
	supported := true
	for si, xs := range perStmt {
		v, ok := percentile(xs, 0.5)
		supported = supported && ok
		medians = append(medians, v)
		o.e2e = append(o.e2e, metric{name: "exec_p50_ms." + stmts[si].id, unit: "ms", value: v, n: len(xs), ok: ok})
	}
	o.e2e = append(o.e2e, metric{name: "exec_p50_ms", unit: "ms", value: familyGeomean(groups, medians), n: len(all), ok: supported})
	o.addPercentile("exec_p99_ms", all, 0.99)
	o.add("ops_per_s", "1/s", float64(len(recs))/elapsed, len(recs))
	o.add("tuples_per_s", "1/s", float64(tuples)/elapsed, len(recs))
	o.addCPU(cpu0, cpu1, len(recs))
	rss, err := sv.d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.add("rss_peak_mb", "MiB", rss, 1)

	if b.trace {
		if err := b.traceServed(o, sv, stmts, recs, before); err != nil {
			return nil, err
		}
	}
	sv.close()
	if sv, err = b.setUpServed(o, stmts, setupRuns-len(setups), &setups); err != nil {
		return nil, err
	}
	sv.close()
	o.add("setup_s", "s", median(setups), len(setups))
	return o, nil
}
