// Package durable puts a write-ahead log and checkpoint snapshots
// underneath a catalog.Catalog, so that a process crash loses nothing
// that was acknowledged.
//
// Every mutation — Ingest, Append, Delete, Maintain — is applied to
// the in-memory catalog, then encoded as one JSON record, appended to
// the WAL, and fsynced before the call returns. The sync point IS the
// acknowledgement: an operation whose call returned nil error survives
// any crash; an operation whose call returned an error may or may not
// have reached disk and the caller must treat it as not-done. A failed
// append or sync poisons the durable catalog (every later mutation
// fails fast) because the in-memory state may then be ahead of the
// durable prefix — the only safe continuation is a restart, which
// recovers exactly the acknowledged prefix.
//
// Recovery is load-latest-checkpoint + replay-WAL-tail. A checkpoint
// serializes every relation's tuple snapshot plus its maintained index
// specs plus the registered maintained statements into a single
// CRC-framed record, published atomically (write temp, sync, rename);
// the WAL is then truncated, so replay cost is bounded by the work
// since the last checkpoint, not the lifetime of the database. Replay
// tolerates a torn final record (truncated away, the tail was never
// acknowledged) and detects mid-log corruption by offset; by default it
// recovers the last consistent prefix, with StrictReplay it refuses to
// open. Recovery is idempotent: reopening the same directory any
// number of times yields the same catalog.
package durable

import (
	"encoding/json"
	"fmt"
	"sync"

	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
	"tetrisjoin/internal/wal"
)

// WALName is the write-ahead log file inside the data directory.
// Exported so the crash-recovery fuzz harness can truncate and corrupt
// it by name when simulating crashes.
const WALName = "wal.log"

// WALPrevName is the previous WAL epoch: each checkpoint rotates the
// live log here instead of truncating it, so a checkpoint manifest
// that later fails validation can fall back to the prior manifest plus
// both epochs and still recover the full acknowledged prefix.
const WALPrevName = "wal-prev.log"

// defaultCheckpointEvery bounds WAL replay cost: after this many logged
// records a background checkpoint folds the log into a snapshot.
const defaultCheckpointEvery = 256

// Options configures opening a durable catalog.
type Options struct {
	// FS is the storage to recover from and log to. Nil means a DirFS
	// over the Dir argument of Open.
	FS wal.FS
	// Catalog configures the wrapped in-memory catalog.
	Catalog catalog.Options
	// CheckpointEvery is the number of logged records after which a
	// background checkpoint is taken. 0 means the default (256);
	// negative disables automatic checkpoints (Checkpoint can still be
	// called explicitly).
	CheckpointEvery int
	// StrictReplay refuses to open when the WAL has a mid-log CRC
	// mismatch, instead of recovering the last consistent prefix.
	StrictReplay bool
	// DisableIndexSegments makes checkpoints serialize tuple slabs only,
	// leaving every index to be rebuilt at recovery. For benchmarks and
	// comparisons; the default (false) freezes indexes into segments so
	// a clean restart performs zero index builds.
	DisableIndexSegments bool
	// Logf, when non-nil, receives recovery and checkpoint diagnostics.
	Logf func(format string, args ...any)
}

// RecoveryInfo reports what Open found and did.
type RecoveryInfo struct {
	// CheckpointLSN is the LSN covered by the checkpoint that was
	// loaded; 0 when recovery started from an empty state.
	CheckpointLSN uint64
	// LastLSN is the last applied LSN after recovery.
	LastLSN uint64
	// Replayed is the number of WAL tail records applied on top of the
	// checkpoint.
	Replayed int
	// Relations and Maintained count what the recovered catalog holds.
	Relations  int
	Maintained int
	// TornTail is true when a torn final record was truncated away.
	TornTail bool
	// CorruptOffset is the byte offset of a mid-log CRC mismatch, or -1
	// when the log was clean. Non-negative only with StrictReplay off —
	// the log was truncated to the last consistent prefix.
	CorruptOffset int64
	// SegmentRelations counts relations materialized from segment files
	// (as opposed to replayed from WAL records).
	SegmentRelations int
	// IndexesLoaded counts indexes loaded zero-copy from frozen segment
	// sections; IndexesRebuilt counts manifest-listed index sections
	// that were missing or corrupt and had to be rebuilt from tuples.
	IndexesLoaded  int
	IndexesRebuilt int
	// CheckpointFallback is true when the newest manifest failed
	// validation and recovery used an older one (plus the previous WAL
	// epoch) instead.
	CheckpointFallback bool
}

// Catalog is a catalog.Catalog whose mutations are write-ahead logged.
// Read paths (Execute, Prepare, Relation, Stats, ...) are promoted from
// the embedded catalog unchanged; the mutation methods are shadowed
// with logging wrappers. Mutations are serialized by one mutex — the
// WAL is a single append stream — while reads stay concurrent.
type Catalog struct {
	*catalog.Catalog

	fsys wal.FS
	opts Options

	mu        sync.Mutex
	log       *wal.Log
	lastLSN   uint64 // last LSN applied to the catalog and logged
	ckptLSN   uint64 // LSN covered by the newest durable checkpoint
	sinceCkpt int    // records logged since that checkpoint
	broken    error  // sticky: set when an append/sync fails
	closed    bool
	maint     map[string]*maintEntry
	// segs tracks which segment file currently holds each relation and
	// at which version it was frozen — the churn detector that lets a
	// checkpoint skip re-serializing unchanged relations.
	segs map[string]segRef

	info        RecoveryInfo
	checkpoints int64

	ckptCh chan struct{} // kicks the background checkpoint worker
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// maintEntry pairs a live maintained statement with the durable record
// that recreates it on recovery.
type maintEntry struct {
	m   *catalog.Maintained
	rec maintRecord
}

// walOp is the JSON payload of one WAL record: exactly the arguments
// needed to re-apply the mutation against a recovering catalog. Mode is
// stored in its parseable form ("preloaded", not Mode.String()'s
// "tetris-preloaded"), and specs by family name, so records survive a
// round-trip through core.ParseMode and index.ParseFamily.
type walOp struct {
	Op     string             `json:"op"`
	Name   string             `json:"name,omitempty"`
	Rel    *relation.Snapshot `json:"rel,omitempty"`
	Specs  []specRecord       `json:"specs,omitempty"`
	Tuples [][]uint64         `json:"tuples,omitempty"`
	ID     string             `json:"id,omitempty"`
	Query  string             `json:"query,omitempty"`
	Mode   string             `json:"mode,omitempty"`
	SAO    []string           `json:"sao,omitempty"`
}

// specRecord is an index.Spec in durable form.
type specRecord struct {
	Family string   `json:"family"`
	Order  []string `json:"order,omitempty"`
}

// maintRecord is a maintained-statement registration in durable form.
type maintRecord struct {
	ID    string   `json:"id"`
	Query string   `json:"query"`
	Mode  string   `json:"mode,omitempty"`
	SAO   []string `json:"sao,omitempty"`
}

// Open recovers a durable catalog from dir (or opts.FS when set): load
// the newest valid checkpoint, replay the WAL tail on top, repair a
// torn tail, and resume logging where the last acknowledged record
// ended.
func Open(dir string, opts Options) (*Catalog, error) {
	fsys := opts.FS
	if fsys == nil {
		dfs, err := wal.NewDirFS(dir)
		if err != nil {
			return nil, err
		}
		fsys = dfs
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	ckpt, fellBack, err := loadNewestCheckpoint(fsys, opts.StrictReplay, logf)
	if err != nil {
		return nil, err
	}

	// Replay the previous WAL epoch only when it can matter: with no
	// manifest, or with a fallback manifest, the previous epoch holds
	// acknowledged records past the manifest actually loaded. A clean
	// newest manifest covers everything up to its own rotation point,
	// so wal-prev is skipped entirely.
	var prevRecords []wal.Record
	if ckpt == nil || ckpt.Fallback {
		prev, err := wal.Replay(fsys, WALPrevName)
		if err != nil {
			return nil, fmt.Errorf("durable: replay %s: %w", WALPrevName, err)
		}
		if prev.Corrupt != nil {
			if opts.StrictReplay {
				return nil, fmt.Errorf("durable: %w", prev.Corrupt)
			}
			logf("durable: %s: %v; recovering %d-byte prefix", WALPrevName, prev.Corrupt, prev.Size)
		}
		prevRecords = prev.Records
	}

	rep, err := wal.Replay(fsys, WALName)
	if err != nil {
		return nil, fmt.Errorf("durable: replay %s: %w", WALName, err)
	}
	if rep.Corrupt != nil {
		if opts.StrictReplay {
			return nil, fmt.Errorf("durable: %w", rep.Corrupt)
		}
		logf("durable: %v; recovering %d-byte prefix", rep.Corrupt, rep.Size)
	}

	d := &Catalog{
		Catalog: catalog.NewWithOptions(opts.Catalog),
		fsys:    fsys,
		opts:    opts,
		maint:   map[string]*maintEntry{},
		segs:    map[string]segRef{},
		info:    RecoveryInfo{CorruptOffset: -1},
	}
	if rep.Corrupt != nil {
		d.info.CorruptOffset = rep.Corrupt.Offset
	}
	d.info.TornTail = rep.TornTail

	// Rebuild the checkpointed state first: relations with their loaded
	// indexes registered and the remaining maintained specs ensured,
	// then the maintained statements — before the tail replays, so a
	// statement registered in the checkpoint sees the tail mutations as
	// ordinary deltas, exactly as it would have live. On a fully
	// segment-backed restart every spec arrives via Put, Ensure finds
	// them all present, and the catalog's build counter never moves.
	d.info.CheckpointFallback = fellBack
	if ckpt != nil {
		d.ckptLSN = ckpt.LSN
		d.lastLSN = ckpt.LSN
		d.info.CheckpointLSN = ckpt.LSN
		d.info.IndexesLoaded = ckpt.IndexesLoaded
		d.info.IndexesRebuilt = ckpt.IndexesRebuilt
		for _, lr := range ckpt.Relations {
			lr := lr
			_, err := d.Catalog.IngestPrepared(lr.rel, func(set *index.Set) error {
				for _, li := range lr.loaded {
					if err := set.Put(li.spec, li.ix); err != nil {
						return err
					}
				}
				return set.Ensure(append(append([]index.Spec{}, d.opts.Catalog.DefaultSpecs...), lr.specs...)...)
			})
			if err != nil {
				return nil, fmt.Errorf("durable: checkpoint relation %s: %w", lr.rel.Name(), err)
			}
			d.segs[lr.rel.Name()] = segRef{version: lr.rel.Version(), entry: lr.entry}
			d.info.SegmentRelations++
		}
		for _, mr := range ckpt.Maintained {
			if err := d.applyMaintain(mr); err != nil {
				return nil, fmt.Errorf("durable: checkpoint statement %q: %w", mr.ID, err)
			}
		}
	}

	// Replay the tail: previous epoch first (empty unless recovery fell
	// back), then the live log. Records at or below the loaded
	// manifest's LSN are already folded into its segments — they
	// reappear after a crash between manifest publish and rotation —
	// and are skipped, which is what makes repeated recovery
	// idempotent.
	for _, rec := range append(prevRecords, rep.Records...) {
		if rec.LSN <= d.ckptLSN {
			continue
		}
		var op walOp
		if err := json.Unmarshal(rec.Payload, &op); err != nil {
			return nil, fmt.Errorf("durable: record lsn=%d: %w", rec.LSN, err)
		}
		if err := d.applyOp(op); err != nil {
			return nil, fmt.Errorf("durable: record lsn=%d (%s): %w", rec.LSN, op.Op, err)
		}
		d.lastLSN = rec.LSN
		d.info.Replayed++
	}

	// Repair the live log to match what was applied: a torn or corrupt
	// tail is cut so appends resume on a consistent prefix.
	if rep.TornTail || rep.Corrupt != nil {
		if err := truncateIfExists(fsys, WALName, rep.Size); err != nil {
			return nil, fmt.Errorf("durable: repair %s: %w", WALName, err)
		}
	}

	lg, err := wal.OpenLog(fsys, WALName, rep.Size, d.lastLSN)
	if err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", WALName, err)
	}
	d.log = lg
	d.sinceCkpt = d.info.Replayed
	d.info.LastLSN = d.lastLSN
	d.info.Relations = len(d.Catalog.Names())
	d.info.Maintained = len(d.maint)
	logf("durable: recovered %d relations, %d statements (checkpoint lsn=%d, %d replayed, %d indexes loaded, %d rebuilt, torn=%v)",
		d.info.Relations, d.info.Maintained, d.info.CheckpointLSN, d.info.Replayed, d.info.IndexesLoaded, d.info.IndexesRebuilt, d.info.TornTail)

	if every := d.checkpointEvery(); every > 0 {
		d.ckptCh = make(chan struct{}, 1)
		d.stopCh = make(chan struct{})
		d.wg.Add(1)
		go d.checkpointLoop()
	}
	return d, nil
}

// checkpointEvery resolves the configured auto-checkpoint interval:
// 0 → default, negative → disabled.
func (d *Catalog) checkpointEvery() int {
	switch {
	case d.opts.CheckpointEvery < 0:
		return 0
	case d.opts.CheckpointEvery == 0:
		return defaultCheckpointEvery
	default:
		return d.opts.CheckpointEvery
	}
}

// Recovery returns what Open found and did.
func (d *Catalog) Recovery() RecoveryInfo { return d.info }

// Err returns the sticky poisoning error, or nil while the durable
// catalog is healthy.
func (d *Catalog) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.broken
}

// usable gates every mutation.
func (d *Catalog) usable() error {
	if d.broken != nil {
		return fmt.Errorf("durable: log poisoned by earlier failure: %w", d.broken)
	}
	if d.closed {
		return fmt.Errorf("durable: catalog closed")
	}
	return nil
}

// logOp encodes and durably appends one mutation record; the fsync
// before return is the acknowledgement point. Any failure poisons the
// catalog: the in-memory state may now be ahead of the durable prefix,
// and only a restart reconciles them.
func (d *Catalog) logOp(op walOp) error {
	payload, err := json.Marshal(op)
	if err != nil {
		d.broken = err
		return fmt.Errorf("durable: encode %s: %w", op.Op, err)
	}
	if _, _, err := d.log.Append(payload); err != nil {
		d.broken = err
		return fmt.Errorf("durable: append %s: %w", op.Op, err)
	}
	if err := d.log.Sync(); err != nil {
		d.broken = err
		return fmt.Errorf("durable: sync %s: %w", op.Op, err)
	}
	d.lastLSN = d.log.LastLSN()
	d.sinceCkpt++
	if every := d.checkpointEvery(); every > 0 && d.sinceCkpt >= every {
		select {
		case d.ckptCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// Ingest registers a relation and logs it durably.
func (d *Catalog) Ingest(rel *relation.Relation, specs ...index.Spec) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usable(); err != nil {
		return 0, err
	}
	v, err := d.Catalog.Ingest(rel, specs...)
	if err != nil {
		return 0, err
	}
	snap := rel.Snapshot()
	if err := d.logOp(walOp{Op: "ingest", Rel: &snap, Specs: specsToRecords(specs)}); err != nil {
		return 0, err
	}
	return v, nil
}

// Append inserts tuples into a relation and logs the delta durably.
func (d *Catalog) Append(name string, tuples ...relation.Tuple) (uint64, error) {
	return d.mutate("append", name, tuples)
}

// Delete removes tuples from a relation and logs the delta durably.
func (d *Catalog) Delete(name string, tuples ...relation.Tuple) (uint64, error) {
	return d.mutate("delete", name, tuples)
}

func (d *Catalog) mutate(op, name string, tuples []relation.Tuple) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usable(); err != nil {
		return 0, err
	}
	var (
		v   uint64
		err error
	)
	if op == "append" {
		v, err = d.Catalog.Append(name, tuples...)
	} else {
		v, err = d.Catalog.Delete(name, tuples...)
	}
	if err != nil {
		return 0, err
	}
	if err := d.logOp(walOp{Op: op, Name: name, Tuples: tuplesToRaw(tuples)}); err != nil {
		return 0, err
	}
	return v, nil
}

// Maintain registers a maintained statement under a caller-chosen id
// and logs the registration durably, so recovery re-materializes it.
// Only Mode and SAOVars of opts are durable state; the rest is
// per-execution tuning that callers pass to Execute.
func (d *Catalog) Maintain(id, query string, opts join.Options) (*catalog.Maintained, error) {
	if id == "" {
		return nil, fmt.Errorf("durable: maintained statement needs a non-empty id")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usable(); err != nil {
		return nil, err
	}
	if _, ok := d.maint[id]; ok {
		return nil, fmt.Errorf("durable: maintained statement %q already exists", id)
	}
	m, err := d.Catalog.Maintain(query, opts)
	if err != nil {
		return nil, err
	}
	rec := maintRecord{ID: id, Query: query, Mode: modeString(opts.Mode), SAO: opts.SAOVars}
	if err := d.logOp(walOp{Op: "maintain", ID: rec.ID, Query: rec.Query, Mode: rec.Mode, SAO: rec.SAO}); err != nil {
		return nil, err
	}
	d.maint[id] = &maintEntry{m: m, rec: rec}
	return m, nil
}

// MaintainedByID returns the live maintained statement registered under
// the id, if any.
func (d *Catalog) MaintainedByID(id string) (*catalog.Maintained, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.maint[id]
	if !ok {
		return nil, false
	}
	return e.m, true
}

// applyOp re-applies one WAL record during recovery. These records were
// produced after a successful catalog apply, so failure here means the
// log and the code disagree — a hard error, not something to skip.
func (d *Catalog) applyOp(op walOp) error {
	switch op.Op {
	case "ingest":
		if op.Rel == nil {
			return fmt.Errorf("ingest record without relation")
		}
		rel, err := relation.FromSnapshot(*op.Rel)
		if err != nil {
			return err
		}
		specs, err := specsFromRecords(op.Specs)
		if err != nil {
			return err
		}
		_, err = d.Catalog.Ingest(rel, specs...)
		return err
	case "append":
		_, err := d.Catalog.Append(op.Name, rawToTuples(op.Tuples)...)
		return err
	case "delete":
		_, err := d.Catalog.Delete(op.Name, rawToTuples(op.Tuples)...)
		return err
	case "maintain":
		return d.applyMaintain(maintRecord{ID: op.ID, Query: op.Query, Mode: op.Mode, SAO: op.SAO})
	default:
		return fmt.Errorf("unknown op %q", op.Op)
	}
}

// applyMaintain re-materializes a maintained statement from its durable
// record, at whatever catalog state recovery has reached — mid-tail
// registrations then see the remaining tail as live deltas.
func (d *Catalog) applyMaintain(rec maintRecord) error {
	mode, err := core.ParseMode(rec.Mode)
	if err != nil {
		return err
	}
	m, err := d.Catalog.Maintain(rec.Query, join.Options{Mode: mode, SAOVars: rec.SAO})
	if err != nil {
		return err
	}
	d.maint[rec.ID] = &maintEntry{m: m, rec: rec}
	return nil
}

// WALStats reports the durable layer's position.
type WALStats struct {
	LastLSN         uint64
	CheckpointLSN   uint64
	SinceCheckpoint int
	WALSize         int64
	Checkpoints     int64
	Broken          bool
}

// WAL returns the current durable-layer counters.
func (d *Catalog) WAL() WALStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return WALStats{
		LastLSN:         d.lastLSN,
		CheckpointLSN:   d.ckptLSN,
		SinceCheckpoint: d.sinceCkpt,
		WALSize:         d.log.Size(),
		Checkpoints:     d.checkpoints,
		Broken:          d.broken != nil,
	}
}

// checkpointLoop runs auto-checkpoints off the mutation path. The
// worker holds the mutation mutex while snapshotting, so writers stall
// during a fold but never pay its cost inside their own ack latency
// accounting; kicks are coalesced through the 1-buffered channel.
func (d *Catalog) checkpointLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.stopCh:
			return
		case <-d.ckptCh:
			if err := d.Checkpoint(); err != nil && d.opts.Logf != nil {
				d.opts.Logf("durable: auto checkpoint: %v", err)
			}
		}
	}
}

// Close stops the checkpoint worker, waits for in-flight index
// compactions, and closes the log. The state on disk remains exactly
// the acknowledged prefix.
func (d *Catalog) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	stop := d.stopCh
	d.mu.Unlock()
	if stop != nil {
		close(stop)
		d.wg.Wait()
	}
	d.Catalog.WaitCompactions()
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Close()
}

// truncateIfExists truncates the named file, treating a missing file
// as already truncated.
func truncateIfExists(fsys wal.FS, name string, size int64) error {
	if _, err := fsys.ReadFile(name); err != nil {
		return nil
	}
	return fsys.Truncate(name, size)
}

// modeString is core.ParseMode's inverse: the durable spelling of a
// mode. Mode.String() is deliberately NOT used — its "tetris-" prefixed
// names do not parse back.
func modeString(m core.Mode) string {
	switch m {
	case core.Preloaded:
		return "preloaded"
	case core.ReloadedLB:
		return "reloaded-lb"
	case core.PreloadedLB:
		return "preloaded-lb"
	default:
		return "reloaded"
	}
}

func specToRecord(s index.Spec) specRecord {
	return specRecord{Family: s.Family.String(), Order: append([]string(nil), s.Order...)}
}

func specFromRecord(r specRecord) (index.Spec, error) {
	fam, err := index.ParseFamily(r.Family)
	if err != nil {
		return index.Spec{}, err
	}
	return index.Spec{Family: fam, Order: append([]string(nil), r.Order...)}, nil
}

func specsToRecords(specs []index.Spec) []specRecord {
	if len(specs) == 0 {
		return nil
	}
	out := make([]specRecord, len(specs))
	for i, s := range specs {
		out[i] = specToRecord(s)
	}
	return out
}

func specsFromRecords(recs []specRecord) ([]index.Spec, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	out := make([]index.Spec, len(recs))
	for i, r := range recs {
		s, err := specFromRecord(r)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func tuplesToRaw(tuples []relation.Tuple) [][]uint64 {
	out := make([][]uint64, len(tuples))
	for i, t := range tuples {
		out[i] = append([]uint64(nil), t...)
	}
	return out
}

func rawToTuples(raw [][]uint64) []relation.Tuple {
	out := make([]relation.Tuple, len(raw))
	for i, t := range raw {
		out[i] = relation.Tuple(t)
	}
	return out
}
