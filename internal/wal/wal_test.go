package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fill appends n records "rec-<i>" (1-based LSNs) and syncs after each,
// returning the per-record end offsets.
func fill(t *testing.T, l *Log, n int) []int64 {
	t.Helper()
	ends := make([]int64, n)
	for i := 0; i < n; i++ {
		lsn, end, err := l.Append([]byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("append %d assigned LSN %d, want %d", i, lsn, i+1)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
		ends[i] = end
	}
	return ends
}

func TestLogRoundTrip(t *testing.T) {
	for _, impl := range []struct {
		name string
		fsys FS
	}{
		{"memfs", NewMemFS()},
		{"dirfs", mustDirFS(t)},
	} {
		t.Run(impl.name, func(t *testing.T) {
			l, err := OpenLog(impl.fsys, "wal.log", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			ends := fill(t, l, 5)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			res, err := Replay(impl.fsys, "wal.log")
			if err != nil {
				t.Fatal(err)
			}
			if res.TornTail || res.Corrupt != nil {
				t.Fatalf("clean log replayed torn=%v corrupt=%v", res.TornTail, res.Corrupt)
			}
			if len(res.Records) != 5 || res.LastLSN != 5 || res.Size != ends[4] {
				t.Fatalf("replay got %d records, LastLSN %d, size %d; want 5, 5, %d",
					len(res.Records), res.LastLSN, res.Size, ends[4])
			}
			for i, r := range res.Records {
				if want := fmt.Sprintf("rec-%d", i); !bytes.Equal(r.Payload, []byte(want)) {
					t.Fatalf("record %d payload %q, want %q", i, r.Payload, want)
				}
				if r.End != ends[i] {
					t.Fatalf("record %d end %d, want %d", i, r.End, ends[i])
				}
			}
		})
	}
}

func mustDirFS(t *testing.T) *DirFS {
	t.Helper()
	fsys, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return fsys
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	res, err := Replay(NewMemFS(), "absent.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 || res.Size != 0 || res.TornTail || res.Corrupt != nil {
		t.Fatalf("missing file replayed %+v, want empty", res)
	}
}

// Truncating the log at every possible byte offset must always recover
// the longest record prefix that fits, flagging a torn tail exactly
// when the cut lands mid-record.
func TestReplayTornTailEveryOffset(t *testing.T) {
	fsys := NewMemFS()
	l, err := OpenLog(fsys, "wal.log", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ends := fill(t, l, 4)
	data, err := fsys.ReadFile("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(0); cut <= int64(len(data)); cut++ {
		img := fsys.Clone()
		if err := img.Truncate("wal.log", cut); err != nil {
			t.Fatal(err)
		}
		res, err := Replay(img, "wal.log")
		if err != nil {
			t.Fatal(err)
		}
		if res.Corrupt != nil {
			t.Fatalf("cut %d: truncation misclassified as corruption: %v", cut, res.Corrupt)
		}
		want := 0
		for _, end := range ends {
			if end <= cut {
				want++
			}
		}
		if len(res.Records) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(res.Records), want)
		}
		atBoundary := cut == 0
		for _, end := range ends {
			if cut == end {
				atBoundary = true
			}
		}
		if res.TornTail == atBoundary {
			t.Fatalf("cut %d: TornTail=%v, boundary=%v", cut, res.TornTail, atBoundary)
		}
		if want > 0 && res.Size != ends[want-1] {
			t.Fatalf("cut %d: valid size %d, want %d", cut, res.Size, ends[want-1])
		}
	}
}

// A flipped byte strictly inside the log is corruption with the damaged
// record's exact start offset; in the final record it is
// indistinguishable from a torn tail and classified as such. Either
// way the consistent prefix before the damage is recovered.
func TestReplayCorruptionClassification(t *testing.T) {
	fsys := NewMemFS()
	l, err := OpenLog(fsys, "wal.log", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ends := fill(t, l, 4)
	starts := []int64{0, ends[0], ends[1], ends[2]}
	data, _ := fsys.ReadFile("wal.log")
	for off := int64(0); off < int64(len(data)); off++ {
		img := fsys.Clone()
		if err := img.FlipByte("wal.log", off); err != nil {
			t.Fatal(err)
		}
		res, err := Replay(img, "wal.log")
		if err != nil {
			t.Fatal(err)
		}
		// Which record did we damage?
		hit := 0
		for i, s := range starts {
			if off >= s {
				hit = i
			}
		}
		if len(res.Records) != hit {
			t.Fatalf("flip at %d (record %d): recovered %d records, want %d", off, hit, len(res.Records), hit)
		}
		switch {
		case res.Corrupt != nil:
			if res.Corrupt.Offset != starts[hit] {
				t.Fatalf("flip at %d: corrupt offset %d, want record start %d", off, res.Corrupt.Offset, starts[hit])
			}
		case res.TornTail:
			// Legitimate only for the final record, or for a damaged
			// length field that makes the record claim to run past EOF —
			// by design indistinguishable from a torn final write.
			inLength := off >= starts[hit]+8 && off < starts[hit]+12
			if hit < 3 && !inLength {
				t.Fatalf("flip at %d (record %d): mid-log damage classified as torn tail", off, hit)
			}
		default:
			t.Fatalf("flip at %d: neither corrupt nor torn", off)
		}
		if hit > 0 && res.Size != ends[hit-1] {
			t.Fatalf("flip at %d: size %d, want %d", off, res.Size, ends[hit-1])
		}
	}
}

func TestReplayRejectsNonMonotonicLSN(t *testing.T) {
	fsys := NewMemFS()
	f, err := fsys.OpenAppend("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(EncodeRecord(1, []byte("a")))
	f.Write(EncodeRecord(3, []byte("b")))
	dup := EncodeRecord(3, []byte("c"))
	f.Write(dup)
	res, err := Replay(fsys, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 || res.LastLSN != 3 {
		t.Fatalf("recovered %d records LastLSN %d, want 2 and 3", len(res.Records), res.LastLSN)
	}
	if res.Corrupt == nil || !strings.Contains(res.Corrupt.Reason, "LSN") {
		t.Fatalf("duplicate LSN not reported as corruption: %+v", res.Corrupt)
	}
}

// A failed sync that persists only part of the pending record (a torn
// write) must leave a crash image that replays to the pre-append state,
// and the log must be poisoned for every later operation.
func TestTornWriteInjectionPoisonsLog(t *testing.T) {
	fsys := NewMemFS()
	l, err := OpenLog(fsys, "wal.log", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 2)
	fail := true
	fsys.SyncHook = func(name string, pending int) (int, bool) {
		if fail {
			return pending / 2, true // tear the record
		}
		return pending, false
	}
	if _, _, err := l.Append([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err == nil {
		t.Fatal("injected sync failure not surfaced")
	}
	if _, _, err := l.Append([]byte("after")); err == nil {
		t.Fatal("append after failed sync succeeded; log must be poisoned")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync after failed sync succeeded; log must be poisoned")
	}

	img := fsys.CrashClone()
	res, err := Replay(img, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 || !res.TornTail || res.Corrupt != nil {
		t.Fatalf("crash image replayed %d records torn=%v corrupt=%v, want 2, torn, no corruption",
			len(res.Records), res.TornTail, res.Corrupt)
	}
}

// Reopening after a torn-tail repair resumes appending with the next
// LSN at the repaired size — the restart path.
func TestReopenAfterRepair(t *testing.T) {
	fsys := NewMemFS()
	l, err := OpenLog(fsys, "wal.log", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ends := fill(t, l, 3)
	// Tear the tail by hand.
	if err := fsys.Truncate("wal.log", ends[2]-1); err != nil {
		t.Fatal(err)
	}
	res, err := Replay(fsys, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 || !res.TornTail {
		t.Fatalf("replay after tear: %d records torn=%v", len(res.Records), res.TornTail)
	}
	if err := fsys.Truncate("wal.log", res.Size); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(fsys, "wal.log", res.Size, res.LastLSN)
	if err != nil {
		t.Fatal(err)
	}
	lsn, _, err := l2.Append([]byte("resumed"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 3 {
		t.Fatalf("resumed LSN %d, want 3", lsn)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	res2, err := Replay(fsys, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Records) != 3 || res2.TornTail || res2.Corrupt != nil {
		t.Fatalf("post-repair replay %d records torn=%v corrupt=%v", len(res2.Records), res2.TornTail, res2.Corrupt)
	}
	if string(res2.Records[2].Payload) != "resumed" {
		t.Fatalf("final payload %q", res2.Records[2].Payload)
	}
}

// TestDirFSRoundTrip drives every FS method of the production DirFS
// over a real directory: create-or-append, read, truncate, rename over
// an existing name, remove, list.
func TestDirFSRoundTrip(t *testing.T) {
	fsys := mustDirFS(t)
	write := func(name, data string) {
		t.Helper()
		f, err := fsys.OpenAppend(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(data)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	read := func(name string) string {
		t.Helper()
		b, err := fsys.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	write("a", "hello")
	write("a", " world") // reopening appends, never truncates
	if got := read("a"); got != "hello world" {
		t.Fatalf("a = %q", got)
	}
	if err := fsys.Truncate("a", 5); err != nil {
		t.Fatal(err)
	}
	write("b", "stale")
	if err := fsys.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	if got := read("b"); got != "hello" {
		t.Fatalf("renamed b = %q, want the replacing contents", got)
	}
	if _, err := fsys.ReadFile("a"); !os.IsNotExist(err) {
		t.Fatalf("renamed-away a still readable: %v", err)
	}
	if err := os.Mkdir(filepath.Join(fsys.Dir(), "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	write("c", "x")
	names, err := fsys.List()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != "b,c" {
		t.Fatalf("List = %v, want [b c] (directories skipped)", names)
	}
	if err := fsys.Remove("c"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove("c"); !os.IsNotExist(err) {
		t.Fatalf("second remove: %v, want not-exist", err)
	}
	if _, err := fsys.OpenAppend(filepath.Join("missing", "x")); err == nil {
		t.Fatal("open under a missing directory succeeded")
	}
}
