package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// Record framing, fixed 16-byte header followed by the payload:
//
//	[0:8)   LSN, little-endian uint64 — strictly increasing per log
//	[8:12)  payload length, little-endian uint32
//	[12:16) CRC32 (IEEE) over bytes [0:12) followed by the payload
//
// The CRC covers the header's LSN and length fields too, so a torn or
// corrupted header cannot smuggle a bogus length past the replayer: any
// record whose frame checks out is byte-exact as written.
const headerSize = 16

// maxRecordSize bounds a single record's payload. Far above anything
// the durable catalog writes; its real job is rejecting implausible
// lengths decoded from corrupted headers before they are trusted.
const maxRecordSize = 1 << 30

// Record is one replayed log entry.
type Record struct {
	// LSN is the record's log sequence number.
	LSN uint64
	// Payload is the record body, verified by CRC.
	Payload []byte
	// Offset and End are the record's byte extent in the log file.
	Offset, End int64
}

// CorruptError reports a CRC or sequencing violation strictly inside
// the log — not at its tail — at a precise byte offset. Unlike a torn
// tail (an interrupted final write, expected under crashes), mid-log
// corruption means bytes that were once acknowledged are gone: replay
// recovers the consistent prefix before the offset, but the durability
// claim for everything at and after it is broken and callers in strict
// mode should refuse the log entirely.
type CorruptError struct {
	// Offset is where the damaged record starts.
	Offset int64
	// Reason describes the violation.
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt record at offset %d: %s", e.Offset, e.Reason)
}

// ReplayResult is the outcome of scanning a log file.
type ReplayResult struct {
	// Records are the valid records, in log order.
	Records []Record
	// Size is the byte length of the valid prefix: the log should be
	// truncated here before appending resumes.
	Size int64
	// LastLSN is the LSN of the final valid record (0 when none).
	LastLSN uint64
	// TornTail reports that the file ended in an incomplete or
	// checksum-failing final record — the expected shape of a crash
	// mid-write. The tail bytes are not part of Size.
	TornTail bool
	// Corrupt is non-nil when a record strictly inside the log failed
	// its CRC or broke LSN monotonicity. Records stops at the last
	// consistent prefix; Size covers exactly that prefix.
	Corrupt *CorruptError
}

// Replay scans the named log file, verifying frame integrity and LSN
// monotonicity. A missing file is an empty log. The returned error is
// reserved for filesystem failures; damaged logs come back as a result
// with TornTail and/or Corrupt set.
func Replay(fsys FS, name string) (*ReplayResult, error) {
	data, err := fsys.ReadFile(name)
	if os.IsNotExist(err) {
		return &ReplayResult{}, nil
	}
	if err != nil {
		return nil, err
	}
	res := &ReplayResult{}
	off := int64(0)
	for off < int64(len(data)) {
		rem := int64(len(data)) - off
		if rem < headerSize {
			res.TornTail = true
			break
		}
		header := data[off : off+headerSize]
		lsn := binary.LittleEndian.Uint64(header[0:8])
		length := int64(binary.LittleEndian.Uint32(header[8:12]))
		sum := binary.LittleEndian.Uint32(header[12:16])
		end := off + headerSize + length
		if length > maxRecordSize {
			// An implausible length is header damage. If the claimed
			// record would run past EOF we cannot distinguish it from a
			// torn final write; inside the file it is plain corruption.
			res.Corrupt = &CorruptError{Offset: off, Reason: fmt.Sprintf("implausible record length %d", length)}
			break
		}
		if end > int64(len(data)) {
			res.TornTail = true
			break
		}
		payload := data[off+headerSize : end]
		crc := crc32.NewIEEE()
		crc.Write(header[0:12])
		crc.Write(payload)
		if crc.Sum32() != sum {
			if end == int64(len(data)) {
				// The damaged record is the final one: a crash that tore
				// the last write mid-payload leaves exactly this shape.
				res.TornTail = true
			} else {
				res.Corrupt = &CorruptError{Offset: off, Reason: "checksum mismatch"}
			}
			break
		}
		if lsn <= res.LastLSN {
			res.Corrupt = &CorruptError{Offset: off,
				Reason: fmt.Sprintf("LSN %d not greater than predecessor %d", lsn, res.LastLSN)}
			break
		}
		res.Records = append(res.Records, Record{
			LSN:     lsn,
			Payload: append([]byte(nil), payload...),
			Offset:  off,
			End:     end,
		})
		res.LastLSN = lsn
		res.Size = end
		off = end
	}
	return res, nil
}

// EncodeRecord frames one record: header plus payload, ready to append.
func EncodeRecord(lsn uint64, payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint64(buf[0:8], lsn)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(buf[0:12])
	crc.Write(payload)
	binary.LittleEndian.PutUint32(buf[12:16], crc.Sum32())
	copy(buf[headerSize:], payload)
	return buf
}

// Log is an open, append-only write-ahead log. Not safe for concurrent
// use; the durable catalog serializes writers with its mutation lock.
//
// Any write or sync failure poisons the log: the on-storage tail state
// is unknown after a failed append, so every later operation fails with
// the original error and the owner must recover by reopening (which
// re-derives the durable prefix through Replay).
type Log struct {
	fsys FS
	name string
	f    File
	lsn  uint64
	size int64
	err  error
}

// OpenLog opens the named file for appending at the given size with the
// given last-assigned LSN — both normally taken from a Replay that just
// validated (and possibly repaired) the file.
func OpenLog(fsys FS, name string, size int64, lastLSN uint64) (*Log, error) {
	f, err := fsys.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &Log{fsys: fsys, name: name, f: f, lsn: lastLSN, size: size}, nil
}

// Append frames the payload under the next LSN and writes it. The
// record is NOT durable until the next successful Sync; callers must
// not acknowledge it before then.
func (l *Log) Append(payload []byte) (lsn uint64, end int64, err error) {
	if l.err != nil {
		return 0, 0, l.err
	}
	lsn = l.lsn + 1
	frame := EncodeRecord(lsn, payload)
	n, err := l.f.Write(frame)
	if err == nil && n != len(frame) {
		err = fmt.Errorf("wal: short write: %d of %d bytes", n, len(frame))
	}
	if err != nil {
		l.err = fmt.Errorf("wal: append failed, log poisoned: %w", err)
		return 0, 0, l.err
	}
	l.lsn = lsn
	l.size += int64(len(frame))
	return lsn, l.size, nil
}

// Sync makes every appended record durable. Failure poisons the log.
func (l *Log) Sync() error {
	if l.err != nil {
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: sync failed, log poisoned: %w", err)
		return l.err
	}
	return nil
}

// LastLSN returns the last assigned LSN.
func (l *Log) LastLSN() uint64 { return l.lsn }

// Size returns the current log length in bytes.
func (l *Log) Size() int64 { return l.size }

// Err returns the poisoning error, if any.
func (l *Log) Err() error { return l.err }

// Close closes the underlying file. A poisoned log closes the file but
// reports the poisoning error.
func (l *Log) Close() error {
	cerr := l.f.Close()
	if l.err != nil {
		return l.err
	}
	return cerr
}
