// Package wal implements the write-ahead log under the durable
// catalog: length-prefixed, CRC-framed records with monotonically
// increasing log sequence numbers, appended through an explicit-sync
// file abstraction, and a defensive replayer that distinguishes a torn
// final record (truncate and continue — the crash interrupted the last
// write) from CRC corruption in the middle of the log (report a precise
// offset; the log's integrity claim is broken beyond it).
//
// The FS interface is the package's fault-injection seam: DirFS backs a
// real directory for the server, MemFS backs the crash-recovery fuzz
// harness with byte-exact control over what "survived" a crash — only
// explicitly synced bytes do, and a SyncHook can fail a sync after
// persisting an arbitrary prefix of the pending bytes (a torn write).
package wal

import (
	"io"
	"os"
	"path/filepath"
)

// File is an append-only handle with explicit durability points.
type File interface {
	io.Writer
	// Sync makes every byte written so far durable. A WAL record is
	// acknowledged only after the Sync covering it returns nil.
	Sync() error
	Close() error
}

// FS is the filesystem slice the durability layer needs. All names are
// flat (no subdirectories).
type FS interface {
	// OpenAppend opens the named file for appending, creating it empty
	// if it does not exist.
	OpenAppend(name string) (File, error)
	// ReadFile returns the file's full contents; a missing file reports
	// an error satisfying os.IsNotExist.
	ReadFile(name string) ([]byte, error)
	// Truncate cuts the named file to the given size (recovery's
	// torn-tail repair).
	Truncate(name string, size int64) error
	// Rename atomically replaces newname with oldname (the checkpoint
	// publish step).
	Rename(oldname, newname string) error
	// Remove deletes the named file; removing a missing file is an
	// error satisfying os.IsNotExist.
	Remove(name string) error
	// List returns the names of all files, in no particular order.
	List() ([]string, error)
}

// DirFS is the production FS: a flat directory on the OS filesystem.
type DirFS struct {
	dir string
}

// NewDirFS returns an FS rooted at dir, creating the directory if
// needed.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirFS{dir: dir}, nil
}

// Dir returns the root directory.
func (d *DirFS) Dir() string { return d.dir }

func (d *DirFS) path(name string) string { return filepath.Join(d.dir, name) }

// OpenAppend implements FS. When the open creates the file, the
// directory is fsynced too: without it a crash can lose the new
// directory entry — and with it every acknowledged record synced into
// the file, such as the fresh wal.log a checkpoint's rotation starts.
func (d *DirFS) OpenAppend(name string) (File, error) {
	f, err := os.OpenFile(d.path(name), os.O_WRONLY|os.O_APPEND, 0)
	if err == nil {
		return f, nil
	}
	if !os.IsNotExist(err) {
		return nil, err
	}
	f, err = os.OpenFile(d.path(name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := d.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// ReadFile implements FS.
func (d *DirFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(d.path(name))
}

// Truncate implements FS.
func (d *DirFS) Truncate(name string, size int64) error {
	return os.Truncate(d.path(name), size)
}

// Rename implements FS. The directory is fsynced afterwards so the
// rename itself — the checkpoint's atomic publish — is durable, not
// just the renamed file's contents.
func (d *DirFS) Rename(oldname, newname string) error {
	if err := os.Rename(d.path(oldname), d.path(newname)); err != nil {
		return err
	}
	return d.syncDir()
}

// Remove implements FS.
func (d *DirFS) Remove(name string) error {
	return os.Remove(d.path(name))
}

// List implements FS.
func (d *DirFS) List() ([]string, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// syncDir fsyncs the directory so metadata operations (rename, create)
// are durable. Filesystems that cannot sync a directory handle are
// tolerated — the rename itself already happened.
func (d *DirFS) syncDir() error {
	f, err := os.Open(d.dir)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return nil // best effort; not all platforms support dir fsync
	}
	return nil
}
