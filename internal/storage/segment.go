package storage

// WAL segmentation. The log is a sequence of fixed-size-bounded segment
// files named scdb.wal.NNNNNN with a strictly increasing index; appends go
// to the highest-indexed (active) segment and rotation seals it — flush,
// fsync, close — before opening the next. Sealed segments are immutable,
// which is what makes checkpoint retention safe: a checkpoint records the
// active segment index at its barrier (the horizon) and deletes only
// sealed segments strictly below it. Nothing is ever truncated or
// rewritten in place, so there is no window in which a concurrent commit
// can land in a file that is about to be destroyed.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	snapshotName = "scdb.snapshot"
	segPrefix    = "scdb.wal."
	// oldLogName is the single-file log of stores that predate
	// segmentation; this build cannot read it.
	oldLogName = "scdb.log"
)

// segMagic opens every segment.
var segMagic = []byte("SCWAL002")

// ErrUnsupportedFormat reports a store directory holding a file in an
// on-disk format this build cannot read. Open fails with it before
// touching the directory.
var ErrUnsupportedFormat = errors.New("storage: unsupported on-disk format")

// checkFormats fails with ErrUnsupportedFormat if dir holds a
// pre-segmentation log, a snapshot without snapMagic, or one of the listed
// segments without segMagic. A segment shorter than its magic but a prefix
// of it is a crash mid-creation, not a foreign format, and passes.
func checkFormats(dir string, segs []uint64) error {
	if _, err := os.Stat(filepath.Join(dir, oldLogName)); err == nil {
		return fmt.Errorf("%w: %s is a pre-segmentation log", ErrUnsupportedFormat, filepath.Join(dir, oldLogName))
	}
	if err := checkMagic(filepath.Join(dir, snapshotName), snapMagic, false); err != nil {
		return err
	}
	for _, idx := range segs {
		if err := checkMagic(segPath(dir, idx), segMagic, true); err != nil {
			return err
		}
	}
	return nil
}

// checkMagic verifies that the file at path, if it exists, opens with
// magic; tornOK also accepts a file that ends inside the magic.
func checkMagic(path string, magic []byte, tornOK bool) error {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	defer f.Close()
	hdr := make([]byte, len(magic))
	n, err := io.ReadFull(f, hdr)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return err
	}
	if hdr = hdr[:n]; bytes.Equal(hdr, magic) || tornOK && bytes.HasPrefix(magic, hdr) {
		return nil
	}
	return fmt.Errorf("%w: %s does not open with %s", ErrUnsupportedFormat, path, magic)
}

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero.
const DefaultSegmentBytes = 16 << 20

// DefaultCheckpointBytes is the bytes-since-checkpoint trigger for the
// background checkpointer when Options.CheckpointBytes is zero.
const DefaultCheckpointBytes = 64 << 20

func segName(idx uint64) string {
	return fmt.Sprintf("%s%06d", segPrefix, idx)
}

func segPath(dir string, idx uint64) string {
	return filepath.Join(dir, segName(idx))
}

// parseSegName extracts the index from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) {
		return 0, false
	}
	idx, err := strconv.ParseUint(name[len(segPrefix):], 10, 64)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// listSegments returns the segment indexes present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []uint64
	for _, e := range ents {
		if idx, ok := parseSegName(e.Name()); ok {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs, nil
}

// createSegment creates (truncating any stale leftover) segment idx and
// writes its header. The returned file is positioned for appends.
func createSegment(dir string, idx uint64) (*os.File, error) {
	f, err := os.OpenFile(segPath(dir, idx), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// openActiveSegment opens segment idx for appending, creating it with a
// header if absent or empty. It returns the file and its current size.
func openActiveSegment(dir string, idx uint64) (*os.File, int64, error) {
	f, err := os.OpenFile(segPath(dir, idx), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	size := fi.Size()
	if size == 0 {
		if _, err := f.Write(segMagic); err != nil {
			f.Close()
			return nil, 0, err
		}
		size = int64(len(segMagic))
	}
	return f, size, nil
}

// rotateLocked seals the active segment and opens the next. Caller holds
// w.mu. The seal always fsyncs — regardless of SyncPolicy — so a sealed
// segment's frames are durable before any checkpoint may delete its
// predecessors, and a flush leader never needs to revisit it.
func (w *wal) rotateLocked() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	next, err := createSegment(w.dir, w.segIdx+1)
	if err != nil {
		return err
	}
	if err := w.fsync(w.appendedCSN); err != nil { // the seal covers every framed stamp
		next.Close()
		os.Remove(segPath(w.dir, w.segIdx+1))
		return err
	}
	w.fileMu.Lock()
	w.f.Close()
	w.f = next
	w.fileMu.Unlock()
	w.w.Reset(next)
	w.segIdx++
	w.segSize = int64(len(segMagic))
	w.segCount.Add(1)
	return nil
}

// removeBelow deletes sealed segments with index < horizon and returns the
// bytes reclaimed. The active segment's index is always >= horizon, so
// only closed, immutable files are touched.
func (w *wal) removeBelow(horizon uint64) uint64 {
	idxs, err := listSegments(w.dir)
	if err != nil {
		return 0
	}
	var reclaimed uint64
	for _, idx := range idxs {
		if idx >= horizon {
			break
		}
		p := segPath(w.dir, idx)
		if fi, err := os.Stat(p); err == nil {
			reclaimed += uint64(fi.Size())
		}
		if err := os.Remove(p); err == nil || errors.Is(err, os.ErrNotExist) {
			w.segCount.Add(-1)
		}
	}
	return reclaimed
}
