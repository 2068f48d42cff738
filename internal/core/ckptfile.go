package core

import (
	"fmt"
	"io"
	"os"

	"repro/internal/sparse"
)

// ReadCheckpointFile reads and validates the checkpoint at path; errors
// name the file. Of a regular file it allocates each section once, at its
// exact size: the file's length bounds what the header may claim. The
// returned FileInfo is an fstat of the descriptor the bytes are read
// through, so it describes exactly the loaded file even when a publisher
// renames a newer one into place meanwhile — what a reload watcher must
// record to notice that rotation on its next tick.
func ReadCheckpointFile(path string) (*Checkpoint, os.FileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	size := fi.Size()
	if !fi.Mode().IsRegular() {
		size = -1 // a pipe or a device: its length is not the stream's
	}
	ckpt, err := readCheckpoint(f, size)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return ckpt, fi, nil
}

// WriteCheckpointFile writes a checkpoint (or any durability-critical
// file) atomically and durably: fsync file, rename, fsync directory
// (sparse.ReplaceFile). A reader — a bpmf-serve watcher, a recovering
// rank scanning for manifests — never observes a torn or half-written
// file, and a crash after it returns keeps the new one. On any error the
// target is left untouched and the temp file removed.
func WriteCheckpointFile(path string, write func(w io.Writer) error) error {
	if err := sparse.ReplaceFile(path, func(f *os.File) error { return write(f) }); err != nil {
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return nil
}
