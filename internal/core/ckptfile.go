package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
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
// file) atomically: the payload goes to a temp file in the target's
// directory and is renamed into place only after a successful write and
// close. A reader — a bpmf-serve watcher, a recovering rank scanning for
// manifests — therefore never observes a torn or half-written file: the
// target either holds its previous contents or the complete new ones.
// On any error the target is left untouched and the temp file removed.
func WriteCheckpointFile(path string, write func(w io.Writer) error) error {
	dir, base := filepath.Dir(path), filepath.Base(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return nil
}
