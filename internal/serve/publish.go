package serve

import (
	"fmt"

	"repro/internal/core"
)

// PublishCheckpoint atomically and durably rotates a checkpoint into the
// path a server watches (core.WriteCheckpointFile: temp file, fsync,
// rename, fsync directory), so a watcher can never observe a half-written
// snapshot and a crash after the publish returns cannot lose it.
//
// lin, when non-nil, is the publish-side half of the lineage contract:
// the checkpoint's (Seed, K) must match before a single byte is
// written. A refused publish therefore never touches the watched path —
// the serving side keeps its current snapshot and never even sees the
// mismatched chain. (The serve side's Options.Lineage check remains the
// last line of defense against files published by other means.)
func PublishCheckpoint(path string, ckpt *core.Checkpoint, lin *Lineage) error {
	if ckpt == nil {
		return fmt.Errorf("serve: publish: nil checkpoint")
	}
	if err := lin.Check(ckpt.Seed, ckpt.K); err != nil {
		return fmt.Errorf("serve: refusing to publish %s: %w", path, err)
	}
	if err := core.WriteCheckpointFile(path, ckpt.Write); err != nil {
		return fmt.Errorf("serve: publishing checkpoint: %w", err)
	}
	return nil
}
