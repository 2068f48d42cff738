package core

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/datagen"
)

// FuzzReadCheckpoint: whatever the bytes, ReadCheckpoint returns an error
// or a checkpoint whose Write reproduces the bytes it consumed — never a
// panic, and never more than the read buffer plus one floatChunk
// allocated beyond the input's own length, whatever the header promises.
// The f.Add seeds are a real Write output, cuts and flips of it, and the
// header-corruption cases of checkpoint_test.go; plain `go test` runs
// them without the fuzz engine.
func FuzzReadCheckpoint(f *testing.F) {
	cfg := DefaultConfig()
	cfg.K, cfg.Iters, cfg.Burnin = 3, 2, 1
	ds := datagen.Generate(datagen.Tiny(5))
	s, err := NewSampler(cfg, NewProblem(ds.R, nil))
	if err != nil {
		f.Fatal(err)
	}
	s.Run()
	var buf bytes.Buffer
	if err := s.Checkpoint().Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(ckptMagic)+ckptHeaderLen])
	f.Add(valid[:len(valid)/2])
	for off := len(ckptMagic); off < len(ckptMagic)+ckptHeaderLen; off += 3 {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x81
		f.Add(mut)
	}
	for _, tc := range implausibleHeaders {
		f.Add(tc.hdr)
	}
	f.Add(craftHeader(8, 0, 1<<27, 10, 0, 0, 0)) // 8 GiB of U promised, none sent

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256<<10 {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := ReadCheckpoint(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The 1 MiB bufio.Reader, one chunk of read-ahead, the decoded
		// floats themselves (no larger than the input) and small change.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+8*floatChunk+len(data)+64<<10); got > limit {
			t.Fatalf("%d input bytes: allocated %d, limit %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		var back bytes.Buffer
		if err := c.Write(&back); err != nil {
			t.Fatalf("accepted checkpoint fails to re-serialize: %v", err)
		}
		if n := back.Len(); n > len(data) || !bytes.Equal(back.Bytes(), data[:n]) {
			t.Fatalf("accepted checkpoint re-serializes to %d bytes that are not the input's prefix (%d bytes)", n, len(data))
		}
	})
}
