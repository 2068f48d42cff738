package feed

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/sparse"
)

// FuzzOpenLog: whatever bytes sit at the log's path, OpenLog returns an
// error or a log that is exactly a prefix of them — the header and whole
// frames, whose records Scan yields bit for bit — with the rest a torn
// frame, dropped and reported through RecoveredBytes. Never a panic, and
// never an allocation sized by a frame header rather than by the bytes
// present: the 1-MiB read buffer and frame payloads that are themselves
// in the input (so at most maxFrameRecords records each) are all it may
// take. The seeds are log_test.go's byte-accurate corpus; plain
// `go test` runs them without the fuzz engine.
func FuzzOpenLog(f *testing.F) {
	clean := buildLogFile(f, f.TempDir()) // frames at [18, 58) and [58, 82)
	f.Add(clean)
	f.Add([]byte{})
	for _, cut := range []int{5, headerLen, 58 + 3, 58 + 8, 82 - 1} {
		f.Add(clean[:cut])
	}
	for _, off := range []int{0, len(logMagic), 18, 18 + 4, 18 + 8, 58 + 8 + 15} {
		mut := append([]byte(nil), clean...)
		mut[off] ^= 0x01
		f.Add(mut)
	}
	f.Add(append(append([]byte(nil), clean[:58]...), make([]byte, frameHdr)...))                // a frame of 0 records
	f.Add(append(append([]byte(nil), clean[:58]...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2)) // 4 Gi records promised

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return
		}
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, err := OpenLog(path, 9)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+len(data)+64<<10); got > limit {
			t.Fatalf("%d input bytes: allocated %d, limit %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		defer l.Close()

		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			data = kept // an empty file is initialized: the log is its fresh header
		}
		if len(kept) > len(data) || !bytes.Equal(kept, data[:len(kept)]) {
			t.Fatalf("accepted log (%d bytes) is not a prefix of the input (%d bytes)", len(kept), len(data))
		}
		tail := data[len(kept):]
		if l.RecoveredBytes() != int64(len(tail)) {
			t.Fatalf("dropped %d bytes, RecoveredBytes says %d", len(tail), l.RecoveredBytes())
		}
		if len(tail) >= frameHdr {
			if want := frameHdr + int64(binary.LittleEndian.Uint32(tail))*recordLen; want <= int64(len(tail)) {
				t.Fatalf("dropped a %d-byte tail holding a whole %d-byte frame", len(tail), want)
			}
		}

		// Strip the framing off the accepted prefix: what is left must be
		// the records Scan yields, re-encoded.
		var payloads, scanned []byte
		for off := headerLen; off < len(kept); {
			end := off + frameHdr + int(binary.LittleEndian.Uint32(kept[off:]))*recordLen
			payloads = append(payloads, kept[off+frameHdr:end]...)
			off = end
		}
		records := int64(0)
		if err := l.Scan(func(e sparse.Entry) error {
			scanned = sparse.AppendEntry(scanned, e)
			records++
			return nil
		}); err != nil {
			t.Fatalf("accepted log fails to scan: %v", err)
		}
		if records != l.Records() || !bytes.Equal(scanned, payloads) {
			t.Fatalf("Scan yielded %d records (Records() = %d) that do not re-encode to the accepted frames", records, l.Records())
		}
	})
}
