package sparse

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestReplaceFile: the door leaves either the old bytes or the complete
// new ones, mode 0644, and never a temp file beside them.
func TestReplaceFile(t *testing.T) {
	boom := errors.New("writer died")
	cases := []struct {
		name    string
		old     []byte // nil = no file at the target beforehand
		sub     string // a directory below t.TempDir() that is never made
		write   func(f *os.File) error
		wantErr error  // nil = success, else matched with errors.Is
		want    []byte // the target's bytes afterwards
	}{
		{
			name:  "new file round-trips",
			write: func(f *os.File) error { _, err := f.Write([]byte("payload-v1")); return err },
			want:  []byte("payload-v1"),
		},
		{
			name:  "replaces a 0644 file",
			old:   []byte("old-bytes"),
			write: func(f *os.File) error { _, err := f.Write([]byte("new")); return err },
			want:  []byte("new"),
		},
		{
			name: "callback error keeps the old target",
			old:  []byte("good"),
			write: func(f *os.File) error {
				if _, err := f.Write([]byte("torn-")); err != nil {
					return err
				}
				return boom
			},
			wantErr: boom,
			want:    []byte("good"),
		},
		{
			name:    "missing directory errors",
			sub:     "no/such/dir",
			write:   func(*os.File) error { return nil },
			wantErr: fs.ErrNotExist,
		},
		{
			name: "WriteAt patch after sequential writes lands",
			write: func(f *os.File) error {
				if _, err := f.Write([]byte("head-0000-tail")); err != nil {
					return err
				}
				_, err := f.WriteAt([]byte("1234"), 5)
				return err
			},
			want: []byte("head-1234-tail"),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), tc.sub)
			path := filepath.Join(dir, "target.bin")
			if tc.old != nil {
				if err := os.WriteFile(path, tc.old, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.Chmod(path, 0o644); err != nil { // whatever the umask
					t.Fatal(err)
				}
			}
			if err := ReplaceFile(path, tc.write); !errors.Is(err, tc.wantErr) {
				t.Fatalf("got error %v, want %v", err, tc.wantErr)
			}
			if tc.sub != "" {
				return
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != string(tc.want) {
				t.Fatalf("target holds %q (%v), want %q", got, err, tc.want)
			}
			if fi, err := os.Stat(path); err != nil {
				t.Fatal(err)
			} else if fi.Mode().Perm() != 0o644 {
				t.Fatalf("target mode %v, want 0644", fi.Mode().Perm())
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.Name() != "target.bin" {
					t.Fatalf("directory holds %q beside the target (temp residue)", e.Name())
				}
			}
		})
	}
}
