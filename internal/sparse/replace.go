package sparse

import (
	"os"
	"path/filepath"
)

// ReplaceFile puts what write writes at path, atomically and durably:
// a temp file in path's directory is written, made mode 0644, fsynced,
// closed and renamed over path, then the directory is fsynced. A reader
// sees the old file or the whole new one, never a torn one, and a crash
// after ReplaceFile returns keeps the new one. On error the temp is
// removed and path left untouched. write gets the *os.File so that it
// may patch what it wrote with WriteAt. Every durable replacement in
// the program goes through here.
func ReplaceFile(path string, write func(f *os.File) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs dir, making an entry created or renamed in it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
