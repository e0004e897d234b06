// Package atomicfile writes files crash-safely: the content goes to a
// temporary file in the destination's directory, is fsynced and closed, and
// is then renamed over the destination. A crash mid-write leaves the
// previous file intact (and at worst an orphaned temp file), never a torn
// document. Every on-disk writer in the repository goes through WriteFile.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// tempInfix appears in every temporary name WriteFile creates. Temp names
// are "."+base+tempInfix+random: hidden, and never ending in the
// destination's extension, so directory scans for "*.json" records skip
// them.
const tempInfix = ".tmp-"

// WriteFile calls write with a temporary file in path's directory and, if
// it succeeds, syncs, closes and renames the file to path. On any error
// the temporary file is removed and path is left untouched.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+tempInfix+"*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
