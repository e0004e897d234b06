package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func names(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name()
	}
	return out
}

func TestWriteFileReplacesWithoutTempResidue(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	for _, body := range []string{`{"v":1}`, `{"v":2}`} {
		if err := WriteFile(path, writeString(body)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"v":2}` {
		t.Fatalf("content %q, want the last write", got)
	}
	if n := names(t, dir); len(n) != 1 || n[0] != "doc.json" {
		t.Fatalf("directory not clean after writes: %v", n)
	}
}

func TestWriteFileErrorLeavesDestinationIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	if err := WriteFile(path, writeString("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "old" {
		t.Fatalf("destination %q after failed write, want it untouched", got)
	}
	if n := names(t, dir); len(n) != 1 {
		t.Fatalf("temp file left behind after failed write: %v", n)
	}
}

func TestWriteFileIntoMissingDirFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nosuchdir", "doc.json")
	if err := WriteFile(path, writeString("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// TestTempNameNeverMatchesDestinationExtension pins the naming contract
// that record scans (for example the journal's "*.json" listing) rely on.
func TestTempNameNeverMatchesDestinationExtension(t *testing.T) {
	dir := t.TempDir()
	var tmpName string
	err := WriteFile(filepath.Join(dir, "abc.json"), func(w io.Writer) error {
		tmpName = filepath.Base(w.(*os.File).Name())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tmpName, ".") || !strings.Contains(tmpName, tempInfix) || strings.HasSuffix(tmpName, ".json") {
		t.Fatalf("temp name %q: want hidden, containing %q, not ending in .json", tmpName, tempInfix)
	}
}
