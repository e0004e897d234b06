package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

const fp = "uops=60000|mixes=2|seed=2014|model={}"

// key derives a valid lowercase-hex-looking record key per index.
func key(i int) string {
	return fmt.Sprintf("%064x", i+1)
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, n, err := Open(dir, fp)
	if err != nil || n != 0 {
		t.Fatalf("fresh open: n=%d err=%v", n, err)
	}
	payloads := map[string]string{
		key(0): `{"stp":0.1}`,
		key(1): `{"stp":0.30000000000000004}`,
		key(2): `{"stp":1e300,"threads":[{"ipc":0.3333333333333333}]}`,
	}
	for k, p := range payloads {
		if err := j.Put(k, []byte(p)); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	if j.Len() != 3 {
		t.Fatalf("Len = %d, want 3", j.Len())
	}

	// Reopen and replay: every payload must come back byte-exact.
	j2, n, err := Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("reopen: n=%d, want 3", n)
	}
	got := map[string]string{}
	replayed, dropped, err := j2.Replay(func(k string, payload []byte) {
		got[k] = string(payload)
	})
	if err != nil || dropped != 0 {
		t.Fatalf("Replay: replayed=%d dropped=%d err=%v", replayed, dropped, err)
	}
	if replayed != 3 {
		t.Fatalf("replayed %d records, want 3", replayed)
	}
	for k, want := range payloads {
		if got[k] != want {
			t.Errorf("payload for %s = %q, want %q", k, got[k], want)
		}
	}
}

func TestJournalPutOverwritesSameKey(t *testing.T) {
	j, _, err := Open(t.TempDir(), fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Put(key(0), []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Put(key(0), []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 {
		t.Fatalf("Len = %d after overwrite, want 1", j.Len())
	}
	var got string
	if _, _, err := j.Replay(func(_ string, p []byte) { got = string(p) }); err != nil {
		t.Fatal(err)
	}
	if got != `{"v":2}` {
		t.Fatalf("replayed %q, want the overwritten payload", got)
	}
}

func TestJournalFingerprintMismatchWipes(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Put(key(0), []byte(`{"stp":1}`)); err != nil {
		t.Fatal(err)
	}

	j2, n, err := Open(dir, "uops=999|other")
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || j2.Len() != 0 {
		t.Fatalf("stale journal resumed under a different fingerprint (n=%d)", n)
	}
	// The wiped journal must be usable and must not resurrect old records.
	if err := j2.Put(key(1), []byte(`{"stp":2}`)); err != nil {
		t.Fatal(err)
	}
	count := 0
	if _, _, err := j2.Replay(func(string, []byte) { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("replayed %d records after wipe, want 1", count)
	}
}

func TestJournalCorruptRecordsDropped(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Put(key(0), []byte(`{"good":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Put(key(1), []byte(`{"tampered":true}`)); err != nil {
		t.Fatal(err)
	}

	cells := filepath.Join(dir, "cells")
	// Torn record: truncated JSON.
	if err := os.WriteFile(filepath.Join(cells, key(2)+".json"), []byte(`{"version":1,`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Tampered payload: flip one digit so the stored digest no longer matches.
	tamperPath := filepath.Join(cells, key(1)+".json")
	b, err := os.ReadFile(tamperPath)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(b), `{"tampered":true}`, `{"tampered":false}`, 1)
	if tampered == string(b) {
		t.Fatal("test setup: payload not found in record")
	}
	if err := os.WriteFile(tamperPath, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	// Renamed record: filename disagrees with the embedded key.
	good, err := os.ReadFile(filepath.Join(cells, key(0)+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cells, key(3)+".json"), good, 0o644); err != nil {
		t.Fatal(err)
	}

	var keys []string
	replayed, dropped, err := j.Replay(func(k string, _ []byte) { keys = append(keys, k) })
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 1 || dropped != 3 {
		t.Fatalf("replayed=%d dropped=%d, want 1 and 3", replayed, dropped)
	}
	if len(keys) != 1 || keys[0] != key(0) {
		t.Fatalf("replayed keys %v, want only the intact record", keys)
	}
	if j.Dropped() != 3 {
		t.Fatalf("Dropped() = %d, want 3", j.Dropped())
	}
}

func TestJournalRejectsUnsafeKeys(t *testing.T) {
	j, _, err := Open(t.TempDir(), fp)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "../../etc/passwd", "a/b", "UPPER", strings.Repeat("f", 200), "sp ace"} {
		if err := j.Put(bad, []byte(`{}`)); err == nil {
			t.Errorf("Put(%q) accepted, want error", bad)
		}
	}
}

func TestJournalAtomicNoTempResidue(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Put(key(i), []byte(`{"i":`+fmt.Sprint(i)+`}`)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "cells"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp residue left behind: %s", e.Name())
		}
	}
	if len(entries) != 4 {
		t.Errorf("cells dir holds %d entries, want 4", len(entries))
	}
}

// TestJournalConcurrentPuts exercises the many-dispatchers shape under the
// race detector: distinct keys from concurrent goroutines must all land.
func TestJournalConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := j.Put(key(i), []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
				t.Errorf("Put: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if j.Len() != n {
		t.Fatalf("Len = %d, want %d", j.Len(), n)
	}
	replayed, dropped, err := j.Replay(func(k string, p []byte) {
		var v struct {
			I int `json:"i"`
		}
		if err := json.Unmarshal(p, &v); err != nil {
			t.Errorf("bad payload for %s: %v", k, err)
		}
	})
	if err != nil || dropped != 0 || replayed != n {
		t.Fatalf("Replay: replayed=%d dropped=%d err=%v", replayed, dropped, err)
	}
}

// TestJournalIndentedPayloadReplays pins Put's storage contract: payloads
// are compacted before digesting, so an indented payload (or one holding
// characters an HTML-escaping encoder would rewrite) replays as its
// compacted form instead of failing its own digest and being dropped.
func TestJournalIndentedPayloadReplays(t *testing.T) {
	j, _, err := Open(t.TempDir(), fp)
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string]string{
		key(0): "{\n  \"a\": 1,\n  \"b\": [\n    0.1,\n    1e300\n  ]\n}\n",
		key(1): `{"title": "STP <ANTT> & power"}`,
	}
	want := map[string]string{
		key(0): `{"a":1,"b":[0.1,1e300]}`,
		key(1): `{"title":"STP <ANTT> & power"}`,
	}
	for k, p := range payloads {
		if err := j.Put(k, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	replayed, dropped, err := j.Replay(func(k string, p []byte) { got[k] = string(p) })
	if err != nil || replayed != 2 || dropped != 0 {
		t.Fatalf("Replay: replayed=%d dropped=%d err=%v", replayed, dropped, err)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("payload for %s = %q, want %q", k, got[k], w)
		}
	}
}

func TestJournalRejectsNonJSONPayload(t *testing.T) {
	j, _, err := Open(t.TempDir(), fp)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "{", "not json", `{"a":1} trailing`} {
		if err := j.Put(key(0), []byte(bad)); err == nil {
			t.Errorf("Put(%q) accepted, want error", bad)
		}
	}
	if j.Len() != 0 {
		t.Fatalf("Len = %d after rejected puts, want 0", j.Len())
	}
}

// FuzzJournalReplay treats a record file as outside input, as it is at
// restart: whatever bytes sit under cells/<name>.json, Replay must not
// panic, and every payload it hands back must match its record's digest.
func FuzzJournalReplay(f *testing.F) {
	seedDir := f.TempDir()
	j, _, err := Open(seedDir, fp)
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Put(key(0), []byte(`{"stp":0.30000000000000004,"title":"a & b"}`)); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(seedDir, "cells", key(0)+".json"))
	if err != nil {
		f.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(seedDir, "meta.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(key(0), valid)                // a valid record
	f.Add(key(0), valid[:len(valid)/2]) // a torn record
	f.Add(key(1), valid)                // a renamed key
	tampered := strings.Replace(string(valid), `"digest":"`, `"digest":"0`, 1)
	f.Add(key(0), []byte(tampered)) // a tampered digest
	f.Add("fig1", []byte(`{"version":1,"key":"fig1","digest":"","payload":null}`))

	f.Fuzz(func(t *testing.T, name string, data []byte) {
		if !validKey(name) {
			name = key(0)
		}
		// Lay the journal out by hand (Open then finds a matching meta.json
		// and writes nothing), keeping fsyncs out of the fuzz loop.
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, "cells"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "meta.json"), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "cells", name+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, _, err := Open(dir, fp)
		if err != nil {
			t.Fatal(err)
		}
		replayed, dropped, err := j.Replay(func(k string, payload []byte) {
			var rec record
			if err := json.Unmarshal(data, &rec); err != nil {
				t.Fatalf("replayed %s from a record that does not parse: %v", k, err)
			}
			if k != name || digestOf(payload) != rec.Digest {
				t.Fatalf("replayed %s (file %s) with a payload that does not match its digest", k, name)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if replayed+dropped != 1 {
			t.Fatalf("replayed=%d dropped=%d for one record file", replayed, dropped)
		}
	})
}
