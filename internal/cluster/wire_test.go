package cluster

import (
	"encoding/json"
	"strings"
	"testing"

	"smtflex/internal/contention"
	"smtflex/internal/interval"
	"smtflex/internal/study"
)

// FuzzCellResponse fuzzes the fabric's trust boundary: the bytes a worker
// sends back for a cell. Decoding and verification must never panic, an
// accepted response must survive a marshal/unmarshal round trip and still
// verify, and a response whose digest a buggy but honest-hashing worker
// recomputed must still convert to the engine form without panicking.
func FuzzCellResponse(f *testing.F) {
	key := strings.Repeat("ab", 32)
	real := toWire(key, study.MixResult{
		STP: 1.75, ANTT: 1.2, Watts: 31.5, WattsUngated: 40, BusUtilization: 0.3,
		Threads: []study.MixThread{{
			Program: "mcf", Core: 2, IPC: 0.4, UopsPerNs: 1.1,
			Stack: interval.CPIStack{Base: 0.25, Branch: 0.1, ICache: 0.01, L2: 0.2, LLC: 0.3, Mem: 1.4},
		}},
		Diag: contention.Diagnostics{Iterations: 7, Residual: 1e-9, Converged: true},
	})
	b, err := json.Marshal(real)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add(b[:len(b)/2])
	f.Add([]byte(`{}`))
	f.Add([]byte("\x00garbage{]"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var cr CellResponse
		if json.Unmarshal(data, &cr) != nil {
			return
		}
		_ = cr.verifyIntegrity(key)
		if cr.verifyIntegrity(cr.Key) == nil {
			again, err := json.Marshal(cr)
			if err != nil {
				t.Fatalf("accepted response does not marshal: %v", err)
			}
			var back CellResponse
			if err := json.Unmarshal(again, &back); err != nil {
				t.Fatalf("accepted response does not round-trip: %v", err)
			}
			if err := back.verifyIntegrity(cr.Key); err != nil {
				t.Fatalf("accepted response fails verification after a round trip: %v", err)
			}
		}
		cr.Digest = cr.digest()
		if err := cr.verifyIntegrity(cr.Key); err != nil {
			t.Fatalf("recomputed digest does not verify: %v", err)
		}
		_ = fromWire(cr)
	})
}
