package core

import (
	"bytes"
	"encoding/json"
	"fmt"

	"smtflex/internal/journal"
	"smtflex/internal/study"
)

// profilesKey is the journal record holding the measured profile cache. No
// figure id equals it, so figure records and the cache never collide.
const profilesKey = "profiles"

// Resume makes the simulator's campaign crash-resumable through the journal
// in dir (see internal/journal), opened under the study's fingerprint: a
// journal written at another profiling length, mix count, seed or model is
// wiped, profile cache included, so a resumed run never mixes fidelities.
//
// Resume reloads the journaled profile cache. From then on Figure returns a
// journaled table without recomputing it, and journals every table it
// computes, followed by the current profile cache. A campaign killed at any
// point and re-run with the same directory therefore re-measures nothing it
// had recorded and renders byte-identical tables. Resume returns the number
// of journaled figures. Call it before the campaign's first Figure call.
func (s *Simulator) Resume(dir string) (resumed int, err error) {
	j, _, err := journal.Open(dir, s.st.Fingerprint())
	if err != nil {
		return 0, err
	}
	tables := make(map[string][]byte)
	var loadErr error
	_, _, err = j.Replay(func(key string, payload []byte) {
		if key == profilesKey {
			_, loadErr = s.src.LoadJSON(bytes.NewReader(payload))
		} else if _, ok := figureRegistry[key]; ok {
			tables[key] = payload
		}
	})
	if err == nil {
		err = loadErr
	}
	if err != nil {
		return 0, fmt.Errorf("core: resuming from %s: %w", dir, err)
	}
	s.mu.Lock()
	s.journal, s.journaled = j, tables
	s.mu.Unlock()
	return len(tables), nil
}

// journaledTable returns the journaled table for id, if Resume found one,
// and the journal that new tables go to (nil without Resume). A payload
// that does not decode is treated as absent, so the figure is recomputed.
func (s *Simulator) journaledTable(id string) (*study.Table, *journal.Journal) {
	s.mu.Lock()
	payload, j := s.journaled[id], s.journal
	s.mu.Unlock()
	var t study.Table
	if payload == nil || json.Unmarshal(payload, &t) != nil {
		return nil, j
	}
	return &t, j
}

// record journals a computed table and then the profile cache it was
// computed from.
func (s *Simulator) record(j *journal.Journal, id string, t *study.Table) error {
	tab, err := json.Marshal(t)
	if err != nil {
		return fmt.Errorf("core: journaling %s: %w", id, err)
	}
	if err := j.Put(id, tab); err != nil {
		return err
	}
	var profiles bytes.Buffer
	if err := s.src.SaveJSON(&profiles); err != nil {
		return fmt.Errorf("core: journaling profiles: %w", err)
	}
	return j.Put(profilesKey, profiles.Bytes())
}
