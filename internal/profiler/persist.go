package profiler

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"smtflex/internal/atomicfile"
	"smtflex/internal/config"
	"smtflex/internal/interval"
)

// profileFile is the on-disk format: a versioned list of profiles with
// their keys, so a profile set measured once (e.g. at high fidelity on a
// build server) can be reused across runs.
type profileFile struct {
	// Version guards against format drift.
	Version int `json:"version"`
	// UopCount and Warmup record the measurement fidelity.
	UopCount uint64          `json:"uop_count"`
	Warmup   uint64          `json:"warmup"`
	Profiles []storedProfile `json:"profiles"`
}

type storedProfile struct {
	Benchmark string           `json:"benchmark"`
	Core      string           `json:"core"`
	Profile   interval.Profile `json:"profile"`
}

const persistVersion = 1

// SaveJSON writes every profile measured so far.
func (s *Source) SaveJSON(w io.Writer) error {
	file := profileFile{Version: persistVersion, UopCount: s.UopCount, Warmup: s.Warmup}
	s.profiles.Range(func(key profileKey, p *interval.Profile) {
		file.Profiles = append(file.Profiles, storedProfile{
			Benchmark: key.bench,
			Core:      key.core.String(),
			Profile:   *p,
		})
	})
	sort.Slice(file.Profiles, func(i, j int) bool {
		a, b := file.Profiles[i], file.Profiles[j]
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		return a.Core < b.Core
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(file)
}

// SaveJSONFile writes the profiles to path crash-safely (see atomicfile): a
// crash mid-write leaves the previous file intact rather than a truncated
// JSON document.
func (s *Source) SaveJSONFile(path string) error {
	if err := atomicfile.WriteFile(path, s.SaveJSON); err != nil {
		return fmt.Errorf("profiler: saving profiles: %w", err)
	}
	return nil
}

// LoadJSONFile loads profiles from path; see LoadJSON.
func (s *Source) LoadJSONFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("profiler: loading profiles: %w", err)
	}
	defer f.Close()
	return s.LoadJSON(f)
}

// LoadJSON populates the cache with previously saved profiles; subsequent
// Profile calls for those keys return the loaded data without simulation.
// It returns the number of profiles loaded.
func (s *Source) LoadJSON(r io.Reader) (int, error) {
	var file profileFile
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return 0, fmt.Errorf("profiler: decoding profiles: %w", err)
	}
	if file.Version != persistVersion {
		return 0, fmt.Errorf("profiler: profile file version %d, want %d", file.Version, persistVersion)
	}
	n := 0
	for _, sp := range file.Profiles {
		ct, err := coreTypeByName(sp.Core)
		if err != nil {
			return n, err
		}
		p := sp.Profile
		if err := p.Validate(); err != nil {
			return n, fmt.Errorf("profiler: stored profile %s/%s: %w", sp.Benchmark, sp.Core, err)
		}
		if p.Core != ct {
			return n, fmt.Errorf("profiler: stored profile %s: key says %s, body says %v", sp.Benchmark, sp.Core, p.Core)
		}
		s.profiles.Put(profileKey{bench: sp.Benchmark, core: ct}, &p)
		n++
	}
	return n, nil
}

func coreTypeByName(name string) (config.CoreType, error) {
	for ct := config.Big; ct < config.NumCoreTypes; ct++ {
		if ct.String() == name {
			return ct, nil
		}
	}
	return 0, fmt.Errorf("profiler: unknown core type %q", name)
}
