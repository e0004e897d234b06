package sched

import (
	"smtflex/internal/config"
	"smtflex/internal/contention"
	"smtflex/internal/interval"
	"smtflex/internal/workload"
)

// RefineBudget bounds the local-search effort of PlaceRefined.
type RefineBudget struct {
	// MaxPasses is the number of full improvement sweeps (default 2).
	MaxPasses int
	// Objective scores a solved placement; the default is raw chip
	// throughput (sum of per-thread rates). The paper's offline analysis
	// picks the best-performing schedule, which for identical normalization
	// is the same ordering as STP.
	Objective func(contention.Result) float64
}

func (b RefineBudget) passes() int {
	if b.MaxPasses <= 0 {
		return 2
	}
	return b.MaxPasses
}

func (b RefineBudget) objective() func(contention.Result) float64 {
	if b.Objective != nil {
		return b.Objective
	}
	return func(r contention.Result) float64 {
		var sum float64
		for _, th := range r.Threads {
			sum += th.UopsPerNs
		}
		return sum
	}
}

// PlaceRefined runs Place and then improves the assignment by local search:
// each pass tries, for every thread, moving it to every other core and, for
// every pair of threads on different cores, swapping them — keeping any
// change that raises the objective under the full contention solve. This is
// the paper's offline best-schedule analysis made explicit; it is much more
// expensive than Place and intended for small studies and validation of the
// greedy heuristic.
func PlaceRefined(d config.Design, mix workload.Mix, src ProfileSource, budget RefineBudget) (contention.Placement, float64, error) {
	p, err := Place(d, mix, src)
	if err != nil {
		return contention.Placement{}, 0, err
	}
	objective := budget.objective()
	// One reused solver for the whole local search: refinement solves
	// O(passes × threads × cores) candidate placements, and the scratch
	// reuse keeps that loop allocation-free. The Result seen by Objective
	// aliases the solver's buffers and is valid only during the call.
	solver := contention.NewSolver()
	score := func(pl contention.Placement) (float64, error) {
		res, err := solver.Solve(pl)
		if err != nil {
			return 0, err
		}
		return objective(res), nil
	}

	// Profiles per thread per core type, for re-assignments.
	profiles, err := profilesByType(&d, mix, src)
	if err != nil {
		return contention.Placement{}, 0, err
	}

	best, err := score(p)
	if err != nil {
		return contention.Placement{}, 0, err
	}
	n := len(p.CoreOf)
	for pass := 0; pass < budget.passes(); pass++ {
		improved := false

		// Moves: thread i -> core c.
		for i := 0; i < n; i++ {
			orig := p.CoreOf[i]
			for c := 0; c < d.NumCores(); c++ {
				if c == orig {
					continue
				}
				cand := clonePlacement(p)
				cand.CoreOf[i] = c
				cand.Profiles[i] = profiles[i][d.Cores[c].Type]
				v, err := score(cand)
				if err != nil {
					return contention.Placement{}, 0, err
				}
				if v > best*(1+1e-9) {
					p, best, improved = cand, v, true
					break
				}
			}
		}

		// Swaps: threads i and j exchange cores.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if p.CoreOf[i] == p.CoreOf[j] {
					continue
				}
				cand := clonePlacement(p)
				cand.CoreOf[i], cand.CoreOf[j] = p.CoreOf[j], p.CoreOf[i]
				cand.Profiles[i] = profiles[i][d.Cores[cand.CoreOf[i]].Type]
				cand.Profiles[j] = profiles[j][d.Cores[cand.CoreOf[j]].Type]
				v, err := score(cand)
				if err != nil {
					return contention.Placement{}, 0, err
				}
				if v > best*(1+1e-9) {
					p, best = cand, v
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return p, best, nil
}

func clonePlacement(p contention.Placement) contention.Placement {
	out := p
	out.CoreOf = append([]int(nil), p.CoreOf...)
	out.Profiles = append([]*interval.Profile(nil), p.Profiles...)
	return out
}
