package algo

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Config carries the options an algorithm instance is constructed with.
// Fields an algorithm does not understand are ignored (only COSMA uses
// Delta).
type Config struct {
	// Delta is the grid-fitting idle-rank tolerance δ of §7.1; zero
	// means the algorithm's default.
	Delta float64
	// Overlap software-pipelines the round loops (§7.3): panels for
	// round i+1 are prefetched with non-blocking broadcasts while the
	// kernel multiplies round i's. Honored by the Algorithm 1 plans
	// (COSMA, SUMMA, 2.5D); CARMA and Cannon execute synchronously
	// regardless.
	Overlap bool
}

// Spec describes one registered algorithm.
type Spec struct {
	// Name is the canonical lower-case registry key ("cosma", "summa",
	// "2.5d", "carma", "cannon").
	Name string
	// Aliases are alternative lookup keys ("scalapack", "ctf", ...).
	Aliases []string
	// Summary is a one-line description for CLIs.
	Summary string
	// Order positions the spec in Specs()/Names(); the paper's
	// comparison order is COSMA first, then the baselines.
	Order int
	// Comparison marks membership in the paper's default comparison
	// set (Cannon is registered but excluded, as in §9).
	Comparison bool
	// New constructs a configured instance.
	New func(Config) Planner
}

var (
	regMu  sync.RWMutex
	regged []Spec
	byName map[string]Spec
)

// Register adds an algorithm to the registry; it panics on duplicate
// names or aliases. Implementations call it from init, so importing an
// algorithm package is what makes it reachable by name.
func Register(s Spec) {
	regMu.Lock()
	defer regMu.Unlock()
	if byName == nil {
		byName = make(map[string]Spec)
	}
	for _, key := range append([]string{s.Name}, s.Aliases...) {
		key = strings.ToLower(key)
		if _, dup := byName[key]; dup {
			panic(fmt.Sprintf("algo: duplicate registration of %q", key))
		}
		byName[key] = s
	}
	regged = append(regged, s)
	sort.SliceStable(regged, func(i, j int) bool { return regged[i].Order < regged[j].Order })
}

// New constructs the named algorithm (canonical name or alias,
// case-insensitive) under cfg.
func New(name string, cfg Config) (Planner, error) {
	regMu.RLock()
	s, ok := byName[strings.ToLower(name)]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("algo: unknown algorithm %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return s.New(cfg), nil
}

// Names returns the canonical registered names in comparison order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, len(regged))
	for i, s := range regged {
		names[i] = s.Name
	}
	return names
}

// Specs returns the registered specs in comparison order.
func Specs() []Spec {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]Spec(nil), regged...)
}

// Comparison constructs the paper's default comparison set (COSMA and
// the baselines with Comparison set) under cfg.
func Comparison(cfg Config) []Planner {
	var rs []Planner
	for _, s := range Specs() {
		if s.Comparison {
			rs = append(rs, s.New(cfg))
		}
	}
	return rs
}
