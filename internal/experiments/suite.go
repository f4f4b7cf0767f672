// Package experiments regenerates every table and figure of the ESD
// paper's evaluation (§IV). Each FigN function produces both structured
// rows (for tests and programmatic use) and a rendered plain-text table
// (for the cmd/figures tool), reusing a shared cache of per-(application,
// scheme) simulation runs so the whole evaluation costs one pass.
package experiments

import (
	"fmt"
	"sort"
	"sync"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/core"
	"github.com/esdsim/esd/internal/dedup"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/telemetry"
	"github.com/esdsim/esd/internal/workload"
)

// Scheme names in canonical presentation order.
const (
	SchemeBaseline = "baseline"
	SchemeSHA1     = "dedup-sha1"
	SchemeDeWrite  = "dewrite"
	SchemeESD      = "esd"
)

// Schemes lists the four evaluated schemes in presentation order.
func Schemes() []string {
	return []string{SchemeBaseline, SchemeSHA1, SchemeDeWrite, SchemeESD}
}

// DedupSchemes lists the three deduplicating schemes.
func DedupSchemes() []string {
	return []string{SchemeSHA1, SchemeDeWrite, SchemeESD}
}

// SchemeBCD is the extension scheme beyond the paper's four: a simplified
// Base-and-Compressed-Difference design (ASPLOS'21 related work). It is
// not part of the per-figure scheme set but is available to NewScheme and
// the capacity ablation.
const SchemeBCD = "bcd"

// SchemeESDCaram is ESD on a content-aware hybrid DRAM/PCM media tier
// (CARAM, arxiv 2007.13661): the identical ESD write path, with the Env's
// media backend replaced by a DRAM buffer in front of PCM whose placement
// is driven by access heat and the dedup engine's reference signal, and
// whose crash consistency comes from a rotating write-ahead log in PCM.
const SchemeESDCaram = "esd+caram"

// NewScheme builds a scheme by name on env. A hybrid scheme name enables
// the hybrid media tier on env as a side effect, so it must run before
// any traffic flows through env. The env's telemetry publishes the
// scheme's byte-compare counts from its Stats.
func NewScheme(env *memctrl.Env, name string) (memctrl.Scheme, error) {
	var sch memctrl.Scheme
	switch name {
	case SchemeBaseline:
		sch = dedup.NewBaseline(env)
	case SchemeSHA1:
		sch = dedup.NewSHA1(env)
	case SchemeDeWrite:
		sch = dedup.NewDeWrite(env)
	case SchemeESD:
		sch = core.New(env)
	case SchemeBCD:
		sch = dedup.NewBCD(env)
	case SchemeESDCaram:
		if err := env.EnableHybridMedia(); err != nil {
			return nil, err
		}
		sch = core.New(env, core.WithName(SchemeESDCaram))
	default:
		return nil, fmt.Errorf("experiments: unknown scheme %q", name)
	}
	env.Tel.CountFrom(telemetry.CompareReads, func() uint64 { return sch.Stats().CompareReads })
	env.Tel.CountFrom(telemetry.CompareMismatches, func() uint64 { return sch.Stats().CompareMismatches })
	return sch, nil
}

// Options parameterizes an evaluation campaign.
type Options struct {
	// Cfg is the system configuration (Table I defaults).
	Cfg config.Config
	// Requests is the measured trace length per application.
	Requests int
	// Warmup is the number of unmeasured warm-up records preceding the
	// measured window (the paper warms the system before each evaluation).
	Warmup int
	// Seed drives all generators.
	Seed uint64
	// Apps restricts the evaluation to a subset (nil/empty = all 20).
	Apps []string
	// FPCacheScale shrinks the fingerprint caches (EFIT, the SHA-1 and
	// DeWrite fingerprint caches) by this factor — scaled-down-simulation
	// methodology: the paper's 10^9-request runs make the unique
	// fingerprint population vastly exceed the 512 KB caches, which a
	// laptop-scale trace cannot; dividing the caches instead reproduces
	// the same pressure ratio. 1 (default) disables scaling. The AMT
	// cache is not scaled: its pressure tracks the address footprint,
	// which the profiles already size realistically.
	FPCacheScale int
}

// DefaultOptions returns a campaign sized to finish in seconds while
// keeping the statistics stable.
func DefaultOptions() Options {
	return Options{Cfg: config.Default(), Requests: 30000, Warmup: 20000, Seed: 1}
}

// effectiveCfg applies FPCacheScale to the fingerprint caches.
func (o Options) effectiveCfg() config.Config { return ScaleFPCaches(o.Cfg, o.FPCacheScale) }

// ScaleFPCaches divides cfg's fingerprint caches (EFIT, the SHA-1 and
// DeWrite fingerprint caches) by scale, keeping at least one entry each;
// a scale of 1 or less returns cfg unchanged. See Options.FPCacheScale.
func ScaleFPCaches(cfg config.Config, scale int) config.Config {
	if scale > 1 {
		cfg.Meta.EFITCacheBytes /= scale
		if cfg.Meta.EFITCacheBytes < cfg.Meta.EFITEntryBytes {
			cfg.Meta.EFITCacheBytes = cfg.Meta.EFITEntryBytes
		}
		cfg.SHA1.FPCacheBytes /= scale
		if cfg.SHA1.FPCacheBytes < cfg.SHA1.FPEntryBytes {
			cfg.SHA1.FPCacheBytes = cfg.SHA1.FPEntryBytes
		}
		cfg.DeWrite.FPCacheBytes /= scale
		if cfg.DeWrite.FPCacheBytes < cfg.DeWrite.FPEntryBytes {
			cfg.DeWrite.FPCacheBytes = cfg.DeWrite.FPEntryBytes
		}
	}
	return cfg
}

func (o Options) apps() []workload.Profile {
	if len(o.Apps) == 0 {
		return workload.Profiles()
	}
	var out []workload.Profile
	for _, name := range o.Apps {
		if p, ok := workload.ByName(name); ok {
			out = append(out, p)
		}
	}
	return out
}

// Suite lazily runs and caches one simulation per (application, scheme).
// Results are additionally memoized process-wide keyed by the full
// campaign parameters, so regenerating several figures with identical
// Options (e.g. `figures -fig all`) simulates each (app, scheme) pair
// exactly once.
type Suite struct {
	Opts    Options
	results map[string]*memctrl.RunResult
}

// NewSuite creates an empty result cache for opts.
func NewSuite(opts Options) *Suite {
	return &Suite{Opts: opts, results: make(map[string]*memctrl.RunResult)}
}

// memoKey identifies one simulation across Suites. config.Config contains
// only value types, so the whole key is comparable.
type memoKey struct {
	cfg      config.Config
	requests int
	warmup   int
	seed     uint64
	app      string
	scheme   string
}

var (
	memoMu sync.Mutex
	memo   = map[memoKey]*memctrl.RunResult{}
)

// Result returns (running on first use) the simulation of app under scheme.
func (s *Suite) Result(app, scheme string) (*memctrl.RunResult, error) {
	key := app + "/" + scheme
	if r, ok := s.results[key]; ok {
		return r, nil
	}
	profile, ok := workload.ByName(app)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown application %q", app)
	}
	cfg := s.Opts.effectiveCfg()
	mk := memoKey{
		cfg:      cfg,
		requests: s.Opts.Requests,
		warmup:   s.Opts.Warmup,
		seed:     s.Opts.Seed,
		app:      app,
		scheme:   scheme,
	}
	memoMu.Lock()
	if r, ok := memo[mk]; ok {
		memoMu.Unlock()
		s.results[key] = r
		return r, nil
	}
	memoMu.Unlock()

	env := memctrl.NewEnv(cfg)
	sch, err := NewScheme(env, scheme)
	if err != nil {
		return nil, err
	}
	ctl := memctrl.NewController(env, sch)
	ctl.Warmup = s.Opts.Warmup
	res, err := ctl.Run(workload.Stream(profile, s.Opts.Seed, s.Opts.Warmup+s.Opts.Requests))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s: %w", app, scheme, err)
	}
	memoMu.Lock()
	memo[mk] = res
	memoMu.Unlock()
	s.results[key] = res
	return res, nil
}

// AppNames returns the evaluated application names in suite order.
func (s *Suite) AppNames() []string {
	var out []string
	for _, p := range s.Opts.apps() {
		out = append(out, p.Name)
	}
	return out
}

// profileOf returns the workload profile for app (must exist).
func (s *Suite) profileOf(app string) workload.Profile {
	p, _ := workload.ByName(app)
	return p
}

// sortedKeys is a test helper exposing the cached run keys.
func (s *Suite) sortedKeys() []string {
	keys := make([]string, 0, len(s.results))
	for k := range s.results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
