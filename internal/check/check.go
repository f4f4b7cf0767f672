// Package check is the model-based verification harness behind cmd/esdcheck:
// it runs one deterministic, seed-reproducible workload against a trivial
// map-based oracle memory and every scheme variant simultaneously, and fails
// loudly on the first divergence.
//
// Three engines cooperate (DESIGN.md §10):
//
//   - the differential checker: every Read must match the oracle exactly
//     (same hit/miss, same 64 bytes), for every scheme, in both the
//     single-threaded System form and the sharded form (1/2/8 shards,
//     writes run by the shard worker or inline by the caller) — so every
//     scheme also implicitly agrees with every other scheme;
//   - the invariant checker: every AuditEvery ops, and at the end, every
//     engine's white-box audits run — dedup refcount conservation, AMT
//     well-formedness, counter monotonicity/pad-uniqueness, EFIT
//     consistency (see the Audit methods in internal/dedup and
//     internal/core) and, on esd+caram, the hybrid tier's audit. A
//     sharded engine runs them on every shard under the shard's owner
//     (shard.Engine.Barrier);
//   - the adversarial schedules (RunConcurrent): mixed concurrent
//     workloads under the race detector with per-bank fault injection,
//     audited once they quiesce.
//
// Every failure carries the seed and the op index at which it fired, so
// `esdcheck -seed N -upto M` replays the exact prefix.
package check

import (
	"fmt"

	"github.com/esdsim/esd/internal/core"
	"github.com/esdsim/esd/internal/dedup"
	"github.com/esdsim/esd/internal/experiments"
	"github.com/esdsim/esd/internal/memctrl"
)

// DefaultSchemes returns the scheme names the checker covers by default:
// the four canonical schemes plus ESD on the hybrid DRAM/PCM media tier,
// whose placement, migration and write-ahead-log machinery must stay
// observably identical to plain-PCM ESD.
func DefaultSchemes() []string {
	return append(experiments.Schemes(), experiments.SchemeESDCaram)
}

// Violation is one checker failure, pinned to the op index (into the
// generated stream) after which it was detected.
type Violation struct {
	// Engine names the engine variant that diverged (e.g. "esd/single",
	// "dewrite/shards=8,inline").
	Engine string
	// Op is the 0-based index of the last generated op before detection.
	Op int
	// Msg is the human-readable description.
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("op %d: %s: %s", v.Op, v.Engine, v.Msg)
}

// auditor is the optional white-box audit surface a scheme may expose on
// top of the shared Base audit.
type auditor interface {
	AuditBase() []string
}

// AuditScheme runs every white-box invariant audit the scheme supports and
// returns the violations (empty = consistent). It recognizes the shared
// dedup.Base audit plus the per-scheme fingerprint-index audits; schemes
// without audit surfaces (the baseline) trivially pass.
func AuditScheme(sch memctrl.Scheme) []string {
	var bad []string
	if a, ok := sch.(auditor); ok {
		bad = append(bad, a.AuditBase()...)
	}
	switch s := sch.(type) {
	case *core.ESD:
		bad = append(bad, s.AuditEFIT()...)
	case *dedup.SHA1:
		bad = append(bad, s.AuditIndex()...)
	case *dedup.DeWrite:
		bad = append(bad, s.AuditIndex()...)
	}
	return bad
}
