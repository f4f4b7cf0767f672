package dedup

import (
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
	"github.com/esdsim/esd/internal/telemetry"
)

// Baseline is the paper's comparison point without deduplication: every
// dirty eviction is counter-mode encrypted and written in place (logical
// address == physical address), every read is a direct media read.
type Baseline struct {
	env *memctrl.Env
	st  memctrl.SchemeStats

	// def holds the deferred stores of one WriteBatch call, and one the
	// one-op batch a scalar Write runs as.
	def Deferred
	one [1]memctrl.BatchWrite
}

// NewBaseline constructs the baseline scheme on env.
func NewBaseline(env *memctrl.Env) *Baseline {
	return &Baseline{env: env}
}

// Name implements memctrl.Scheme.
func (s *Baseline) Name() string { return "baseline" }

// Write encrypts and writes the line in place, as a one-op batch.
func (s *Baseline) Write(logical uint64, data *ecc.Line, at sim.Time) memctrl.WriteOutcome {
	op := &s.one[0]
	op.Logical, op.Data, op.At = logical, data, at
	s.WriteBatch(s.one[:])
	return op.Out
}

// WriteBatch implements memctrl.BatchWriter, and is the baseline's one
// write kernel. The baseline has no dedup decision and never reads during
// a write, so the whole batch defers cleanly: counters are committed per
// op in order, then every pad comes from one batched AES pass and the
// device writes issue in op order. The AES engine is dedicated and
// pipelined: encryption adds latency to a write but does not occupy the
// controller pipeline.
func (s *Baseline) WriteBatch(ops []memctrl.BatchWrite) {
	cfg := s.env.Cfg
	for i := range ops {
		op := &ops[i]
		s.st.Writes++
		s.st.UniqueWrites++
		counter := s.env.Crypto.ReserveCounter(op.Logical)
		s.env.Energy.Crypto += cfg.Crypto.EncryptEnergy
		s.env.Step(memctrl.StepCounterBumped)
		s.def.Defer(PendingStore{
			Logical: op.Logical, Phys: op.Logical, Counter: counter,
			At: op.At + cfg.Crypto.EncryptLatency, Slot: i, Data: *op.Data,
		})
		metaLat := s.env.IntegrityUpdate(op.Logical, counter, op.At)
		op.Out = memctrl.WriteOutcome{
			PhysAddr: op.Logical,
			Breakdown: stats.Breakdown{
				Encrypt:  cfg.Crypto.EncryptLatency,
				Metadata: metaLat,
			},
		}
	}
	s.def.Flush(s.env)
	entries := s.def.Entries()
	for i := range entries {
		p := &entries[i]
		op := &ops[p.Slot]
		op.Out.Breakdown.Queue = p.Wr.Stall
		op.Out.Breakdown.Media = p.Wr.ServiceLatency
		op.Out.Done = p.Wr.AcceptedAt + p.Wr.ServiceLatency
		s.env.Tel.OnWrite(telemetry.DecBaseline, p.Logical, p.Logical, false, op.At, op.Out.Done, &op.Out.Breakdown)
	}
	s.def.Reset()
}

// Read fetches and decrypts the line. Like every scheme, the read passes
// the controller front end (request decode plus the encryption-counter
// probe that counter-mode decryption needs).
func (s *Baseline) Read(logical uint64, at sim.Time) memctrl.ReadOutcome {
	s.st.Reads++
	_, feEnd := s.env.Frontend.Reserve(at, s.env.Cfg.Meta.SRAMLatency)
	s.env.ChargeSRAM()
	ct, ok, rr := s.env.Device.Read(logical, feEnd)
	out := memctrl.ReadOutcome{Done: rr.Done, Hit: ok}
	if ok {
		if vlat := s.env.IntegrityVerify(logical, feEnd); feEnd+vlat > out.Done {
			out.Done = feEnd + vlat
		}
		s.env.Crypto.DecryptInPlace(logical, &ct)
		out.Data = ct
	}
	s.env.Tel.OnRead(logical, ok, at, out.Done)
	return out
}

// Tick implements memctrl.Scheme (no maintenance).
func (s *Baseline) Tick(sim.Time) {}

// TickInterval implements memctrl.Scheme.
func (s *Baseline) TickInterval() sim.Time { return 0 }

// MetadataNVMM implements memctrl.Scheme: the baseline keeps no
// deduplication metadata.
func (s *Baseline) MetadataNVMM() int64 { return 0 }

// MetadataSRAM implements memctrl.Scheme.
func (s *Baseline) MetadataSRAM() int64 { return 0 }

// Stats implements memctrl.Scheme.
func (s *Baseline) Stats() memctrl.SchemeStats { return s.st }

// Crash implements memctrl.Crasher: the baseline keeps no volatile
// deduplication state, so a power failure costs nothing.
func (s *Baseline) Crash(sim.Time) {}
