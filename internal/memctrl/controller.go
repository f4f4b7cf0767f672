package memctrl

import (
	"errors"
	"fmt"
	"io"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/media"
	"github.com/esdsim/esd/internal/nvm"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
	"github.com/esdsim/esd/internal/telemetry"
	"github.com/esdsim/esd/internal/trace"
)

// RunResult aggregates everything a trace replay measures.
type RunResult struct {
	SchemeName string

	Requests uint64
	Reads    uint64
	Writes   uint64

	// WriteHist and ReadHist hold CPU-visible request latencies.
	WriteHist stats.Histogram
	ReadHist  stats.Histogram

	// Breakdown accumulates the Fig. 17 write-path decomposition.
	Breakdown stats.Breakdown

	// SumReadLatency / SumWriteStall feed the IPC model.
	SumReadLatency sim.Time
	SumWriteStall  sim.Time
	// Stall is the total back-pressure lag accumulated by the closed-loop
	// arrival model: how much the scheme slowed the application down.
	Stall sim.Time

	// Energy combines scheme-side energy with NVM media energy.
	Energy stats.EnergyLedger

	// DataWrites counts unique data lines written to NVMM (Fig. 11);
	// DeviceWrites counts all media writes including metadata.
	DataWrites   uint64
	DeviceWrites uint64

	Scheme SchemeStats
	Wear   nvm.WearSummary

	// Hybrid holds the DRAM/PCM tier snapshot when the Env ran with
	// hybrid media enabled (scheme esd+caram); nil on plain PCM.
	Hybrid *media.HybridStats

	// Elapsed is the simulated time from first arrival to device idle.
	Elapsed sim.Time

	MetadataNVMM int64
	MetadataSRAM int64
}

// WriteReductionVs returns the fraction of data writes eliminated relative
// to a baseline result.
func (r *RunResult) WriteReductionVs(base *RunResult) float64 {
	if base.DataWrites == 0 {
		return 0
	}
	return 1 - float64(r.DataWrites)/float64(base.DataWrites)
}

// IPC estimates instructions per cycle using a simple in-order stall
// model: the application executes Requests*1000/MPKI instructions at
// BaseCPI, and memory adds read stalls (divided by the sustained MLP) plus
// write back-pressure stalls.
func (r *RunResult) IPC(cpu config.CPU, mpki float64) float64 {
	if r.Requests == 0 || mpki <= 0 {
		return 0
	}
	instr := float64(r.Requests) * 1000 / mpki
	cycleTime := float64(cpu.CycleTime())
	stallCycles := (float64(r.SumReadLatency)/cpu.ReadMLP +
		float64(r.SumWriteStall)*cpu.WriteBufferStallPenalty +
		float64(r.Stall)) / cycleTime
	cycles := instr*cpu.BaseCPI/float64(cpu.Cores) + stallCycles
	if cycles <= 0 {
		return 0
	}
	return instr / cycles
}

// Controller replays traces through a scheme.
type Controller struct {
	env    *Env
	scheme Scheme

	// VerifyReads enables the functional oracle: every read's plaintext is
	// checked against the latest written content for that logical address.
	VerifyReads bool
	// Warmup is the number of leading trace records that exercise the
	// system without being measured, mirroring the paper's initialization
	// phase: caches, predictors and metadata fill before statistics start.
	Warmup int

	// SlowThreshold enables slow-request logging during replay: any record
	// whose simulated service latency is at or above the threshold is
	// printed to SlowLog with its trace id and stage breakdown, so a tail
	// outlier in a long replay can be tied back to a specific request.
	SlowThreshold sim.Time
	SlowLog       io.Writer
	// SlowMax caps how many slow requests are logged (0 = unlimited), so a
	// mis-set threshold cannot flood gigabytes of log from one replay.
	SlowMax int

	oracle  map[uint64]ecc.Line
	reqSeq  uint64
	slowHit int
}

// NewController pairs a scheme with its environment.
func NewController(env *Env, scheme Scheme) *Controller {
	return &Controller{env: env, scheme: scheme, oracle: make(map[uint64]ecc.Line)}
}

// ErrReadCorruption is returned when VerifyReads catches a data mismatch —
// it means a scheme deduplicated two different lines.
var ErrReadCorruption = errors.New("memctrl: read returned wrong data")

// Run replays the stream to exhaustion and returns the aggregated result.
// It owns the Env's telemetry sink while it runs: it publishes the sink
// after every record a reader has asked for one (Sink.Await) and when it
// returns.
func (c *Controller) Run(s trace.Stream) (*RunResult, error) {
	defer c.env.Tel.Publish()
	res := &RunResult{SchemeName: c.scheme.Name()}
	interval := c.scheme.TickInterval()
	var nextTick sim.Time
	if interval > 0 {
		nextTick = interval
	}

	// Closed-loop back-pressure: at most MaxOutstanding requests may be in
	// flight. When the scheme falls behind the trace's arrival rate, later
	// arrivals are pushed back (lag), modelling the core stalling on full
	// MSHRs/write buffers — the application slows down instead of queueing
	// unboundedly.
	maxOut := c.env.Cfg.CPU.MaxOutstanding
	if maxOut < 1 {
		maxOut = 1
	}
	doneRing := make([]sim.Time, maxOut)
	ringIdx := 0
	var lag sim.Time
	var last sim.Time
	var prevArrival sim.Time
	warmLeft := c.Warmup
	var schemeBase SchemeStats
	var deviceWritesBase uint64
	var mediaEnergyBase float64
	var energyBase stats.EnergyLedger
	var lagBase sim.Time
	c.env.Tel.OnRunMark(telemetry.KindRunStart, 0, c.scheme.Name())
	if warmLeft == 0 {
		c.env.Tel.OnRunMark(telemetry.KindRunMeasure, 0, "no warmup")
	}
	for {
		rec, err := s.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return res, err
		}
		if rec.At < last {
			return res, fmt.Errorf("memctrl: trace time regressed at request %d", res.Requests)
		}
		last = rec.At

		arrival := rec.At + lag
		if slotFree := doneRing[ringIdx]; slotFree > arrival {
			lag += slotFree - arrival
			arrival = slotFree
		}
		if arrival < prevArrival {
			arrival = prevArrival
		}
		prevArrival = arrival

		for interval > 0 && nextTick <= arrival {
			c.scheme.Tick(nextTick)
			nextTick += interval
		}
		measuring := warmLeft == 0
		if measuring {
			res.Requests++
		}
		c.reqSeq++
		c.env.Tel.BeginRequest(telemetry.TraceCtx{TraceID: c.reqSeq, Span: 1, StartNs: int64(arrival)})
		var done sim.Time
		var slowBD stats.Breakdown
		switch rec.Op {
		case trace.OpWrite:
			out := c.scheme.Write(rec.Addr, &rec.Data, arrival)
			if out.Done < arrival {
				return res, fmt.Errorf("memctrl: write completed before arrival at request %d", res.Requests)
			}
			done = out.Done
			slowBD = out.Breakdown
			if measuring {
				res.Writes++
				res.WriteHist.Record(out.Done - arrival)
				res.Breakdown.Add(out.Breakdown)
				res.SumWriteStall += out.Breakdown.Queue
			}
			if c.VerifyReads {
				c.oracle[rec.Addr] = rec.Data
			}
		case trace.OpRead:
			out := c.scheme.Read(rec.Addr, arrival)
			if out.Done < arrival {
				return res, fmt.Errorf("memctrl: read completed before arrival at request %d", res.Requests)
			}
			done = out.Done
			if measuring {
				res.Reads++
				res.ReadHist.Record(out.Done - arrival)
				res.SumReadLatency += out.Done - arrival
			}
			if c.VerifyReads {
				if want, ok := c.oracle[rec.Addr]; ok {
					if !out.Hit || out.Data != want {
						return res, fmt.Errorf("%w: logical line %d", ErrReadCorruption, rec.Addr)
					}
				}
			}
		default:
			return res, fmt.Errorf("memctrl: unknown op %v", rec.Op)
		}
		if c.SlowThreshold > 0 && c.SlowLog != nil && done-arrival >= c.SlowThreshold {
			c.logSlow(rec.Op, rec.Addr, arrival, done, &slowBD)
		}
		doneRing[ringIdx] = done
		ringIdx = (ringIdx + 1) % maxOut
		c.env.Tel.OnRunProgress(lag)
		c.env.Tel.PublishIfAsked()
		if !measuring {
			warmLeft--
			if warmLeft == 0 {
				schemeBase = c.scheme.Stats()
				mst := c.env.Device.MediaStats()
				deviceWritesBase = mst.Writes
				mediaEnergyBase = mst.MediaEnergy
				energyBase = c.env.Energy
				lagBase = lag
				c.env.Tel.OnRunMark(telemetry.KindRunMeasure, arrival, "warmup complete")
			}
		}
	}
	idle := c.env.Device.Flush(last + lag)
	c.env.Tel.OnRunMark(telemetry.KindRunEnd, idle, c.scheme.Name())
	res.Elapsed = idle
	res.Stall = lag - lagBase

	res.Scheme = c.scheme.Stats().Sub(schemeBase)
	res.DataWrites = res.Scheme.UniqueWrites
	mst := c.env.Device.MediaStats()
	res.DeviceWrites = mst.Writes - deviceWritesBase
	res.Wear = c.env.Device.Wear()
	res.Energy = c.env.Energy.Sub(energyBase)
	res.Energy.Media += mst.MediaEnergy - mediaEnergyBase
	res.MetadataNVMM = c.scheme.MetadataNVMM()
	res.MetadataSRAM = c.scheme.MetadataSRAM()
	if h := c.env.Hybrid(); h != nil {
		snap := h.Snapshot()
		res.Hybrid = &snap
	}
	return res, nil
}

// logSlow prints one slow-request line: trace id, simulated arrival and
// latency, plus (for writes) the non-zero stage decomposition, matching
// the stage names the live /statusz endpoint reports.
func (c *Controller) logSlow(op trace.Op, addr uint64, arrival, done sim.Time, bd *stats.Breakdown) {
	if c.SlowMax > 0 && c.slowHit >= c.SlowMax {
		return
	}
	c.slowHit++
	kind := "read"
	if op == trace.OpWrite {
		kind = "write"
	}
	fmt.Fprintf(c.SlowLog, "memctrl: slow %s trace=%d addr=%d at=%s lat=%s",
		kind, c.reqSeq, addr, arrival, done-arrival)
	if op == trace.OpWrite {
		st := telemetry.StagesFromBreakdown(bd)
		for i := range st {
			if st[i] > 0 {
				fmt.Fprintf(c.SlowLog, " %s=%s", telemetry.Stage(i), st[i])
			}
		}
	}
	fmt.Fprintln(c.SlowLog)
}

// SlowLogged reports how many slow requests were printed so far.
func (c *Controller) SlowLogged() int { return c.slowHit }

// Env returns the controller's environment (for inspection in tests and
// experiments).
func (c *Controller) Env() *Env { return c.env }
