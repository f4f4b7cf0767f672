package shard

import (
	"errors"
	"io"

	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/nvm"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
	"github.com/esdsim/esd/internal/trace"
)

// Snapshot is one shard's consistent view of its counters, taken by the
// shard worker itself through a barrier (so it reflects exactly the
// requests submitted before the barrier).
type Snapshot struct {
	Shard        int
	Scheme       memctrl.SchemeStats
	WriteHist    stats.Histogram
	ReadHist     stats.Histogram
	Energy       stats.EnergyLedger
	MediaEnergy  float64 // nJ, accounted by the device
	DeviceWrites uint64
	DeviceReads  uint64
	Wear         nvm.WearSummary
	MetadataNVMM int64
	MetadataSRAM int64
	Now          sim.Time
	QueueLen     int
}

// Summary aggregates per-shard snapshots into the same shapes the
// single-shard System reports, so experiment figures and the JSON stats
// endpoint read identically regardless of shard count.
type Summary struct {
	Shards int
	// Scheme is the field-wise sum of every shard's event counters; its
	// DedupRate therefore is the aggregate dedup rate.
	Scheme memctrl.SchemeStats
	// WriteHist and ReadHist merge the per-shard simulated service-time
	// histograms.
	WriteHist stats.Histogram
	ReadHist  stats.Histogram
	// Energy is the summed ledger including media energy.
	Energy       stats.EnergyLedger
	DeviceWrites uint64
	DeviceReads  uint64
	MetadataNVMM int64
	MetadataSRAM int64
	// MaxWear is the hottest line across all shards; MeanWear averages
	// over touched lines (write-volume weighted).
	MaxWear  uint64
	MeanWear float64
	// Now is the furthest shard clock.
	Now sim.Time
	// Shed counts Try* requests rejected with ErrOverloaded.
	Shed uint64
}

func merge(e *Engine, snaps []Snapshot) Summary {
	sum := Summary{Shards: len(snaps), Shed: e.shed.Load()}
	var wearWrites, wearLines uint64
	for i := range snaps {
		sn := &snaps[i]
		sum.Scheme = sum.Scheme.Add(sn.Scheme)
		sum.WriteHist.Merge(&sn.WriteHist)
		sum.ReadHist.Merge(&sn.ReadHist)
		sum.Energy.Add(sn.Energy)
		sum.Energy.Media += sn.MediaEnergy
		sum.DeviceWrites += sn.DeviceWrites
		sum.DeviceReads += sn.DeviceReads
		sum.MetadataNVMM += sn.MetadataNVMM
		sum.MetadataSRAM += sn.MetadataSRAM
		if sn.Wear.MaxWear > sum.MaxWear {
			sum.MaxWear = sn.Wear.MaxWear
		}
		wearWrites += sn.Wear.TotalWrites
		wearLines += uint64(sn.Wear.LinesTouched)
		if sn.Now > sum.Now {
			sum.Now = sn.Now
		}
	}
	if wearLines > 0 {
		sum.MeanWear = float64(wearWrites) / float64(wearLines)
	}
	return sum
}

// ReplayResult reports a sharded trace replay.
type ReplayResult struct {
	Summary
	Requests uint64
	Reads    uint64
	Writes   uint64
}

// Replay routes every record of the stream to its owning shard in stream
// order and waits for all of them to complete (full barrier), then
// returns the merged summary. Routing is fire-and-forget with bounded
// queues, so shards run concurrently while intra-shard order follows the
// stream; record arrival timestamps are ignored (each shard self-clocks),
// which makes a sharded replay a throughput-oriented reproduction rather
// than a timing-accurate one — see DESIGN.md §7 for the determinism
// contract that holds regardless.
func (e *Engine) Replay(stream trace.Stream) (*ReplayResult, error) {
	res := &ReplayResult{}
	for {
		rec, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		res.Requests++
		var k kind
		switch rec.Op {
		case trace.OpWrite:
			k = kWrite
			res.Writes++
		case trace.OpRead:
			k = kRead
			res.Reads++
		default:
			return nil, errors.New("shard: unknown trace op")
		}
		sh := e.ShardOf(rec.Addr)
		if err := e.submit(sh, request{kind: k, addr: e.localAddr(rec.Addr), line: rec.Data}, true); err != nil {
			return nil, err
		}
	}
	if err := e.Flush(); err != nil {
		return nil, err
	}
	sum, err := e.Summary()
	if err != nil {
		return nil, err
	}
	res.Summary = sum
	return res, nil
}
