package main

import (
	"fmt"

	"github.com/esdsim/esd/internal/telemetry"
)

// metricDef names one reported metric and its unit. Directions and bounds
// live in BENCHMARK.json, which the tests hold to this list.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the routed cluster sees. Host-clock
// metrics come from the whole window; simulated-clock metrics and the heap
// from the fixed-count part of it, so they do not move with host speed.
// Latency is gated as a mean: the body of the scalar workloads' latency
// distribution shifts from run to run while the mean, which the closed
// loop ties to throughput, holds (the p50s are client.* metrics).
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s"},
	{"write_mean_us", "us"},
	{"read_mean_us", "us"},
	{"setup_s", "s"},
	{"live_heap_mb", "MiB"},
	{"sim_write_ns_mean", "ns"},
	{"sim_read_ns_mean", "ns"},
	{"dedup_rate", "fraction"},
	{"media_writes_per_write", "ratio"},
	{"energy_nj_per_op", "nJ"},
}

// perLayer are the traced pass's metrics: the ladder rows, the kernels,
// the simulated stages, and the per-layer counters of the end-to-end
// window.
func perLayer() []metricDef {
	var d []metricDef
	for _, row := range ladderRows {
		d = append(d,
			metricDef{row + ".write_ns_p50", "ns"},
			metricDef{row + ".write_ns_p99", "ns"},
			metricDef{row + ".read_ns_p50", "ns"},
			metricDef{row + ".read_ns_p99", "ns"},
			metricDef{row + ".self_write_ns", "ns"},
			metricDef{row + ".self_read_ns", "ns"},
			metricDef{row + ".allocs_per_op", "allocs/op"},
		)
	}
	d = append(d,
		metricDef{frontRow + ".span_overhead_frac", "fraction"},
		metricDef{"ecc.encode_ns_per_line", "ns"},
		metricDef{"crypto.encrypt_ns_per_line", "ns"},
	)
	for i := 0; i < telemetry.NumStages; i++ {
		d = append(d, metricDef{fmt.Sprintf("stage.%s_sim_ns_p50", telemetry.Stage(i)), "ns"})
	}
	return append(d,
		metricDef{"memctrl.efit_hit_rate", "fraction"},
		metricDef{"memctrl.compare_reads_per_write", "ratio"},
		metricDef{"memctrl.compare_mismatch_rate", "fraction"},
		metricDef{"media.device_reads_per_read", "ratio"},
		metricDef{"media.dram_hit_rate", "fraction"},
		metricDef{"media.wal_appends_per_write", "ratio"},
		metricDef{"media.promotions_per_kop", "1/kop"},
		metricDef{"media.demotions_per_kop", "1/kop"},
		metricDef{"media.writebacks_per_kop", "1/kop"},
		metricDef{"shard.queue_len_mean", "count"},
		metricDef{"shard.queue_len_max", "count"},
		metricDef{"shard.shed", "count"},
		metricDef{"cluster.retries", "count"},
		metricDef{"cluster.failovers", "count"},
		metricDef{"cluster.read_repairs", "count"},
		metricDef{"client.write_p50_us", "us"},
		metricDef{"client.read_p50_us", "us"},
		metricDef{"client.write_p99_us", "us"},
		metricDef{"client.read_p99_us", "us"},
		metricDef{"client.write_p999_us", "us"},
		metricDef{"client.read_p999_us", "us"},
		metricDef{"client.gc_pause_ms", "ms"},
		metricDef{"client.ops_per_s_raw", "ops/s"},
		metricDef{"client.echo_per_s", "1/s"},
	)
}
