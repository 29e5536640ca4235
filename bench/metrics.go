package main

// metricDef is one metric as BENCHMARK.json declares it. bound is the
// share of the baseline median by which an end-to-end metric may get
// worse before that counts as a regression (and the most two runs of
// one commit may differ by); per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists the metrics a user of the pipeline would see, measured
// with tracing off. Every workload reports every one of them (see
// README.md for what each means on a workload it was not designed for).
var endToEnd = []metricDef{
	{"images_per_s", "img/s", "higher", 0.25},
	{"capture_images_per_s", "img/s", "higher", 0.25},
	{"cpu_ms_per_image", "ms", "lower", 0.25},
	{"alloc_kb_per_image", "KiB", "lower", 0.15},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"on_time_share", "ratio", "higher", 0.02},
	{"delivered_share", "ratio", "higher", 0.001},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the metrics of single layers, reported by the traced
// run: isolated timings of each layer's public functions, readings of
// the program's own accessors during traced repeats, and the bench's
// diagnostics.
var perLayer = []metricDef{
	{name: "jpeg.parse_us", unit: "us", better: "lower"},
	{name: "jpeg.entropy_us", unit: "us", better: "lower"},
	{name: "jpeg.entropy_mb_s", unit: "MB/s", better: "higher"},
	{name: "jpeg.reconstruct_us", unit: "us", better: "lower"},
	{name: "jpeg.decode_fused_us", unit: "us", better: "lower"},
	{name: "jpeg.decode_floor_us", unit: "us", better: "lower"},
	{name: "jpeg.decode_allocs", unit: "count", better: "lower"},
	{name: "imageproc.resize_us", unit: "us", better: "lower"},
	{name: "fpga.cmd_latency_us", unit: "us", better: "lower"},
	{name: "fpga.handoff_us", unit: "us", better: "lower"},
	{name: "fpga.device_images_per_s", unit: "img/s", better: "higher"},
	{name: "fpga.stage_busy_share.parser", unit: "ratio", better: "lower"},
	{name: "fpga.stage_busy_share.huffman", unit: "ratio", better: "lower"},
	{name: "fpga.stage_busy_share.idct", unit: "ratio", better: "lower"},
	{name: "fpga.stage_busy_share.resize", unit: "ratio", better: "lower"},
	{name: "core.reader_images_per_s", unit: "img/s", better: "higher"},
	{name: "core.reader_efficiency", unit: "ratio", better: "higher"},
	{name: "core.full_queue_wait_ms", unit: "ms", better: "lower"},
	{name: "core.get_item_wait_ms", unit: "ms", better: "lower"},
	{name: "core.batch_fill", unit: "ratio", better: "higher"},
	{name: "core.dispatch_us_per_batch", unit: "us", better: "lower"},
	{name: "gpu.h2d_us_per_batch", unit: "us", better: "lower"},
	{name: "gpu.h2d_gb_s", unit: "GB/s", better: "higher"},
	{name: "engine.infer_us_per_image", unit: "us", better: "lower"},
	{name: "core.cache_add_us_per_batch", unit: "us", better: "lower"},
	{name: "core.cache_replay_ram_images_per_s", unit: "img/s", better: "higher"},
	{name: "core.cache_replay_spill_images_per_s", unit: "img/s", better: "higher"},
	{name: "core.cache_hit_share", unit: "ratio", better: "higher"},
	{name: "nvme.spill_put_us_per_batch", unit: "us", better: "lower"},
	{name: "nvme.spill_get_us_per_batch", unit: "us", better: "lower"},
	{name: "hugepage.getput_ns", unit: "ns", better: "lower"},
	{name: "queue.handoff_ns", unit: "ns", better: "lower"},
	{name: "queue.pushpop_ns", unit: "ns", better: "lower"},
	{name: "fleet.submit_ns", unit: "ns", better: "lower"},
	{name: "fleet.shard_imbalance", unit: "ratio", better: "lower"},
	{name: "fleet.shed_total", unit: "count", better: "lower"},
	{name: "fleet.steals_total", unit: "count", better: "lower"},
	{name: "metrics.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.waterfall_residual_pct", unit: "%", better: "lower"},
	{name: "bench.p50_ms", unit: "ms", better: "lower"},
	{name: "bench.p95_ms", unit: "ms", better: "lower"},
	{name: "bench.p99_ms", unit: "ms", better: "lower"},
	{name: "bench.miss_share", unit: "ratio", better: "lower"},
	{name: "bench.gen_late_p99_ms", unit: "ms", better: "lower"},
	{name: "bench.allocs_per_image", unit: "count", better: "lower"},
	{name: "bench.repeat_iqr_pct", unit: "%", better: "lower"},
}
