//! The metric tables: every name the ledger may emit, with its unit and
//! direction. `BENCHMARK.json` at the repo root carries the same tables
//! (the smoke test holds the two together).

/// An end-to-end metric: `(name, unit, better, bound)`. `bound` is the
/// share of the parent's median by which the metric may worsen before
/// the change counts as a regression.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    // Input generation from the seed, journal pre-population and the
    // warm-up iterations; median of the set-up rounds of one run.
    ("setup_s", "s", "lower", 0.25),
    // Median host seconds of one iteration. The time bounds sit at the
    // contract's cap: on the shared two-vCPU sandbox the run-to-run
    // spread of the memory-bound `event-mega` reached 0.22 (the other
    // four workloads stay under 0.05), and one bound covers them all.
    ("wall_s", "s", "lower", 0.25),
    // Fixed work units of one iteration ÷ `wall_s`.
    ("work_per_s", "1/s", "higher", 0.25),
    // User + system CPU seconds per iteration (mean over the window):
    // shows cores burnt that a wall clock hides.
    ("cpu_s", "s", "lower", 0.25),
    // `VmHWM` after the last measured iteration.
    ("peak_rss_mb", "MB", "lower", 0.15),
];

/// A per-layer metric: `(name, unit, better)`. Emitted by traced runs;
/// a workload that does not exercise a layer reports `0` for it.
pub const PER_LAYER: [(&str, &str, &str); 90] = [
    ("cli.dispatch_us", "us", "lower"),
    ("cli.residual_s", "s", "lower"),
    ("lab.keys", "count", "higher"),
    ("lab.spec_parse_us", "us", "lower"),
    ("lab.expand_ns_per_key", "ns", "lower"),
    ("lab.digest_ns_per_key", "ns", "lower"),
    ("lab.spec_digest_ms", "ms", "lower"),
    ("lab.cache_put_us_per_key", "us", "lower"),
    ("lab.journal_append_us_per_key", "us", "lower"),
    ("lab.csv_ns_per_key", "ns", "lower"),
    ("lab.pareto_ms", "ms", "lower"),
    ("lab.run_keys_j1_s", "s", "lower"),
    ("lab.run_keys_j2_s", "s", "lower"),
    ("lab.pool_speedup", "ratio", "higher"),
    ("lab.pool_overhead_frac", "ratio", "lower"),
    ("lab.cache_hits_cold", "count", "higher"),
    ("lab.cache_misses_cold", "count", "lower"),
    ("lab.rec_files", "count", "lower"),
    ("lab.rec_bytes_per_key", "bytes", "lower"),
    ("lab.journal_bytes_per_key", "bytes", "lower"),
    ("lab.residual_s", "s", "lower"),
    ("lab.cache_get_disk_us_per_key", "us", "lower"),
    ("lab.cache_get_mem_ns_per_key", "ns", "lower"),
    ("lab.journal_resume_us_per_key", "us", "lower"),
    ("lab.warm_rerun_s", "s", "lower"),
    ("lab.resume_s", "s", "lower"),
    ("core.model_eval_ns_per_key", "ns", "lower"),
    ("core.optimize_ms", "ms", "lower"),
    ("hbl.parse_us", "us", "lower"),
    ("hbl.analyze_us", "us", "lower"),
    ("hbl.derive_us", "us", "lower"),
    ("hbl.kernel_key_us", "us", "lower"),
    ("metrics.profile_overhead_ratio", "ratio", "lower"),
    ("metrics.hist_record_ns", "ns", "lower"),
    ("kernels.host_peak_gflops", "GFLOP/s", "higher"),
    ("kernels.gemm_n256_gflops", "GFLOP/s", "higher"),
    ("kernels.gemm_n512_gflops", "GFLOP/s", "higher"),
    ("kernels.gemm_frac_peak", "ratio", "higher"),
    ("kernels.lu_n512_gflops", "GFLOP/s", "higher"),
    ("kernels.fft_n65536_gflops", "GFLOP/s", "higher"),
    ("kernels.nbody_n2048_gflops", "GFLOP/s", "higher"),
    ("sim.spawn_p64_us", "us", "lower"),
    ("sim.spawn_p256_us", "us", "lower"),
    ("sim.ring_p64_us_per_msg", "us", "lower"),
    ("sim.bcast_p64_us_per_msg", "us", "lower"),
    ("sim.allreduce_p64_us_per_msg", "us", "lower"),
    ("sim.allreduce_p256_us_per_msg", "us", "lower"),
    ("faults.overhead_ratio", "ratio", "lower"),
    ("faults.retries", "count", "lower"),
    ("algos.mm25d_ms", "ms", "lower"),
    ("algos.nbody_ms", "ms", "lower"),
    ("algos.samplesort_ms", "ms", "lower"),
    ("algos.stencil_ms", "ms", "lower"),
    ("algos.serial_ref_ms", "ms", "lower"),
    ("algos.msgs", "count", "lower"),
    ("algos.words", "count", "lower"),
    ("algos.flops", "count", "lower"),
    ("algos.us_per_msg", "us", "lower"),
    ("event.stencil_ms", "ms", "lower"),
    ("event.mm25d_ms", "ms", "lower"),
    ("event.samplesort_ms", "ms", "lower"),
    ("event.faulted_ms", "ms", "lower"),
    ("event.fast_binomial_p1m_ms", "ms", "lower"),
    ("event.fast_rd_ms", "ms", "lower"),
    ("event.fast_ring_ms", "ms", "lower"),
    ("event.sched_ns_per_msg", "ns", "lower"),
    ("event.msgs", "count", "lower"),
    ("event.retries", "count", "lower"),
    ("event.slab_live_peak", "count", "lower"),
    ("event.slab_recycled", "count", "higher"),
    ("event.calq_overflow", "count", "lower"),
    ("event.general_over_fast", "ratio", "higher"),
    ("event.parallel_speedup", "ratio", "higher"),
    ("event.first_iter_over_median", "ratio", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.text_bytes", "bytes", "lower"),
    ("trace.record_overhead_ratio", "ratio", "lower"),
    ("trace.to_text_ms", "ms", "lower"),
    ("trace.from_text_ms", "ms", "lower"),
    ("trace.replay_ns_per_event", "ns", "lower"),
    ("trace.critical_path_ms", "ms", "lower"),
    ("trace.flame_ms", "ms", "lower"),
    ("trace.chrome_ms", "ms", "lower"),
    ("driver.iters", "count", "higher"),
    ("driver.iter_hi_s", "s", "lower"),
    ("driver.iter_hi_pct", "%", "higher"),
    ("driver.trace_overhead_ratio", "ratio", "lower"),
    ("driver.residual_s", "s", "lower"),
    ("driver.fail_frac", "ratio", "lower"),
    ("driver.stat_drift", "count", "lower"),
];
