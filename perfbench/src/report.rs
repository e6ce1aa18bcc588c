//! Metric names, units and the result lines the benchmark prints.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs): name and unit, as in
/// `BENCHMARK.json`.  Every workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs): name and unit, as in
/// `BENCHMARK.json`.  A layer a workload never calls reports 0.
/// Sums and counts are per unit of work (session, pass or cycle).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("snapshot.apply_ms_p50", "ms"),
    ("snapshot.apply_ms_sum", "ms"),
    ("snapshot.ingest_edges_per_s", "edges/s"),
    ("snapshot.override_bytes", "bytes"),
    ("wal.fsyncs", "count"),
    ("wal.fsync_ms_sum", "ms"),
    ("wal.append_bytes", "bytes"),
    ("wal.open_ms", "ms"),
    ("engine.submit_ms_p50", "ms"),
    ("engine.results_ms_p50", "ms"),
    ("exec.step_round_ms_p50", "ms"),
    ("exec.step_round_ms_sum", "ms"),
    ("exec.rounds", "count"),
    ("exec.loads", "count"),
    ("exec.jobs_per_load", "ratio"),
    ("exec.load_trigger_ms_sum", "ms"),
    ("job.push_ms_sum", "ms"),
    ("job.push_share", "ratio"),
    ("incr.submit_resumed_ms_p50", "ms"),
    ("incr.seeded_frac", "ratio"),
    ("incr.loads_per_refresh", "count"),
    ("serve.serve_ms", "ms"),
    ("serve.waves", "count"),
    ("serve.mean_wave_size", "jobs"),
    ("serve.rounds", "count"),
    ("serve.modeled_latency_p50_ms", "ms"),
    ("serve.modeled_latency_p95_ms", "ms"),
    ("serve.modeled_wait_p50_ms", "ms"),
    ("memsim.modeled_s", "s"),
    ("memsim.wall_over_modeled", "ratio"),
    ("memsim.disk_bytes", "bytes"),
    ("memsim.cache_misses", "count"),
    ("memsim.edge_ops", "count"),
    ("memsim.vertex_ops", "count"),
    ("memsim.sync_ops", "count"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.dropped_events", "count"),
];

/// Named metric values; names must come from [`END_TO_END`] or
/// [`PER_LAYER`].
#[derive(Clone, Debug, Default)]
pub struct MetricSet(BTreeMap<&'static str, f64>);

impl MetricSet {
    /// Sets a metric.  Panics on an unknown name or a non-finite value:
    /// both are bugs in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .find(|&n| n == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(key, value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Host and thread record printed beside every result.
#[derive(Clone, Debug, Default)]
pub struct Record {
    /// The workload seed.
    pub seed: u64,
    /// `available_parallelism()` of the host.
    pub nproc: usize,
    /// Engine trigger workers, clamped to `nproc`.
    pub workers: usize,
    /// Dedicated engine I/O worker threads.
    pub io_workers: usize,
    /// Units of work measured.
    pub units: usize,
    /// Latency samples behind `latency_p50_ms` / `latency_p95_ms`.
    pub latency_samples: usize,
    /// What one latency sample times.
    pub latency_of: &'static str,
    /// `closed_mix`: share of the session wall with fewer than `clients`
    /// jobs open (the drain after the script runs out).
    pub drain_frac: Option<f64>,
}

impl Record {
    /// A record of this host and of the engine thread settings every
    /// workload runs with.
    pub fn for_host(latency_of: &'static str) -> Record {
        let engine = crate::engine_config(Default::default(), None);
        Record {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers: engine.workers,
            io_workers: engine.io_workers,
            latency_of,
            ..Record::default()
        }
    }
}

/// Everything one invocation measured.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs, plus applies and reopens where made).
    pub attempted: u64,
    /// Operations that did not converge or failed their oracle, plus
    /// units whose deterministic counters did not repeat.
    pub failed: u64,
    /// Measured metrics.
    pub metrics: MetricSet,
    /// Host and thread record.
    pub record: Record,
}

impl Outcome {
    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The record line: seed, host and thread counts, sample counts.
    pub fn record_line(&self, workload: &str) -> String {
        let r = &self.record;
        let drain = r
            .drain_frac
            .map_or(String::new(), |d| format!(", \"drain_frac\": {d}"));
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {}, \"nproc\": {}, \"workers\": {}, \
             \"io_workers\": {}, \"units\": {}, \"latency_samples\": {}, \
             \"latency_of\": \"{}\"{drain}, \"failed_frac\": {}}}",
            r.seed,
            r.nproc,
            r.workers,
            r.io_workers,
            r.units,
            r.latency_samples,
            r.latency_of,
            self.failed_frac(),
        )
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric of the mode's table with its unit.  A per-layer metric the
    /// workload never set reports 0 (its layer is idle there); a missing
    /// end-to-end metric is a bug and panics.
    pub fn result_line(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
