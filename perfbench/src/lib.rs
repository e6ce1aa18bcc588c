//! Wall-clock benchmark of the CGraph stack, end to end and per layer.
//!
//! Three workloads drive the public API of the engine, the snapshot
//! store and the serve loop, and check every output they produce:
//!
//! * `closed_mix` — a closed loop of clients submitting iterative jobs
//!   against one static graph: the paper's many-jobs-share-each-load case.
//! * `standing_refresh` — one long-lived engine refreshing BFS, WCC and
//!   SSSP per version of an additions-only stream through the resume path.
//! * `evolving_serve` — durable ingest of an add/remove stream, a
//!   diurnal trace served over the resulting versions, then a reopen.
//!
//! Each workload repeats a fixed, seeded unit of work (a session, a
//! pass, a cycle) in rounds over its input variants.  The untraced mode
//! reports the end-to-end metrics as medians over rounds; the traced
//! mode times each layer's public calls from outside, reads what the
//! product already records through the public `Observer` registry, and
//! reports the per-layer metrics.  Units on one variant must repeat the
//! same deterministic counters, so a later change can cite them as counts.

mod closed_mix;
mod evolving_serve;
mod jobs;
pub mod report;
mod standing_refresh;
mod stats;

use std::sync::Arc;
use std::time::Instant;

use cgraph_core::obs::EventKind;
use cgraph_core::{EngineConfig, Observer, TraceDump};
use cgraph_memsim::{HierarchyConfig, Metrics};

pub use report::{Outcome, END_TO_END, PER_LAYER};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of clients over a static graph.
    ClosedMix,
    /// Standing jobs refreshed per version through `submit_resumed_at`.
    StandingRefresh,
    /// Durable ingest beside a served trace, then a reopen.
    EvolvingServe,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ClosedMix,
        Workload::StandingRefresh,
        Workload::EvolvingServe,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosedMix => "closed_mix",
            Workload::StandingRefresh => "standing_refresh",
            Workload::EvolvingServe => "evolving_serve",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the measured sizes, or tiny ones for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures at.
    Full,
    /// Tiny inputs that run every workload in about a second.
    Smoke,
}

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Which workload to run.
    pub workload: Workload,
    /// Seeds the graph, job sources, delta stream and arrival trace.
    pub seed: u64,
    /// How long to keep starting units of work.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
}

/// Runs one invocation.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = match opts.workload {
        Workload::ClosedMix => closed_mix::run(opts),
        Workload::StandingRefresh => standing_refresh::run(opts),
        Workload::EvolvingServe => evolving_serve::run(opts),
    };
    out.record.seed = opts.seed;
    if !opts.trace {
        out.metrics.set("peak_rss_mb", stats::peak_rss_mb());
    }
    out
}

/// The seed of input variant `i` of a run seeded with `seed`.
///
/// A run cycles its units over several seeded variants (graph, job
/// sources, stream, trace): one R-MAT graph's quirks move a figure by
/// tens of percent, so averaging over several keeps a run's medians
/// steady from seed to seed.  Unit `u` uses variant `u % variants`.
pub(crate) fn variant_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 31;
    z
}

/// `EngineConfig::default()` with one worker per available core, never
/// more (fork-join rounds, no I/O worker threads).
pub(crate) fn engine_config(
    hierarchy: HierarchyConfig,
    observer: Option<Arc<Observer>>,
) -> EngineConfig {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    EngineConfig { workers, hierarchy, observer, ..EngineConfig::default() }
}

/// An enabled observer whose per-thread rings hold `events` events, so
/// a traced unit sized from an untraced one drops nothing.
pub(crate) fn observer_for(events: usize) -> Arc<Observer> {
    Observer::with_ring_capacity(events.max(4096))
}

/// Runs `setup` `reps` times and returns the median wall seconds with
/// the last result.  Each repetition's result is dropped before the
/// next is built, so the process never holds two copies at once.
pub(crate) fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        let value = setup();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (stats::median(&secs), last.expect("at least one setup ran"))
}

/// Calls `unit(i)` for `i = 0, 1, ..` in whole cycles of `cycle` units,
/// at least `min_cycles` of them, until `seconds` have passed since the
/// first call; returns the count.  Whole cycles weight every input
/// variant equally.
pub(crate) fn repeat_for(
    seconds: f64,
    cycle: usize,
    min_cycles: usize,
    mut unit: impl FnMut(usize),
) -> usize {
    let cycle = cycle.max(1);
    let min_units = cycle * min_cycles.max(1);
    let start = Instant::now();
    let mut n = 0;
    while n < min_units || n % cycle != 0 || start.elapsed().as_secs_f64() < seconds {
        unit(n);
        n += 1;
    }
    n
}

/// Rounds an untraced run measures at least, so the median over rounds
/// can outvote one slow round.
pub(crate) const MIN_ROUNDS: usize = 3;

/// One unit's end-to-end figures: jobs converged, wall seconds of its
/// timed phase, and its latency samples (ms).
pub(crate) struct UnitFigures<'a> {
    /// Jobs converged.
    pub jobs: f64,
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
    /// Latency samples, ms.
    pub latencies_ms: &'a [f64],
}

/// Sets `setup_s`, `jobs_per_s` and `latency_p50_ms` / `latency_p95_ms`.
///
/// Units are grouped into rounds of `variants` (every variant once);
/// each round gives a throughput and pooled percentiles, and the run
/// reports their medians, so a transient slowdown of the host that
/// spans less than half the rounds does not move the result.  Returns
/// the total latency sample count.
pub(crate) fn set_end_to_end(
    m: &mut report::MetricSet,
    setup_s: f64,
    units: &[UnitFigures],
    variants: usize,
) -> usize {
    let mut rate = Vec::new();
    let mut p50 = Vec::new();
    let mut p95 = Vec::new();
    for round in units.chunks(variants.max(1)) {
        let jobs: f64 = round.iter().map(|u| u.jobs).sum();
        let wall: f64 = round.iter().map(|u| u.wall_s).sum();
        let lat: Vec<f64> = round
            .iter()
            .flat_map(|u| u.latencies_ms.iter().copied())
            .collect();
        rate.push(jobs / wall);
        p50.push(stats::quantile(&lat, 0.5));
        p95.push(stats::quantile(&lat, 0.95));
    }
    m.set("setup_s", setup_s);
    m.set("jobs_per_s", stats::median(&rate));
    m.set("latency_p50_ms", stats::median(&p50));
    m.set("latency_p95_ms", stats::median(&p95));
    units.iter().map(|u| u.latencies_ms.len()).sum()
}

/// The counters a unit of work must repeat exactly across units and
/// runs with the same seed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Counts {
    /// Partition loads.
    pub loads: u64,
    /// Executed rounds.
    pub rounds: u64,
    /// Serve-loop admission waves (0 outside `evolving_serve`).
    pub waves: u64,
    /// The memory-hierarchy ledger's counters.
    pub metrics: Metrics,
    /// Modeled seconds, compared bit for bit.
    pub modeled_bits: u64,
}

impl Counts {
    /// Modeled seconds.
    pub fn modeled_s(&self) -> f64 {
        f64::from_bits(self.modeled_bits)
    }
}

/// Checks every unit's counters against those of the first unit on the
/// same variant (unit `u` runs variant `u % variants`); returns the
/// number of units that differ.
pub(crate) fn count_mismatches(units: &[Counts], variants: usize) -> u64 {
    let v = variants.max(1);
    (v..units.len())
        .filter(|&u| units[u] != units[u % v])
        .count() as u64
}

/// What the traced units of a workload saw of the round executor, Push
/// and the observer; reported as the `exec.*`, `job.*`, `memsim.*` and
/// `obs.*` per-layer metrics.
#[derive(Clone, Debug, Default)]
pub(crate) struct ExecTrace {
    /// Wall ms of every executed round.
    pub step_ms: Vec<f64>,
    /// Push ms over all traced units (the engine's `push_us` histogram).
    pub push_ms: f64,
    /// `(slot, job)` entries the rounds executed (`Install` event values).
    pub entries: u64,
    /// Partition loads over all traced units.
    pub loads: u64,
    /// Wall seconds of each traced unit.
    pub walls: Vec<f64>,
    /// Trace events the observer rings dropped.
    pub dropped: u64,
}

impl ExecTrace {
    /// Folds in one traced unit: its observer (drained into `dump`), its
    /// loads and its wall seconds.
    pub fn absorb(&mut self, observer: &Observer, dump: &TraceDump, loads: u64, wall: f64) {
        self.push_ms += hist_ms(observer, "push_us");
        self.entries += event_totals(dump, EventKind::Install).1;
        self.loads += loads;
        self.walls.push(wall);
        self.dropped += dump.dropped_events;
    }

    /// Sets the executor, Push, ledger and observer metrics.  Sums are
    /// per unit; `counts` are one unit's deterministic counters and
    /// `untraced_wall` the wall seconds of the same unit untraced.
    pub fn report(&self, m: &mut report::MetricSet, counts: &Counts, untraced_wall: f64) {
        let units = self.walls.len().max(1) as f64;
        let step_sum = self.step_ms.iter().sum::<f64>() / units;
        let push_sum = self.push_ms / units;
        m.set("exec.step_round_ms_p50", stats::median(&self.step_ms));
        m.set("exec.step_round_ms_sum", step_sum);
        m.set("exec.rounds", counts.rounds as f64);
        m.set("exec.loads", counts.loads as f64);
        m.set(
            "exec.jobs_per_load",
            self.entries as f64 / self.loads.max(1) as f64,
        );
        m.set("exec.load_trigger_ms_sum", step_sum - push_sum);
        m.set("job.push_ms_sum", push_sum);
        m.set(
            "job.push_share",
            if step_sum > 0.0 {
                push_sum / step_sum
            } else {
                0.0
            },
        );
        let modeled = counts.modeled_s();
        m.set("memsim.modeled_s", modeled);
        m.set(
            "memsim.wall_over_modeled",
            if modeled > 0.0 {
                untraced_wall / modeled
            } else {
                0.0
            },
        );
        m.set("memsim.disk_bytes", counts.metrics.bytes_disk_to_mem as f64);
        m.set("memsim.cache_misses", counts.metrics.cache_misses as f64);
        m.set("memsim.edge_ops", counts.metrics.edge_ops as f64);
        m.set("memsim.vertex_ops", counts.metrics.vertex_ops as f64);
        m.set("memsim.sync_ops", counts.metrics.sync_ops as f64);
        m.set(
            "obs.overhead_ratio",
            untraced_wall / stats::mean(&self.walls).max(1e-9),
        );
        m.set("obs.dropped_events", self.dropped as f64);
    }
}

/// The durations (ms) of the trace events of `kind` in `dump`, and the
/// sum of their values.
pub(crate) fn event_totals(dump: &TraceDump, kind: EventKind) -> (Vec<f64>, u64) {
    let mut durs = Vec::new();
    let mut values = 0u64;
    for e in dump.events.iter().filter(|e| e.kind == kind) {
        durs.push(e.dur_ns as f64 / 1e6);
        values += e.value;
    }
    (durs, values)
}

/// Microsecond histogram sum from the observer registry, in ms.
pub(crate) fn hist_ms(observer: &Observer, name: &str) -> f64 {
    observer.registry().histogram(name).sum() as f64 / 1e3
}
