//! `evolving_serve`: durable writes beside served reads, then a reopen.
//!
//! A cycle ingests a seeded add/remove delta stream into a 2-shard
//! durable store (every `apply` syncs the WAL), serves a seeded diurnal
//! trace through `ServeLoop::serve` over the resulting versions, and
//! reopens the store directory with `SnapshotStore::open`.  Arrivals are
//! spread over the versions, so loads are barely shared: the opposite
//! use of the round executor from `closed_mix`, and the only workload
//! for `graph::snapshot` apply, `graph::wal` and `core::serve`.  The
//! serve phase is a replay on the serve loop's virtual clock; its wall
//! time is measured from outside.
//!
//! The reported latency is one durable `apply`, as a writer waits for it.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cgraph_algos::trace_arrivals;
use cgraph_bench::{out_of_core_hierarchy, partition_edges};
use cgraph_core::obs::EventKind;
use cgraph_core::{Engine, JobOutcome, Observer, ServeConfig, ServeLoop};
use cgraph_graph::generate::{self, RmatParams};
use cgraph_graph::snapshot::{GraphDelta, SnapshotStore};
use cgraph_graph::{Edge, EdgeList, PartitionSet};
use cgraph_trace::{generate_trace, JobSpan, TraceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{Outcome, Record};
use crate::{
    count_mismatches, engine_config, event_totals, hist_ms, observer_for, repeat_for,
    set_end_to_end, stats, timed_setup, variant_seed, Counts, ExecTrace, Opts, UnitFigures,
    MIN_ROUNDS,
};

/// Input sizes of one size class.
struct Params {
    /// R-MAT scale (2^scale vertices).
    scale: u32,
    /// R-MAT edge factor.
    edge_factor: u32,
    /// Store shards.
    shards: usize,
    /// Deltas ingested per cycle (one version each).
    deltas: usize,
    /// Edges each delta adds.
    adds: usize,
    /// Edges each delta removes.
    removes: usize,
    /// Jobs served per cycle: the first arrivals of the diurnal trace.
    jobs: usize,
    /// Input variants a run cycles over (see [`crate::variant_seed`]).
    variants: usize,
    /// Setup repetitions behind the `setup_s` median.
    setup_reps: usize,
}

impl Params {
    fn of(size: crate::Size) -> Params {
        match size {
            crate::Size::Full => Params {
                scale: 10,
                edge_factor: 16,
                shards: 2,
                deltas: 40,
                adds: 128,
                removes: 64,
                jobs: 8,
                variants: 5,
                setup_reps: 3,
            },
            crate::Size::Smoke => Params {
                scale: 7,
                edge_factor: 4,
                shards: 2,
                deltas: 4,
                adds: 8,
                removes: 4,
                jobs: 4,
                variants: 2,
                setup_reps: 1,
            },
        }
    }
}

/// Admission window in virtual seconds (a tenth of the arrival span):
/// arrivals this close together are released as one wave, still bound
/// to their own, divergent versions.
const ADMISSION_WINDOW: f64 = 4.0;

/// Source vertices served jobs rotate over.
const SOURCE_MOD: u32 = 64;

/// One input variant: the base graph, its delta stream and the trace.
struct Variant {
    base: PartitionSet,
    deltas: Vec<GraphDelta>,
    trace: Vec<JobSpan>,
}

/// A seeded stream of `deltas` deltas: random additions, and removals of
/// distinct base edges (each removed pair still has an edge to remove).
fn stream(el: &EdgeList, p: &Params, rng: &mut StdRng) -> Vec<GraphDelta> {
    let n = el.num_vertices();
    let mut removed: HashSet<(u32, u32)> = HashSet::new();
    (0..p.deltas)
        .map(|_| {
            let additions = (0..p.adds)
                .map(|_| {
                    let src = rng.gen_range(0..n);
                    let mut dst = rng.gen_range(0..n);
                    if dst == src {
                        dst = (dst + 1) % n;
                    }
                    Edge::weighted(src, dst, rng.gen_range(1.0..10.0))
                })
                .collect();
            let mut removals = Vec::with_capacity(p.removes);
            while removals.len() < p.removes {
                let e = el.edges()[rng.gen_range(0..el.len())];
                if removed.insert((e.src, e.dst)) {
                    removals.push((e.src, e.dst));
                }
            }
            GraphDelta { additions, removals }
        })
        .collect()
}

/// Builds a variant and persists its base once (the timed setup):
/// graph generation, partitioning, stream and trace, durable store.
fn build(seed: u64, p: &Params, dir: &Path) -> Variant {
    let mut rng = StdRng::seed_from_u64(seed);
    let el = generate::rmat(p.scale, p.edge_factor, RmatParams::default(), seed);
    let deltas = stream(&el, p, &mut rng);
    // A fixed job count per cycle (kinds rotate through the paper's
    // mix) keeps each cycle's work comparable across seeds; a week of
    // trace always holds enough arrivals.
    let cfg =
        TraceConfig { base_rate: 2.0, peak_rate: 6.0, seed: rng.gen(), ..TraceConfig::default() };
    let mut trace = generate_trace(&cfg);
    trace.truncate(p.jobs);
    assert_eq!(
        trace.len(),
        p.jobs,
        "a week of diurnal trace holds the cycle's jobs"
    );
    let var = Variant { base: partition_edges(&el), deltas, trace };
    drop(persisted(&var, p, dir));
    var
}

/// A fresh durable store over the variant's base graph in `dir`.
fn persisted(var: &Variant, p: &Params, dir: &Path) -> SnapshotStore {
    let _ = std::fs::remove_dir_all(dir);
    SnapshotStore::with_shards(var.base.clone(), p.shards)
        .persist_to(dir)
        .expect("persist a fresh store")
}

/// Edges of a view in a canonical order, for equality checks.
fn sorted_edges(store: &Arc<SnapshotStore>) -> Vec<(u32, u32, u32)> {
    let mut e: Vec<(u32, u32, u32)> = store
        .latest()
        .edges_global()
        .edges()
        .iter()
        .map(|e| (e.src, e.dst, e.weight.to_bits()))
        .collect();
    e.sort_unstable();
    e
}

/// Per-cycle layer readings taken in traced cycles.
#[derive(Default)]
struct Probe {
    apply_ms: Vec<f64>,
    override_bytes: f64,
    /// (fsyncs, payload bytes) the WAL reported, per cycle.
    wal: Vec<(u64, u64)>,
    fsync_ms: f64,
    open_ms: Vec<f64>,
    serve_ms: Vec<f64>,
    jobs: u64,
    waves: u64,
    latency_ms: Vec<f64>,
    wait_ms: Vec<f64>,
}

/// One cycle's measurements.
struct Cycle {
    /// Ingest + serve + reopen wall seconds.
    wall_s: f64,
    /// Serve wall seconds (the engine's share of `wall_s`).
    serve_s: f64,
    apply_ms: Vec<f64>,
    jobs: u64,
    failed: u64,
    counts: Counts,
}

/// Ingests, serves and reopens once, in `dir`.
fn cycle(
    var: &Variant,
    p: &Params,
    dir: &Path,
    observer: Option<Arc<Observer>>,
    probe: Option<&mut Probe>,
) -> Cycle {
    let mut store = persisted(var, p, dir);
    if let Some(obs) = &observer {
        store.set_observer(obs.store_observer());
    }
    let mut failed = 0u64;
    let mut apply_ms = Vec::with_capacity(var.deltas.len());
    for (i, delta) in var.deltas.iter().enumerate() {
        let t = Instant::now();
        let ok = store.apply(i as u64 + 1, delta).is_ok();
        apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
        failed += u64::from(!ok);
    }
    let ingest_s = apply_ms.iter().sum::<f64>() / 1e3;
    let override_bytes = store.override_bytes();
    let store = Arc::new(store);

    let hierarchy = out_of_core_hierarchy(&var.base);
    let engine = Engine::new(
        Arc::clone(&store),
        engine_config(hierarchy, observer.clone()),
    );
    let window = ServeConfig { admission_window: ADMISSION_WINDOW, ..ServeConfig::default() };
    let mut serve = ServeLoop::new(engine, window);
    // Arrivals span the versions: virtual second t binds version ⌊t⌋.
    let last_hour = var.trace.last().map_or(1.0, |s| s.submit_hour);
    let seconds_per_hour = p.deltas as f64 / last_hour.max(1e-9);
    serve.offer_all(trace_arrivals(&var.trace, seconds_per_hour, SOURCE_MOD));
    let t = Instant::now();
    let report = serve.serve();
    let serve_s = t.elapsed().as_secs_f64();
    let rows = report.per_job();
    failed += rows
        .iter()
        .filter(|r| r.outcome != JobOutcome::Completed)
        .count() as u64;
    failed += u64::from(!report.completed);
    let counts = Counts {
        loads: report.loads,
        rounds: report.rounds,
        waves: report.waves,
        metrics: *serve.engine().metrics(),
        modeled_bits: report.modeled_seconds.to_bits(),
    };
    let before = sorted_edges(&store);
    drop(serve);
    drop(store);

    let t = Instant::now();
    let reopened = SnapshotStore::open(dir);
    let open_s = t.elapsed().as_secs_f64();
    match reopened {
        Ok(s) => failed += u64::from(sorted_edges(&Arc::new(s)) != before),
        Err(_) => failed += 1,
    }
    let _ = std::fs::remove_dir_all(dir);

    if let (Some(pr), Some(obs)) = (probe, &observer) {
        pr.apply_ms.extend_from_slice(&apply_ms);
        pr.override_bytes = override_bytes as f64;
        let r = obs.registry();
        pr.wal.push((
            r.counter("wal_fsyncs").get(),
            r.counter("wal_append_bytes").get(),
        ));
        pr.fsync_ms += hist_ms(obs, "wal_fsync_us");
        pr.open_ms.push(open_s * 1e3);
        pr.serve_ms.push(serve_s * 1e3);
        pr.jobs += rows.len() as u64;
        pr.waves += report.waves;
        pr.latency_ms.extend(rows.iter().map(|r| r.latency * 1e3));
        pr.wait_ms.extend(rows.iter().map(|r| r.wait * 1e3));
    }
    Cycle {
        wall_s: ingest_s + serve_s + open_s,
        serve_s,
        apply_ms,
        jobs: rows.len() as u64,
        failed,
        counts,
    }
}

/// A scratch directory for one run's durable stores, inside the working
/// directory and unique within this process.
fn scratch_dir() -> PathBuf {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(".perfbench-tmp").join(format!("{}-{run}", std::process::id()))
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let p = Params::of(opts.size);
    let root = scratch_dir();
    let dir = root.join("store");
    // Traced runs measure every cycle on the first variant, so per-layer
    // sums and the pinned counters share one base.
    let variants = if opts.trace { 1 } else { p.variants };
    let reps = if opts.trace { 1 } else { p.setup_reps };
    let seeds: Vec<u64> = (0..variants).map(|i| variant_seed(opts.seed, i)).collect();
    let (setup_s, vars) = timed_setup(reps, || {
        seeds
            .iter()
            .map(|&s| build(s, &p, &dir))
            .collect::<Vec<_>>()
    });

    let mut out = Outcome {
        record: Record::for_host("evolving_serve durable apply of one delta"),
        ..Outcome::default()
    };
    let mut cycles: Vec<Cycle> = Vec::new();
    if !opts.trace {
        let units = repeat_for(opts.seconds, variants, MIN_ROUNDS, |u| {
            cycles.push(cycle(&vars[u % variants], &p, &dir, None, None))
        });
        let figures: Vec<UnitFigures> = cycles
            .iter()
            .map(|c| UnitFigures {
                jobs: c.jobs as f64,
                wall_s: c.wall_s,
                latencies_ms: &c.apply_ms,
            })
            .collect();
        out.record.latency_samples = set_end_to_end(&mut out.metrics, setup_s, &figures, variants);
        out.record.units = units;
    } else {
        let base = cycle(&vars[0], &p, &dir, None, None);
        // Main ring: Install + Push per round; serve ring: one span per
        // round plus admission events; store ring: a handful per apply.
        let ring = 2 * base.counts.rounds as usize + 4 * vars[0].trace.len() + 16 * p.deltas + 1024;
        let mut probe = Probe::default();
        let mut exec = ExecTrace::default();
        let units = repeat_for(opts.seconds, 1, 1, |_| {
            let obs = observer_for(ring);
            let c = cycle(&vars[0], &p, &dir, Some(Arc::clone(&obs)), Some(&mut probe));
            let dump = obs.dump();
            exec.step_ms
                .extend(event_totals(&dump, EventKind::ServeRound).0);
            exec.absorb(&obs, &dump, c.counts.loads, c.wall_s);
            cycles.push(c);
        });
        exec.report(&mut out.metrics, &base.counts, base.wall_s);
        // Only the serve phase runs the engine the model prices.
        let modeled = base.counts.modeled_s();
        out.metrics.set(
            "memsim.wall_over_modeled",
            base.serve_s / modeled.max(1e-12),
        );
        let n = units as f64;
        let (fsyncs, append_bytes) = probe.wal[0];
        // The WAL counters are deterministic too: every cycle must repeat them.
        out.failed += probe.wal.iter().filter(|&&w| w != probe.wal[0]).count() as u64;
        let m = &mut out.metrics;
        let apply_sum = probe.apply_ms.iter().sum::<f64>() / n;
        let edges = (p.deltas * (p.adds + p.removes)) as f64;
        m.set("snapshot.apply_ms_p50", stats::median(&probe.apply_ms));
        m.set("snapshot.apply_ms_sum", apply_sum);
        m.set(
            "snapshot.ingest_edges_per_s",
            edges / (apply_sum / 1e3).max(1e-9),
        );
        m.set("snapshot.override_bytes", probe.override_bytes);
        m.set("wal.fsyncs", fsyncs as f64);
        m.set("wal.fsync_ms_sum", probe.fsync_ms / n);
        m.set("wal.append_bytes", append_bytes as f64);
        m.set("wal.open_ms", stats::median(&probe.open_ms));
        m.set("serve.serve_ms", stats::median(&probe.serve_ms));
        m.set("serve.waves", base.counts.waves as f64);
        m.set(
            "serve.mean_wave_size",
            probe.jobs as f64 / probe.waves.max(1) as f64,
        );
        m.set("serve.rounds", base.counts.rounds as f64);
        m.set(
            "serve.modeled_latency_p50_ms",
            stats::quantile(&probe.latency_ms, 0.5),
        );
        m.set(
            "serve.modeled_latency_p95_ms",
            stats::quantile(&probe.latency_ms, 0.95),
        );
        m.set(
            "serve.modeled_wait_p50_ms",
            stats::quantile(&probe.wait_ms, 0.5),
        );
        out.record.units = units;
        cycles.insert(0, base);
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = root.parent().map(std::fs::remove_dir);
    let counts: Vec<Counts> = cycles.iter().map(|c| c.counts).collect();
    out.attempted = cycles.iter().map(|c| c.jobs + p.deltas as u64 + 1).sum();
    out.failed +=
        cycles.iter().map(|c| c.failed).sum::<u64>() + count_mismatches(&counts, variants);
    out
}
