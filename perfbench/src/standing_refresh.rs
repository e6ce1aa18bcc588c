//! `standing_refresh`: standing jobs refreshed once per store version.
//!
//! An additions-only stream is applied to a 4-shard store in setup, and
//! BFS, WCC and SSSP are bootstrapped from scratch at the base version.
//! A pass is one long-lived engine walking every version: a closed loop
//! of one client submits the three jobs with `submit_resumed_at` from
//! the previous version's results, runs them, and reads the results
//! back.  Touched sets are tiny, so loads are O(Δ) while job setup and
//! Push still scan O(V): this is the workload for `core::incr`.

use std::sync::Arc;
use std::time::Instant;

use cgraph_bench::partition_edges;
use cgraph_core::{Engine, JobId, Observer};
use cgraph_graph::generate::{self, RmatParams};
use cgraph_graph::snapshot::{GraphDelta, SnapshotStore};
use cgraph_graph::{Edge, EdgeList};
use cgraph_memsim::HierarchyConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::jobs::{bit_identical, sources, timed_results, Expected, Job};
use crate::report::{Outcome, Record};
use crate::{
    count_mismatches, engine_config, observer_for, repeat_for, set_end_to_end, stats, timed_setup,
    variant_seed, Counts, ExecTrace, Opts, UnitFigures, MIN_ROUNDS,
};

/// Input sizes of one size class.
struct Params {
    /// R-MAT scale (2^scale vertices).
    scale: u32,
    /// R-MAT edge factor.
    edge_factor: u32,
    /// Store shards.
    shards: usize,
    /// Versions in the stream (refreshes per pass).
    versions: usize,
    /// Edges each version adds.
    per_delta: usize,
    /// Input variants a run cycles over (see [`crate::variant_seed`]).
    variants: usize,
    /// Setup repetitions behind the `setup_s` median.
    setup_reps: usize,
}

impl Params {
    fn of(size: crate::Size) -> Params {
        match size {
            crate::Size::Full => Params {
                scale: 11,
                edge_factor: 8,
                shards: 4,
                versions: 100,
                per_delta: 4,
                variants: 4,
                setup_reps: 3,
            },
            crate::Size::Smoke => Params {
                scale: 7,
                edge_factor: 4,
                shards: 4,
                versions: 8,
                per_delta: 2,
                variants: 2,
                setup_reps: 1,
            },
        }
    }
}

/// Snapshot timestamp of version `v` (version 0 is the base graph).
fn ts(v: usize) -> u64 {
    v as u64 * 10
}

/// One input variant: the versioned store, the standing jobs, their
/// bootstrap results at version 0, and from-scratch results at the
/// sampled versions.
struct Variant {
    store: Arc<SnapshotStore>,
    jobs: [Job; 3],
    bootstrap: Vec<Expected>,
    scratch: Vec<(usize, Vec<Expected>)>,
}

/// Setup-time layer timings (traced runs).
#[derive(Default)]
struct SetupProbe {
    apply_ms: Vec<f64>,
    submit_ms: Vec<f64>,
}

/// A seeded additions-only stream: `versions` deltas of `per_delta`
/// edges with scattered endpoints, so every range is monotone-safe.
fn growth(n: u32, p: &Params, rng: &mut StdRng) -> Vec<GraphDelta> {
    (0..p.versions)
        .map(|_| {
            GraphDelta::adding((0..p.per_delta).map(|_| {
                let src = rng.gen_range(0..n);
                let mut dst = rng.gen_range(0..n);
                if dst == src {
                    dst = (dst + 1) % n;
                }
                Edge::weighted(src, dst, rng.gen_range(1.0..10.0))
            }))
        })
        .collect()
}

/// Runs `jobs` from scratch bound at `ts`; returns their results.
fn scratch(
    store: &Arc<SnapshotStore>,
    jobs: &[Job; 3],
    at: u64,
    mut probe: Option<&mut SetupProbe>,
) -> Vec<Expected> {
    let mut engine = Engine::new(
        Arc::clone(store),
        engine_config(HierarchyConfig::default(), None),
    );
    let ids: Vec<JobId> = jobs
        .iter()
        .map(|job| {
            let t = Instant::now();
            let id = job.submit_at(&mut engine, at);
            if let Some(p) = probe.as_deref_mut() {
                p.submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            id
        })
        .collect();
    assert!(engine.run().completed, "an uncapped run drains");
    jobs.iter()
        .zip(ids)
        .map(|(job, id)| {
            job.results(&engine, id)
                .expect("results of a submitted job")
        })
        .collect()
}

/// Builds a variant's store and bootstraps its jobs (the timed setup).
fn build(
    seed: u64,
    p: &Params,
    mut probe: Option<&mut SetupProbe>,
) -> (Arc<SnapshotStore>, [Job; 3], Vec<Expected>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let el: EdgeList = generate::rmat(p.scale, p.edge_factor, RmatParams::default(), seed);
    let src = sources(&el, &mut rng, 2);
    let jobs = [Job::Bfs(src[0]), Job::Wcc, Job::Sssp(src[1])];
    let mut store = SnapshotStore::with_shards(partition_edges(&el), p.shards);
    for (v, delta) in growth(el.num_vertices(), p, &mut rng).iter().enumerate() {
        let t = Instant::now();
        store.apply(ts(v + 1), delta).expect("additions apply");
        if let Some(pr) = probe.as_deref_mut() {
            pr.apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let store = Arc::new(store);
    let bootstrap = scratch(&store, &jobs, ts(0), probe);
    (store, jobs, bootstrap)
}

/// The versions whose resumed results are checked against scratch.
fn sampled(versions: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (1..=4).map(|q| (versions * q / 4).max(1)).collect();
    v.dedup();
    v
}

/// Per-call timings taken in traced passes.
#[derive(Default)]
struct Probe {
    resumed_ms: Vec<f64>,
    results_ms: Vec<f64>,
    step_ms: Vec<f64>,
}

/// One pass's measurements.
struct Pass {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    seeded: u64,
    failed: u64,
    counts: Counts,
}

/// Walks every version once on a fresh long-lived engine.
fn pass(
    var: &Variant,
    versions: usize,
    observer: Option<Arc<Observer>>,
    mut probe: Option<&mut Probe>,
) -> Pass {
    let mut engine = Engine::new(
        Arc::clone(&var.store),
        engine_config(HierarchyConfig::default(), observer),
    );
    let mut prior = var.bootstrap.clone();
    let mut latencies_ms = Vec::with_capacity(versions);
    let (mut seeded, mut failed, mut rounds) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    for v in 1..=versions {
        let t0 = Instant::now();
        let mut ids = [0 as JobId; 3];
        for (k, job) in var.jobs.iter().enumerate() {
            let t = Instant::now();
            let rs = job.submit_resumed_at(&mut engine, ts(v), ts(v - 1), &prior[k]);
            if let Some(p) = probe.as_deref_mut() {
                p.resumed_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            ids[k] = rs.job;
            seeded += u64::from(rs.seeded);
        }
        loop {
            let t = Instant::now();
            let stepped = engine.step_round();
            if !stepped {
                break;
            }
            if let Some(p) = probe.as_deref_mut() {
                p.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            rounds += 1;
        }
        for (k, job) in var.jobs.iter().enumerate() {
            let (got, ms) = timed_results(*job, &engine, ids[k]);
            if let Some(p) = probe.as_deref_mut() {
                p.results_ms.push(ms);
            }
            match got {
                Some(values) if engine.job_done(ids[k]) => prior[k] = values,
                _ => failed += 1,
            }
        }
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some((_, want)) = var.scratch.iter().find(|(at, _)| *at == v) {
            failed += prior
                .iter()
                .zip(want)
                .filter(|(got, want)| !bit_identical(got, want))
                .count() as u64;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    // Every range is addition-only: a from-scratch fallback is a fault.
    failed += 3 * versions as u64 - seeded;
    let counts = Counts {
        loads: engine.total_loads(),
        rounds,
        metrics: *engine.metrics(),
        modeled_bits: engine.modeled_seconds().to_bits(),
        ..Counts::default()
    };
    Pass { wall_s, latencies_ms, seeded, failed, counts }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let p = Params::of(opts.size);
    // Traced runs measure every pass on the first variant, so per-layer
    // sums and the pinned counters share one base.
    let variants = if opts.trace { 1 } else { p.variants };
    let reps = if opts.trace { 1 } else { p.setup_reps };
    let seeds: Vec<u64> = (0..variants).map(|i| variant_seed(opts.seed, i)).collect();
    let mut setup_probe = SetupProbe::default();
    let (setup_s, built) = timed_setup(reps, || {
        seeds
            .iter()
            .map(|&s| build(s, &p, opts.trace.then_some(&mut setup_probe)))
            .collect::<Vec<_>>()
    });
    let vars: Vec<Variant> = built
        .into_iter()
        .map(|(store, jobs, bootstrap)| {
            let scratch = sampled(p.versions)
                .into_iter()
                .map(|v| {
                    (
                        v,
                        scratch(&store, &jobs, ts(v), opts.trace.then_some(&mut setup_probe)),
                    )
                })
                .collect();
            Variant { store, jobs, bootstrap, scratch }
        })
        .collect();

    let mut out = Outcome {
        record: Record::for_host("standing_refresh version, three resumed jobs"),
        ..Outcome::default()
    };
    let mut passes: Vec<Pass> = Vec::new();
    if !opts.trace {
        let units = repeat_for(opts.seconds, variants, MIN_ROUNDS, |u| {
            passes.push(pass(&vars[u % variants], p.versions, None, None))
        });
        let figures: Vec<UnitFigures> = passes
            .iter()
            .map(|s| UnitFigures {
                jobs: 3.0 * s.latencies_ms.len() as f64,
                wall_s: s.wall_s,
                latencies_ms: &s.latencies_ms,
            })
            .collect();
        out.record.latency_samples = set_end_to_end(&mut out.metrics, setup_s, &figures, variants);
        out.record.units = units;
    } else {
        let base = pass(&vars[0], p.versions, None, None);
        // Two events per round (one Install at wavefront 1, one Push).
        let ring = 2 * base.counts.rounds as usize + 1024;
        let mut probe = Probe::default();
        let mut exec = ExecTrace::default();
        let units = repeat_for(opts.seconds, 1, 1, |_| {
            let obs = observer_for(ring);
            let s = pass(
                &vars[0],
                p.versions,
                Some(Arc::clone(&obs)),
                Some(&mut probe),
            );
            exec.absorb(&obs, &obs.dump(), s.counts.loads, s.wall_s);
            passes.push(s);
        });
        exec.step_ms = std::mem::take(&mut probe.step_ms);
        exec.report(&mut out.metrics, &base.counts, base.wall_s);
        let m = &mut out.metrics;
        let apply_sum: f64 = setup_probe.apply_ms.iter().sum();
        m.set(
            "snapshot.apply_ms_p50",
            stats::median(&setup_probe.apply_ms),
        );
        m.set("snapshot.apply_ms_sum", apply_sum);
        m.set(
            "snapshot.ingest_edges_per_s",
            (p.versions * p.per_delta) as f64 / (apply_sum / 1e3).max(1e-9),
        );
        m.set(
            "snapshot.override_bytes",
            vars[0].store.override_bytes() as f64,
        );
        m.set(
            "engine.submit_ms_p50",
            stats::median(&setup_probe.submit_ms),
        );
        m.set("engine.results_ms_p50", stats::median(&probe.results_ms));
        m.set(
            "incr.submit_resumed_ms_p50",
            stats::median(&probe.resumed_ms),
        );
        m.set(
            "incr.seeded_frac",
            base.seeded as f64 / (3 * p.versions) as f64,
        );
        m.set(
            "incr.loads_per_refresh",
            base.counts.loads as f64 / p.versions as f64,
        );
        out.record.units = units;
        passes.insert(0, base);
    }
    let counts: Vec<Counts> = passes.iter().map(|s| s.counts).collect();
    out.attempted = (passes.len() * 3 * p.versions) as u64;
    out.failed = passes.iter().map(|s| s.failed).sum::<u64>() + count_mismatches(&counts, variants);
    out
}
