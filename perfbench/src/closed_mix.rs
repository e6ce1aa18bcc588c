//! `closed_mix`: a closed loop of clients over a static graph.
//!
//! Each client submits a job with `Engine::submit` and, once it has
//! converged, the next job of a seeded script; the benchmark drives
//! `Engine::step_round` itself and stamps completions between rounds.
//! Many jobs share every partition load, so the round (plan, load,
//! trigger) and Push carry the run; there is no ingest, serve or resume
//! work.  A session plays the whole script on a fresh engine over the
//! store, so every session on one variant repeats the same
//! deterministic counters.  The script gives every client several jobs,
//! and latency and throughput count only the steady window, while every
//! client has a job open; the drain once the script runs out is left
//! out (its share of the wall is recorded as `drain_frac`).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use cgraph_bench::{hierarchy_for, partition_edges};
use cgraph_core::{Engine, JobId, Observer};
use cgraph_graph::generate::{self, Dataset, RmatParams};
use cgraph_graph::snapshot::SnapshotStore;
use cgraph_graph::{Csr, EdgeList};
use cgraph_memsim::HierarchyConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::jobs::{matches_reference, sources, timed_results, Expected, Job};
use crate::report::{Outcome, Record};
use crate::{
    count_mismatches, engine_config, observer_for, repeat_for, set_end_to_end, stats, timed_setup,
    variant_seed, Counts, ExecTrace, Opts, UnitFigures, MIN_ROUNDS,
};

/// Input sizes of one size class.
struct Params {
    /// R-MAT scale (2^scale vertices).
    scale: u32,
    /// Concurrent clients in the closed loop.
    clients: usize,
    /// Jobs in one session's script.
    jobs: usize,
    /// Input variants a run cycles over (see [`crate::variant_seed`]).
    variants: usize,
    /// Setup repetitions behind the `setup_s` median.
    setup_reps: usize,
}

impl Params {
    fn of(size: crate::Size) -> Params {
        match size {
            crate::Size::Full => {
                Params { scale: 10, clients: 16, jobs: 96, variants: 3, setup_reps: 15 }
            }
            crate::Size::Smoke => {
                Params { scale: 7, clients: 4, jobs: 8, variants: 2, setup_reps: 1 }
            }
        }
    }
}

/// Job kinds per 16 script slots, ordered from shortest to longest
/// latency.  Unequal weights keep p50 and p95 inside one kind's band,
/// never on the boundary between two kinds.
const MIX: [(char, usize); 4] = [('w', 2), ('b', 2), ('s', 8), ('p', 4)];

/// One input variant: a graph and the script its sessions play.
struct Variant {
    store: Arc<SnapshotStore>,
    hierarchy: HierarchyConfig,
    script: Vec<Job>,
    expected: BTreeMap<Job, Expected>,
}

/// The static twitter-sim-shaped graph, partitioned, as a store.
fn build(seed: u64, p: &Params) -> (Arc<SnapshotStore>, HierarchyConfig) {
    let (_, edge_factor) = Dataset::TwitterSim.shape(0);
    let el = generate::rmat(p.scale, edge_factor, RmatParams::default(), seed);
    let ps = partition_edges(&el);
    let hierarchy = hierarchy_for(Dataset::TwitterSim, &ps);
    (Arc::new(SnapshotStore::new(ps)), hierarchy)
}

/// The seeded session script: exact `MIX` proportions, shuffled, with
/// seeded sources.
fn script(edges: &EdgeList, seed: u64, jobs: usize) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kinds: Vec<char> = MIX
        .iter()
        .flat_map(|&(k, w)| std::iter::repeat_n(k, w))
        .cycle()
        .take(jobs)
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range(0..i + 1));
    }
    let srcs = sources(edges, &mut rng, jobs);
    kinds
        .iter()
        .zip(srcs)
        .map(|(&k, s)| match k {
            'b' => Job::Bfs(s),
            'w' => Job::Wcc,
            's' => Job::Sssp(s),
            _ => Job::PageRank,
        })
        .collect()
}

/// Completes a built store into a variant: its script and the
/// reference result of every scripted job.
fn variant(
    seed: u64,
    store: Arc<SnapshotStore>,
    hierarchy: HierarchyConfig,
    jobs: usize,
) -> Variant {
    let edges = store.latest().edges_global();
    let script = script(&edges, seed, jobs);
    let csr = Csr::from_edges(&edges);
    let expected = script
        .iter()
        .map(|&j| (j, j.reference(&edges, &csr)))
        .collect();
    Variant { store, hierarchy, script, expected }
}

/// Per-call timings taken in traced sessions.
#[derive(Default)]
struct Probe {
    submit_ms: Vec<f64>,
    results_ms: Vec<f64>,
    step_ms: Vec<f64>,
}

/// One session's measurements.
struct Session {
    wall_s: f64,
    /// Wall seconds from the start until the first moment with fewer
    /// than `clients` jobs open (the script has run out): the steady
    /// window, in which every client has a job open.
    steady_s: f64,
    /// Submit-to-converged ms of the jobs that converged in the steady
    /// window.
    latencies_ms: Vec<f64>,
    failed: u64,
    counts: Counts,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Plays the variant's script once through a closed loop of `clients`.
fn session(
    var: &Variant,
    clients: usize,
    observer: Option<Arc<Observer>>,
    mut probe: Option<&mut Probe>,
) -> Session {
    let mut engine = Engine::new(
        Arc::clone(&var.store),
        engine_config(var.hierarchy, observer),
    );
    let n = var.script.len();
    let mut next = 0;
    let mut open: Vec<(usize, JobId, Instant)> = Vec::with_capacity(clients);
    let mut finished: Vec<(usize, JobId)> = Vec::with_capacity(n);
    let mut latencies_ms = Vec::with_capacity(n);
    let mut rounds = 0u64;
    let mut failed = 0u64;
    let mut drain_from = None;
    let start = Instant::now();
    loop {
        let now = Instant::now();
        open.retain(|&(idx, id, t0)| {
            if engine.job_done(id) {
                if drain_from.is_none() {
                    latencies_ms.push((now - t0).as_secs_f64() * 1e3);
                }
                finished.push((idx, id));
                false
            } else {
                true
            }
        });
        while open.len() < clients && next < n {
            let t0 = Instant::now();
            let id = var.script[next].submit(&mut engine);
            if let Some(p) = probe.as_deref_mut() {
                p.submit_ms.push(ms_since(t0));
            }
            open.push((next, id, t0));
            next += 1;
        }
        if open.len() < clients && drain_from.is_none() {
            drain_from = Some(Instant::now());
        }
        if open.is_empty() {
            break;
        }
        if open.iter().any(|&(_, id, _)| engine.job_done(id)) {
            // Converged at submission: stamp before stepping again.
            continue;
        }
        let t0 = Instant::now();
        let stepped = engine.step_round();
        if !stepped {
            // Nothing pending yet jobs open: they can never converge.
            failed += open.len() as u64;
            break;
        }
        if let Some(p) = probe.as_deref_mut() {
            p.step_ms.push(ms_since(t0));
        }
        rounds += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let steady_s = drain_from.map_or(wall_s, |t| (t - start).as_secs_f64());
    for &(idx, id) in &finished {
        let job = var.script[idx];
        let (got, results_ms) = timed_results(job, &engine, id);
        if let Some(p) = probe.as_deref_mut() {
            p.results_ms.push(results_ms);
        }
        let ok = got.is_some_and(|g| matches_reference(&g, &var.expected[&job]));
        failed += u64::from(!ok);
    }
    let counts = Counts {
        loads: engine.total_loads(),
        rounds,
        metrics: *engine.metrics(),
        modeled_bits: engine.modeled_seconds().to_bits(),
        ..Counts::default()
    };
    Session { wall_s, steady_s, latencies_ms, failed, counts }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let p = Params::of(opts.size);
    // Traced runs measure every unit on the first variant, so per-layer
    // sums and the pinned counters share one base.
    let variants = if opts.trace { 1 } else { p.variants };
    let reps = if opts.trace { 1 } else { p.setup_reps };
    let seeds: Vec<u64> = (0..variants).map(|i| variant_seed(opts.seed, i)).collect();
    let (setup_s, stores) = timed_setup(reps, || {
        seeds.iter().map(|&s| build(s, &p)).collect::<Vec<_>>()
    });
    let vars: Vec<Variant> = seeds
        .iter()
        .zip(stores)
        .map(|(&s, (store, h))| variant(s, store, h, p.jobs))
        .collect();

    let mut out = Outcome {
        record: Record::for_host("closed_mix job, submit to converged"),
        ..Outcome::default()
    };
    let mut sessions: Vec<Session> = Vec::new();
    if !opts.trace {
        let units = repeat_for(opts.seconds, variants, MIN_ROUNDS, |u| {
            sessions.push(session(&vars[u % variants], p.clients, None, None))
        });
        let figures: Vec<UnitFigures> = sessions
            .iter()
            .map(|s| UnitFigures {
                jobs: s.latencies_ms.len() as f64,
                wall_s: s.steady_s,
                latencies_ms: &s.latencies_ms,
            })
            .collect();
        out.record.latency_samples = set_end_to_end(&mut out.metrics, setup_s, &figures, variants);
        out.record.units = units;
        let steady: f64 = sessions.iter().map(|s| s.steady_s).sum();
        let wall: f64 = sessions.iter().map(|s| s.wall_s).sum();
        out.record.drain_frac = Some(1.0 - steady / wall);
    } else {
        let base = session(&vars[0], p.clients, None, None);
        // Two events per round (one Install at wavefront 1, one Push).
        let ring = 2 * base.counts.rounds as usize + 1024;
        let mut probe = Probe::default();
        let mut exec = ExecTrace::default();
        let units = repeat_for(opts.seconds, 1, 1, |_| {
            let obs = observer_for(ring);
            let s = session(
                &vars[0],
                p.clients,
                Some(Arc::clone(&obs)),
                Some(&mut probe),
            );
            exec.absorb(&obs, &obs.dump(), s.counts.loads, s.wall_s);
            sessions.push(s);
        });
        exec.step_ms = std::mem::take(&mut probe.step_ms);
        exec.report(&mut out.metrics, &base.counts, base.wall_s);
        out.metrics
            .set("engine.submit_ms_p50", stats::median(&probe.submit_ms));
        out.metrics
            .set("engine.results_ms_p50", stats::median(&probe.results_ms));
        out.record.units = units;
        sessions.insert(0, base);
    }
    let counts: Vec<Counts> = sessions.iter().map(|s| s.counts).collect();
    out.attempted = (sessions.len() * p.jobs) as u64;
    out.failed =
        sessions.iter().map(|s| s.failed).sum::<u64>() + count_mismatches(&counts, variants);
    out
}
