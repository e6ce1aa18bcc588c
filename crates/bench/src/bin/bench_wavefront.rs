//! The wavefront/shard/prefetch sweep, machine-readable.
//!
//! Runs the paper's four-job mix through the CGraph engine over the
//! `{wavefront} × {shards} × {prefetch_depth} × {io_workers}` grid on
//! an out-of-core hierarchy (disk-bound loads — the regime the
//! prefetch pipeline targets), prints the table, and writes
//! `BENCH_wavefront.json` so CI can track the perf trajectory point by
//! point.  Each row's lanes are its store's shards (`s` shards, placed
//! round-robin).  `io_workers > 0` rows fetch on dedicated I/O threads
//! instead of inline on the main thread; results are bit-identical to
//! their `io_workers = 0` twins, only the wall clock moves.
//!
//! Two extra checks ride along:
//!
//! - **Wall gate** — the executor at 4 trigger workers and 4 I/O
//!   workers must beat one trigger worker with inline fetches by ≥1.5×
//!   wall clock at `k=4 s=4 d=2`, best of 3 runs each, with identical
//!   loads/metrics/modeled time.  Enforced at default scale and above
//!   on hosts with ≥4 cores; recorded-and-skipped (JSON `gates` row
//!   set) elsewhere.
//! - **Steady-state allocation smoke** — a counting global allocator
//!   steps an engine round by round and asserts the net live-byte
//!   growth across post-warmup rounds stays within a small bound: the
//!   round buffers, channel payloads, and chunk queue all recycle
//!   instead of reallocating per round.  It runs twice: on a multi-slot
//!   wave with I/O workers, and on the default configuration (width 1,
//!   inline fetches).
//!
//! Accepts the standard `--full` / `--tiny` scale flags; `--out PATH`
//! overrides the JSON location.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use cgraph_algos::PageRank;
use cgraph_bench::{
    out_of_core_hierarchy, paper_mix, partitions_for, print_table, run_wavefront_cfg,
    run_wavefront_observed, wavefront_sweep, wavefront_sweep_json, Scale, WallGate,
};
use cgraph_core::{Engine, EngineConfig, Observer};
use cgraph_graph::generate::Dataset;
use cgraph_graph::snapshot::{ShardPlacement, SnapshotStore};
use cgraph_memsim::HierarchyConfig;

/// Counting wrapper around the system allocator: allocation calls and
/// net live bytes, cheap enough to leave on for the whole run.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Best-of-`reps` wall seconds for one executor configuration, plus
/// the (identical-across-reps) run report of the last rep.
fn best_wall(
    store: &Arc<SnapshotStore>,
    workers: usize,
    h: HierarchyConfig,
    io_workers: usize,
    reps: usize,
) -> (f64, cgraph_core::RunReport) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        let report = run_wavefront_cfg(store, workers, h, 4, 2, io_workers, &paper_mix());
        best = best.min(start.elapsed().as_secs_f64());
        assert!(report.completed, "gate run must converge");
        last = Some(report);
    }
    (best, last.expect("at least one rep"))
}

/// Steps an engine under `config` round by round and asserts the
/// post-warmup rounds hold net live-byte growth within `bound` bytes:
/// the per-round fetch/completion payloads, reorder slots, and chunk
/// queue recycle rather than reallocate.
fn steady_state_alloc_smoke(
    label: &str,
    store: &Arc<SnapshotStore>,
    config: EngineConfig,
    bound: i64,
) {
    let mut engine = Engine::new(Arc::clone(store), config);
    // Four identical long-running jobs: every round carries all four
    // and no job finishes (and frees) mid-measurement.
    for _ in 0..4 {
        engine.submit_at(PageRank::default(), 0);
    }
    // Warmup spawns the worker crew, sizes the round buffers, and
    // faults in the cache working set.
    let mut warm = 0;
    while warm < 3 && engine.step_round() {
        warm += 1;
    }
    let live0 = LIVE_BYTES.load(Ordering::Relaxed);
    let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let mut measured = 0;
    while measured < 8 && engine.step_round() {
        measured += 1;
    }
    let growth = LIVE_BYTES.load(Ordering::Relaxed) - live0;
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - calls0;
    println!(
        "\nsteady-state allocation smoke ({label}): {measured} rounds after warmup, \
         net live bytes {growth:+}, {calls} allocation calls"
    );
    if measured >= 2 {
        assert!(
            growth <= bound,
            "steady-state rounds ({label}) must not grow the heap: {growth} bytes \
             over {measured} rounds (bound {bound})"
        );
    }
}

fn main() {
    let scale = Scale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_wavefront.json")
        .to_string();

    let ds = Dataset::TwitterSim;
    let ps = partitions_for(ds, scale);
    let h = out_of_core_hierarchy(&ps);
    // The gates, the hash row, and the allocation smoke run at s=4.
    let store = Arc::new(SnapshotStore::with_shards(ps.clone(), 4));

    let grid = [
        (1, 1, 0, 0),
        (2, 1, 0, 0),
        (4, 1, 0, 0),
        (2, 4, 0, 0),
        (4, 4, 0, 0),
        (2, 4, 1, 0),
        (4, 4, 1, 0),
        (2, 4, 2, 0),
        (4, 4, 2, 0),
        // I/O-worker rows: same modeled costs and loads as their io=0
        // twins, real fetch threads on the wall clock.
        (4, 4, 0, 4),
        (4, 4, 2, 2),
        (4, 4, 2, 4),
    ];
    let points = wavefront_sweep(&ps, 2, h, &paper_mix(), &grid);

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!(
                    "k={} s={} d={} io={}",
                    p.wavefront, p.shards, p.prefetch_depth, p.io_workers
                ),
                format!("{:.3}", p.modeled_ms),
                format!("{:.1}", p.wall_ms),
                format!("{:.2}", p.wall_vs_modeled()),
                p.loads.to_string(),
            ]
        })
        .collect();
    print_table(
        "wavefront sweep (out-of-core, four-job mix)",
        &["config", "modeled ms", "wall ms", "wall/model", "loads"],
        &rows,
    );

    // Fetch threads are transparent to everything but the wall clock:
    // each io>0 row must reproduce its io=0 twin exactly.
    for p in points.iter().filter(|p| p.io_workers > 0) {
        let twin = points
            .iter()
            .find(|q| {
                q.io_workers == 0
                    && (q.wavefront, q.shards, q.prefetch_depth)
                        == (p.wavefront, p.shards, p.prefetch_depth)
            })
            .expect("every io>0 row has an io=0 twin");
        assert_eq!(p.loads, twin.loads, "io={} changed loads", p.io_workers);
        assert_eq!(
            p.modeled_ms.to_bits(),
            twin.modeled_ms.to_bits(),
            "io={} changed the modeled time",
            p.io_workers
        );
    }

    // Placement: the k=4 s=4 d=2 point again over a hash-placed store.
    // Placement is transparent to results and loads; only the lane
    // interleaving (and so the modeled overlap) may move.
    let hashed_store = Arc::new(SnapshotStore::with_placement(
        ps.clone(),
        4,
        ShardPlacement::Hash,
    ));
    let hashed = run_wavefront_cfg(&hashed_store, 2, h, 4, 2, 0, &paper_mix());
    assert!(hashed.completed, "hash-placed sweep point must converge");
    println!(
        "\nhash-placed lanes at k=4 s=4 d=2: modeled {:.3} ms over {} loads",
        hashed.modeled_seconds * 1e3,
        hashed.loads
    );

    let baseline = points
        .iter()
        .find(|p| p.wavefront == 4 && p.shards == 4 && p.prefetch_depth == 0 && p.io_workers == 0)
        .expect("grid holds the k=4 s=4 d=0 baseline");
    let prefetched = points
        .iter()
        .find(|p| p.wavefront == 4 && p.shards == 4 && p.prefetch_depth == 2 && p.io_workers == 0)
        .expect("grid holds the k=4 s=4 d=2 point");
    let reduction = 1.0 - prefetched.modeled_ms / baseline.modeled_ms;
    println!(
        "\nprefetch win at k=4 s=4: d=2 models {:.3} ms vs d=0 {:.3} ms ({:.1}% reduction)",
        prefetched.modeled_ms,
        baseline.modeled_ms,
        reduction * 100.0
    );

    // --- wall gate: real threads must beat one inline-fetch worker ---
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (serial_wall, serial_report) = best_wall(&store, 1, h, 0, 3);
    let (conc_wall, conc_report) = best_wall(&store, 4, h, 4, 3);
    assert_eq!(
        serial_report.loads, conc_report.loads,
        "gate runs must perform identical loads"
    );
    assert_eq!(
        serial_report.metrics, conc_report.metrics,
        "gate runs must accumulate identical metrics"
    );
    // Modeled time varies with the *worker count* (compute parallelism
    // is part of the cost model) but never with the *fetch threads*:
    // the gate run must model exactly what inline fetches model at the
    // same 4 workers.
    let (_, inline_report) = best_wall(&store, 4, h, 0, 1);
    assert_eq!(
        inline_report.modeled_seconds.to_bits(),
        conc_report.modeled_seconds.to_bits(),
        "I/O workers must not change the modeled time at equal workers"
    );
    let speedup = serial_wall / conc_wall;
    println!(
        "\n4 trigger + 4 I/O workers at k=4 s=4 d=2: wall {:.1} ms vs serial {:.1} ms \
         ({speedup:.2}x, best of 3, {cores} core(s) available)",
        conc_wall * 1e3,
        serial_wall * 1e3
    );
    let gate = WallGate::resolve(
        "concurrent-executor",
        1.5,
        speedup,
        cores,
        scale.shrink <= 5,
    );
    if gate.enforced() {
        assert!(
            speedup >= 1.5,
            "4 trigger + 4 I/O workers must be >=1.5x one inline-fetch worker \
             at k=4 s=4 d=2, got {speedup:.2}x"
        );
    } else {
        println!(
            "(wall gate {}: {cores} core(s), shrink {})",
            gate.status, scale.shrink
        );
    }

    // --- tracing-overhead gate: a live Observer must be results-neutral
    // and cost <=5% wall at the same k=4 s=4 d=2 I/O-worker config ---
    let best_observed = |observer: fn() -> Option<Arc<Observer>>| {
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..3 {
            let start = std::time::Instant::now();
            let report = run_wavefront_observed(&store, 4, h, 4, 2, 2, &paper_mix(), observer());
            best = best.min(start.elapsed().as_secs_f64());
            assert!(report.completed, "tracing gate run must converge");
            last = Some(report);
        }
        (best, last.expect("three reps ran"))
    };
    let (plain_wall, plain_report) = best_observed(|| None);
    let (traced_wall, traced_report) = best_observed(|| Some(Observer::enabled()));
    assert_eq!(
        plain_report.loads, traced_report.loads,
        "tracing must not change loads"
    );
    assert_eq!(
        plain_report.metrics, traced_report.metrics,
        "tracing must not change metrics"
    );
    assert_eq!(
        plain_report.modeled_seconds.to_bits(),
        traced_report.modeled_seconds.to_bits(),
        "tracing must not perturb modeled time"
    );
    let ratio = plain_wall / traced_wall.max(1e-9);
    println!(
        "\ntracing overhead at k=4 s=4 d=2 io=2: untraced {:.1} ms vs traced {:.1} ms \
         (ratio {ratio:.3}, results identical)",
        plain_wall * 1e3,
        traced_wall * 1e3
    );
    let trace_gate = WallGate::resolve("tracing-overhead", 0.95, ratio, cores, scale.shrink <= 5);
    if trace_gate.enforced() {
        assert!(
            ratio >= 0.95,
            "tracing must cost <=5% wall overhead at default scale, got ratio {ratio:.3}"
        );
    } else {
        println!(
            "(tracing gate {}: {cores} core(s), shrink {})",
            trace_gate.status, scale.shrink
        );
    }

    steady_state_alloc_smoke(
        "k=4 s=4 d=2 io=2",
        &store,
        EngineConfig {
            workers: 2,
            wavefront: 4,
            prefetch_depth: 2,
            io_workers: 2,
            hierarchy: h,
            ..EngineConfig::default()
        },
        64 * 1024,
    );
    steady_state_alloc_smoke(
        "default config",
        &store,
        EngineConfig { workers: 2, hierarchy: h, ..EngineConfig::default() },
        64 * 1024,
    );

    let json = wavefront_sweep_json(ds.name(), scale.shrink, &points, &[gate, trace_gate]);
    std::fs::write(&out_path, json).expect("write BENCH_wavefront.json");
    println!("wrote {out_path}");
}
