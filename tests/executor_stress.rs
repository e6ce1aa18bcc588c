//! Round-executor differential stress: every I/O-worker count and
//! prefetch depth must reproduce, bit for bit, the digests the retired
//! fork-join executor produced on this fixture (pinned below), so the
//! single crew executor is checked against the path it replaced rather
//! than against itself.  Depth 0 gives a one-slot dispatch window, so
//! both crew channels hold a single message — where any ordering bug in
//! the dispatch loop shows up as a deadlock (caught by CI's per-binary
//! timeout) instead of a wrong answer.
//!
//! The mix uses integer-valued programs only (BFS, SSSP, WCC,
//! reachability): their accumulators are exact min/or folds, so results,
//! traffic counters, *and* the modeled-seconds bit pattern must all
//! match exactly.  CI runs this binary with default threading and with
//! `--test-threads=1`.

use std::sync::Arc;

use cgraph::algos::{Bfs, Reachability, Sssp, Wcc};
use cgraph::core::{Engine, EngineConfig, ExecError, FaultConfig, FaultPlane};
use cgraph::graph::snapshot::SnapshotStore;
use cgraph::graph::vertex_cut::VertexCutPartitioner;
use cgraph::graph::{generate, Partitioner};
use cgraph::memsim::{HierarchyConfig, Metrics};
use cgraph_bench::ingest_stream_spread;

const SHARDS: usize = 4;

/// One shared evolving store: a 4-shard chain with enough deltas that
/// jobs arriving at different timestamps bind to different snapshot
/// versions, so waves mix partition versions and spread across lanes.
fn shared_store() -> Arc<SnapshotStore> {
    let el = generate::rmat(9, 4, generate::RmatParams::default(), 2024);
    let n = el.num_vertices();
    let ps = VertexCutPartitioner::new(16).partition(&el);
    let mut store = SnapshotStore::with_shards(ps, SHARDS);
    for (i, delta) in ingest_stream_spread(n, 24, 48, 4).iter().enumerate() {
        store
            .apply((i as u64 + 1) * 10, delta)
            .expect("evolving delta applies");
    }
    Arc::new(store)
}

/// FNV-1a over little-endian bytes: a stable digest of result vectors.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What the fork-join executor produced for [`run_cfg`] at
/// `io_workers = 0` (results hash, loads, metrics, and the modeled
/// seconds' bit pattern per prefetch depth), recorded before it was
/// folded into the crew.
const FORK_JOIN_HASH: u64 = 0x63e3_3a3b_f4e1_eb68;
const FORK_JOIN_LOADS: u64 = 216;
const FORK_JOIN_METRICS: Metrics = Metrics {
    cache_accesses: 1476,
    cache_misses: 955,
    memory_misses: 112,
    bytes_mem_to_cache: 1_484_288,
    bytes_disk_to_mem: 200_328,
    edge_ops: 18508,
    vertex_ops: 10512,
    sync_ops: 25770,
};
const FORK_JOIN_MODELED_BITS: [(usize, u64); 3] = [
    (0, 0x3f47_53db_1cbc_665d),
    (2, 0x3f43_25e7_de2f_a78c),
    (4, 0x3f42_3ede_4d82_dea5),
];

/// The fork-join executor's width-1 digest of the BFS + SSSP pair in
/// [`width_one_waves_stay_on_the_legacy_path`].
const WIDTH_ONE_HASH: u64 = 0x805c_b59e_1196_090e;
const WIDTH_ONE_LOADS: u64 = 96;
const WIDTH_ONE_METRICS: Metrics = Metrics {
    cache_accesses: 675,
    cache_misses: 417,
    memory_misses: 48,
    bytes_mem_to_cache: 682_664,
    bytes_disk_to_mem: 96464,
    edge_ops: 5715,
    vertex_ops: 4171,
    sync_ops: 11215,
};
const WIDTH_ONE_MODELED_BITS: u64 = 0x3f36_9599_89f3_4128;

/// Everything one run can observe, flattened for exact comparison.
#[derive(PartialEq, Debug)]
struct RunDigest {
    bfs: Vec<u32>,
    /// SSSP distances are f32 min-folds: exactly commutative, so even
    /// these compare bit-for-bit across executors.
    sssp: Vec<f32>,
    wcc: Vec<u32>,
    reach: Vec<bool>,
    late_bfs: Vec<u32>,
    loads: u64,
    metrics: Metrics,
    /// Bit pattern of the modeled pipeline seconds: the executor must
    /// reproduce the serial charge/accumulation order exactly, so even
    /// the float result is bit-identical.
    modeled_bits: u64,
}

impl RunDigest {
    fn results_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for v in &self.bfs {
            fnv(&mut h, &v.to_le_bytes());
        }
        for v in &self.sssp {
            fnv(&mut h, &v.to_bits().to_le_bytes());
        }
        for v in &self.wcc {
            fnv(&mut h, &v.to_le_bytes());
        }
        for v in &self.reach {
            fnv(&mut h, &[*v as u8]);
        }
        for v in &self.late_bfs {
            fnv(&mut h, &v.to_le_bytes());
        }
        h
    }

    /// Asserts this digest is the pinned fork-join one at `depth`.
    fn assert_fork_join(&self, depth: usize, what: &str) {
        let bits = FORK_JOIN_MODELED_BITS
            .iter()
            .find(|&&(d, _)| d == depth)
            .expect("pinned depth")
            .1;
        assert_eq!(self.results_hash(), FORK_JOIN_HASH, "{what}: results");
        assert_eq!(self.loads, FORK_JOIN_LOADS, "{what}: loads");
        assert_eq!(self.metrics, FORK_JOIN_METRICS, "{what}: metrics");
        assert_eq!(self.modeled_bits, bits, "{what}: modeled seconds");
    }
}

/// Tight enough that loads actually rotate through the cache.
fn tight_hierarchy(store: &Arc<SnapshotStore>) -> HierarchyConfig {
    let view = store.base_view();
    let total: u64 = (0..view.num_partitions() as u32)
        .map(|pid| view.partition(pid).structure_bytes())
        .sum();
    HierarchyConfig { cache_bytes: (total / 4).max(1), memory_bytes: total * 4 }
}

fn run_cfg(store: &Arc<SnapshotStore>, io_workers: usize, depth: usize) -> RunDigest {
    let hierarchy = tight_hierarchy(store);
    let mut engine = Engine::new(
        Arc::clone(store),
        EngineConfig {
            workers: 2,
            wavefront: 4,
            prefetch_depth: depth,
            io_workers,
            hierarchy,
            ..EngineConfig::default()
        },
    );
    // Arrivals spread over the chain: jobs bind to distinct snapshots.
    let bfs = engine.submit_at(Bfs::new(0), 0);
    let sssp = engine.submit_at(Sssp::new(1), 50);
    let wcc = engine.submit_at(Wcc, 120);
    let reach = engine.submit_at(Reachability::new(0), 180);
    let late_bfs = engine.submit_at(Bfs::new(3), 240);
    let report = engine.run();
    assert!(report.completed, "stress run must converge");
    RunDigest {
        bfs: engine.results::<Bfs>(bfs).unwrap(),
        sssp: engine.results::<Sssp>(sssp).unwrap(),
        wcc: engine.results::<Wcc>(wcc).unwrap(),
        reach: engine.results::<Reachability>(reach).unwrap(),
        late_bfs: engine.results::<Bfs>(late_bfs).unwrap(),
        loads: report.loads,
        metrics: report.metrics,
        modeled_bits: report.modeled_seconds.to_bits(),
    }
}

#[test]
fn channel_pipeline_matches_serial_at_every_worker_count_and_depth() {
    let store = shared_store();
    for depth in [2usize, 4] {
        for io in [0usize, 1, 2, 4, 8] {
            run_cfg(&store, io, depth).assert_fork_join(depth, &format!("io={io} depth={depth}"));
        }
    }
}

#[test]
fn capacity_one_channels_neither_deadlock_nor_diverge() {
    // Depth 0 is a one-slot dispatch window, so both channels hold one
    // message: the dispatch loop must never block on a full queue.
    let store = shared_store();
    for io in [0usize, 1, 4, 8] {
        run_cfg(&store, io, 0).assert_fork_join(0, &format!("io={io} depth=0"));
    }
}

#[test]
fn racing_engines_on_one_shared_store_stay_deterministic() {
    // Several engines with different I/O-worker counts race on the same
    // Arc'd store from separate OS threads; every one must land on the
    // pinned digest.
    let store = shared_store();
    std::thread::scope(|scope| {
        let handles: Vec<_> = [0usize, 1, 4, 8]
            .into_iter()
            .map(|io| {
                let store = Arc::clone(&store);
                scope.spawn(move || (io, run_cfg(&store, io, 2)))
            })
            .collect();
        for handle in handles {
            let (io, digest) = handle.join().expect("racing engine run panicked");
            digest.assert_fork_join(2, &format!("racing io={io}"));
        }
    });
}

#[test]
fn width_one_waves_stay_on_the_legacy_path() {
    // A single-slot wave has nothing to pipeline: at any io_workers it
    // keeps the linear pricing and reproduces the pinned digest.
    let store = shared_store();
    let run = |io: usize| {
        let mut engine = Engine::new(
            Arc::clone(&store),
            EngineConfig {
                workers: 2,
                wavefront: 1,
                io_workers: io,
                hierarchy: tight_hierarchy(&store),
                ..EngineConfig::default()
            },
        );
        let b = engine.submit(Bfs::new(0));
        let s = engine.submit(Sssp::new(1));
        let report = engine.run();
        assert!(report.completed);
        let mut h = FNV_OFFSET;
        for v in engine.results::<Bfs>(b).unwrap() {
            fnv(&mut h, &v.to_le_bytes());
        }
        for v in engine.results::<Sssp>(s).unwrap() {
            fnv(&mut h, &v.to_bits().to_le_bytes());
        }
        (
            h,
            report.loads,
            report.metrics,
            report.modeled_seconds.to_bits(),
        )
    };
    let pinned = (
        WIDTH_ONE_HASH,
        WIDTH_ONE_LOADS,
        WIDTH_ONE_METRICS,
        WIDTH_ONE_MODELED_BITS,
    );
    assert_eq!(run(0), pinned, "io_workers=0");
    assert_eq!(run(8), pinned, "io_workers=8");
}

#[test]
fn injected_worker_panic_surfaces_typed_without_hanging() {
    // The fault plane's worker-death drill: a panic injected into the
    // crew's trigger stage at a fixed (partition, chunk) coordinate must
    // travel the same unwind-guard path as crashing user code — a typed
    // `ExecError::WorkerPanic` parked on the engine, run not completed,
    // no hang (CI's per-binary timeout is the deadlock detector) — on
    // every executor shape: I/O workers behind one-slot channels, and
    // inline fetches at width 1 and width 4.
    let store = shared_store();
    for (wavefront, io_workers) in [(4usize, 2usize), (1, 0), (4, 0)] {
        let plane = FaultPlane::new(FaultConfig {
            // Chunk 0 of partition 0 is processed by every run that
            // touches the partition, so the drill always fires.
            panic_chunk: Some((0, 0)),
            ..FaultConfig::default()
        });
        let mut engine = Engine::new(
            Arc::clone(&store),
            EngineConfig {
                workers: 2,
                wavefront,
                io_workers,
                hierarchy: tight_hierarchy(&store),
                faults: Some(plane),
                ..EngineConfig::default()
            },
        );
        engine.submit_at(Bfs::new(0), 0);
        engine.submit_at(Sssp::new(1), 50);
        let report = engine.run();
        let what = format!("wavefront={wavefront} io={io_workers}");
        assert!(
            !report.completed,
            "{what}: a dead worker must not report completion"
        );
        assert_eq!(
            engine.exec_error(),
            Some(ExecError::WorkerPanic(
                "process_chunk panicked in a trigger worker"
            )),
            "{what}: the injected panic must surface as the typed crew fault"
        );
        // The engine parked the fault: further stepping refuses instead
        // of hanging or re-panicking over the half-dead pipeline.
        assert!(
            !engine.step_round(),
            "{what}: faulted engine must refuse rounds"
        );
    }
}
