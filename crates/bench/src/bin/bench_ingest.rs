//! The snapshot-ingest sweep, machine-readable.
//!
//! Streams 200 constant-size deltas into a [`SnapshotStore`] under three
//! chain layouts — the pre-layering cumulative representation
//! (`EveryK(1)`: full state on every record), the layered chain with
//! compaction off, and the layered chain at the default checkpoint
//! cadence — sampling cumulative apply cost, resident override bytes,
//! and latest-view lookup latency at several chain lengths.  Prints the
//! table and writes `BENCH_ingest.json` so CI can track the ingest-cost
//! trajectory point by point.
//!
//! Accepts the standard `--full` / `--tiny` scale flags; `--out PATH`
//! overrides the JSON location.

use cgraph_bench::{
    ingest_run, ingest_run_on, ingest_stream, ingest_stream_spread, ingest_sweep_json, print_table,
    IngestRun, Scale,
};
use cgraph_graph::snapshot::{CompactionPolicy, ShardedSnapshotStore};
use cgraph_graph::vertex_cut::VertexCutPartitioner;
use cgraph_graph::{generate, Partitioner};

const DELTAS: usize = 200;
const EDGES_PER_DELTA: usize = 64;

fn main() {
    let scale = Scale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_ingest.json")
        .to_string();

    // A sparse ring sized by scale: ingest cost is about chain mechanics,
    // not graph algorithmics, so partitions stay small and numerous.
    let vertices: u32 = 1 << (18u32.saturating_sub(scale.shrink)).clamp(10, 16);
    let partitions = (vertices as usize / 32).clamp(16, 256);
    let el = generate::cycle(vertices);
    let base = VertexCutPartitioner::new(partitions).partition(&el);
    let stream = ingest_stream(vertices, DELTAS, EDGES_PER_DELTA);
    let marks = [25usize, 50, 100, 200];

    let mut runs: Vec<IngestRun> = [
        ("cumulative(k=1)", CompactionPolicy::EveryK(1)),
        ("layered(off)", CompactionPolicy::Off),
        ("layered(k=16)", CompactionPolicy::default()),
    ]
    .into_iter()
    .map(|(label, policy)| ingest_run(label, policy, &base, &stream, &marks))
    .collect();
    // Trajectory row for the sharded store: the same layered policy over
    // a 4-shard store, on a source-spread stream (several partitions
    // rebuild per delta, across every shard chain).
    let spread = ingest_stream_spread(vertices, DELTAS, EDGES_PER_DELTA, 8);
    runs.push(ingest_run_on(
        "layered(k=16)+shards4",
        ShardedSnapshotStore::with_shards(base.clone(), 4),
        &spread,
        &marks,
    ));

    let rows: Vec<Vec<String>> = runs
        .iter()
        .flat_map(|run| {
            let n = run.apply_us.len();
            run.points.iter().map(move |p| {
                vec![
                    run.policy.clone(),
                    p.chain_len.to_string(),
                    format!("{:.0}", p.cum_apply_us),
                    format!("{:.2}", run.mean_us(0..50.min(n))),
                    format!("{:.2}", run.mean_us(n.saturating_sub(50)..n)),
                    p.override_bytes.to_string(),
                    format!("{:.0}", p.latest_lookup_ns),
                ]
            })
        })
        .collect();
    print_table(
        "ingest sweep (200 constant-size deltas)",
        &[
            "policy",
            "chain",
            "cum µs",
            "first50 µs/apply",
            "last50 µs/apply",
            "override B",
            "latest ns/lookup",
        ],
        &rows,
    );

    let cumulative = &runs[0];
    let layered = &runs[2];
    let speedup = cumulative.total_us() / layered.total_us();
    let bytes_ratio = cumulative.points.last().unwrap().override_bytes as f64
        / layered.points.last().unwrap().override_bytes as f64;
    let flatness = layered.mean_us(DELTAS - 50..DELTAS) / layered.mean_us(0..50);
    println!(
        "\ntotal ingest speedup (layered k=16 vs cumulative): {speedup:.1}x; \
         resident override bytes: {bytes_ratio:.1}x smaller; \
         layered last50/first50 per-apply ratio: {flatness:.2}"
    );
    // The layered chain must never lose to the cumulative layout; at the
    // default scale and above the win is pinned: wall speedup gated at 3x
    // (typical runs measure ~5x, ranging 4.7-24x, but shared/throttled
    // machines need headroom) and a deterministic ≥5x on resident
    // override bytes.  Tiny smoke runs are too short to pin a wall
    // multiple at all.
    assert!(
        speedup > 1.0,
        "layered ingest slower than cumulative: {speedup:.2}x"
    );
    if scale.shrink <= 5 {
        assert!(
            speedup >= 3.0,
            "expected ~5x ingest speedup at default scale, got {speedup:.2}x"
        );
        assert!(
            bytes_ratio >= 5.0,
            "expected ≥5x resident-bytes win at default scale, got {bytes_ratio:.2}x"
        );
    }

    let json = ingest_sweep_json("cycle", vertices, EDGES_PER_DELTA, &runs);
    std::fs::write(&out_path, json).expect("write BENCH_ingest.json");
    println!("wrote {out_path}");
}
