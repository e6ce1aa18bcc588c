//! The multi-node store sweep, machine-readable.
//!
//! Three row sets pin the store's multi-node semantics:
//!
//! 1. **placement** — the community mix (one BFS + one SSSP per
//!    disjoint R-MAT community) over a 4-shard store on an out-of-core
//!    hierarchy, swept over `{round_robin, hash, locality}`; the
//!    locality table is profiled from the round-robin run's observed
//!    job footprints.  Locality must cut cross-shard fetch bytes — the
//!    traffic that would cross the network on real nodes — by ≥15% vs
//!    round-robin (gated at default scale and above).
//! 2. **capacity** — a 200-delta ingest under `{unlimited, tight}`
//!    per-shard budgets: tight must spill checkpoint-covered records,
//!    shrink residency, and charge spill re-fetches when a
//!    historic-bound job reads the evicted state.
//! 3. **apply** — the same stream applied to a 1-shard and a 4-shard
//!    store: sharding is transparent to the latest view (asserted), and
//!    the rows record what the shard chains cost in apply wall time.
//!
//! Prints the tables and writes `BENCH_store.json` so CI can track the
//! trajectory point by point.  Accepts the standard `--full` / `--tiny`
//! scale flags; `--out PATH` overrides the JSON location.

use cgraph_bench::{
    apply_sweep, capacity_sweep, community_graph, ingest_stream_spread, out_of_core_hierarchy,
    placement_sweep, print_table, store_sweep_json, Scale,
};
use cgraph_graph::vertex_cut::VertexCutPartitioner;
use cgraph_graph::{generate, Partitioner, ShardCapacity};

const SHARDS: usize = 4;
const COMMUNITIES: usize = 4;
const DELTAS: usize = 200;

fn main() {
    let scale = Scale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_store.json")
        .to_string();

    // --- placement: clustered community footprints, out-of-core ---
    let cscale = (14u32.saturating_sub(scale.shrink)).clamp(7, 12);
    let block = 1u32 << cscale;
    let el = community_graph(COMMUNITIES, cscale, 6, 0xC0FFEE);
    let np = (el.len() / 2048).clamp(16, 128);
    let ps = VertexCutPartitioner::new(np).partition(&el);
    let h = out_of_core_hierarchy(&ps);
    let placement = placement_sweep(&ps, SHARDS, 2, h, COMMUNITIES, block);
    print_table(
        "placement sweep (community mix, out-of-core, 4 shards)",
        &[
            "placement",
            "loads",
            "fetch MB",
            "cross MB",
            "cross %",
            "modeled ms",
            "wall ms",
        ],
        &placement
            .iter()
            .map(|p| {
                vec![
                    p.placement.clone(),
                    p.loads.to_string(),
                    format!("{:.1}", p.total_fetch_bytes as f64 / 1e6),
                    format!("{:.1}", p.cross_shard_fetch_bytes as f64 / 1e6),
                    format!("{:.1}", p.cross_fraction() * 100.0),
                    format!("{:.3}", p.modeled_ms),
                    format!("{:.1}", p.wall_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let rr = &placement[0];
    let local = &placement[2];
    let reduction = 1.0 - local.cross_shard_fetch_bytes as f64 / rr.cross_shard_fetch_bytes as f64;
    println!(
        "\nlocality cross-shard fetch bytes: {} vs round-robin {} ({:.1}% reduction)",
        local.cross_shard_fetch_bytes,
        rr.cross_shard_fetch_bytes,
        reduction * 100.0
    );
    assert_eq!(
        rr.loads, local.loads,
        "placement must not change the schedule's loads"
    );
    // The community footprints cluster at every scale, so the locality
    // gate holds unconditionally — including CI's --tiny smoke run.
    assert!(
        reduction >= 0.15,
        "locality placement must cut cross-shard fetch bytes by >=15%: got {:.1}%",
        reduction * 100.0
    );

    // --- capacity + apply: the 4-shard ingest stream ---
    let vertices: u32 = 1 << (21u32.saturating_sub(scale.shrink)).clamp(13, 17);
    let partitions = (vertices as usize / 2048).clamp(8, 64);
    let base = VertexCutPartitioner::new(partitions).partition(&generate::cycle(vertices));
    // 16 spread sources: each delta rebuilds ~16 partitions across all
    // four shard chains.
    let stream = ingest_stream_spread(vertices, DELTAS, 256, 16);

    // The tight budget derives from the unlimited run's residency, so
    // sweep unlimited first and reuse that point instead of re-running
    // the whole ingest.
    let mut capacity = capacity_sweep(
        &base,
        &stream,
        SHARDS,
        &[("unlimited", ShardCapacity::UNLIMITED)],
    );
    let tight = ShardCapacity::bytes(capacity[0].max_shard_resident * 6 / 10);
    capacity.extend(capacity_sweep(&base, &stream, SHARDS, &[("tight", tight)]));
    print_table(
        "capacity sweep (200-delta stream, 4 shards, EveryK(8))",
        &[
            "capacity",
            "budget KB",
            "override KB",
            "max shard KB",
            "spilled",
            "refetch KB",
        ],
        &capacity
            .iter()
            .map(|p| {
                vec![
                    p.label.clone(),
                    if p.max_resident_bytes == u64::MAX {
                        "inf".to_string()
                    } else {
                        format!("{:.0}", p.max_resident_bytes as f64 / 1e3)
                    },
                    format!("{:.0}", p.override_bytes as f64 / 1e3),
                    format!("{:.0}", p.max_shard_resident as f64 / 1e3),
                    p.spilled_records.to_string(),
                    format!("{:.0}", p.spill_refetch_bytes as f64 / 1e3),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let tight_point = &capacity[1];
    assert!(tight_point.spilled_records > 0, "tight budget must spill");
    assert!(
        tight_point.override_bytes < capacity[0].override_bytes,
        "spilling must shrink residency"
    );
    assert!(
        tight_point.spill_refetch_bytes > 0,
        "historic reads of spilled state must be priced"
    );

    let apply = apply_sweep(&base, &stream, &[1, SHARDS]);
    print_table(
        "apply sweep (200-delta stream)",
        &["shards", "total ms", "vs 1 shard", "override KB"],
        &apply
            .iter()
            .map(|p| {
                vec![
                    p.shards.to_string(),
                    format!("{:.1}", p.total_apply_us / 1e3),
                    format!("{:.2}x", apply[0].total_apply_us / p.total_apply_us),
                    format!("{:.0}", p.override_bytes as f64 / 1e3),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let json = store_sweep_json(
        "community-rmat+cycle",
        scale.shrink,
        &placement,
        &capacity,
        &apply,
    );
    std::fs::write(&out_path, json).expect("write BENCH_store.json");
    println!("wrote {out_path}");
}
