//! The benchmark's own tests: smoke runs of every workload, exact
//! repetition of the deterministic counters, and the metric tables
//! against `BENCHMARK.json`.

use cgraph_core::obs::{parse_json, JsonValue};
use cgraph_perfbench::{run, Opts, Outcome, Size, Workload, END_TO_END, PER_LAYER};

fn smoke(workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(&Opts { workload, seed, seconds: 0.0, trace, size: Size::Smoke })
}

/// Parses a result line and checks it carries exactly `table`, each
/// metric with its unit and a finite value; returns the values.
fn metrics_of(line: &str, table: &[(&str, &str)]) -> Vec<(String, f64)> {
    let v = parse_json(line).expect("result line is JSON");
    let keys: Vec<&str> = v
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)), "{line}");
    assert_eq!(v.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    assert!(v.get("attempted").and_then(JsonValue::as_f64).unwrap() >= 1.0);
    let m = v
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics object");
    assert_eq!(m.len(), table.len(), "one entry per metric");
    table
        .iter()
        .zip(m)
        .map(|(&(name, unit), (key, entry))| {
            assert_eq!(key, name);
            assert_eq!(
                entry.get("unit").and_then(JsonValue::as_str),
                Some(unit),
                "{name}"
            );
            let value = entry
                .get("value")
                .and_then(JsonValue::as_f64)
                .expect("number");
            assert!(value.is_finite(), "{name} = {value}");
            (name.to_string(), value)
        })
        .collect()
}

#[test]
fn smoke_runs_emit_every_metric_with_its_unit() {
    for w in Workload::ALL {
        let e2e = smoke(w, 7, false);
        assert_eq!(e2e.failed, 0, "{}: {}", w.name(), e2e.result_line(false));
        for (name, value) in metrics_of(&e2e.result_line(false), END_TO_END) {
            assert!(
                value > 0.0,
                "{}: end-to-end {name} must never be 0",
                w.name()
            );
        }
        assert!(e2e.record.latency_samples > 0, "{}", w.name());

        let traced = smoke(w, 7, true);
        assert_eq!(
            traced.failed,
            0,
            "{}: {}",
            w.name(),
            traced.result_line(true)
        );
        let layers = metrics_of(&traced.result_line(true), PER_LAYER);
        let get = |n: &str| layers.iter().find(|(k, _)| k == n).unwrap().1;
        // Every workload drives rounds and Push; nothing is dropped.
        assert!(
            get("exec.rounds") > 0.0 && get("exec.loads") > 0.0,
            "{}",
            w.name()
        );
        assert!(get("job.push_ms_sum") > 0.0, "{}", w.name());
        assert_eq!(get("obs.dropped_events"), 0.0, "{}", w.name());
        let share = get("job.push_share");
        assert!(
            share > 0.0 && share <= 1.0,
            "{}: push share {share}",
            w.name()
        );
        match w {
            Workload::ClosedMix => assert!(get("exec.jobs_per_load") > 1.0),
            Workload::StandingRefresh => assert_eq!(get("incr.seeded_frac"), 1.0),
            Workload::EvolvingServe => {
                assert!(get("wal.fsyncs") > 0.0 && get("serve.waves") > 0.0);
                assert!(get("snapshot.apply_ms_sum") > 0.0 && get("wal.open_ms") > 0.0);
            }
        }
    }
}

#[test]
fn deterministic_counters_repeat_exactly_per_seed() {
    const PINNED: &[&str] = &[
        "exec.loads",
        "exec.rounds",
        "serve.waves",
        "serve.rounds",
        "wal.fsyncs",
        "wal.append_bytes",
        "incr.loads_per_refresh",
        "memsim.modeled_s",
        "memsim.disk_bytes",
        "memsim.cache_misses",
        "memsim.edge_ops",
        "memsim.vertex_ops",
        "memsim.sync_ops",
    ];
    for w in Workload::ALL {
        let a = smoke(w, 11, true);
        let b = smoke(w, 11, true);
        assert_eq!((a.failed, b.failed), (0, 0), "{}", w.name());
        for name in PINNED {
            let (x, y) = (a.metrics.get(name), b.metrics.get(name));
            assert_eq!(
                x.map(f64::to_bits),
                y.map(f64::to_bits),
                "{}: {name} must repeat exactly ({x:?} vs {y:?})",
                w.name()
            );
        }
        let other = smoke(w, 12, true);
        assert_ne!(
            a.metrics.get("memsim.edge_ops"),
            other.metrics.get("memsim.edge_ops"),
            "{}: the seed must drive the inputs",
            w.name()
        );
    }
}

#[test]
fn workers_are_clamped_to_the_cores_present() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for w in Workload::ALL {
        let r = smoke(w, 3, false).record;
        assert_eq!(r.nproc, cores);
        assert!(
            r.workers >= 1 && r.workers <= cores,
            "{}: {} workers",
            w.name(),
            r.workers
        );
        assert_eq!(r.io_workers, 0, "{}: fork-join rounds only", w.name());
    }
}

#[test]
fn benchmark_json_names_these_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse_json(&text).expect("BENCHMARK.json is JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), table(END_TO_END));
    assert_eq!(names("per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
