//! The catalogue in `src/spec.rs`, the contract file `BENCHMARK.json` and
//! what a traced run actually emits must agree.

use ringbft_benchmark::report::{measure_traced, per_layer};
use ringbft_benchmark::spec::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;
use std::collections::HashMap;
use std::time::Duration;

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or_default()
}

fn assert_metrics_match(listed: &Value, defs: &[MetricDef], bounded: bool) {
    let listed = listed.as_array().expect("metric list");
    assert_eq!(listed.len(), defs.len());
    for (m, d) in listed.iter().zip(defs) {
        assert_eq!(text(m, "name"), d.name);
        assert_eq!(text(m, "unit"), d.unit, "{}", d.name);
        assert_eq!(text(m, "better"), d.better.as_str(), "{}", d.name);
        if bounded {
            assert_eq!(
                m.get("bound").and_then(Value::as_f64),
                Some(d.bound),
                "{}",
                d.name
            );
        }
    }
}

#[test]
fn benchmark_json_repeats_the_catalogue() {
    let c = contract();
    let workloads = c
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (listed, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(listed, "name"), w.name);
        assert_eq!(text(listed, "why"), w.why);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }
    assert_metrics_match(c.get("end_to_end").expect("end_to_end"), &END_TO_END, true);
    assert_metrics_match(c.get("per_layer").expect("per_layer"), &PER_LAYER, false);
    assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    assert_eq!(
        c.get("paths").and_then(Value::as_array).map(Vec::len),
        Some(1)
    );
}

/// Counters of things that must not happen in a fault-free run.
const MUST_READ_ZERO: [&str; 6] = [
    "client.failed_frac",
    "net.backpressure_hits",
    "net.dropped_frames",
    "net.reconnects",
    "pbft.view_changes",
    // Adaptive batching is off in every workload.
    "core.adaptive_flushes",
];

/// With the inline execution pipeline (`pipeline_workers = 0`, which every
/// workload fixes) a replica opens and closes these phases at the same
/// instant: they are reported as absent, not as 0 ms.
const ABSENT_WHEN_INLINE: [&str; 3] = [
    "core.phase_commit_execute_p50_ms",
    "core.phase_execute_reply_p50_ms",
    "core.phase_cst_execute_p50_ms",
];

#[test]
fn every_per_layer_metric_is_emitted_and_moves_somewhere() {
    let mut seen: HashMap<&str, Vec<Option<f64>>> = HashMap::new();
    for w in &WORKLOADS {
        // Two seconds shared by the two arms and 20 ms per probe: enough
        // for every counter to move, far too short to quote.
        let t = measure_traced(w, 7, 2.0, Duration::from_millis(20)).expect(w.name);
        assert!(
            t.traced.failures.is_empty(),
            "{}: {:?}",
            w.name,
            t.traced.failures
        );
        let values = per_layer(w, &t);
        assert_eq!(
            values.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>(),
            "catalogue order"
        );
        for (name, v) in values {
            assert!(v.is_none_or(f64::is_finite), "{}: {name} = {v:?}", w.name);
            seen.entry(name).or_default().push(v);
        }
    }
    for d in &PER_LAYER {
        let values = &seen[d.name];
        if MUST_READ_ZERO.contains(&d.name) {
            assert!(
                values.iter().all(|v| *v == Some(0.0)),
                "{}: {values:?}",
                d.name
            );
        } else if ABSENT_WHEN_INLINE.contains(&d.name) {
            assert!(
                values.iter().all(|v| v.is_none_or(|x| x > 0.0)),
                "{}: {values:?}",
                d.name
            );
        } else {
            let moved = values.iter().flatten().any(|x| *x != 0.0);
            assert!(
                moved,
                "{} is zero or absent on every workload: {values:?}",
                d.name
            );
        }
    }
}
