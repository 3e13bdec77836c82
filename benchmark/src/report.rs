//! From finished runs to named metrics, and how they are printed.

use crate::probes;
use crate::run::{out_dir, run_workload, RunOptions, RunResult};
use crate::spans::SpanLog;
use crate::spec::{
    value, MetricDef, Phases, Values, Workload, END_TO_END, PER_LAYER, SETUP_TRIALS,
};
use crate::stats::{median, Spread};
use std::fmt::Write as _;
use std::time::Duration;

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(r: &RunResult) -> Values {
    vec![
        ("setup_s", Some(median(&r.setup_s))),
        ("goodput_tps", Some(r.window.goodput_tps)),
        ("lat_p50_ms", Some(r.window.lat_p50_ms)),
        ("lat_p90_ms", Some(r.window.lat_p90_ms)),
        ("cpu_us_per_txn", Some(r.cpu_us_per_txn)),
        ("peak_rss_mb", Some(r.peak_rss_mb)),
    ]
}

/// The untraced run: set up [`SETUP_TRIALS`] times, measure `seconds`.
pub fn measure_untraced(w: &Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let opts = RunOptions {
        seed,
        phases: Phases::untraced(seconds),
        traced: false,
        setup_trials: SETUP_TRIALS,
    };
    run_workload(w, &opts, &mut SpanLog::new(), None)
}

/// Everything the traced run of one workload produced.
pub struct Traced {
    /// Same phases with tracing off: the base of the overhead ratio.
    pub reference: RunResult,
    pub traced: RunResult,
    pub probes: Vec<(&'static str, f64)>,
    /// Simulator-predicted throughput (`single_sat` only).
    pub sim_tps: Option<f64>,
    pub spans: SpanLog,
    pub wall_s: f64,
}

/// The traced run: one arm with tracing off, one with one transaction in
/// 64 traced, then the layer probes. The arms share `seconds` between
/// them; `probe_budget` is the sampling time of each probe.
pub fn measure_traced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    probe_budget: Duration,
) -> Result<Traced, String> {
    let began = std::time::Instant::now();
    let mut spans = SpanLog::new();
    let arm = |traced: bool, spans: &mut SpanLog| {
        let opts = RunOptions {
            seed,
            phases: Phases::traced_arm(seconds),
            traced,
            setup_trials: 1,
        };
        let id = spans.open(
            if traced {
                "run.traced"
            } else {
                "run.reference"
            },
            None,
        );
        let r = run_workload(w, &opts, spans, Some(id));
        spans.close(id);
        r
    };
    let reference = arm(false, &mut spans)?;
    let mut traced = arm(true, &mut spans)?;
    let of_reference = reference
        .failures
        .iter()
        .map(|f| format!("reference arm: {f}"));
    traced.failures.extend(of_reference);

    let id = spans.open("probes", None);
    let scratch = out_dir().join(format!("probe-{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("probe scratch dir: {e}"))?;
    let probes = probes::run_probes(w, seed, probe_budget, &scratch, &mut spans, Some(id));
    let _ = std::fs::remove_dir_all(&scratch);
    let sim_tps = (w.name == "single_sat").then(|| {
        spans.within("sim.scenario", Some(id), || {
            probes::sim_predicted_tps(w, seed)
        })
    });
    spans.close(id);
    Ok(Traced {
        reference,
        traced,
        probes,
        sim_tps,
        spans,
        wall_s: began.elapsed().as_secs_f64(),
    })
}

/// CPU per transaction the probes account for, in microseconds: every
/// replica's state machine (`RingNet`), each frame's encode, MAC and
/// ingress, the generator, and the WAL. What is left over — syscalls,
/// reactor bookkeeping, scheduling — is `bench.cpu_unexplained_frac`.
fn explained_us_per_txn(measured: &Values, goodput_tps: f64, durable: bool) -> Option<f64> {
    let p = |name: &str| value(measured, name);
    let per_batch = 1.0 / p("core.txns_per_batch")?.max(1.0);
    // A Preprepare goes to the three backups; every other frame is small.
    let pp_frames = 3.0 * per_batch;
    let small_frames = (p("net.frames_per_txn")? - pp_frames).max(0.0);
    let net_ns = pp_frames * (p("net.ingress_pp50_ns")? + p("net.frame_prefix_ns")?)
        + small_frames * (p("net.ingress_small_ns")? + p("crypto.mac_small_ns")?)
        + per_batch * p("net.encode_body_pp50_ns")?
        + (p("net.encodes_per_txn")? - per_batch).max(0.0) * p("net.encode_body_small_ns")?;
    let wal_us = if durable {
        // Each of four replicas logs a Preprepare and a Commit per batch.
        8.0 * per_batch * p("store.wal_append_ns")? / 1e3
            + p("store.wal_syncs_per_s")? / goodput_tps * p("store.wal_sync_ms")? * 1e3
    } else {
        0.0
    };
    Some(p("core.ringnet_us_per_txn")? + (net_ns + p("workload.next_txn_ns")?) / 1e3 + wal_us)
}

/// The per-layer metrics of a traced run, in catalogue order.
pub fn per_layer(w: &Workload, t: &Traced) -> Values {
    let r = &t.traced;
    let ws = &r.window;
    // Measured directly: the client's log, the live counter differences,
    // the probes.
    let mut v: Values = vec![
        ("client.offered_tps", Some(ws.offered_tps)),
        (
            "client.failed_frac",
            Some(ws.failed as f64 / ws.attempted.max(1) as f64),
        ),
        ("client.gen_lag_p99_ms", r.gen_lag_p99_ms),
        ("client.lat_p99_ms", Some(ws.lat_p99_ms)),
        ("client.lat_p999_ms", Some(ws.lat_p999_ms)),
        ("client.single_lat_p50_ms", ws.single_lat_p50_ms),
        ("client.cst_lat_p50_ms", ws.cst_lat_p50_ms),
        ("client.cst_lat_p90_ms", ws.cst_lat_p90_ms),
        ("client.p50_drift_ratio", Some(ws.p50_drift_ratio)),
        ("pbft.view_changes", Some(r.view_changes as f64)),
        ("bench.run_wall_s", Some(t.wall_s)),
    ];
    v.extend(r.live.iter().copied());
    v.extend(t.probes.iter().map(|(n, x)| (*n, Some(*x))));
    // Derived from those.
    let stall_frac = value(&v, "recovery.digest_of_store_ms")
        .zip(value(&v, "recovery.checkpoints_per_s"))
        .map(|(digest_ms, per_s)| digest_ms / 1e3 * per_s);
    let unexplained =
        explained_us_per_txn(&v, ws.goodput_tps, w.durable).map(|us| 1.0 - us / r.cpu_us_per_txn);
    v.extend([
        ("recovery.checkpoint_stall_frac", stall_frac),
        (
            "obs.trace_overhead_frac",
            Some(r.cpu_us_per_txn / t.reference.cpu_us_per_txn - 1.0),
        ),
        (
            "sim.tps_ratio",
            t.sim_tps.map(|tps| tps / t.reference.window.goodput_tps),
        ),
        ("bench.cpu_unexplained_frac", unexplained),
    ]);
    // Catalogue order, and every catalogue entry present.
    PER_LAYER
        .iter()
        .map(|d| (d.name, value(&v, d.name)))
        .collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no infinity; a latency of +inf is a lost request and
        // the run is already marked incorrect.
        format!("{}", f64::MAX)
    }
}

/// The one-line result object the driver reads. A metric the workload
/// does not exercise is written as 0 here (the contract wants numbers);
/// `results.json` keeps the distinction as `null`.
pub fn contract_line(defs: &[MetricDef], values: &Values, r: &RunResult) -> String {
    let mut metrics = String::new();
    for (i, d) in defs.iter().enumerate() {
        let v = value(values, d.name).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_number(v),
            d.unit
        )
        .expect("write to string");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        r.failures.is_empty(),
        r.window.attempted.max(1),
        r.window.failed,
    )
}

/// A `name value unit` table.
pub fn table(defs: &[MetricDef], values: &Values) -> String {
    let mut s = String::new();
    for d in defs {
        let v = match value(values, d.name) {
            Some(v) => format!("{v:.4}"),
            None => "-".to_string(),
        };
        writeln!(s, "  {:<40} {:>14} {}", d.name, v, d.unit).expect("write to string");
    }
    s
}

/// `{"name": value-or-null, ...}`.
pub fn json_object(values: &Values) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(n, v)| match v {
            Some(v) if v.is_finite() => format!("\"{n}\": {v}"),
            _ => format!("\"{n}\": null"),
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Warnings that void an open-loop run's numbers without failing it: the
/// generator, not the cluster, set what was measured.
pub fn validity_warnings(w: &Workload, r: &RunResult) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(nominal) = w.nominal_tps() {
        let off = (r.window.offered_tps / nominal - 1.0).abs();
        if off > 0.01 {
            out.push(format!(
                "offered {:.0} tps is {:.1}% off the nominal {nominal:.0}",
                r.window.offered_tps,
                off * 100.0
            ));
        }
    }
    if let Some(lag) = r.gen_lag_p99_ms.filter(|&l| l > 25.0) {
        out.push(format!("generator lag p99 {lag:.1} ms exceeds 25 ms"));
    }
    out
}

/// The noise report of `--repeat`: per workload and end-to-end metric,
/// median, quartiles and range over the runs, against the bound.
pub fn noise_report(rows: &[(&Workload, Vec<Values>)]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "| workload | metric | unit | n | median | q1 | q3 | IQR/median | (max-min)/median | bound | verdict |\n|---|---|---|---|---|---|---|---|---|---|---|"
    )
    .expect("write to string");
    for (w, runs) in rows {
        for d in &END_TO_END {
            let xs: Vec<f64> = runs.iter().filter_map(|v| value(v, d.name)).collect();
            let sp = Spread::of(&xs);
            let verdict = if d.name == "setup_s" {
                "not gated on spread"
            } else if sp.iqr_frac() > d.bound {
                "UNRESOLVED: spread exceeds bound"
            } else if sp.iqr_frac() > d.bound / 3.0 {
                "noisy: spread above a third of the bound"
            } else {
                "ok"
            };
            writeln!(
                s,
                "| {} | {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {:.2} | {} |",
                w.name,
                d.name,
                d.unit,
                xs.len(),
                sp.median,
                sp.q1,
                sp.q3,
                sp.iqr_frac(),
                sp.range_frac(),
                d.bound,
                verdict
            )
            .expect("write to string");
        }
    }
    s
}
