//! Compares two `BENCH_ringbft.json` snapshots and fails (exit 1) on a
//! regression — used by `scripts/check_bench.sh` in CI.
//!
//! ```text
//! bench_check BASELINE.json CANDIDATE.json
//! ```
//!
//! A regression is:
//!
//! * any protocol losing more than [`TOLERANCE`] of its baseline
//!   `throughput_tps`,
//! * any protocol's `p99_latency_s` growing more than
//!   [`P99_TOLERANCE`] over its baseline,
//! * any scenario flag (any boolean key ending in `_ok`, wherever it
//!   appears) that was true in the baseline turning false,
//! * a protocol or flag present in the baseline but missing from the
//!   candidate.
//!
//! Both snapshots hold simulated time only, so the tolerances absorb
//! model changes a PR makes on purpose, not host noise.
//!
//! Schema-version mismatches are an error in their own right: the files
//! describe different workloads and must not be compared — regenerate
//! and commit the baseline together with the schema bump.

/// Allowed relative loss of a protocol's throughput.
const TOLERANCE: f64 = 0.20;

/// Allowed relative growth of a protocol's p99 latency; looser than
/// [`TOLERANCE`] because tail latency moves more than throughput.
const P99_TOLERANCE: f64 = 0.50;

fn load(path: &str) -> serde_json::Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_check: read {path}: {e}");
        std::process::exit(2);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("bench_check: parse {path}: {e:?}");
        std::process::exit(2);
    })
}

/// Collects every boolean `*_ok` flag under `value` as
/// `(dotted.path, bool)`.
fn collect_flags(prefix: &str, value: &serde_json::Value, out: &mut Vec<(String, bool)>) {
    if let Some(obj) = value.as_object() {
        for (key, child) in obj {
            let path = if prefix.is_empty() {
                key.clone()
            } else {
                format!("{prefix}.{key}")
            };
            if key.ends_with("_ok") {
                if let Some(b) = child.as_bool() {
                    out.push((path, b));
                    continue;
                }
            }
            collect_flags(&path, child, out);
        }
    }
}

/// Looks a dotted path up in `value`.
fn lookup<'a>(value: &'a serde_json::Value, path: &str) -> Option<&'a serde_json::Value> {
    let mut cur = value;
    for part in path.split('.') {
        cur = cur.get(part)?;
    }
    Some(cur)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("bench_check BASELINE.json CANDIDATE.json");
        return;
    }
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("unknown flag `{flag}`");
        std::process::exit(2);
    }
    let [baseline_path, candidate_path] = args.as_slice() else {
        eprintln!("bench_check BASELINE.json CANDIDATE.json");
        std::process::exit(2);
    };
    let baseline = load(baseline_path);
    let candidate = load(candidate_path);

    let mut failures: Vec<String> = Vec::new();

    let schema = |v: &serde_json::Value| v.get("schema_version").and_then(|s| s.as_u64());
    match (schema(&baseline), schema(&candidate)) {
        (Some(a), Some(b)) if a == b => {}
        (a, b) => {
            eprintln!(
                "bench_check: schema mismatch (baseline {a:?}, candidate {b:?}) — \
                 regenerate and commit the baseline with the schema change"
            );
            std::process::exit(1);
        }
    }

    // Per-protocol throughput floor.
    let empty = Vec::new();
    let protocols = baseline
        .get("protocols")
        .and_then(|p| p.as_object())
        .unwrap_or(&empty);
    for (name, entry) in protocols {
        let Some(base_tps) = entry.get("throughput_tps").and_then(|t| t.as_f64()) else {
            continue;
        };
        let cand_tps = candidate
            .get("protocols")
            .and_then(|p| p.get(name))
            .and_then(|e| e.get("throughput_tps"))
            .and_then(|t| t.as_f64());
        match cand_tps {
            None => failures.push(format!("protocol {name}: missing from candidate")),
            Some(tps) if tps < base_tps * (1.0 - TOLERANCE) => failures.push(format!(
                "protocol {name}: throughput {tps:.0} txn/s is {:.1}% below baseline {base_tps:.0}",
                (1.0 - tps / base_tps) * 100.0
            )),
            Some(tps) => {
                eprintln!("ok  {name}: {tps:.0} txn/s (baseline {base_tps:.0})");
            }
        }

        // Tail-latency ceiling: candidate p99 must not blow past the
        // baseline by more than the (looser) p99 tolerance.
        let Some(base_p99) = entry.get("p99_latency_s").and_then(|t| t.as_f64()) else {
            continue;
        };
        if base_p99 <= 0.0 {
            continue; // no completions in the baseline window
        }
        let cand_p99 = candidate
            .get("protocols")
            .and_then(|p| p.get(name))
            .and_then(|e| e.get("p99_latency_s"))
            .and_then(|t| t.as_f64());
        match cand_p99 {
            None => failures.push(format!(
                "protocol {name}: p99_latency_s missing from candidate"
            )),
            Some(p99) if p99 > base_p99 * (1.0 + P99_TOLERANCE) => failures.push(format!(
                "protocol {name}: p99 latency {:.0} ms is {:.1}% above baseline {:.0} ms",
                p99 * 1e3,
                (p99 / base_p99 - 1.0) * 100.0,
                base_p99 * 1e3
            )),
            Some(p99) => {
                eprintln!(
                    "ok  {name}: p99 {:.0} ms (baseline {:.0} ms)",
                    p99 * 1e3,
                    base_p99 * 1e3
                );
            }
        }
    }

    // Safety/liveness flags must never go true → false.
    let mut flags = Vec::new();
    collect_flags("", &baseline, &mut flags);
    for (path, base_ok) in flags {
        if !base_ok {
            continue; // already red in the baseline; nothing to lose
        }
        match lookup(&candidate, &path).and_then(|v| v.as_bool()) {
            Some(true) => eprintln!("ok  {path}"),
            Some(false) => failures.push(format!("{path}: flag lost (true → false)")),
            None => failures.push(format!("{path}: flag missing from candidate")),
        }
    }

    if failures.is_empty() {
        eprintln!(
            "bench_check: no regressions (tolerance {:.0}%)",
            TOLERANCE * 100.0
        );
        return;
    }
    eprintln!("bench_check: {} regression(s):", failures.len());
    for f in &failures {
        eprintln!("  FAIL {f}");
    }
    std::process::exit(1);
}
