//! `cargo run --release -- [--workload NAME] [--seed N] [--seconds S]
//! [--repeat N | --trace 0|1]`
//!
//! With `--trace 0|1` (how the benchmark driver calls it): one workload,
//! one run, and the result object as the last line of standard output.
//! Without `--trace`: runs each selected workload untraced then traced,
//! prints every metric with its unit, and writes
//! `<target>/benchmark/results.json` plus one `<workload>.spans.jsonl`.
//! With `--repeat N`: runs the untraced set N times (seed, seed+1, ...)
//! and prints the spread of every end-to-end metric against its bound.
//! In the last two modes every untraced run is made the way the driver
//! makes it, in a process of its own (`--trace 0`): peak memory and heap
//! layout are then that run's, not an inheritance from earlier ones.

use ringbft_benchmark::report::{
    contract_line, end_to_end, json_object, measure_traced, measure_untraced, noise_report,
    per_layer, table, validity_warnings,
};
use ringbft_benchmark::run::{out_dir, RunResult};
use ringbft_benchmark::spec::{workload, Values, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use ringbft_benchmark::{procfs, spec};
use serde_json::Value;
use std::process::ExitCode;
use std::process::{Command, Stdio};
use std::time::Duration;

/// Sampling time of each layer probe.
const PROBE_BUDGET: Duration = Duration::from_millis(200);

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 42,
        seconds: 15.0,
        trace: None,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = workload(&name).ok_or(format!("unknown workload {name}"))?;
                a.workloads = vec![w];
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&a.seconds) {
                    return Err("--seconds must be within 1..=60".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                a.repeat = Some(n.max(1));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.trace.is_some() && (a.workloads.len() != 1 || a.repeat.is_some()) {
        return Err("--trace runs one workload once: pass --workload, not --repeat".into());
    }
    Ok(a)
}

fn report_problems(w: &Workload, r: &RunResult) {
    for f in &r.failures {
        eprintln!("{}: CHECK FAILED: {f}", w.name);
    }
    for v in validity_warnings(w, r) {
        eprintln!("{}: VOID: {v}", w.name);
    }
}

/// The driver's mode: one run, the result object last on stdout.
fn contract(w: &Workload, a: &Args, traced: bool) -> Result<(), String> {
    let line = if traced {
        let t = measure_traced(w, a.seed, a.seconds, PROBE_BUDGET)?;
        report_problems(w, &t.traced);
        let layers = per_layer(w, &t);
        print!("{}", table(&PER_LAYER, &layers));
        contract_line(&PER_LAYER, &layers, &t.traced)
    } else {
        let r = measure_untraced(w, a.seed, a.seconds)?;
        report_problems(w, &r);
        let metrics = end_to_end(&r);
        print!("{}", table(&END_TO_END, &metrics));
        contract_line(&END_TO_END, &metrics, &r)
    };
    println!("{line}");
    Ok(())
}

/// The result object of one untraced run made in a fresh process.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Values,
}

fn untraced_in_child(w: &Workload, seed: u64, seconds: f64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn the untraced run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str(l).ok());
    let Some(result) = result.filter(|_| out.status.success()) else {
        return Err(format!("the untraced run of {} printed no result", w.name));
    };
    let count = |key: &str| result.get(key).and_then(Value::as_u64).unwrap_or(0);
    let metric = |name: &str| result.get("metrics")?.get(name)?.get("value")?.as_f64();
    Ok(ChildRun {
        correct: result.get("correct").and_then(Value::as_bool) == Some(true),
        attempted: count("attempted"),
        failed: count("failed"),
        metrics: END_TO_END
            .iter()
            .map(|d| (d.name, metric(d.name)))
            .collect(),
    })
}

fn full(a: &Args) -> Result<bool, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut ok = true;
    let mut results = Vec::new();
    for w in &a.workloads {
        println!(
            "== {} (seed {}, {} s): {}",
            w.name, a.seed, a.seconds, w.why
        );
        let r = untraced_in_child(w, a.seed, a.seconds)?;
        println!(
            " end to end, tracing off; {} requests in the window, {} failed",
            r.attempted, r.failed
        );
        print!("{}", table(&END_TO_END, &r.metrics));
        let t = measure_traced(w, a.seed, a.seconds, PROBE_BUDGET)?;
        report_problems(w, &t.traced);
        println!(
            " per layer, one transaction in {} traced; {} requests in the window",
            spec::TRACE_SAMPLE_RATE,
            t.traced.window.attempted
        );
        let layers = per_layer(w, &t);
        print!("{}", table(&PER_LAYER, &layers));
        let spans = out.join(format!("{}.spans.jsonl", w.name));
        t.spans
            .write_jsonl(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        let correct = r.correct && t.traced.failures.is_empty();
        ok &= correct;
        results.push(format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
            w.name,
            a.seed,
            a.seconds,
            correct,
            r.attempted,
            r.failed,
            json_object(&r.metrics),
            json_object(&layers)
        ));
    }
    let path = out.join("results.json");
    std::fs::write(&path, format!("[\n{}\n]\n", results.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn repeat(a: &Args, n: usize) -> Result<bool, String> {
    let mut ok = true;
    let mut rows: Vec<(&Workload, Vec<Values>)> = Vec::new();
    for w in &a.workloads {
        let mut runs = Vec::new();
        for i in 0..n as u64 {
            let r = untraced_in_child(w, a.seed + i, a.seconds)?;
            ok &= r.correct;
            eprintln!("{} run {}/{n}: {}", w.name, i + 1, json_object(&r.metrics));
            runs.push(r.metrics);
        }
        rows.push((w, runs));
    }
    println!(
        "{n} runs per workload, seeds {}..{}, {} s windows; nproc {}, kernel {}\n",
        a.seed,
        a.seed + n as u64 - 1,
        a.seconds,
        procfs::nproc(),
        procfs::kernel()
    );
    print!("{}", noise_report(&rows));
    Ok(ok)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|a| match (a.trace, a.repeat) {
        (Some(traced), _) => contract(a.workloads[0], &a, traced).map(|()| true),
        (None, Some(n)) => repeat(&a, n),
        (None, None) => full(&a),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ringbft-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
