//! Emits `BENCH_ringbft.json`: a machine-readable performance snapshot
//! for regression tracking across PRs.
//!
//! ```text
//! cargo run --release -p ringbft-bench --bin bench_json            # writes ./BENCH_ringbft.json
//! cargo run --release -p ringbft-bench --bin bench_json -- out.json --seed 9
//! ```
//!
//! Every number in the file is simulated: each section runs a fixed
//! quick-scale workload on the discrete-event WAN, so two runs with one
//! seed write byte-identical files. `scripts/check_bench.sh` diffs a
//! fresh run against the committed snapshot with `bench_check`; the
//! workload must therefore stay stable — change it only together with a
//! new `schema_version`. The real runtime is timed by `benchmark/`, and
//! its invariants (thread budget, serialize-once egress, store
//! convergence, clean shutdown) are asserted by `crates/net/tests`.

use ringbft_sim::Scenario;
use ringbft_types::{ProtocolKind, ReplicaId, ShardId, SystemConfig};
use std::io::Write as _;

/// Bump when the benchmark workload or JSON layout changes, so trend
/// tooling never compares across incompatible definitions.
///
/// The v13 layout, one object per scenario, each carrying boolean `*_ok`
/// flags that `bench_check` keeps from turning false:
///
/// * `protocols`: throughput and latency percentiles of every protocol
///   on the quick workload, and RingBFT's per-phase consensus timers
///   (`phases_ok`);
/// * `recovery`: a blank restart caught up by state transfer;
/// * `hole_fetch`: one missed sequence repaired by a fetched commit
///   certificate;
/// * `state_transfer`: a laggard recovered by a verified delta chain
///   that moved less than a full snapshot (`delta_vs_full_ok`);
/// * `tracing`: causal-span timelines at 1/64 sampling and their
///   throughput cost against tracing off;
/// * `durability`: a kill -9 restart replayed from the write-ahead log,
///   with the wire top-up under 25 % of a blank restart's transfer;
/// * `open_loop`: the latency-vs-offered-load curve under Poisson
///   arrivals, its knee (`knee_ok`), and adaptive batching at light
///   load.
const SCHEMA_VERSION: u64 = 13;

fn quick_cfg(kind: ProtocolKind) -> SystemConfig {
    let (z, n) = if kind.is_sharded() { (3, 4) } else { (1, 4) };
    let mut cfg = SystemConfig::uniform(kind, z, n);
    cfg.num_keys = 60_000;
    cfg.clients = 2_000;
    cfg.batch_size = 50;
    cfg.cross_shard_rate = if kind.is_sharded() { 0.30 } else { 0.0 };
    cfg.involved_shards = z;
    cfg
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_ringbft.json".to_string();
    let mut seed = 42u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!("bench_json [OUT_PATH] [--seed N] — write BENCH_ringbft.json");
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
            other => out_path = other.to_string(),
        }
        i += 1;
    }

    let protocols = [
        ProtocolKind::RingBft,
        ProtocolKind::Sharper,
        ProtocolKind::Ahl,
        ProtocolKind::Pbft,
        ProtocolKind::HotStuff,
    ];

    let mut entries: Vec<(String, serde_json::Value)> = Vec::new();
    for kind in protocols {
        eprintln!("bench {} ...", kind.name());
        let t0 = std::time::Instant::now();
        let report = Scenario::new(quick_cfg(kind), seed)
            .warmup_secs(1.0)
            .measure_secs(4.0)
            .bandwidth_divisor(20)
            .run();
        eprintln!(
            "  {:>10.0} txn/s, {:.3}s avg latency ({:.1}s wall)",
            report.throughput_tps,
            report.avg_latency_s,
            t0.elapsed().as_secs_f64()
        );
        // Per-phase consensus timers (instrumented protocols only —
        // RingBFT today; empty object for the baselines).
        let phases: Vec<(String, serde_json::Value)> = report
            .phases
            .iter()
            .map(|p| {
                (
                    p.name.to_string(),
                    serde_json::json!({
                        "count": p.count,
                        "mean_s": p.mean_s,
                        "p50_s": p.p50_s,
                        "p99_s": p.p99_s,
                    }),
                )
            })
            .collect();
        let mut entry = serde_json::json!({
                "throughput_tps": report.throughput_tps,
                "avg_latency_s": report.avg_latency_s,
                "p50_latency_s": report.p50_latency_s,
                "p95_latency_s": report.p95_latency_s,
                "p99_latency_s": report.p99_latency_s,
                "p999_latency_s": report.p999_latency_s,
                "completed_txns": report.completed_txns,
                "messages_sent": report.messages_sent,
                "bytes_sent": report.bytes_sent,
                "phases": serde_json::Value::Object(phases),
        });
        if kind == ProtocolKind::RingBft {
            // The per-phase consensus timers are present and populated:
            // a refactor that silently drops them must fail the gate,
            // not regenerate an empty section.
            let ok = report
                .phases
                .iter()
                .any(|p| p.name == "phase.preprepare_commit" && p.count > 0);
            if let serde_json::Value::Object(fields) = &mut entry {
                fields.push(("phases_ok".to_string(), serde_json::Value::Bool(ok)));
            }
        }
        entries.push((kind.name().to_string(), entry));
    }

    // Recovery scenario: a RingBFT replica crashes, restarts blank, and
    // catches up via checkpoint state transfer while traffic continues.
    // Tracks time-to-catch-up and post-restart throughput across PRs.
    eprintln!("bench recovery (replica blank restart) ...");
    let recovery = {
        let mut cfg = quick_cfg(ProtocolKind::RingBft);
        cfg.checkpoint_interval = 16;
        let t0 = std::time::Instant::now();
        let report = Scenario::new(cfg, seed)
            .warmup_secs(1.0)
            .measure_secs(9.0)
            .bandwidth_divisor(20)
            .with_blank_restart(3.0, 4.0, ReplicaId::new(ShardId(1), 2))
            .run();
        let rec = report.recovery.expect("recovery scenario configured");
        eprintln!(
            "  catch-up {:?}s, {:.0} txn/s post-restart ({:.1}s wall)",
            rec.catchup_s,
            rec.post_restart_tps,
            t0.elapsed().as_secs_f64()
        );
        serde_json::json!({
            "crash_s": 3.0,
            "restart_s": rec.restart_s,
            "catchup_s": rec.catchup_s,
            "post_restart_tps": rec.post_restart_tps,
            "throughput_tps": report.throughput_tps,
            "checkpoint_interval": 16,
            // The restarted replica re-executed and traffic kept
            // flowing: losing this flag means the recovery path broke.
            "liveness_ok": rec.catchup_s.is_some() && rec.post_restart_tps > 0.0,
        })
    };

    // Hole-fetch scenario: one replica misses the full quorum traffic
    // for a single sequence; the shard moves on and the replica must
    // repair the hole with a fetched commit certificate (no snapshot
    // transfer) while checkpoint cadence continues. Tracks repair
    // latency and the safety/liveness flags across PRs.
    eprintln!("bench hole-fetch (targeted commit hole) ...");
    let hole_fetch = {
        let mut cfg = quick_cfg(ProtocolKind::RingBft);
        cfg.checkpoint_interval = 512;
        let victim = ReplicaId::new(ShardId(1), 2);
        let hole_seq = 10u64;
        let t0 = std::time::Instant::now();
        let report = Scenario::new(cfg, seed)
            .warmup_secs(1.0)
            .measure_secs(7.0)
            .bandwidth_divisor(20)
            .with_commit_hole(victim, hole_seq)
            .run();
        let h = report.holes[0];
        eprintln!(
            "  resumed {:?}s, {} filled / {} requests, stable at {} ({:.1}s wall)",
            h.resumed_s,
            h.holes_filled,
            h.hole_requests,
            h.stable_seq,
            t0.elapsed().as_secs_f64()
        );
        serde_json::json!({
            "hole_seq": hole_seq,
            "checkpoint_interval": 512,
            "resumed_s": h.resumed_s,
            "holes_filled": h.holes_filled,
            "hole_requests": h.hole_requests,
            "snapshot_installs": h.snapshot_installs,
            "victim_exec_watermark": h.exec_watermark,
            "victim_stable_seq": h.stable_seq,
            "throughput_tps": report.throughput_tps,
            // All donors here are honest, so this flag cannot catch a
            // verifier that wrongly *accepts* forgeries (that coverage
            // lives in ringbft-pbft's forged-certificate proptests); it
            // catches the converse regression — correct replies failing
            // verification (codec, digest, or signer-set breakage).
            "safety_ok": h.bad_replies == 0,
            // The hole was repaired by certificate fetch, execution
            // resumed through it, and checkpoints kept stabilizing.
            "liveness_ok": h.holes_filled >= 1
                && h.snapshot_installs == 0
                && h.resumed_s.is_some()
                && h.stable_seq >= 512,
        })
    };

    // Delta state-transfer scenario: a replica is partitioned from all
    // inbound traffic for ~one checkpoint window; its catch-up must
    // arrive as a verified delta chain moving O(churn) bytes — tracked
    // against the modeled cost of a full snapshot of its partition.
    eprintln!("bench state-transfer (delta chain catch-up) ...");
    let state_transfer = {
        use ringbft_types::Duration;
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 2, 4);
        cfg.num_keys = 16_000;
        cfg.clients = 8;
        cfg.batch_size = 1;
        cfg.cross_shard_rate = 0.2;
        cfg.checkpoint_interval = 256;
        cfg.timers.local = Duration::from_millis(4800);
        cfg.timers.remote = Duration::from_millis(9600);
        cfg.timers.transmit = Duration::from_millis(14400);
        cfg.timers.client = Duration::from_millis(19200);
        let victim = ReplicaId::new(ShardId(0), 2);
        let t0 = std::time::Instant::now();
        let report = Scenario::new(cfg, seed)
            .warmup_secs(1.0)
            .measure_secs(29.0)
            .with_delta_transfer(victim, 2.0, 3.2)
            .run();
        let d = report.delta_transfers[0];
        eprintln!(
            "  {} delta / {} full installs, {} bytes moved vs {} full baseline ({:.1}s wall)",
            d.delta_installs,
            d.full_installs,
            d.transfer_bytes(),
            d.full_baseline_bytes,
            t0.elapsed().as_secs_f64()
        );
        serde_json::json!({
            "dark_from_s": d.dark_from_s,
            "dark_until_s": d.dark_until_s,
            "checkpoint_interval": 256,
            "delta_installs": d.delta_installs,
            "full_installs": d.full_installs,
            "delta_bytes": d.delta_bytes,
            "full_bytes": d.full_bytes,
            "transfer_bytes": d.transfer_bytes(),
            "full_baseline_bytes": d.full_baseline_bytes,
            "victim_exec_watermark": d.exec_watermark,
            "peer_max_watermark": d.peer_max_watermark,
            "victim_stable_seq": d.stable_seq,
            // No verified chain was ever rejected (honest donors).
            "safety_ok": d.bad_digests == 0,
            // The laggard recovered via a delta chain (no full-snapshot
            // fallback for a recognized base) and rejoined the cadence.
            "liveness_ok": d.delta_installs >= 1
                && d.full_installs == 0
                && d.exec_watermark + 3 * 256 >= d.peer_max_watermark,
            // The whole point of delta checkpointing: recovery moved
            // less data than a full-snapshot transfer would have.
            "delta_vs_full_ok": d.transfer_bytes() > 0
                && d.transfer_bytes() < d.full_baseline_bytes,
        })
    };

    // Causal-tracing scenario: the standard sharded quick workload with
    // tracing at the default 1/64 sample rate, against the identical
    // workload (same seed) with tracing disabled. Both run in simulated
    // time, so the throughput delta is deterministic — the < 3 % gate
    // catches a tracing path that starts perturbing the protocol (extra
    // messages, bloated frames), not host jitter.
    eprintln!("bench tracing (causal spans, 1/64 sampling vs off) ...");
    let tracing = {
        let t0 = std::time::Instant::now();
        let mut on_cfg = quick_cfg(ProtocolKind::RingBft);
        on_cfg.trace_sample_rate = 64;
        let on = Scenario::new(on_cfg, seed)
            .warmup_secs(1.0)
            .measure_secs(4.0)
            .bandwidth_divisor(20)
            .run();
        let mut off_cfg = quick_cfg(ProtocolKind::RingBft);
        off_cfg.trace_sample_rate = 0;
        let off = Scenario::new(off_cfg, seed)
            .warmup_secs(1.0)
            .measure_secs(4.0)
            .bandwidth_divisor(20)
            .run();
        let tr = &on.tracing;
        let overhead_frac = 1.0 - on.throughput_tps / off.throughput_tps;
        eprintln!(
            "  {} sampled csts ({} sampled txns), {:.2} mean hops, \
             {:+.2}% throughput vs untraced ({:.1}s wall)",
            tr.sampled_csts,
            tr.sampled_txns,
            tr.mean_hops,
            -overhead_frac * 100.0,
            t0.elapsed().as_secs_f64()
        );
        // The p99-bucket critical path: per `(hop, phase)` ring step,
        // the mean worst-replica duration across the sampled csts at or
        // above the p99 client latency.
        let p99_steps: Vec<serde_json::Value> = tr
            .p99_critical_path
            .iter()
            .map(|(hop, phase, mean_worst_s)| {
                serde_json::json!({
                    "hop": hop,
                    "phase": phase,
                    "mean_worst_s": mean_worst_s,
                })
            })
            .collect();
        serde_json::json!({
            "sample_rate": tr.sample_rate,
            "sampled_txns": tr.sampled_txns,
            "sampled_csts": tr.sampled_csts,
            "mean_hops": tr.mean_hops,
            "duplicate_spans": tr.duplicate_spans,
            "p99_critical_path": p99_steps,
            "throughput_traced_tps": on.throughput_tps,
            "throughput_untraced_tps": off.throughput_tps,
            "overhead_frac": overhead_frac,
            // Sampled cross-shard transactions assembled into ring-hop
            // timelines and the p99 breakdown is populated: losing this
            // flag means span stamping or assembly broke.
            "timelines_ok": tr.sampled_csts > 0 && !tr.p99_critical_path.is_empty(),
            // Tracing at the default sample rate must stay effectively
            // free on the protocol path.
            "tracing_overhead_ok": overhead_frac < 0.03,
        })
    };

    // Durability scenario: kill -9 against the write-ahead ledger. The
    // victim's log is truncated to its synced watermark (power-loss
    // semantics for unsynced group-commit batches), the node state is
    // dropped, and the restart must replay a durable checkpoint locally
    // and top up only the committed tail over the wire.
    eprintln!("bench durability (kill -9 + durable WAL restart) ...");
    let durability = {
        use ringbft_types::Duration;
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 2, 4);
        cfg.num_keys = 16_000;
        cfg.clients = 8;
        cfg.batch_size = 1;
        cfg.cross_shard_rate = 0.2;
        cfg.checkpoint_interval = 256;
        cfg.timers.local = Duration::from_millis(4800);
        cfg.timers.remote = Duration::from_millis(9600);
        cfg.timers.transmit = Duration::from_millis(14400);
        cfg.timers.client = Duration::from_millis(19200);
        let mode = cfg.durability;
        let victim = ReplicaId::new(ShardId(1), 2);
        let t0 = std::time::Instant::now();
        // The crash lands late in the run so the blank baseline (the
        // accumulated store) is well past the roughly constant tail the
        // restart tops up — the same shape the fault matrix gates.
        let report = Scenario::new(cfg, seed)
            .warmup_secs(1.0)
            .measure_secs(19.0)
            .with_durable_restart(10.0, 10.5, victim)
            .run();
        let d = report.durable_restart.expect("durable restart configured");
        let recovery_ms = d.catchup_s.map(|s| s * 1_000.0);
        eprintln!(
            "  replayed {} bytes to seq {}, transferred {} vs {} blank baseline, \
             recovery {:?} ms ({:.1}s wall)",
            d.restart_bytes_local,
            d.recovered_seq,
            d.restart_bytes_transferred,
            d.blank_baseline_bytes,
            recovery_ms,
            t0.elapsed().as_secs_f64()
        );
        serde_json::json!({
            "mode": format!("{mode:?}"),
            "crash_s": 10.0,
            "restart_s": d.restart_s,
            "checkpoint_interval": 256,
            "recovery_ms": recovery_ms,
            "recovered_seq": d.recovered_seq,
            "restart_bytes_local": d.restart_bytes_local,
            "restart_bytes_transferred": d.restart_bytes_transferred,
            "blank_baseline_bytes": d.blank_baseline_bytes,
            "delta_installs": d.delta_installs,
            "full_installs": d.full_installs,
            "wal_syncs": d.wal_syncs,
            "wal_len_bytes": d.wal_len_bytes,
            "victim_exec_watermark": d.exec_watermark,
            "peer_max_watermark": d.peer_max_watermark,
            // No verified transfer was ever rejected, and the victim
            // ended on a checkpoint fingerprint its shard quorum agrees
            // with — the replayed log never smuggled in divergent state.
            "safety_ok": d.bad_digests == 0 && d.fingerprint_ok,
            // The durable restart did its job: a checkpoint replayed
            // from the local log, execution resumed, the replica
            // rejoined the cadence, and the wire top-up stayed under
            // 25 % of what a blank restart would have transferred.
            "durable_restart_ok": d.catchup_s.is_some()
                && d.recovered_seq > 0
                && d.restart_bytes_local > 0
                && d.wal_syncs > 0
                && 4 * d.restart_bytes_transferred < d.blank_baseline_bytes
                && d.bad_digests == 0
                && d.fingerprint_ok
                && d.exec_watermark + 3 * 256 >= d.peer_max_watermark,
        })
    };

    // Open-loop load sweep: the closed-loop protocol runs above
    // self-throttle (each client waits for its reply before issuing
    // again), so offered load can never exceed capacity and the
    // saturation knee is invisible. Here a Poisson arrival process
    // issues transactions on a schedule regardless of completions,
    // sweeping the offered rate to trace the latency-vs-load curve;
    // the knee is the highest offered rate still served at ≥ 90 %.
    eprintln!("bench open-loop (Poisson arrival-rate sweep) ...");
    let open_loop = {
        use ringbft_workload::arrivals::ArrivalProcess;
        let rates = [
            5_000.0, 10_000.0, 20_000.0, 30_000.0, 40_000.0, 50_000.0, 60_000.0,
        ];
        let run_at = |rate: f64, adaptive: bool| {
            let mut cfg = quick_cfg(ProtocolKind::RingBft);
            cfg.adaptive_batching = adaptive;
            Scenario::new(cfg, seed)
                .warmup_secs(1.0)
                .measure_secs(3.0)
                .bandwidth_divisor(20)
                .open_loop(ArrivalProcess::Poisson { rate_tps: rate })
                .run()
        };
        let mut points: Vec<serde_json::Value> = Vec::new();
        let mut knee_tps = 0.0f64;
        let mut lowest_rate_tracked = false;
        for &rate in &rates {
            let t0 = std::time::Instant::now();
            let report = run_at(rate, false);
            let ol = report.open_loop.expect("open-loop scenario configured");
            let achieved = report.throughput_tps;
            let tracked = achieved >= 0.9 * rate;
            if tracked {
                knee_tps = knee_tps.max(rate);
            }
            if rate == rates[0] {
                lowest_rate_tracked = tracked;
            }
            eprintln!(
                "  offered {rate:>7.0} → achieved {achieved:>7.0} tps, \
                 p50 {:.3}s p99 {:.3}s, {} in flight at end ({:.1}s wall)",
                report.p50_latency_s,
                report.p99_latency_s,
                ol.in_flight_at_end,
                t0.elapsed().as_secs_f64()
            );
            points.push(serde_json::json!({
                "offered_tps": rate,
                "achieved_tps": achieved,
                "issued_txns": ol.issued_txns,
                "completed_txns": report.completed_txns,
                "in_flight_at_end": ol.in_flight_at_end,
                "p50_latency_s": report.p50_latency_s,
                "p99_latency_s": report.p99_latency_s,
                "tracked": tracked,
            }));
        }
        // Adaptive batching at light load: at 500 tps the fixed policy
        // waits for 50-transaction batches to fill, so latency is
        // dominated by batch-fill time; the adaptive cut flushes
        // sub-size batches whenever the consensus pipe is idle. Same
        // arrival schedule, same seed — only the flush policy differs.
        let t0 = std::time::Instant::now();
        let fixed = run_at(500.0, false);
        let adaptive = run_at(500.0, true);
        eprintln!(
            "  adaptive @500 tps: p50 {:.3}s → {:.3}s, {} adaptive flushes ({:.1}s wall)",
            fixed.p50_latency_s,
            adaptive.p50_latency_s,
            adaptive.pipeline.batch_adaptive_flushes,
            t0.elapsed().as_secs_f64()
        );
        let adaptive_light_load = serde_json::json!({
            "offered_tps": 500.0,
            "fixed_p50_latency_s": fixed.p50_latency_s,
            "adaptive_p50_latency_s": adaptive.p50_latency_s,
            "adaptive_flushes": adaptive.pipeline.batch_adaptive_flushes,
        });
        serde_json::json!({
            "arrival_process": "poisson",
            "measure_s": 3.0,
            "points": points,
            "knee_tps": knee_tps,
            "adaptive_light_load": adaptive_light_load,
            // The curve is anchored (the lowest offered rate is served
            // in full) and the knee sits where the closed-loop capacity
            // says it should — well above 20 k tps on the quick scale.
            "knee_ok": lowest_rate_tracked && knee_tps >= 20_000.0,
        })
    };

    let doc = serde_json::json!({
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "scale": "quick",
        "workload": serde_json::json!({
            "sharded": "3 shards x 4 replicas, 30% cst, batch 50, 2000 clients",
            "single_shard": "1 shard x 4 replicas, batch 50, 2000 clients",
            "recovery": "RingBFT 3x4, S1r2 crash@3s + blank restart@4s, checkpoint interval 16",
            "hole_fetch": "RingBFT 3x4, S1r2 misses all quorum traffic for seq 10, checkpoint interval 512",
            "state_transfer": "RingBFT 2x4, S0r2 dark 2.0-3.2s (~1 checkpoint window), delta-chain catch-up, interval 256",
            "tracing": "RingBFT 3x4 sharded quick workload, trace_sample_rate 64 vs 0 (same seed)",
            "durability": "RingBFT 2x4, S1r2 kill -9@10s + durable WAL restart@10.5s, interval 256",
            "open_loop": "RingBFT 3x4 quick workload under Poisson arrivals, offered rate swept 5k-60k tps, 3s per point; adaptive-batching pair at 500 tps",
            "warmup_s": 1.0, "measure_s": 4.0, "recovery_measure_s": 9.0,
            "hole_measure_s": 7.0, "state_transfer_measure_s": 29.0,
            "durability_measure_s": 19.0,
            "bandwidth_divisor": 20,
        }),
        "protocols": serde_json::Value::Object(entries),
        "recovery": recovery,
        "hole_fetch": hole_fetch,
        "state_transfer": state_transfer,
        "tracing": tracing,
        "durability": durability,
        "open_loop": open_loop,
    });
    let mut f = std::fs::File::create(&out_path).expect("create output file");
    writeln!(
        f,
        "{}",
        serde_json::to_string_pretty(&doc).expect("serialize")
    )
    .expect("write json");
    eprintln!("wrote {out_path}");
}
