//! `ringbft-node` — host replicas (and optionally a client workload) of
//! a RingBFT cluster on real sockets.
//!
//! ```text
//! # one process per replica:
//! ringbft-node --config cluster.json --host S0r0
//!
//! # or one process per shard:
//! ringbft-node --config cluster.json --host S0r0 --host S0r1 --host S0r2 --host S0r3
//!
//! # drive load from a client-host process (200 logical clients):
//! ringbft-node --config cluster.json --workload 1000000:200:42
//!
//! # print an example cluster file for 2 shards x 4 replicas:
//! ringbft-node --example-config 2 4
//! ```
//!
//! The config file format is documented in `ringbft_net::config`. Every
//! process of one cluster must read the same file. The process runs
//! until killed, printing per-node throughput and transport counters
//! every `--stats-secs` (default 5) seconds.

use ringbft_net::codec::FrameAuth;
use ringbft_net::config::{load_cluster_config, parse_replica_name, render_cluster_config};
use ringbft_net::runtime::{Clock, NodeRuntime, PeerTable};
use ringbft_net::telemetry;
use ringbft_sim::{AnyMsg, AnyNode, SimClient};
use ringbft_types::{ClientId, NodeId, ProtocolKind, SystemConfig};
use std::net::TcpListener;

struct Args {
    config: Option<String>,
    hosts: Vec<String>,
    workload: Option<(u64, u64, u64)>,
    stats_secs: u64,
    example: Option<(usize, usize)>,
    /// Exit after this many seconds (0 = run until killed). For
    /// scripted runs (CI smoke tests).
    duration_secs: u64,
    /// At a timed exit, fail (status 1) unless at least this many
    /// client transactions completed.
    min_completions: usize,
    /// First listener port of `--example-config` (scripts retry with a
    /// different base on port collisions).
    port_base: u16,
    /// Write a final metrics + event-trace snapshot (JSON) here on a
    /// timed exit.
    metrics_path: Option<String>,
    /// First port of the live telemetry scrape endpoints: hosted node
    /// `i` serves HTTP/1.0 `GET /metrics` and `GET /trace` on
    /// `telemetry_port + i` directly off its reactor (0 = disabled).
    telemetry_port: u16,
    /// Flush every hosted node's trace ring (JSON lines) to this path
    /// on each stats interval, for offline span assembly.
    trace_dump_path: Option<String>,
    /// Directory of per-replica write-ahead ledgers: each hosted
    /// replica appends to `<data_dir>/<name>.wal` under the config's
    /// `durability` policy, and replays it on the next start — a
    /// killed process restarts crash-consistently, fetching only the
    /// tail from its peers.
    data_dir: Option<String>,
}

fn usage_and_exit(code: i32) -> ! {
    eprintln!(
        "ringbft-node — host RingBFT replicas over TCP\n\
         usage:\n  ringbft-node --config FILE --host S0r0 [--host S0r1 ...]\n\
         \x20 ringbft-node --config FILE --workload FIRST_ID:COUNT:SEED\n\
         \x20 ringbft-node --example-config SHARDS REPLICAS\n\
         options:\n  --stats-secs N       stats print interval (default 5, 0 = silent)\n\
         \x20 --duration-secs N    exit after N seconds (default: run until killed)\n\
         \x20 --min-completions K  with --duration-secs: exit 1 unless ≥ K txns completed\n\
         \x20 --port-base P        first listener port of --example-config (default 4100)\n\
         \x20 --metrics-path FILE  write a final metrics + trace snapshot (JSON) at exit\n\
         \x20 --telemetry-port P   serve GET /metrics and /trace for hosted node i on port P+i\n\
         \x20 --trace-dump-path F  flush trace rings (JSON lines) to F every stats interval\n\
         \x20 --data-dir DIR       per-replica write-ahead ledgers in DIR (crash-consistent restart)"
    );
    std::process::exit(code);
}

fn parse_args() -> Args {
    let mut args = Args {
        config: None,
        hosts: Vec::new(),
        workload: None,
        stats_secs: 5,
        example: None,
        duration_secs: 0,
        min_completions: 0,
        port_base: 4100,
        metrics_path: None,
        telemetry_port: 0,
        trace_dump_path: None,
        data_dir: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            usage_and_exit(2);
        })
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--config" => args.config = Some(value(&argv, &mut i, "--config")),
            "--host" => args.hosts.push(value(&argv, &mut i, "--host")),
            "--workload" => {
                let spec = value(&argv, &mut i, "--workload");
                let parts: Vec<&str> = spec.split(':').collect();
                let parsed = (|| {
                    let [first, count, seed] = parts.as_slice() else {
                        return None;
                    };
                    Some((first.parse().ok()?, count.parse().ok()?, seed.parse().ok()?))
                })();
                match parsed {
                    Some(w) => args.workload = Some(w),
                    None => {
                        eprintln!("--workload needs FIRST_ID:COUNT:SEED");
                        usage_and_exit(2);
                    }
                }
            }
            "--stats-secs" => {
                args.stats_secs =
                    value(&argv, &mut i, "--stats-secs")
                        .parse()
                        .unwrap_or_else(|_| {
                            eprintln!("--stats-secs needs an integer");
                            usage_and_exit(2);
                        });
            }
            "--duration-secs" => {
                args.duration_secs = value(&argv, &mut i, "--duration-secs")
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("--duration-secs needs an integer");
                        usage_and_exit(2);
                    });
            }
            "--min-completions" => {
                args.min_completions = value(&argv, &mut i, "--min-completions")
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("--min-completions needs an integer");
                        usage_and_exit(2);
                    });
            }
            "--example-config" => {
                let z = value(&argv, &mut i, "--example-config");
                let n = value(&argv, &mut i, "--example-config");
                match (z.parse(), n.parse()) {
                    (Ok(z), Ok(n)) => args.example = Some((z, n)),
                    _ => usage_and_exit(2),
                }
            }
            "--port-base" => {
                args.port_base = value(&argv, &mut i, "--port-base")
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("--port-base needs a port number");
                        usage_and_exit(2);
                    });
            }
            "--metrics-path" => args.metrics_path = Some(value(&argv, &mut i, "--metrics-path")),
            "--telemetry-port" => {
                args.telemetry_port = value(&argv, &mut i, "--telemetry-port")
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("--telemetry-port needs a port number");
                        usage_and_exit(2);
                    });
            }
            "--trace-dump-path" => {
                args.trace_dump_path = Some(value(&argv, &mut i, "--trace-dump-path"));
            }
            "--data-dir" => args.data_dir = Some(value(&argv, &mut i, "--data-dir")),
            "--help" | "-h" => usage_and_exit(0),
            other => {
                eprintln!("unknown argument `{other}`");
                usage_and_exit(2);
            }
        }
        i += 1;
    }
    args
}

fn print_example(z: usize, n: usize, port_base: u16) {
    let system = SystemConfig::uniform(ProtocolKind::RingBft, z, n);
    let mut peers = std::collections::HashMap::new();
    let mut port = port_base;
    for shard in &system.shards {
        for r in shard.replicas() {
            peers.insert(r, format!("127.0.0.1:{port}").parse().expect("addr"));
            port += 1;
        }
    }
    println!("{}", render_cluster_config(&system, &peers));
}

fn main() {
    let args = parse_args();
    if let Some((z, n)) = args.example {
        print_example(z, n, args.port_base);
        return;
    }
    let Some(config_path) = &args.config else {
        usage_and_exit(2);
    };
    if args.hosts.is_empty() && args.workload.is_none() {
        eprintln!("nothing to host: pass --host and/or --workload");
        usage_and_exit(2);
    }
    let cluster = match load_cluster_config(std::path::Path::new(config_path)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    // Every process of the cluster shares the peer table from the file,
    // and the frame authenticator derived from its auth_seed.
    let peers = PeerTable::new();
    for (r, addr) in &cluster.peers {
        peers.insert(NodeId::Replica(*r), *addr);
    }
    let auth = FrameAuth::from_seed(cluster.system.auth_seed);

    let clock = Clock::start();
    let mut deployment = ringbft_sim::nodes::deployment(&cluster.system);
    let mut runtimes: Vec<NodeRuntime<AnyMsg, AnyNode>> = Vec::new();

    for host in &args.hosts {
        let id = match parse_replica_name(host) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        };
        let Some(addr) = cluster.peers.get(&id).copied() else {
            eprintln!("replica {id} has no address in {config_path}");
            std::process::exit(1);
        };
        let Some(pos) = deployment.iter().position(|(r, _, _)| *r == id) else {
            eprintln!("replica {id} is not part of the configured deployment");
            std::process::exit(1);
        };
        let (_, _, mut node) = deployment.swap_remove(pos);
        if let Some(dir) = &args.data_dir {
            let dir = std::path::Path::new(dir);
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("create data dir {}: {e}", dir.display());
                std::process::exit(1);
            }
            if let AnyNode::Ring(ring) = &mut node {
                let path = dir.join(format!("{id}.wal"));
                match ringbft_recovery::ReplicaWal::open_file(&path, cluster.system.durability) {
                    Ok((wal, recovered)) => {
                        let bytes = wal.len_bytes();
                        ring.attach_wal(wal, recovered);
                        println!(
                            "replayed {} ({bytes} bytes, durable checkpoint seq {})",
                            path.display(),
                            ring.checkpoint_seq()
                        );
                    }
                    Err(e) => {
                        eprintln!("open wal {}: {e}", path.display());
                        std::process::exit(1);
                    }
                }
            }
        }
        let listener = match TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("bind {addr} for {id}: {e}");
                std::process::exit(1);
            }
        };
        let (peers, clock, auth) = (peers.clone(), clock.clone(), auth.clone());
        match NodeRuntime::launch(NodeId::Replica(id), node, listener, peers, clock, auth) {
            Ok(rt) => {
                println!("hosting {id} on {addr}");
                runtimes.push(rt);
            }
            Err(e) => {
                eprintln!("launch {id}: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some((first_id, count, seed)) = args.workload {
        let host = NodeId::Client(ClientId(first_id));
        let listener = TcpListener::bind("0.0.0.0:0").expect("bind client listener");
        let addr = listener.local_addr().expect("client addr");
        peers.insert(host, addr);
        for c in first_id + 1..first_id + count {
            peers.add_alias(NodeId::Client(ClientId(c)), host);
        }
        let client = SimClient::new(cluster.system.clone(), seed, first_id, count);
        match NodeRuntime::launch(
            host,
            AnyNode::Client(Box::new(client)),
            listener,
            peers.clone(),
            clock.clone(),
            auth.clone(),
        ) {
            Ok(rt) => {
                println!("hosting workload {host} ({count} logical clients) on {addr}");
                runtimes.push(rt);
            }
            Err(e) => {
                eprintln!("launch workload host: {e}");
                std::process::exit(1);
            }
        }
    }

    // Live telemetry: hosted node i serves GET /metrics and /trace on
    // telemetry_port + i, directly off its reactor (no extra threads).
    if args.telemetry_port > 0 {
        for (i, rt) in runtimes.iter().enumerate() {
            let port = args.telemetry_port + i as u16;
            let listener = match TcpListener::bind(("0.0.0.0", port)) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("bind telemetry port {port}: {e}");
                    std::process::exit(1);
                }
            };
            match rt.serve_telemetry(listener, telemetry::standard_routes) {
                Ok(addr) => println!(
                    "telemetry for {} on http://127.0.0.1:{}/metrics",
                    rt.id(),
                    addr.port()
                ),
                Err(e) => {
                    eprintln!("serve telemetry for {}: {e}", rt.id());
                    std::process::exit(1);
                }
            }
        }
    }

    // Periodic stats until killed (or the scripted duration elapses).
    let started = std::time::Instant::now();
    // A silent process still ticks once a second when something rides
    // the interval: the scripted-duration check or the trace-dump flush.
    let interval = if args.stats_secs == 0 {
        let ticking = args.duration_secs > 0 || args.trace_dump_path.is_some();
        std::time::Duration::from_secs(if ticking { 1 } else { 3600 })
    } else {
        std::time::Duration::from_secs(args.stats_secs)
    };
    let total_completions = |runtimes: &[NodeRuntime<AnyMsg, AnyNode>]| -> usize {
        runtimes
            .iter()
            .map(|rt| {
                rt.with_node(|n| match n {
                    AnyNode::Client(c) => c.completions.len(),
                    _ => 0,
                })
            })
            .sum()
    };
    let mut last_completions = 0usize;
    // End-to-end client latencies (send → reply quorum), fed from the
    // hosted workload's completion log.
    let mut latency = ringbft_obs::Histogram::new();
    let mut latency_seen: Vec<usize> = vec![0; runtimes.len()];
    let absorb_latencies = |runtimes: &[NodeRuntime<AnyMsg, AnyNode>],
                            seen: &mut [usize],
                            hist: &mut ringbft_obs::Histogram| {
        for (i, rt) in runtimes.iter().enumerate() {
            seen[i] = rt.with_node(|n| match n {
                AnyNode::Client(c) => {
                    for comp in &c.completions[seen[i]..] {
                        hist.record(comp.done.since(comp.sent).as_nanos());
                    }
                    c.completions.len()
                }
                _ => 0,
            });
        }
    };
    loop {
        std::thread::sleep(interval);
        absorb_latencies(&runtimes, &mut latency_seen, &mut latency);
        if let Some(path) = &args.trace_dump_path {
            // Latest-window snapshot: the rings are bounded, so each
            // flush rewrites the file with their current contents (the
            // file survives a kill, unlike the exit snapshot).
            if let Err(e) = std::fs::write(path, trace_dump(&runtimes)) {
                eprintln!("write trace dump {path}: {e}");
            }
        }
        if args.duration_secs > 0
            && started.elapsed() >= std::time::Duration::from_secs(args.duration_secs)
        {
            let total = total_completions(&runtimes);
            let ok = total >= args.min_completions;
            if let Some(path) = &args.metrics_path {
                match std::fs::write(path, metrics_snapshot(&runtimes, &latency)) {
                    Ok(()) => println!("metrics snapshot written to {path}"),
                    Err(e) => eprintln!("write metrics snapshot {path}: {e}"),
                }
            }
            println!(
                "duration elapsed: {total} completions (required {}) — {}",
                args.min_completions,
                if ok { "ok" } else { "FAIL" }
            );
            // Clean exit: stop each runtime, then close its replica's
            // write-ahead ledger (clean-close record + sync) so the
            // next start replays without a torn tail. The close must
            // come after the reactors join — a reactor still serving
            // peer traffic could append behind the close marker.
            for rt in runtimes.drain(..) {
                if let Some(AnyNode::Ring(mut r)) = rt.shutdown() {
                    r.close_wal();
                }
            }
            std::process::exit(if ok { 0 } else { 1 });
        }
        if args.stats_secs == 0 {
            continue;
        }
        for rt in &runtimes {
            let s = rt.stats();
            let completions = rt.with_node(|n| match n {
                AnyNode::Client(c) => c.completions.len(),
                _ => 0,
            });
            let line = format!(
                "[{}] sent={} recv={} dropped={} undeliverable={} reconnects={} timers={} bytes={} execs={} exec_txns={}",
                rt.id(),
                s.messages_sent,
                s.messages_delivered,
                s.messages_dropped,
                s.messages_undeliverable,
                s.reconnects,
                s.timers_fired,
                s.bytes_sent,
                rt.executed_batches(),
                rt.executed_txns(),
            );
            if completions > 0 {
                let rate = (completions - last_completions) as f64 / interval.as_secs_f64();
                let p99_ms = latency.value_at_quantile(0.99) as f64 / 1e6;
                println!("{line} completions={completions} ({rate:.1} txn/s, p99 {p99_ms:.1}ms)");
                last_completions = completions;
            } else {
                println!("{line}");
            }
        }
    }
}

/// The final snapshot written to `--metrics-path`: per hosted node the
/// `/metrics` fields plus both trace rings as arrays, and the
/// client-latency histogram, as one JSON object.
fn metrics_snapshot(
    runtimes: &[NodeRuntime<AnyMsg, AnyNode>],
    latency: &ringbft_obs::Histogram,
) -> String {
    use ringbft_obs::json::ObjectWriter;
    let mut nodes = String::from("[");
    for (i, rt) in runtimes.iter().enumerate() {
        if i > 0 {
            nodes.push(',');
        }
        let net = rt.net_telemetry();
        nodes.push_str(&rt.with_node(|n| {
            let mut nw = ObjectWriter::new();
            telemetry::metrics_fields(&mut nw, n, &net);
            nw.field_raw(
                "trace",
                &jsonl_to_array(&n.trace_jsonl().unwrap_or_default()),
            )
            .field_raw("net_trace", &jsonl_to_array(&net.trace_jsonl));
            nw.finish()
        }));
    }
    nodes.push(']');
    let mut w = ObjectWriter::new();
    w.field_u64("schema_version", 1)
        .field_raw("client_latency_ns", &ringbft_obs::histogram_json(latency))
        .field_raw("nodes", &nodes);
    let mut out = w.finish();
    out.push('\n');
    out
}

/// The `--trace-dump-path` payload: every hosted node's `/trace` body.
fn trace_dump(runtimes: &[NodeRuntime<AnyMsg, AnyNode>]) -> String {
    let mut out = String::new();
    for rt in runtimes {
        let net = rt.net_telemetry();
        out.push_str(&rt.with_node(|n| telemetry::trace_body(n, &net)));
    }
    out
}

/// Re-wraps JSON-lines text as a JSON array (each line is one object).
fn jsonl_to_array(jsonl: &str) -> String {
    let mut out = String::from("[");
    for (i, line) in jsonl.lines().filter(|l| !l.is_empty()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(line);
    }
    out.push(']');
    out
}
