//! One measured run of one workload on a [`LocalCluster`]: real epoll
//! reactors, real loopback TCP, real HMACs, driven by one [`LoadClient`].

use crate::load::{LoadClient, Record, FIRST_CLIENT};
use crate::procfs::{self, ThreadStat};
use crate::spans::SpanLog;
use crate::spec::{Phases, Values, Workload};
use crate::stats::{median, quantile, sort};
use ringbft_core::{Phase, RingReplica};
use ringbft_net::runtime::NodeRuntime;
use ringbft_net::{LocalCluster, NetStatsSnapshot};
use ringbft_obs::{Histogram, SpanCollector};
use ringbft_recovery::ReplicaWal;
use ringbft_sim::{AnyMsg, AnyNode};
use ringbft_types::{ClientId, Duration, Instant, NodeId, ReplicaId, SystemConfig};
use std::collections::HashMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

type ClientRuntime = NodeRuntime<AnyMsg, LoadClient>;

/// `<target dir>/benchmark`: results, span files and WAL directories.
/// The target directory is found from the running executable
/// (`<target>/release/ringbft-benchmark`), so the benchmark writes only
/// where cargo already writes.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running executable");
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("executable sits in <target>/<profile>/");
    target.join("benchmark")
}

fn fresh_wal_dir(workload: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    out_dir().join(format!("wal-{workload}-{}-{n}", std::process::id()))
}

/// A launched cluster with its load generator running.
struct Running {
    cluster: LocalCluster,
    client: ClientRuntime,
    wal_dir: Option<PathBuf>,
    /// When the workload's own traffic began, on the cluster clock: phase
    /// boundaries count from here.
    start: Instant,
    /// `LocalCluster::launch*` call to `start`: cluster up, every key
    /// written once through consensus, client about to send.
    setup_s: f64,
}

fn launch(w: &Workload, cfg: &SystemConfig, seed: u64, phases: &Phases) -> Result<Running, String> {
    let wal_dir = w.durable.then(|| fresh_wal_dir(w.name));
    let called = std::time::Instant::now();
    let cluster = match &wal_dir {
        Some(dir) => LocalCluster::launch_durable(cfg.clone(), dir),
        None => LocalCluster::launch(cfg.clone()),
    }
    .map_err(|e| format!("launch cluster: {e}"))?;

    let (tx, rx) = mpsc::channel();
    let node = LoadClient::new(
        cfg.clone(),
        w.load,
        seed,
        Duration::from_secs_f64(phases.issue_until()),
        Some(tx),
    );
    let host = NodeId::Client(ClientId(FIRST_CLIENT));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind client: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    cluster.peers().insert(host, addr);
    for c in node.logical_clients().skip(1) {
        cluster.peers().add_alias(NodeId::Client(c), host);
    }
    let client = NodeRuntime::launch(
        host,
        node,
        listener,
        cluster.peers().clone(),
        cluster.clock().clone(),
        cluster.auth().clone(),
    )
    .map_err(|e| format!("launch client: {e}"))?;

    // Set-up ends when the client has written every key once and starts
    // the workload's own traffic.
    let Ok(start) = rx.recv_timeout(std::time::Duration::from_secs(60)) else {
        stop(cluster, client, wal_dir.as_deref());
        return Err("the cluster was not loaded and serving within 60 s of launch".into());
    };
    // `start` is on the cluster clock; read both clocks together to place
    // it on the wall clock that saw the launch call.
    let since_start = cluster.clock().now().since(start).as_secs_f64();
    let setup_s = called.elapsed().as_secs_f64() - since_start;
    Ok(Running {
        cluster,
        client,
        wal_dir,
        start,
        setup_s,
    })
}

/// Stops everything; returns the client node and whether every reactor
/// acknowledged the stop.
fn stop(
    cluster: LocalCluster,
    client: ClientRuntime,
    wal_dir: Option<&Path>,
) -> (Option<LoadClient>, bool) {
    let node = client.shutdown();
    let clean = cluster.shutdown();
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    (node, clean)
}

fn sleep_until(cluster: &LocalCluster, at: Instant) {
    loop {
        let now = cluster.clock().now();
        if now >= at {
            return;
        }
        std::thread::sleep(std::time::Duration::from_nanos(at.since(now).as_nanos()));
    }
}

fn ring(node: &AnyNode) -> &RingReplica {
    match node {
        AnyNode::Ring(r) => r,
        _ => unreachable!("the benchmark deploys RingBFT replicas only"),
    }
}

fn replicas(cfg: &SystemConfig) -> impl Iterator<Item = ReplicaId> + '_ {
    cfg.shards.iter().flat_map(|s| s.replicas())
}

fn json_num(v: &serde_json::Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0)
}

/// Counters read at a window boundary of the traced run.
#[derive(Default)]
struct Snap {
    threads: HashMap<String, ThreadStat>,
    /// Transport counters summed over every runtime, the client's too.
    net: NetStatsSnapshot,
    epoll_waits: f64,
    reassembly_stalls: f64,
    backpressure_hits: f64,
    queue_hwm_bytes: f64,
    primary_epoll_p50_ns: f64,
    /// Summed over the primaries (each batch and transaction once per shard).
    executed_txns: u64,
    executed_batches: u64,
    stable_seq: u64,
    /// Summed over every replica.
    forwards_sent: u64,
    adaptive_flushes: u64,
    wal_syncs: u64,
    wal_bytes: u64,
    /// Phase histograms merged over every replica.
    phases: Vec<Histogram>,
}

fn add_net(a: &mut NetStatsSnapshot, b: NetStatsSnapshot) {
    a.messages_sent += b.messages_sent;
    a.bytes_sent += b.bytes_sent;
    a.messages_dropped += b.messages_dropped;
    a.reconnects += b.reconnects;
    a.encodes_saved += b.encodes_saved;
}

fn snap(run: &Running, cfg: &SystemConfig) -> Snap {
    let mut s = Snap {
        threads: procfs::threads(),
        phases: vec![Histogram::new(); Phase::ALL.len()],
        ..Snap::default()
    };
    let primary0 = NodeId::Replica(ReplicaId::new(cfg.shards[0].id, 0));
    let mut transport = |id: NodeId, stats: NetStatsSnapshot, json: String| {
        add_net(&mut s.net, stats);
        let v = serde_json::from_str(&json).expect("runtime metrics are JSON");
        s.epoll_waits += json_num(&v, &["histograms", "net.epoll_wait_ns", "count"]);
        s.reassembly_stalls += json_num(&v, &["counters", "net.reassembly_stalls"]);
        s.backpressure_hits += json_num(&v, &["counters", "net.backpressure_hits"]);
        let hwm = json_num(&v, &["gauges", "net.peer_queue_hwm_bytes"]);
        s.queue_hwm_bytes = s.queue_hwm_bytes.max(hwm);
        if id == primary0 {
            s.primary_epoll_p50_ns = json_num(&v, &["histograms", "net.epoll_wait_ns", "p50"]);
        }
    };
    transport(
        run.client.id(),
        run.client.stats(),
        run.client.metrics_json(),
    );
    for rt in run.cluster.replica_runtimes() {
        transport(rt.id(), rt.stats(), rt.metrics_json());
    }
    for r in replicas(cfg) {
        run.cluster.with_replica(r, |n| {
            let n = ring(n);
            let st = n.stats();
            if r.index == 0 {
                s.executed_txns += st.executed_txns;
                s.executed_batches += st.executed_batches;
                s.stable_seq += n.last_stable_seq();
            }
            s.forwards_sent += st.forwards_sent;
            s.adaptive_flushes += n
                .obs()
                .reg
                .counter_by_name("ring.batch_adaptive_flushes")
                .unwrap_or(0);
            if let Some(wal) = n.wal() {
                s.wal_syncs += wal.syncs();
                s.wal_bytes += wal.len_bytes();
            }
            for (h, p) in s.phases.iter_mut().zip(Phase::ALL) {
                h.merge(n.obs().phase_hist(p));
            }
        });
    }
    s
}

/// The samples `end` holds beyond `start` (same instrument, later read).
fn hist_since(end: &Histogram, start: &Histogram) -> Histogram {
    let before: HashMap<u64, u64> = start.iter_buckets().collect();
    let mut h = Histogram::new();
    for (upper, n) in end.iter_buckets() {
        h.record_n(upper, n - before.get(&upper).copied().unwrap_or(0));
    }
    h
}

/// The window is measured as this many equal slices.
pub const SLICES: usize = 5;

/// What the request log of one run says about its measurement window.
#[derive(Debug, Clone, Default)]
pub struct WindowStats {
    /// Requests due (open loop) or sent (closed loop) in the window.
    pub attempted: u64,
    /// Of those, without a reply quorum by the end of the run.
    pub failed: u64,
    /// Requests whose quorum completed inside each slice of the window.
    pub slice_completions: Vec<u64>,
    pub offered_tps: f64,
    pub goodput_tps: f64,
    pub lat_p50_ms: f64,
    pub lat_p90_ms: f64,
    pub lat_p99_ms: f64,
    pub lat_p999_ms: f64,
    pub single_lat_p50_ms: Option<f64>,
    pub cst_lat_p50_ms: Option<f64>,
    pub cst_lat_p90_ms: Option<f64>,
    pub csts: u64,
    /// p50 of the window's last slice over p50 of its first.
    pub p50_drift_ratio: f64,
}

/// Latency in ms of each record, `+inf` without a quorum.
fn latencies_ms<'a>(records: impl Iterator<Item = &'a Record>) -> Vec<f64> {
    sort(
        records
            .map(|r| match r.done_ns {
                Some(done) => (done - r.due_ns) as f64 / 1e6,
                None => f64::INFINITY,
            })
            .collect(),
    )
}

/// Bounds in nanoseconds of the window's [`SLICES`] equal slices.
fn slice_bounds(phases: &Phases) -> Vec<u64> {
    (0..=SLICES)
        .map(|i| ((phases.warmup + phases.window * i as f64 / SLICES as f64) * 1e9) as u64)
        .collect()
}

pub fn window_stats(records: &[Record], phases: &Phases) -> WindowStats {
    let bounds = slice_bounds(phases);
    let (lo, hi) = (bounds[0], bounds[SLICES]);
    let due_in = |from: u64, to: u64| {
        records
            .iter()
            .filter(move |r| (from..to).contains(&r.due_ns))
    };
    let all = latencies_ms(due_in(lo, hi));
    let class = |cst: bool| latencies_ms(due_in(lo, hi).filter(|r| r.cst == cst));
    let (single, cst) = (class(false), class(true));
    let failed = all.iter().filter(|l| l.is_infinite()).count() as u64;
    let q = |q: f64| quantile(&all, q).unwrap_or(f64::NAN);

    // Goodput, p50 and p90 are each the median over the slices: a
    // scheduling hiccup of a second or two moves one slice, not the run.
    let slices: Vec<Vec<f64>> = bounds
        .windows(2)
        .map(|b| latencies_ms(due_in(b[0], b[1])))
        .collect();
    let slice_s = phases.window / SLICES as f64;
    let over_slices =
        |f: &dyn Fn(&Vec<f64>) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    let p50_of = |l: &Vec<f64>| quantile(l, 0.5).unwrap_or(f64::NAN);
    WindowStats {
        attempted: all.len() as u64,
        failed,
        slice_completions: bounds
            .windows(2)
            .map(|b| {
                let done = |r: &&Record| r.done_ns.is_some_and(|d| (b[0]..b[1]).contains(&d));
                records.iter().filter(done).count() as u64
            })
            .collect(),
        offered_tps: all.len() as f64 / phases.window,
        goodput_tps: over_slices(&|l| l.iter().filter(|x| x.is_finite()).count() as f64 / slice_s),
        lat_p50_ms: over_slices(&p50_of),
        lat_p90_ms: over_slices(&|l| quantile(l, 0.9).unwrap_or(f64::NAN)),
        lat_p99_ms: q(0.99),
        lat_p999_ms: q(0.999),
        single_lat_p50_ms: quantile(&single, 0.5),
        cst_lat_p50_ms: quantile(&cst, 0.5),
        cst_lat_p90_ms: quantile(&cst, 0.9),
        csts: cst.len() as u64,
        p50_drift_ratio: p50_of(&slices[SLICES - 1]) / p50_of(&slices[0]),
    }
}

/// Catalogue names of the phase timers, in [`Phase::ALL`] order.
const PHASE_METRICS: [&str; 6] = [
    "core.phase_admission_p50_ms",
    "core.phase_preprepare_commit_p50_ms",
    "core.phase_commit_execute_p50_ms",
    "core.phase_execute_reply_p50_ms",
    "core.phase_cst_forward_p50_ms",
    "core.phase_cst_execute_p50_ms",
];

/// The live per-layer metrics of the traced run's window: what the
/// counters read at its two ends differ by.
fn live(
    a: &Snap,
    b: &Snap,
    w: &Workload,
    cfg: &SystemConfig,
    ws: &WindowStats,
    window_s: f64,
) -> Values {
    // Per-transaction figures are per client request completed in the
    // window, the denominator `cpu_us_per_txn` uses (a cross-shard request
    // executes one fragment per shard but is one transaction).
    let txns = ws.slice_completions.iter().sum::<u64>().max(1) as f64;
    let cpu_frac = |names: Vec<String>| {
        let used: Vec<f64> = names
            .iter()
            .filter_map(|n| Some(b.threads.get(n)?.cpu_s - a.threads.get(n)?.cpu_s))
            .collect();
        used.iter().sum::<f64>() / used.len().max(1) as f64 / window_s
    };
    let reactors = |primary: bool| {
        let of_role = replicas(cfg).filter(|r| (r.index == 0) == primary);
        of_role.map(|r| format!("{r}-reactor0")).collect()
    };
    let ctx: u64 = b
        .threads
        .iter()
        .filter_map(|(n, t)| {
            Some(
                t.ctx_switches
                    .saturating_sub(a.threads.get(n)?.ctx_switches),
            )
        })
        .sum();
    let frames = (b.net.messages_sent - a.net.messages_sent) as f64;
    let encodes_saved = (b.net.encodes_saved - a.net.encodes_saved) as f64;
    let batches = (b.executed_batches - a.executed_batches) as f64;
    let fragments = (b.executed_txns - a.executed_txns) as f64;
    let forwards = (b.forwards_sent - a.forwards_sent) as f64;
    let checkpoints = (b.stable_seq - a.stable_seq) as f64 / cfg.checkpoint_interval as f64;
    let mut v: Values = vec![
        (
            "client.cpu_frac",
            Some(cpu_frac(vec![format!(
                "{}-reactor0",
                ClientId(FIRST_CLIENT)
            )])),
        ),
        ("net.primary_cpu_frac", Some(cpu_frac(reactors(true)))),
        ("net.backup_cpu_frac", Some(cpu_frac(reactors(false)))),
        ("net.frames_per_txn", Some(frames / txns)),
        (
            "net.bytes_per_txn",
            Some((b.net.bytes_sent - a.net.bytes_sent) as f64 / txns),
        ),
        ("net.encodes_per_txn", Some((frames - encodes_saved) / txns)),
        (
            "net.epoll_waits_per_txn",
            Some((b.epoll_waits - a.epoll_waits) / txns),
        ),
        ("net.epoll_wait_p50_us", Some(b.primary_epoll_p50_ns / 1e3)),
        ("net.peer_queue_hwm_bytes", Some(b.queue_hwm_bytes)),
        (
            "net.backpressure_hits",
            Some(b.backpressure_hits - a.backpressure_hits),
        ),
        (
            "net.reassembly_stalls_per_txn",
            Some((b.reassembly_stalls - a.reassembly_stalls) / txns),
        ),
        (
            "net.dropped_frames",
            Some((b.net.messages_dropped - a.net.messages_dropped) as f64),
        ),
        (
            "net.reconnects",
            Some((b.net.reconnects - a.net.reconnects) as f64),
        ),
        ("net.ctx_switches_per_txn", Some(ctx as f64 / txns)),
        ("pbft.batches_per_s", Some(batches / window_s)),
        ("core.txns_per_batch", Some(fragments / batches.max(1.0))),
        (
            "core.forwards_per_cst",
            (ws.csts > 0).then(|| forwards / ws.csts as f64),
        ),
        (
            "core.adaptive_flushes",
            Some((b.adaptive_flushes - a.adaptive_flushes) as f64),
        ),
        // The log is compacted at every full checkpoint, so its size is a
        // level, not a flow: bytes on disk over everything executed.
        (
            "store.wal_bytes_per_txn",
            w.durable
                .then(|| b.wal_bytes as f64 / b.executed_txns.max(1) as f64),
        ),
        (
            "store.wal_syncs_per_s",
            w.durable
                .then(|| (b.wal_syncs - a.wal_syncs) as f64 / window_s),
        ),
        ("recovery.checkpoints_per_s", Some(checkpoints / window_s)),
    ];
    for (name, (end, start)) in PHASE_METRICS
        .into_iter()
        .zip(b.phases.iter().zip(&a.phases))
    {
        // A phase the inline pipeline opens and closes in one call records
        // only zeros: that is "no interval", not "0 ms", so it is absent —
        // as is a phase that is not on this workload's path.
        let h = hist_since(end, start);
        v.push((
            name,
            (h.max() > 0).then(|| h.value_at_quantile(0.5) as f64 / 1e6),
        ));
    }
    v
}

/// One finished run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// One entry per set-up made (the last is the measured cluster's).
    pub setup_s: Vec<f64>,
    pub window: WindowStats,
    /// Process CPU (user + system) per transaction whose quorum completed,
    /// in microseconds: the median over the window's slices.
    pub cpu_us_per_txn: f64,
    pub peak_rss_mb: f64,
    pub gen_lag_p99_ms: Option<f64>,
    pub view_changes: u64,
    /// The live per-layer metrics; empty unless the run was traced.
    pub live: Values,
    /// Output checks that failed (empty = correct).
    pub failures: Vec<String>,
}

pub struct RunOptions {
    pub seed: u64,
    pub phases: Phases,
    pub traced: bool,
    pub setup_trials: usize,
}

/// Polls until every shard's replicas hold one state and the client has
/// nothing in flight (bounded: a stuck run is reported, not waited out).
fn settle(run: &Running, cfg: &SystemConfig) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while std::time::Instant::now() < deadline {
        let idle = run.client.with_node(|c| c.in_flight_len()) == 0;
        if idle && diverged_shards(run, cfg).is_empty() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

/// Shards whose replicas disagree on `(exec watermark, state fingerprint)`.
fn diverged_shards(run: &Running, cfg: &SystemConfig) -> Vec<String> {
    cfg.shards
        .iter()
        .filter_map(|s| {
            let states: Vec<(u64, u64)> = s
                .replicas()
                .map(|r| {
                    run.cluster.with_replica(r, |n| {
                        (
                            ring(n).exec_watermark(),
                            ring(n).store().state_fingerprint(),
                        )
                    })
                })
                .collect();
            states
                .windows(2)
                .any(|w| w[0] != w[1])
                .then(|| format!("shard {} replicas diverge: {states:?}", s.id))
        })
        .collect()
}

/// Checks on the stopped cluster's logs: each reopens cleanly closed
/// with a checkpoint to restart from.
fn check_wals(dir: &Path, cfg: &SystemConfig, failures: &mut Vec<String>) {
    for r in replicas(cfg) {
        match ReplicaWal::open_file(dir.join(format!("{r}.wal")), cfg.durability) {
            Ok((_, rec)) => {
                let seq = rec.fold(r.shard).map_or(0, |tip| tip.seq);
                if !rec.clean_close || seq == 0 {
                    failures.push(format!(
                        "{r}.wal: clean_close={} recovered_seq={seq}",
                        rec.clean_close
                    ));
                }
            }
            Err(e) => failures.push(format!("{r}.wal does not reopen: {e}")),
        }
    }
}

/// Runs `w` once. `spans`/`parent` receive the run's phases and, for a
/// traced run, the sampled cross-shard timelines.
pub fn run_workload(
    w: &Workload,
    opts: &RunOptions,
    spans: &mut SpanLog,
    parent: Option<usize>,
) -> Result<RunResult, String> {
    let cfg = w.config(opts.seed, opts.traced);
    let phases = &opts.phases;
    let mut result = RunResult::default();

    // Set-up, several times: throwaway clusters first, then the one that
    // is measured. Each writes every key once before the workload's
    // traffic starts, so the state has the workload's size however short
    // the run is.
    let sp_setup = spans.open("setup", parent);
    // With several set-ups, the first is a rehearsal that is not counted:
    // a process's first second is often spent with every thread stacked on
    // one core, and only that one set-up pays for it.
    let rehearsals = usize::from(opts.setup_trials > 1);
    let mut run = launch(w, &cfg, opts.seed, phases)?;
    for made in 1..opts.setup_trials + rehearsals {
        if made > rehearsals {
            result.setup_s.push(run.setup_s);
        }
        let (_, clean) = stop(run.cluster, run.client, run.wal_dir.as_deref());
        if !clean {
            result
                .failures
                .push("a set-up trial did not shut down cleanly".into());
        }
        run = launch(w, &cfg, opts.seed, phases)?;
    }
    result.setup_s.push(run.setup_s);
    spans.close(sp_setup);

    let start = run.start;
    let bounds = slice_bounds(phases);

    let sp = spans.open("warmup", parent);
    sleep_until(&run.cluster, start + Duration::from_nanos(bounds[0]));
    spans.close(sp);

    // The untraced window reads /proc/self/stat at each slice boundary and
    // nothing else; the traced one also reads every node's counters at
    // its two ends.
    let sp = spans.open("window", parent);
    let a = opts.traced.then(|| snap(&run, &cfg));
    let mut cpu_marks = vec![procfs::process_cpu_s()];
    for &bound in &bounds[1..] {
        sleep_until(&run.cluster, start + Duration::from_nanos(bound));
        cpu_marks.push(procfs::process_cpu_s());
    }
    let b = opts.traced.then(|| snap(&run, &cfg));
    spans.close(sp);

    let sp = spans.open("drain", parent);
    sleep_until(
        &run.cluster,
        start + Duration::from_secs_f64(phases.total()),
    );
    settle(&run, &cfg);
    result.peak_rss_mb = procfs::peak_rss_mb();
    spans.close(sp);

    let sp = spans.open("shutdown", parent);
    result.failures.extend(diverged_shards(&run, &cfg));
    result.view_changes = run
        .cluster
        .replica_runtimes()
        .map(|rt| rt.view_log().len() as u64)
        .sum();
    if result.view_changes > 0 {
        result.failures.push(format!(
            "{} view changes in a fault-free run",
            result.view_changes
        ));
    }
    // Fragments executed, per replica index summed over shards.
    let n = cfg.shards[0].n as u32;
    let executed: Vec<u64> = (0..n)
        .map(|i| {
            cfg.shards
                .iter()
                .map(|s| {
                    run.cluster
                        .with_replica(ReplicaId::new(s.id, i), |r| ring(r).stats().executed_txns)
                })
                .sum()
        })
        .collect();
    if opts.traced {
        let cluster_epoch_ns = spans.now_ns() - run.cluster.clock().now().as_nanos();
        let mut collector = SpanCollector::new();
        for r in replicas(&cfg) {
            collector.ingest_dump(&run.cluster.with_replica(r, |n| ring(n).trace_jsonl()));
        }
        for t in collector.timelines().iter().filter(|t| t.max_hop() > 0) {
            for s in &t.spans {
                // Every node of a LocalCluster reads one clock, so span
                // starts are comparable here (they are not across hosts).
                let start = cluster_epoch_ns + s.start_ns;
                let name = format!(
                    "{}@S{}r{}",
                    Phase::ALL[s.phase as usize].name(),
                    s.shard,
                    s.replica
                );
                spans.add(&name, start, start + s.dur_ns, parent, Some(t.trace_id));
            }
        }
    }
    let (node, clean) = stop(run.cluster, run.client, None);
    if !clean {
        result.failures.push("shutdown was not clean".into());
    }
    if let Some(dir) = &run.wal_dir {
        check_wals(dir, &cfg, &mut result.failures);
        let _ = std::fs::remove_dir_all(dir);
    }
    spans.close(sp);

    let Some(node) = node else {
        return Err("the load generator's reactor did not hand its node back".into());
    };
    result.window = window_stats(&node.records, phases);
    if result.window.failed > 0 {
        result.failures.push(format!(
            "{} of {} window requests never reached a reply quorum",
            result.window.failed, result.window.attempted
        ));
    }
    // Exactly-once: with nothing left in flight, every replica index must
    // have executed one fragment per involved shard of every request.
    if node.in_flight_len() == 0 {
        let measured: u64 = node.records.iter().map(|r| r.shards as u64).sum();
        let want = node.prefill_txns() + measured;
        if executed.iter().any(|&e| e != want) {
            result.failures.push(format!(
                "executed fragments per replica index {executed:?}, requests account for {want}"
            ));
        }
    } else {
        result.failures.push(format!(
            "{} requests still in flight after the drain",
            node.in_flight_len()
        ));
    }
    let cpu_per_txn: Vec<f64> = cpu_marks
        .windows(2)
        .zip(&result.window.slice_completions)
        .map(|(m, &done)| (m[1] - m[0]) * 1e6 / done.max(1) as f64)
        .collect();
    result.cpu_us_per_txn = median(&cpu_per_txn);
    result.gen_lag_p99_ms =
        (!node.gen_lag.is_empty()).then(|| node.gen_lag.value_at_quantile(0.99) as f64 / 1e6);
    if let (Some(a), Some(b)) = (a, b) {
        result.live = live(&a, &b, w, &cfg, &result.window, phases.window);
    }
    Ok(result)
}
