//! Deterministic fault-scenario matrix (CI runs this file once per
//! seed): the recovery paths — blank restart, commit-hole fetch, and
//! checkpoint cadence under `f` laggards — exercised end-to-end on the
//! discrete-event WAN.
//!
//! The seed comes from `RINGBFT_FAULT_SEED` (default 7); the CI workflow
//! fans the file out across five fixed legs so every PR exercises the
//! fault machinery under distinct message interleavings, not just the
//! happy path. Each leg diffs the `report-digest` lines it prints
//! against its seed's slice of `tests/golden/report_digests.txt`.

use ringbft_sim::{Scenario, ScenarioReport};
use ringbft_types::{Duration, ProtocolKind, ReplicaId, ShardId, SystemConfig};

/// Panic-armed event-trace dump: `arm` it with a finished report, and if
/// the test thread then panics (a failed assertion), the guard writes
/// every replica's event-trace ring to
/// `target/trace-dumps/<test>-<seed>.jsonl` — one JSON object per line,
/// each tagged with the replica it came from — and prints the path. CI
/// uploads the directory as an artifact when the fault matrix fails, so
/// a red run ships the view-change / checkpoint / hole-fetch timeline
/// that led up to the failure.
struct TraceDump {
    test: &'static str,
    traces: Vec<(String, String)>,
}

impl TraceDump {
    fn new(test: &'static str) -> TraceDump {
        TraceDump {
            test,
            traces: Vec::new(),
        }
    }

    /// Arms the dump and prints `report-digest <test> <seed> <sha256>`:
    /// the hash of the report's `{:?}` text, so two builds that behave
    /// identically print identical lines (`scripts/report_digests.sh`
    /// collects them).
    fn arm(&mut self, report: &ScenarioReport) {
        self.traces = report.traces.clone();
        let digest = ringbft_crypto::sha256(format!("{report:?}").as_bytes());
        println!(
            "report-digest {} {} {}",
            self.test,
            seed(),
            ringbft_crypto::to_hex(&digest)
        );
    }
}

impl Drop for TraceDump {
    fn drop(&mut self) {
        if !std::thread::panicking() || self.traces.is_empty() {
            return;
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/trace-dumps");
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let path = dir.join(format!("{}-{}.jsonl", self.test, seed()));
        let mut out = String::new();
        for (node, jsonl) in &self.traces {
            for line in jsonl.lines() {
                // Tag each event with its replica: {"i":…} → {"node":"S0r2","i":…}.
                out.push_str(&line.replacen('{', &format!("{{\"node\":\"{node}\","), 1));
                out.push('\n');
            }
        }
        if std::fs::write(&path, out).is_ok() {
            eprintln!("event trace dumped to {}", path.display());
        }
    }
}

/// The deterministic seed under test (CI matrix dimension). A present
/// but unparsable value fails loudly — a malformed workflow edit must
/// not silently collapse the matrix back onto the default seed.
fn seed() -> u64 {
    match std::env::var("RINGBFT_FAULT_SEED") {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("RINGBFT_FAULT_SEED is not an integer: {s:?}")),
        Err(_) => 7,
    }
}

/// The batching-policy dimension of the CI matrix:
/// `RINGBFT_ADAPTIVE_BATCHING=1` runs every fault scenario with the
/// Nagle-style adaptive flush cut enabled, so recovery is also proven
/// under sub-size batch cadence. Default off — the committed seeds stay
/// byte-identical. Same fail-loudly contract as the seed.
fn adaptive_batching() -> bool {
    match std::env::var("RINGBFT_ADAPTIVE_BATCHING") {
        Ok(s) => match s.trim() {
            "0" | "" => false,
            "1" => true,
            other => panic!("RINGBFT_ADAPTIVE_BATCHING must be 0 or 1: {other:?}"),
        },
        Err(_) => false,
    }
}

/// Small cluster, tight timers: every recovery mechanism fires within a
/// few simulated seconds. The checkpoint window (128 sequences at this
/// traffic rate ≈ a simulated second) is deliberately wider than the
/// hole probe (a third of the 1.2 s local timeout), so the tests can
/// tell certificate fetch apart from checkpoint-based repair.
fn fault_cfg(z: usize) -> SystemConfig {
    let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, z, 4);
    cfg.num_keys = 1_000 * z as u64;
    cfg.clients = 8;
    cfg.batch_size = 1;
    cfg.cross_shard_rate = 0.2;
    cfg.checkpoint_interval = 128;
    cfg.timers.local = Duration::from_millis(1200);
    cfg.timers.remote = Duration::from_millis(2400);
    cfg.timers.transmit = Duration::from_millis(3600);
    cfg.timers.client = Duration::from_millis(4800);
    cfg.adaptive_batching = adaptive_batching();
    cfg
}

/// Tentpole acceptance: one replica misses the entire quorum traffic for
/// a single sequence (dropped Preprepare/Prepare/Commit — the "lost
/// batch" case, strictly harder than losing only the Commits). The
/// shard moves on, the replica's sequence-ordered admission wedges on
/// the hole — and the hole-fetch subsystem repairs it with a commit
/// certificate from a peer *without* waiting for (or using) checkpoint
/// state transfer.
#[test]
fn commit_hole_repaired_by_certificate_fetch() {
    let cfg = fault_cfg(2);
    let interval = cfg.checkpoint_interval;
    let victim = ReplicaId::new(ShardId(0), 2); // a backup, not the primary
    let hole_seq = 5; // well inside the first checkpoint window
    let mut dump = TraceDump::new("commit_hole_repaired_by_certificate_fetch");
    let report = Scenario::new(cfg, seed())
        .warmup_secs(1.0)
        .measure_secs(7.0)
        .with_commit_hole(victim, hole_seq)
        .run();
    dump.arm(&report);
    assert!(report.completed_txns > 0, "cluster stalled: {report:?}");
    let h = &report.holes[0];
    assert!(
        h.holes_filled >= 1,
        "hole never repaired via certificate fetch: {h:?}"
    );
    assert_eq!(h.bad_replies, 0, "a correct donor's reply failed: {h:?}");
    assert_eq!(
        h.snapshot_installs, 0,
        "fell back to O(state) snapshot transfer for a single lost message: {h:?}"
    );
    assert!(
        h.resumed_s.is_some(),
        "victim never executed the held sequence: {h:?}"
    );
    // Execution resumed *through* the hole and past the checkpoint
    // boundary the hole sat in front of…
    assert!(
        h.exec_watermark >= interval,
        "victim still wedged at watermark {}: {h:?}",
        h.exec_watermark
    );
    // …and checkpoint cadence survived: the victim itself observed new
    // stable checkpoints beyond the hole (so it votes and truncates
    // like any healthy replica again).
    assert!(
        h.stable_seq >= interval,
        "no checkpoint stabilized past the hole: {h:?}"
    );
}

/// The commit-hole repair under the perf-path configuration: open-loop
/// Poisson arrivals (clients issue on a schedule instead of waiting for
/// replies, so the victim's wedge cannot throttle the offered load) with
/// the adaptive batching cut enabled (sub-size batches flush whenever
/// the pipe is idle, so sequences advance on a bursty cadence). The
/// repair path must hold exactly as it does closed-loop: certificate
/// fetch, no snapshot fallback, checkpoint cadence resumes.
#[test]
fn commit_hole_repaired_under_open_loop_adaptive_batching() {
    use ringbft_workload::arrivals::ArrivalProcess;
    let mut cfg = fault_cfg(2);
    cfg.adaptive_batching = true;
    // fault_cfg batches one txn at a time (every batch is "full"); give
    // the adaptive cut real sub-size batches to flush.
    cfg.batch_size = 8;
    let interval = cfg.checkpoint_interval;
    let victim = ReplicaId::new(ShardId(0), 2);
    let hole_seq = 5;
    let mut dump = TraceDump::new("commit_hole_repaired_under_open_loop_adaptive_batching");
    let report = Scenario::new(cfg, seed())
        .warmup_secs(1.0)
        .measure_secs(7.0)
        .open_loop(ArrivalProcess::Poisson { rate_tps: 80.0 })
        .with_commit_hole(victim, hole_seq)
        .run();
    dump.arm(&report);
    let ol = report.open_loop.expect("open-loop scenario configured");
    assert!(
        ol.issued_txns > 0 && report.completed_txns > 0,
        "open-loop cluster stalled: {report:?}"
    );
    // The arrival process kept offering load near the target rate even
    // while the victim was wedged (that's the point of open loop).
    assert!(
        ol.issued_txns >= 7 * 80 * 7 / 10,
        "offered load collapsed: {} issued for 80 tps over 7 s",
        ol.issued_txns
    );
    let h = &report.holes[0];
    assert!(h.holes_filled >= 1, "hole never repaired: {h:?}");
    assert_eq!(h.bad_replies, 0, "a correct donor's reply failed: {h:?}");
    assert_eq!(h.snapshot_installs, 0, "snapshot fallback: {h:?}");
    assert!(h.resumed_s.is_some(), "victim never resumed: {h:?}");
    assert!(
        h.stable_seq >= interval,
        "no checkpoint stabilized past the hole: {h:?}"
    );
    // The adaptive cut actually fired under this light open-loop load —
    // the scenario really ran on sub-size batch cadence.
    assert!(
        report.pipeline.batch_adaptive_flushes > 0,
        "adaptive batching never cut a batch: {:?}",
        report.pipeline
    );
}

/// Extracts a numeric field from one JSON-lines trace event
/// (`{"i":…,"ev":"hole_filled","seq":5,"trace":…}`).
fn event_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Repair observability: with tracing at full sampling, the commit-hole
/// repair is *correlated into the sampled transaction's causal
/// timeline* — the donor stamps `hole_serve` and the victim stamps
/// `hole_filled`, both carrying the repaired batch's trace id, and the
/// span collector assembles a cross-shard timeline for that same id.
/// A short run keeps the early repair events inside every ring.
#[test]
fn commit_hole_repair_is_traced() {
    let mut cfg = fault_cfg(2);
    cfg.cross_shard_rate = 1.0; // the hole batch is certainly a cst
    cfg.involved_shards = 2;
    cfg.trace_sample_rate = 1; // …and certainly sampled
    let victim = ReplicaId::new(ShardId(0), 2);
    let mut dump = TraceDump::new("commit_hole_repair_is_traced");
    let report = Scenario::new(cfg, seed())
        .warmup_secs(1.0)
        .measure_secs(2.0)
        .with_commit_hole(victim, 5)
        .run();
    dump.arm(&report);
    let h = &report.holes[0];
    assert!(h.holes_filled >= 1, "hole never repaired: {h:?}");

    // The victim recorded the repair, tagged with the batch's trace id.
    let victim_name = victim.to_string();
    let (_, victim_ring) = report
        .traces
        .iter()
        .find(|(n, _)| *n == victim_name)
        .expect("victim's trace ring in the report");
    let filled = victim_ring
        .lines()
        .find(|l| l.contains("\"ev\":\"hole_filled\""))
        .expect("hole_filled event evicted from the victim's ring");
    let trace_id =
        event_field(filled, "trace").expect("hole_filled not correlated with the batch's trace id");

    // A donor recorded serving the certificate for the same trace.
    assert!(
        report.traces.iter().any(|(n, ring)| {
            *n != victim_name
                && ring.lines().any(|l| {
                    l.contains("\"ev\":\"hole_serve\"") && event_field(l, "trace") == Some(trace_id)
                })
        }),
        "no donor hole_serve event correlated with trace {trace_id}"
    );

    // And the same trace id assembles into a cross-shard timeline: the
    // repair hop is attributable to a specific sampled cst's journey.
    let t = report
        .tracing
        .csts
        .iter()
        .find(|t| t.trace_id == trace_id)
        .expect("repaired cst's timeline was not assembled");
    assert!(
        t.shards.len() >= 2,
        "repaired txn's timeline never left its shard: {t:?}"
    );
    assert!(
        !t.steps.is_empty() && t.critical_path_s > 0.0,
        "repaired txn's timeline has no timed steps: {t:?}"
    );
}

/// Cadence acceptance: `f` laggards *per shard* (f = 1 at n = 4), each
/// wedged on its own missed sequence, must not stall the checkpoint
/// cadence — and each must recover via hole fetch. This is exactly the
/// deadlock the ROADMAP called out: with more than `f` wedged replicas
/// no checkpoint stabilizes; with `f` of them, the quorum stays alive
/// and hole fetch pulls the laggards back in.
#[test]
fn checkpoint_cadence_survives_f_laggards_per_shard() {
    let cfg = fault_cfg(2);
    let interval = cfg.checkpoint_interval;
    let mut dump = TraceDump::new("checkpoint_cadence_survives_f_laggards_per_shard");
    let report = Scenario::new(cfg, seed())
        .warmup_secs(1.0)
        .measure_secs(8.0)
        .with_commit_hole(ReplicaId::new(ShardId(0), 2), 5)
        .with_commit_hole(ReplicaId::new(ShardId(1), 3), 7)
        .run();
    dump.arm(&report);
    assert!(report.completed_txns > 0, "cluster stalled: {report:?}");
    for h in &report.holes {
        assert!(h.holes_filled >= 1, "laggard never repaired: {h:?}");
        assert_eq!(h.bad_replies, 0);
        assert!(
            h.stable_seq >= 2 * interval,
            "checkpoint cadence broke with f laggards (stable at {}): {h:?}",
            h.stable_seq
        );
        assert!(
            h.exec_watermark >= h.seq,
            "laggard still wedged at {}: {h:?}",
            h.exec_watermark
        );
    }
}

/// Blank-restart recovery (checkpoint state transfer), as already
/// covered by `recovery_sim` on one interleaving — here across the CI
/// seed matrix: the restarted replica catches up and the cluster keeps
/// completing transactions after the restart. Under delta
/// checkpointing this doubles as the full-snapshot fallback test: a
/// blank requester advertises no base digest, so no donor can
/// recognize one, and the catch-up must arrive as a full snapshot
/// chain — never a dangling delta chain.
#[test]
fn blank_restart_catches_up_across_seeds() {
    blank_restart_catches_up(0, "blank_restart_catches_up_across_seeds");
}

/// The same blank restart with one remote read per cst: every cst is
/// complex, so rotation two (Execute, `Σ` accumulation, the second
/// wrap-around) runs on a 3-shard ring, and the restarted replica's
/// snapshot install prunes complex-cst state. No other scenario of the
/// matrix sends an Execute.
#[test]
fn blank_restart_catches_up_with_complex_csts() {
    blank_restart_catches_up(1, "blank_restart_catches_up_with_complex_csts");
}

fn blank_restart_catches_up(remote_reads: usize, test: &'static str) {
    let mut cfg = fault_cfg(3);
    cfg.cross_shard_rate = 0.3;
    cfg.checkpoint_interval = 4;
    cfg.remote_reads = remote_reads;
    let mut dump = TraceDump::new(test);
    let report = Scenario::new(cfg, seed())
        .warmup_secs(1.0)
        .measure_secs(11.0)
        .with_blank_restart(2.0, 3.0, ReplicaId::new(ShardId(1), 2))
        .run();
    dump.arm(&report);
    // Only a complex cst executes after its Forward evidence completes.
    let rotation_two = report
        .phases
        .iter()
        .any(|p| p.name == "phase.cst_execute" && p.count > 0);
    assert_eq!(rotation_two, remote_reads > 0, "{:?}", report.phases);
    let rec = report.recovery.expect("recovery metrics requested");
    assert!(
        rec.catchup_s.is_some(),
        "restarted replica never executed again: {rec:?}"
    );
    assert!(
        rec.post_restart_tps > 0.0,
        "cluster stalled after the restart: {rec:?}"
    );
    // Full-snapshot fallback: donors recognize no base for a blank
    // requester, so at least the first install ships a full link.
    assert!(
        rec.full_installs >= 1,
        "blank restart did not receive a full snapshot: {rec:?}"
    );
    assert_eq!(
        rec.bad_digests, 0,
        "a correct donor's chain failed: {rec:?}"
    );
}

/// Configuration for the delta state-transfer scenarios: a roomy key
/// space, a checkpoint window of ~1 simulated second of traffic, and —
/// deliberately — *wide* local timers: the victim's darkness
/// (inbound-only partition, ~1.2 s ≈ one checkpoint window) plus its
/// recovery must stay clear of per-request watchdogs demanding solo
/// view changes, because a replica wedged in an unjoined view drops
/// live vote traffic and turns a bounded lag into an unbounded one.
/// Real deployments size `timers.local` well above transient partition
/// blips for exactly this reason. The darkness straddles a checkpoint
/// boundary, so by the time the victim's hole probe would fire the
/// donors have stabilized a checkpoint past the gap's first sequence
/// and GC'd its certificate — leaving state transfer as the bulk
/// repair path.
fn delta_cfg() -> SystemConfig {
    let mut cfg = fault_cfg(2);
    cfg.num_keys = 16_000; // 8 000 records per shard partition
    cfg.checkpoint_interval = 256;
    cfg.timers.local = Duration::from_millis(4800);
    cfg.timers.remote = Duration::from_millis(9600);
    cfg.timers.transmit = Duration::from_millis(14400);
    cfg.timers.client = Duration::from_millis(19200);
    cfg
}

/// Tentpole acceptance: a replica partitioned from all inbound traffic
/// across a few checkpoint windows keeps its state, so when the
/// darkness lifts its last announced checkpoint is a chain point every
/// donor retains — catch-up arrives as a *verified delta chain* moving
/// O(churn) bytes (gated at < 25 % of the full-snapshot baseline),
/// with zero full-snapshot installs and zero digest mismatches.
#[test]
fn laggard_recovers_via_verified_delta_chain() {
    let cfg = delta_cfg();
    let interval = cfg.checkpoint_interval;
    let victim = ReplicaId::new(ShardId(0), 2); // a backup, not the primary
    let mut dump = TraceDump::new("laggard_recovers_via_verified_delta_chain");
    let report = Scenario::new(cfg, seed())
        .warmup_secs(1.0)
        .measure_secs(29.0)
        .with_delta_transfer(victim, 2.0, 3.2)
        .run();
    dump.arm(&report);
    assert!(report.completed_txns > 0, "cluster stalled: {report:?}");
    let d = &report.delta_transfers[0];
    assert!(
        d.delta_installs >= 1,
        "laggard never installed a delta chain: {d:?}"
    );
    assert_eq!(
        d.full_installs, 0,
        "fell back to O(state) full transfer for a recognized base: {d:?}"
    );
    assert_eq!(d.bad_digests, 0, "a verified chain was rejected: {d:?}");
    assert!(
        4 * d.transfer_bytes() < d.full_baseline_bytes,
        "delta recovery moved {} bytes, ≥ 25% of the {}-byte full baseline: {d:?}",
        d.transfer_bytes(),
        d.full_baseline_bytes
    );
    // The victim actually caught back up and checkpoints kept flowing.
    assert!(
        d.exec_watermark + 3 * interval >= d.peer_max_watermark,
        "victim still wedged at watermark {}: {d:?}",
        d.exec_watermark
    );
    assert!(
        d.exec_watermark >= 2 * interval && d.stable_seq >= 2 * interval,
        "victim never progressed past the dark window: {d:?}"
    );
}

/// Donor-failure acceptance: the victim's first donor in rotation is
/// killed the moment the darkness lifts — before it can complete a
/// transfer — so repair must route around it (probe rotation to the
/// surviving donors). The kill plus the laggard exhaust `f`, so new
/// checkpoints can only stabilize once the victim rejoins; depending
/// on the interleaving the gap closes via a delta chain from a second
/// donor (anchored, when the original votes are gone, on the §6.2.2
/// weak certificates donors re-send alongside their answers) or via
/// burst-paced certificate fetch — either way nothing unverified is
/// ever installed, the victim rejoins the cadence, and the shard's
/// checkpoints resume.
#[test]
fn delta_transfer_survives_donor_kill_via_rotation() {
    let cfg = delta_cfg();
    let interval = cfg.checkpoint_interval;
    let victim = ReplicaId::new(ShardId(0), 2);
    // The rotation starts at index victim+1: S0r3 is asked first.
    let first_donor = ReplicaId::new(ShardId(0), 3);
    let faults = ringbft_simnet::FaultPlan::none().crash(
        ringbft_types::NodeId::Replica(first_donor),
        ringbft_types::Instant::ZERO + Duration::from_secs_f64(3.2),
    );
    let mut dump = TraceDump::new("delta_transfer_survives_donor_kill_via_rotation");
    let report = Scenario::new(cfg, seed())
        .warmup_secs(1.0)
        .measure_secs(19.0)
        .with_faults(faults)
        .with_delta_transfer(victim, 2.0, 3.2)
        .run();
    dump.arm(&report);
    assert!(report.completed_txns > 0, "cluster stalled: {report:?}");
    let d = &report.delta_transfers[0];
    assert_eq!(d.bad_digests, 0, "a verified chain was rejected: {d:?}");
    assert!(
        d.exec_watermark + 3 * interval >= d.peer_max_watermark,
        "victim still wedged at watermark {} (peers at {}): {d:?}",
        d.exec_watermark,
        d.peer_max_watermark
    );
    // Checkpoint cadence resumed after the kill: with f exhausted,
    // stabilization needs the recovered victim's own votes.
    assert!(
        d.stable_seq >= 4 * interval,
        "checkpoint cadence never resumed after the donor kill: {d:?}"
    );
}

/// Durable-restart acceptance (kill -9 mid-batch): the victim runs with
/// a write-ahead ledger under batched group commit, is crashed between
/// sync points — the log's unsynced tail is lost, power-loss semantics,
/// strictly harder than a process kill — and restarted from the
/// surviving log. The replay must restore a durable stable checkpoint
/// locally, and the wire top-up must move < 25 % of what a blank
/// restart would have transferred; the victim ends fingerprint-equal
/// with its quorum at the same checkpoint sequence.
#[test]
fn durable_restart_replays_log_and_tops_up_tail() {
    let cfg = delta_cfg();
    let interval = cfg.checkpoint_interval;
    let victim = ReplicaId::new(ShardId(0), 2); // a backup, not the primary
    let mut dump = TraceDump::new("durable_restart_replays_log_and_tops_up_tail");
    // Crash late in the run: by then the accumulated store (the blank
    // baseline) is well past the roughly constant tail the restart tops
    // up (probe latency × traffic rate), so the < 25 % gate measures
    // the mechanism rather than scenario luck.
    let report = Scenario::new(cfg, seed())
        .warmup_secs(1.0)
        .measure_secs(19.0)
        .with_durable_restart(10.0, 10.5, victim)
        .run();
    dump.arm(&report);
    assert!(report.completed_txns > 0, "cluster stalled: {report:?}");
    let d = report.durable_restart.expect("durable metrics requested");
    assert!(
        d.catchup_s.is_some(),
        "restarted replica never executed again: {d:?}"
    );
    // The local log survived the crash and carried a stable checkpoint.
    assert!(
        d.recovered_seq >= interval,
        "replay restored no durable checkpoint: {d:?}"
    );
    assert!(
        d.restart_bytes_local > 0,
        "nothing was replayed from the local log: {d:?}"
    );
    // Group commit actually batched: syncs ran, and far fewer of them
    // than appended records.
    assert!(d.wal_syncs > 0, "batched durability never synced: {d:?}");
    // The wire moved only the tail: < 25 % of the blank baseline.
    assert!(
        4 * d.restart_bytes_transferred < d.blank_baseline_bytes,
        "durable restart transferred {} bytes, ≥ 25% of the {}-byte blank baseline: {d:?}",
        d.restart_bytes_transferred,
        d.blank_baseline_bytes
    );
    assert_eq!(d.bad_digests, 0, "a verified chain was rejected: {d:?}");
    assert!(
        d.fingerprint_ok,
        "victim's checkpoint store diverged from its quorum: {d:?}"
    );
    // It rejoined the cadence.
    assert!(
        d.exec_watermark + 3 * interval >= d.peer_max_watermark,
        "victim still wedged at watermark {} (peers at {}): {d:?}",
        d.exec_watermark,
        d.peer_max_watermark
    );
}

/// Divergence-rollback acceptance (the carry-over bugfix): one
/// replica's live and checkpoint stores are corrupted in place — a
/// bit-flipped executor — so its next checkpoint announcement loses
/// the quorum vote. The rollback-and-refetch path must discard the
/// divergent window, refetch verified quorum state (≥ 1 install), and
/// reconverge: the victim ends out of diverged mode, fingerprint-equal
/// with a same-shard peer at the same stable checkpoint, with no
/// safety flag (bad digest) raised along the way.
#[test]
fn divergent_replica_rolls_back_and_reconverges() {
    let cfg = delta_cfg();
    let interval = cfg.checkpoint_interval;
    let victim = ReplicaId::new(ShardId(0), 2); // a backup, not the primary
    let mut dump = TraceDump::new("divergent_replica_rolls_back_and_reconverges");
    let report = Scenario::new(cfg, seed())
        .warmup_secs(1.0)
        .measure_secs(19.0)
        .with_divergence(victim, 3.0)
        .run();
    dump.arm(&report);
    assert!(report.completed_txns > 0, "cluster stalled: {report:?}");
    let d = &report.divergences[0];
    assert!(
        d.divergences >= 1,
        "corruption never surfaced as a checkpoint divergence: {d:?}"
    );
    assert!(
        d.installs >= 1,
        "rollback never refetched quorum state: {d:?}"
    );
    assert!(
        !d.diverged_at_end,
        "victim still in rolled-back mode at the end of the run: {d:?}"
    );
    // Losing a vote is not an integrity failure: nothing was rejected.
    assert_eq!(d.bad_digests, 0, "divergence raised a safety flag: {d:?}");
    assert!(
        d.fingerprint_ok,
        "victim never reconverged onto quorum state: {d:?}"
    );
    assert!(
        d.exec_watermark + 3 * interval >= d.peer_max_watermark,
        "victim still wedged at watermark {} (peers at {}): {d:?}",
        d.exec_watermark,
        d.peer_max_watermark
    );
    assert!(
        d.stable_seq >= 2 * interval,
        "checkpoint cadence never resumed after the rollback: {d:?}"
    );
}
