//! Connection-churn soak test for the epoll reactor (ISSUE 5).
//!
//! The old runtime spawned two OS threads per peer connection, so its
//! thread (and stack) footprint grew with the client population. The
//! reactor's contract is the opposite: a running node uses a *fixed*
//! thread count (one reactor thread per hosted node) and holds file
//! descriptors only for live connections, no matter how many clients
//! come and go.
//!
//! This test drives waves of workload hosts against a 2×4 loopback
//! cluster — each wave connects, commits transactions, and disconnects
//! — and asserts:
//!
//! * every wave's commits complete (the churn never wedges the shard);
//! * the process thread count during a wave equals the launch-time
//!   baseline plus exactly the wave host's own reactor (thread count is
//!   independent of connection count);
//! * after each wave drains, the process fd count returns to the
//!   post-launch baseline (no leaked sockets on either side of the
//!   churned connections);
//! * the final cluster shutdown is clean (every reactor thread
//!   acknowledges the poisoned eventfd within the bounded join
//!   timeout) — and, with the replicas running on durable write-ahead
//!   logs (ISSUE 9), that shutdown flushes and closes every log inside
//!   the same bounded join: each WAL reopens with a clean-close record
//!   and no torn tail.

use ringbft_net::LocalCluster;
use ringbft_types::{Duration, ProtocolKind, ReplicaId, ShardId, SystemConfig};

/// Live fd count of this process.
fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

/// Live thread count of this process.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Polls until `pred` holds or `timeout` elapses.
fn wait_until(timeout: std::time::Duration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        if pred() {
            return true;
        }
        if std::time::Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

const DEADLINE: std::time::Duration = std::time::Duration::from_secs(60);

#[test]
fn connection_churn_leaks_no_fds_and_keeps_thread_count_fixed() {
    let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 2, 4);
    cfg.num_keys = 2_000;
    cfg.batch_size = 1;
    cfg.clients = 8;
    cfg.timers.local = Duration::from_millis(800);
    cfg.timers.remote = Duration::from_millis(1600);
    cfg.timers.transmit = Duration::from_millis(2400);
    cfg.timers.client = Duration::from_millis(3200);
    let dir = std::env::temp_dir().join(format!("ringbft-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cluster = LocalCluster::launch_durable(cfg.clone(), &dir).expect("launch cluster");

    // Baselines after the cluster is up but before any client exists.
    // The 8 replica runtimes have spawned their reactors
    // and hold listener + epoll + eventfd fds; none of that may grow
    // with client churn.
    let base_threads = thread_count();
    let mut completed_before = 0usize;

    // The fd baseline settles once the replicas' mutual connections are
    // established; wave 0 warms those up, so the post-wave-0 quiescent
    // count is the reference for later waves.
    let mut base_fds: Option<usize> = None;

    for wave in 0u64..4 {
        let first_id = 1_000_000 + wave * 1_000;
        let host = cluster
            .spawn_workload_host(42 + wave, first_id, 8)
            .expect("spawn wave host");

        // Thread count is connection-independent: the wave added
        // exactly one runtime = one reactor thread, regardless of how
        // many sockets its 8 logical clients fan out to.
        assert_eq!(
            thread_count(),
            base_threads + 1,
            "wave {wave}: thread count must be baseline + the wave host's reactor"
        );

        let target = completed_before + 15;
        let ok = wait_until(DEADLINE, || cluster.total_completions() >= target);
        assert!(
            ok,
            "wave {wave}: stalled at {}/{target} completions",
            cluster.total_completions()
        );
        completed_before = cluster.total_completions();

        // Disconnect the wave: the host's runtime stops (clean), its
        // sockets close, and every replica-side fd for the churned
        // connections must be reclaimed once the reactors observe EOF.
        assert!(
            cluster.shutdown_client(host),
            "wave {wave}: host shutdown was not clean"
        );
        assert_eq!(thread_count(), base_threads, "wave {wave}: thread leak");
        match base_fds {
            None => {
                // Wave 0 established the replicas' mutual connections;
                // once fds stop moving, record the quiescent baseline.
                let settled = wait_until(DEADLINE, || {
                    let a = fd_count();
                    std::thread::sleep(std::time::Duration::from_millis(200));
                    a == fd_count()
                });
                assert!(settled, "fd count never quiesced after wave 0");
                base_fds = Some(fd_count());
            }
            Some(base) => {
                // Later waves must drain back to it: a few fds of slack
                // for connections mid-teardown, never monotonic growth.
                let drained = wait_until(DEADLINE, || fd_count() <= base + 4);
                assert!(
                    drained,
                    "wave {wave}: fd leak — {} live vs baseline {base}",
                    fd_count()
                );
            }
        }
    }

    assert!(cluster.shutdown(), "cluster shutdown was not clean");

    // Clean shutdown closed every durable log before the bounded join:
    // each WAL reopens with a clean-close record last and no torn tail
    // dropped on the floor (the replay sees everything that was
    // appended, then the close marker).
    for s in 0..2u32 {
        for i in 0..4u32 {
            let r = ReplicaId::new(ShardId(s), i);
            let (_, recovered) = ringbft_recovery::ReplicaWal::open_file(
                dir.join(format!("{r}.wal")),
                ringbft_types::Durability::default(),
            )
            .expect("reopen wal after shutdown");
            assert!(
                recovered.clean_close,
                "{r}: shutdown did not close the log cleanly"
            );
            assert!(
                recovered.entries > 0,
                "{r}: the soak committed traffic but the log is empty"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
