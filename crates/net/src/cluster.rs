//! In-process loopback cluster: the full shard topology over real TCP.
//!
//! [`LocalCluster`] binds one `127.0.0.1` listener per replica, builds
//! the shared [`PeerTable`], and launches a [`NodeRuntime`] per node —
//! the same state machines the simulator drives, now exchanging frames
//! through the kernel's loopback stack with real clocks. Client hosts
//! (closed-loop [`SimClient`]s or custom injector nodes) join the same
//! peer table.
//!
//! This is both the integration-test harness and the reference for
//! wiring real multi-process deployments with `ringbft-node`.

use crate::codec::FrameAuth;
use crate::runtime::{Clock, NodeRuntime, PeerTable};
use ringbft_recovery::ReplicaWal;
use ringbft_sim::{AnyMsg, AnyNode, SimClient};
use ringbft_types::{ClientId, NodeId, ReplicaId, SystemConfig};
use std::net::TcpListener;
use std::path::{Path, PathBuf};

/// A running loopback deployment.
pub struct LocalCluster {
    cfg: SystemConfig,
    clock: Clock,
    peers: PeerTable,
    auth: FrameAuth,
    replicas: Vec<NodeRuntime<AnyMsg, AnyNode>>,
    clients: Vec<NodeRuntime<AnyMsg, AnyNode>>,
    /// When set, every replica runs with a file-backed write-ahead
    /// ledger at `<data_dir>/<replica>.wal` (the `--data-dir` twin).
    data_dir: Option<PathBuf>,
}

/// What [`LocalCluster::restart_replica_durable`] replayed from the
/// surviving on-disk log before rejoining the cluster.
#[derive(Debug, Clone, Copy)]
pub struct DurableRestart {
    /// Bytes of intact log replayed from `<data_dir>/<replica>.wal`.
    pub bytes_replayed: u64,
    /// Checkpoint sequence the replay restored (0 = no durable
    /// checkpoint survived; the restart is effectively blank).
    pub recovered_seq: u64,
    /// The surviving log ended with a clean-close record (false after
    /// a kill — the tail simply stops, possibly torn).
    pub clean_close: bool,
}

/// The on-disk log of one replica under `dir`.
fn wal_path(dir: &Path, r: ReplicaId) -> PathBuf {
    dir.join(format!("{r}.wal"))
}

impl LocalCluster {
    /// Binds listeners and launches every replica of `cfg` (including
    /// AHL's committee when applicable) on loopback TCP. Frames are
    /// authenticated under the config's `auth_seed`.
    pub fn launch(cfg: SystemConfig) -> std::io::Result<LocalCluster> {
        Self::launch_inner(cfg, None)
    }

    /// Like [`LocalCluster::launch`], but every replica additionally
    /// runs a file-backed write-ahead ledger at
    /// `<data_dir>/<replica>.wal` under the config's `durability`
    /// policy — the in-process twin of `ringbft-node --data-dir`. A
    /// replica killed with [`LocalCluster::kill_replica`] leaves its
    /// log on disk for [`LocalCluster::restart_replica_durable`].
    pub fn launch_durable(
        cfg: SystemConfig,
        data_dir: impl Into<PathBuf>,
    ) -> std::io::Result<LocalCluster> {
        let dir = data_dir.into();
        std::fs::create_dir_all(&dir)?;
        Self::launch_inner(cfg, Some(dir))
    }

    fn launch_inner(cfg: SystemConfig, data_dir: Option<PathBuf>) -> std::io::Result<LocalCluster> {
        cfg.validate().expect("valid cluster config");
        let deployment = ringbft_sim::nodes::deployment(&cfg);
        let auth = FrameAuth::from_seed(cfg.auth_seed);

        // Bind every listener first so the peer table is complete before
        // any node starts talking.
        let peers = PeerTable::new();
        let mut listeners = Vec::new();
        for (r, _region, _node) in &deployment {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            peers.insert(NodeId::Replica(*r), listener.local_addr()?);
            listeners.push(listener);
        }

        let clock = Clock::start();
        let mut replicas = Vec::new();
        for ((r, _region, mut node), listener) in deployment.into_iter().zip(listeners) {
            if let Some(dir) = &data_dir {
                if let AnyNode::Ring(ring) = &mut node {
                    let (wal, recovered) = ReplicaWal::open_file(wal_path(dir, r), cfg.durability)?;
                    ring.attach_wal(wal, recovered);
                }
            }
            let rt = NodeRuntime::launch(
                NodeId::Replica(r),
                node,
                listener,
                peers.clone(),
                clock.clone(),
                auth.clone(),
            )?;
            replicas.push(rt);
        }
        Ok(LocalCluster {
            cfg,
            clock,
            peers,
            auth,
            replicas,
            clients: Vec::new(),
            data_dir,
        })
    }

    /// The cluster's frame authenticator (share it with externally
    /// launched runtimes, e.g. test injectors).
    pub fn auth(&self) -> &FrameAuth {
        &self.auth
    }

    /// Kills replica `r`: its runtime is stopped and its entire node
    /// state dropped, as if the process died. Peers' writers fail over
    /// and drop frames for it until it is restarted.
    pub fn kill_replica(&mut self, r: ReplicaId) {
        let pos = self
            .replicas
            .iter()
            .position(|rt| rt.id() == NodeId::Replica(r))
            .expect("unknown replica");
        let rt = self.replicas.swap_remove(pos);
        let _ = rt.shutdown(); // node state dropped here
    }

    /// Stops the runtime hosting client `host` (spawned via
    /// [`LocalCluster::spawn_client`]/[`spawn_workload_host`]) — the
    /// TCP twin of a client host disconnecting. Returns whether the
    /// shutdown was clean (the reactor thread acknowledged within the
    /// bounded join timeout). Connection-churn tests use this to cycle
    /// client populations against a running cluster.
    ///
    /// [`spawn_workload_host`]: LocalCluster::spawn_workload_host
    pub fn shutdown_client(&mut self, host: NodeId) -> bool {
        let pos = self
            .clients
            .iter()
            .position(|c| c.id() == host)
            .expect("unknown client host");
        let rt = self.clients.swap_remove(pos);
        rt.shutdown().is_some()
    }

    /// Restarts a previously killed replica *blank*: a fresh node with
    /// an empty store and fresh consensus state, on a new listener. The
    /// peer table is updated in place, so running peers re-route to the
    /// new incarnation on their next (re)connect. Catch-up is the
    /// recovery subsystem's job (`ringbft-recovery`).
    pub fn restart_replica_blank(&mut self, r: ReplicaId) -> std::io::Result<()> {
        assert!(
            !self.replicas.iter().any(|rt| rt.id() == NodeId::Replica(r)),
            "{r} is still running; kill it first"
        );
        let (_, _, node) = ringbft_sim::nodes::deployment(&self.cfg)
            .into_iter()
            .find(|(id, _, _)| *id == r)
            .expect("replica in deployment");
        self.relaunch(r, node)?;
        Ok(())
    }

    /// Restarts a previously killed replica from its on-disk log (the
    /// cluster must have been launched with
    /// [`LocalCluster::launch_durable`]): a fresh node replays
    /// `<data_dir>/<replica>.wal`, restores the last durable stable
    /// checkpoint locally, and fetches only the tail from its peers —
    /// the crash-consistent `kill -9; ringbft-node --data-dir` path.
    pub fn restart_replica_durable(&mut self, r: ReplicaId) -> std::io::Result<DurableRestart> {
        assert!(
            !self.replicas.iter().any(|rt| rt.id() == NodeId::Replica(r)),
            "{r} is still running; kill it first"
        );
        let dir = self
            .data_dir
            .clone()
            .expect("cluster was not launched with launch_durable");
        let (_, _, mut node) = ringbft_sim::nodes::deployment(&self.cfg)
            .into_iter()
            .find(|(id, _, _)| *id == r)
            .expect("replica in deployment");
        let (wal, recovered) = ReplicaWal::open_file(wal_path(&dir, r), self.cfg.durability)?;
        let mut restart = DurableRestart {
            bytes_replayed: wal.len_bytes(),
            recovered_seq: 0,
            clean_close: recovered.clean_close,
        };
        if let AnyNode::Ring(ring) = &mut node {
            ring.attach_wal(wal, recovered);
            restart.recovered_seq = ring.checkpoint_seq();
        }
        self.relaunch(r, node)?;
        Ok(restart)
    }

    /// Launches a restarted replica on a new listener. The peer table
    /// is updated in place, so running peers re-route to it on their
    /// next (re)connect.
    fn relaunch(&mut self, r: ReplicaId, node: AnyNode) -> std::io::Result<()> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        self.peers
            .insert(NodeId::Replica(r), listener.local_addr()?);
        let (peers, clock, auth) = (self.peers.clone(), self.clock.clone(), self.auth.clone());
        let rt = NodeRuntime::launch(NodeId::Replica(r), node, listener, peers, clock, auth)?;
        self.replicas.push(rt);
        Ok(())
    }

    /// The deployment's configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The cluster's shared timebase.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The cluster's peer table (replicas plus any spawned clients).
    pub fn peers(&self) -> &PeerTable {
        &self.peers
    }

    /// Launches a closed-loop workload host serving logical clients
    /// `first_id..first_id + count` (the same [`SimClient`] the
    /// simulator uses); replies to any logical id route back to it.
    pub fn spawn_workload_host(
        &mut self,
        seed: u64,
        first_id: u64,
        count: u64,
    ) -> std::io::Result<NodeId> {
        let host = NodeId::Client(ClientId(first_id));
        let client = SimClient::new(self.cfg.clone(), seed, first_id, count);
        let aliases: Vec<NodeId> = (first_id + 1..first_id + count)
            .map(|c| NodeId::Client(ClientId(c)))
            .collect();
        self.spawn_client(host, AnyNode::Client(Box::new(client)), &aliases)
    }

    /// Launches an arbitrary client-side node (e.g. a test injector)
    /// as `host`, optionally aliasing extra logical ids to it. The
    /// shared peer table makes the new host visible to every running
    /// replica immediately.
    pub fn spawn_client(
        &mut self,
        host: NodeId,
        node: AnyNode,
        aliases: &[NodeId],
    ) -> std::io::Result<NodeId> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        self.peers.insert(host, listener.local_addr()?);
        for a in aliases {
            self.peers.add_alias(*a, host);
        }
        self.clients.push(NodeRuntime::launch(
            host,
            node,
            listener,
            self.peers.clone(),
            self.clock.clone(),
            self.auth.clone(),
        )?);
        Ok(host)
    }

    /// Total transactions completed across all workload hosts.
    pub fn total_completions(&self) -> usize {
        self.clients
            .iter()
            .map(|rt| {
                rt.with_node(|n| match n {
                    AnyNode::Client(c) => c.completions.len(),
                    _ => 0,
                })
            })
            .sum()
    }

    /// Installs a content-aware inbound drop rule on replica `r`'s
    /// runtime (fault injection over real sockets): frames for which
    /// `filter(from, &msg)` returns true never reach the node. See
    /// [`NodeRuntime::set_inbound_filter`].
    pub fn set_inbound_filter(
        &self,
        r: ReplicaId,
        filter: impl Fn(NodeId, &AnyMsg) -> bool + Send + 'static,
    ) {
        let rt = self
            .replicas
            .iter()
            .find(|rt| rt.id() == NodeId::Replica(r))
            .expect("unknown replica");
        rt.set_inbound_filter(filter);
    }

    /// Starts the standard telemetry scrape endpoint
    /// (`crate::telemetry::standard_routes`) for replica `r` on an
    /// ephemeral loopback port, returning the bound address.
    pub fn serve_replica_telemetry(&self, r: ReplicaId) -> std::io::Result<std::net::SocketAddr> {
        let rt = self
            .replicas
            .iter()
            .find(|rt| rt.id() == NodeId::Replica(r))
            .expect("unknown replica");
        let listener = TcpListener::bind("127.0.0.1:0")?;
        rt.serve_telemetry(listener, crate::telemetry::standard_routes)
    }

    /// Runs `f` on the runtime hosting replica `r`.
    pub fn with_replica<R>(&self, r: ReplicaId, f: impl FnOnce(&mut AnyNode) -> R) -> R {
        let rt = self
            .replicas
            .iter()
            .find(|rt| rt.id() == NodeId::Replica(r))
            .expect("unknown replica");
        rt.with_node(f)
    }

    /// Iterates the replica runtimes (stats inspection).
    pub fn replica_runtimes(&self) -> impl Iterator<Item = &NodeRuntime<AnyMsg, AnyNode>> {
        self.replicas.iter()
    }

    /// Polls until `pred` holds or `timeout` elapses; returns whether
    /// the predicate held.
    pub fn wait_until(
        &self,
        timeout: std::time::Duration,
        mut pred: impl FnMut(&LocalCluster) -> bool,
    ) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if pred(self) {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
    }

    /// Stops every runtime (clients first, so replica sockets close
    /// cleanly afterwards). Returns whether every shutdown was *clean*:
    /// each runtime's reactor thread handed its node back within the
    /// bounded join timeout. Tests assert this so a
    /// wedged reactor cannot hide behind a green run.
    pub fn shutdown(self) -> bool {
        let mut clean = true;
        for c in self.clients {
            clean &= c.shutdown().is_some();
        }
        // Close each write-ahead ledger (append a clean-close record
        // and sync) only *after* the runtime's reactors have joined and
        // handed the node back: a reactor still serving peer traffic
        // could otherwise append behind the close marker, leaving a log
        // that does not replay as cleanly closed.
        for r in self.replicas {
            match r.shutdown() {
                Some(AnyNode::Ring(mut replica)) => replica.close_wal(),
                Some(_) => {}
                None => clean = false,
            }
        }
        clean
    }
}
