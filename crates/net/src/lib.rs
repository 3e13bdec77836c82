//! `ringbft-net` — the real-network runtime for the RingBFT
//! reproduction.
//!
//! Everything in this workspace runs as sans-io state machines behind
//! the driver contract in `ringbft_types::sansio`. The discrete-event
//! simulator (`ringbft-simnet`) is one driver; this crate is the second:
//! real kernels, real clocks, real sockets.
//!
//! * [`codec`] — versioned length-prefixed binary framing for
//!   [`AnyMsg`](ringbft_sim::AnyMsg) (and any other serde-codable
//!   message type) with size caps derived from the paper's wire model,
//!   plus the incremental [`FrameAssembler`](codec::FrameAssembler)
//!   the reactor's nonblocking reads feed.
//! * [`runtime`] — [`NodeRuntime`]: hosts one protocol node on a TCP
//!   listener with a fixed number of epoll reactor threads
//!   (`reactor_shards`, default 1) — nonblocking accept/read/write
//!   state machines, per-peer outbound byte queues with backpressure
//!   watermarks, and the four `TimerKind` watchdogs folded into the
//!   `epoll_wait` timeout.
//! * [`cluster`] — [`LocalCluster`]: a full shard topology in-process
//!   over loopback TCP, used by the integration tests and as the
//!   reference for real deployments.
//! * [`config`] — JSON cluster files (`SystemConfig` + peer address
//!   map) for the `ringbft-node` binary.
//!
//! ## Hosting a replica on a real socket
//!
//! ```no_run
//! use ringbft_net::codec::FrameAuth;
//! use ringbft_net::runtime::{Clock, NodeRuntime, PeerTable};
//! use ringbft_sim::{AnyMsg, AnyNode};
//! use ringbft_types::{NodeId, ProtocolKind, ReplicaId, ShardId, SystemConfig};
//!
//! let cfg = SystemConfig::uniform(ProtocolKind::RingBft, 2, 4);
//! let me = ReplicaId::new(ShardId(0), 0);
//! let (_, _, node) = ringbft_sim::nodes::deployment(&cfg)
//!     .into_iter()
//!     .find(|(r, _, _)| *r == me)
//!     .expect("replica in deployment");
//! let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! let peers = PeerTable::new();
//! peers.insert(NodeId::Replica(me), listener.local_addr().unwrap());
//! // ... insert every other replica's address ...
//! let auth = FrameAuth::from_seed(cfg.auth_seed);
//! let rt: NodeRuntime<AnyMsg, AnyNode> =
//!     NodeRuntime::launch(NodeId::Replica(me), node, listener, peers, Clock::start(), auth)
//!         .unwrap();
//! # let _ = rt;
//! ```

pub mod cluster;
pub mod codec;
pub mod config;
mod reactor;
pub mod runtime;
pub mod telemetry;

pub use cluster::{launch_replica, DurableRestart, LocalCluster};
pub use codec::{encode_frame, CodecError, Envelope, FrameAuth};
pub use config::{load_cluster_config, parse_cluster_config, ClusterConfig, ConfigError};
pub use runtime::{Clock, NetStatsSnapshot, NodeRuntime, PeerTable, TelemetryHandle};
