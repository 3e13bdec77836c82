//! Core types shared by every crate in the RingBFT reproduction.
//!
//! This crate is dependency-light on purpose: it defines the identifiers,
//! transaction model, ring-order arithmetic, system configuration, and the
//! sans-io [`sansio::Action`] vocabulary that protocol state
//! machines emit and the simulator interprets.
//!
//! The paper ("RingBFT: Resilient Consensus over Sharded Ring Topology",
//! EDBT 2022) models a system `𝔖` of shards, each shard `S` replicated by a
//! set `ℜS` of replicas with `n ≥ 3f + 1`. Transactions are *deterministic*:
//! their read-write sets are known before consensus starts (§3). Shards are
//! arranged in a logical ring and cross-shard transactions visit their
//! involved shards in ring order (§4.2).

pub mod config;
pub mod hole;
pub mod ids;
pub mod region;
pub mod ring;
pub mod sansio;
pub mod time;
pub mod trace;
pub mod txn;
pub mod wire;

pub use config::{Durability, ProtocolKind, ShardConfig, SystemConfig, DELTA_CHAIN_KEEP};
pub use hole::{CommitCertificate, HoleReply, HoleRequest};
pub use ids::{ClientId, NodeId, ReplicaId, SeqNum, ShardId, ViewNum};
pub use region::Region;
pub use ring::RingOrder;
pub use sansio::{Action, Outbox, ProtocolNode, TimerKind};
pub use time::{Duration, Instant};
pub use trace::{TraceContext, Traced};
pub use txn::{Batch, BatchId, Operation, OperationKind, ReadWriteSet, Transaction, TxnId};
