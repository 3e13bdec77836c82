//! Checkpointing and state transfer for RingBFT shards (§3 liveness, §5
//! attack A3: "in-dark" replicas).
//!
//! The PBFT engine's periodic `Checkpoint` votes agree on a *state
//! digest* per checkpoint sequence number; this crate supplies what that
//! digest actually commits to and how a lagging replica obtains the
//! state behind it:
//!
//! * [`Snapshot`] — the application state of one shard replica at a
//!   stable checkpoint: the key-value partition, the lock-admission
//!   high-water mark (`k_max`, implicitly the checkpoint sequence), and
//!   the replica's ledger position. Its [`Snapshot::digest`] is the
//!   `state_digest` carried in `PbftMsg::Checkpoint` — replicas only
//!   reach a stable checkpoint when `nf` of them hold *identical* state.
//! * [`CheckpointStore`] — the canonical checkpoint store together with
//!   the accumulator that maintains that digest incrementally, so a
//!   checkpoint costs O(writes in the window), not O(state); the digest
//!   itself is defined in [`checkpoint`].
//! * [`Checkpointer`] — a replica's checkpoint state around that store:
//!   execution watermark, window folding and votes, quorum outcomes,
//!   divergence rollback, and installs. It owns the [`RecoveryManager`].
//! * [`DeltaSnapshot`] — the incremental checkpoint (Castro & Liskov
//!   §6.2): only the records written since the previous checkpoint,
//!   chained to that checkpoint's digest, so per-window capture and
//!   laggard transfers are O(churn) instead of O(state). Folding a
//!   verified chain onto its base reproduces the full snapshot —
//!   digest included ([`ChainTransfer::fold_verified`]).
//! * [`RecoveryManager`] — a sans-io state machine (it fits the
//!   [`ProtocolNode`](ringbft_types::sansio::ProtocolNode) driver
//!   contract) that serves snapshot chains to lagging same-shard peers
//!   (the shortest retained delta chain when it recognizes the
//!   requester's base, the full snapshot otherwise) and, when its own
//!   replica falls behind a quorum-stable checkpoint, reassembles the
//!   announced chain chunk by chunk and hands it to the host, which
//!   folds and verifies every link against the agreed digests before
//!   install.
//!
//! Communication reuses the paper's linear-primitive discipline: a
//! recovering replica asks **one** peer at a time (rotating on a probe
//! timer) instead of broadcasting, so recovery traffic stays O(state),
//! not O(n·state).
//!
//! The digest deliberately excludes the ledger linkage: §7 allows the
//! relative order of non-conflicting cross-shard blocks to differ
//! between replicas of one shard, so chain heads are replica-local. The
//! ledger base carried by [`RecoveryMsg::StatePlan`] is therefore taken
//! from the donor on trust — a Byzantine donor can feed a bogus chain
//! *base*, but never bogus *state*: the key-value records are checked
//! against the digest `nf` replicas voted for.

pub mod checkpoint;
pub mod checkpointer;
pub mod hole;
pub mod manager;
pub mod snapshot;
pub mod wal;

pub use checkpoint::CheckpointStore;
pub use checkpointer::{Checkpointer, Durable, Stable, Vote};
pub use hole::{DonorRotation, HoleFetcher, HoleStats, HOLE_PROBE_TOKEN};
pub use manager::{
    RecoveryEvent, RecoveryManager, RecoveryMsg, RecoveryStats, RECOVERY_PROBE_TOKEN,
};
pub use snapshot::{ChainError, ChainTransfer, DeltaSnapshot, PlanLink, RecordEntry, Snapshot};
pub use wal::{Recovered, RecoveredTip, ReplicaWal, WalEntry};
