//! Per-shard storage substrate: the YCSB-style key-value partition and the
//! sequence-ordered lock manager with the paper's pending list `π`.
//!
//! * [`kv`] — deterministic, versioned key-value records; fragment
//!   execution with `Σ`-supplied remote values for complex csts.
//! * [`locks`] — `k_max`-ordered lock admission (§4.3.5, Example 4.4),
//!   the shard-local half of RingBFT's deadlock-freedom argument.
//! * [`wal`] — the append-only write-ahead log substrate behind the
//!   [`Storage`] trait: checksummed record framing with
//!   torn-tail truncation, an in-memory backend for the deterministic
//!   simulator and a file backend for real deployments.

pub mod kv;
pub mod locks;
pub mod wal;

pub use kv::{rmw_ops, FragmentResult, KvStore, Record};
pub use locks::{Admission, LockManager};
pub use wal::{FileWal, MemWal, MemWalHandle, PayloadWriter, Storage, WalRecord};
