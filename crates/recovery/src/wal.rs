//! The replica's typed write-ahead ledger over the generic
//! [`Storage`] byte log: what a RingBFT
//! replica persists, when it fsyncs, and how a restart turns the log
//! back into state.
//!
//! ## What is logged
//!
//! * [`WalEntry::Preprepare`] / [`WalEntry::Commit`] — consensus
//!   progress markers. They make the durable tail *observable* (how far
//!   past the last checkpoint the replica had committed when it died)
//!   and bound what the delta top-up after restart must re-fetch.
//! * [`WalEntry::CheckpointVote`] — the digest this replica announced
//!   for a checkpoint window (diagnostics; a diverged replica's log
//!   shows exactly which window went wrong).
//! * [`WalEntry::CheckpointFull`] / [`WalEntry::CheckpointDelta`] — the
//!   state itself: every full capture *compacts* the log down to that
//!   snapshot (the history before it is subsumed), every delta window
//!   appends O(churn) bytes chained to its predecessor's digest.
//! * [`WalEntry::Close`] — the clean-shutdown marker: appended and
//!   synced by [`ReplicaWal::close`], so a reopened log can distinguish
//!   an orderly shutdown from a crash.
//!
//! ## Restart
//!
//! [`ReplicaWal::open_mem`] / [`ReplicaWal::open_file`] replay the log
//! (the byte layer already truncated any torn tail) into a
//! [`Recovered`] summary: the last durable full snapshot, the
//! contiguous delta chain on top of it, and the durable commit
//! watermark. The host restores its stable store from
//! [`Recovered::fold`] and rejoins; only the tail beyond the last
//! durable checkpoint is fetched from peers via the existing
//! delta-chain transfer — O(gap), not O(state).

use crate::checkpoint::CheckpointStore;
use crate::snapshot::{DeltaSnapshot, Snapshot};
use ringbft_crypto::Digest;
use ringbft_store::wal::{Storage, WalRecord};
use ringbft_store::{FileWal, MemWal, MemWalHandle};
use ringbft_types::config::Durability;
use ringbft_types::ShardId;
use serde::{Deserialize, Serialize};

/// One typed log entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalEntry {
    /// A preprepare this replica accepted.
    Preprepare {
        /// View the preprepare belongs to.
        view: u64,
        /// Consensus sequence number.
        seq: u64,
        /// Batch digest.
        digest: Digest,
    },
    /// A sequence this replica locally committed.
    Commit {
        /// Consensus sequence number.
        seq: u64,
        /// Batch digest.
        digest: Digest,
    },
    /// The checkpoint digest this replica announced for `seq`.
    CheckpointVote {
        /// Checkpoint sequence.
        seq: u64,
        /// Announced state digest.
        digest: Digest,
    },
    /// A full state capture (compacts the log).
    CheckpointFull(Snapshot),
    /// An incremental capture chained to the previous checkpoint.
    CheckpointDelta(DeltaSnapshot),
    /// Clean-shutdown marker.
    Close,
}

impl WalEntry {
    /// The frame kind byte: stable per variant, so cheap log scans
    /// (e.g. "does the log end in a clean Close?") need no decode.
    pub fn kind(&self) -> u8 {
        match self {
            WalEntry::Preprepare { .. } => 1,
            WalEntry::Commit { .. } => 2,
            WalEntry::CheckpointVote { .. } => 3,
            WalEntry::CheckpointFull(_) => 4,
            WalEntry::CheckpointDelta(_) => 5,
            WalEntry::Close => 6,
        }
    }
}

/// Frame kind of the [`WalEntry::Close`] marker.
pub const CLOSE_KIND: u8 = 6;
const FULL_KIND: u8 = 4;
const DELTA_KIND: u8 = 5;

/// Encoded size of one [`crate::RecordEntry`]: three fixed-width `u64`s.
const RECORD_BYTES: usize = 3 * 8;
/// Records per run when a full snapshot streams into the log (48 KiB).
const FULL_STREAM_RECORDS: usize = 2048;

/// The payload of the snapshot-carrying [`WalEntry`] variant of frame
/// kind `kind`, encoded from a borrowed body: the variant tag (kinds
/// are the variant indices plus one), then the body — byte-identical to
/// serializing the owned entry, without cloning its record list.
fn encode_borrowed<T: Serialize>(kind: u8, body: &T) -> Vec<u8> {
    bincode::serialize(&(u32::from(kind) - 1, body)).expect("wal entries serialize")
}

/// What a replayed log recovers to.
#[derive(Debug, Clone, Default)]
pub struct Recovered {
    /// The last durable full snapshot, if any survived.
    pub full: Option<Snapshot>,
    /// The contiguous delta chain on top of `full` (each link's base
    /// digest verified against the running fold during replay).
    pub deltas: Vec<DeltaSnapshot>,
    /// Highest locally-committed sequence the log witnessed.
    pub durable_seq: u64,
    /// Checkpoint votes replayed, oldest first (diagnostics).
    pub votes: Vec<(u64, Digest)>,
    /// True when the log ended in a clean [`WalEntry::Close`].
    pub clean_close: bool,
    /// Entries replayed (diagnostics).
    pub entries: usize,
}

impl Recovered {
    /// Folds the recovered chain to its tip: the store, checkpoint
    /// sequence, state digest and ledger position the replica can
    /// restart from. `None` when no checkpoint survived (blank-restart
    /// semantics apply).
    ///
    /// Every delta must name, as its base, the digest of the state
    /// folded so far; the first that does not (a log written under
    /// another digest definition, a skipped window) ends the chain
    /// there — the verified prefix is an older but valid restart point,
    /// and the live top-up covers the difference. With the store's
    /// accumulator each link's check is O(1), so the whole fold is
    /// O(keys + Σ delta records).
    pub fn fold(&self, shard: ShardId) -> Option<RecoveredTip> {
        let full = self.full.as_ref()?;
        let mut store = CheckpointStore::from_records(full.records.clone());
        let mut tip = (full.seq, store.digest(shard, full.seq));
        let mut ledger = (full.ledger_height, full.ledger_head);
        let mut chain = vec![tip.1];
        for d in &self.deltas {
            if (d.base_seq, d.base_digest) != tip {
                break;
            }
            store.apply_records(&d.records);
            tip = (d.seq, store.digest(shard, d.seq));
            ledger = (d.ledger_height, d.ledger_head);
            chain.push(tip.1);
        }
        Some(RecoveredTip {
            seq: tip.0,
            digest: tip.1,
            store,
            chain,
            ledger_height: ledger.0,
            ledger_head: ledger.1,
        })
    }
}

/// The folded endpoint of a recovered checkpoint chain.
#[derive(Debug, Clone)]
pub struct RecoveredTip {
    /// Checkpoint sequence of the tip.
    pub seq: u64,
    /// Full-state digest at the tip.
    pub digest: Digest,
    /// The store at the tip.
    pub store: CheckpointStore,
    /// Full-state digest after each verified link: the full snapshot's
    /// first, then one per folded delta of [`Recovered::deltas`] (the
    /// last equals `digest`).
    pub chain: Vec<Digest>,
    /// Ledger height recorded at the tip.
    pub ledger_height: u64,
    /// Ledger head hash recorded at the tip.
    pub ledger_head: Digest,
}

/// Replays decoded byte records into a [`Recovered`] summary.
///
/// Undecodable entries terminate the replay (everything before them
/// stays recovered) — the byte layer's checksum already rules out
/// corruption, so a decode failure means a format change, and replaying
/// half-understood history would be worse than falling back to the
/// transfer path for the remainder.
pub fn replay(records: &[WalRecord]) -> Recovered {
    let mut r = Recovered::default();
    for rec in records {
        let Ok(entry) = bincode::deserialize::<WalEntry>(&rec.payload) else {
            break;
        };
        r.clean_close = false;
        r.entries += 1;
        match entry {
            WalEntry::Preprepare { .. } => {}
            WalEntry::Commit { seq, .. } => r.durable_seq = r.durable_seq.max(seq),
            WalEntry::CheckpointVote { seq, digest } => r.votes.push((seq, digest)),
            WalEntry::CheckpointFull(snap) => {
                r.full = Some(snap);
                r.deltas.clear();
            }
            WalEntry::CheckpointDelta(delta) => {
                // Chain admission mirrors the recovery manager's
                // retention: the delta must extend the current tip.
                let tip = r
                    .deltas
                    .last()
                    .map(|d| d.seq)
                    .or(r.full.as_ref().map(|f| f.seq));
                if tip == Some(delta.base_seq) {
                    r.deltas.push(delta);
                }
                // else: an unchainable delta is skipped — the retained
                // prefix (if any) remains a valid, if older, restart
                // point, and the live top-up covers the difference.
            }
            WalEntry::Close => r.clean_close = true,
        }
    }
    r
}

/// The replica-facing WAL: typed appends with the configured
/// [`Durability`] policy applied.
pub struct ReplicaWal {
    storage: Box<dyn Storage>,
    durability: Durability,
}

impl ReplicaWal {
    /// Opens the in-memory log behind `handle` (simulator path),
    /// replaying whatever the previous life of the replica left in it.
    pub fn open_mem(handle: MemWalHandle, durability: Durability) -> (ReplicaWal, Recovered) {
        let (wal, records) = MemWal::open(handle);
        (
            ReplicaWal {
                storage: Box::new(wal),
                durability,
            },
            replay(&records),
        )
    }

    /// Opens the file-backed log at `path` (real deployments).
    pub fn open_file(
        path: impl Into<std::path::PathBuf>,
        durability: Durability,
    ) -> std::io::Result<(ReplicaWal, Recovered)> {
        let (wal, records) = FileWal::open(path)?;
        Ok((
            ReplicaWal {
                storage: Box::new(wal),
                durability,
            },
            replay(&records),
        ))
    }

    /// The configured durability policy.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Appends one entry, syncing according to the durability policy
    /// (`Strict` → every append; `Batched`/`None` → deferred to
    /// [`ReplicaWal::flush`] / the host's flush timer).
    pub fn append(&mut self, entry: &WalEntry) -> std::io::Result<()> {
        let payload = bincode::serialize(entry).expect("wal entries serialize");
        self.append_payload(entry.kind(), &payload)
    }

    fn append_payload(&mut self, kind: u8, payload: &[u8]) -> std::io::Result<()> {
        self.storage.append(kind, payload)?;
        if self.durability == Durability::Strict {
            self.storage.sync()?;
        }
        Ok(())
    }

    /// Appends a full snapshot by *compacting*: the log is rewritten to
    /// hold exactly this snapshot (history before it is subsumed by the
    /// capture), atomically and durably.
    ///
    /// The entry streams into the log a run of records at a time, so
    /// the log never buffers more of its encoding than one run; the
    /// bytes are those of an appended [`WalEntry::CheckpointFull`].
    pub fn append_full(&mut self, snap: &Snapshot) -> std::io::Result<()> {
        // The derived encoding writes a struct's fields in declaration
        // order, and a list as its `u64` length followed by its
        // elements: everything up to the first record, the records, and
        // everything after them.
        let head = bincode::serialize(&(
            u32::from(FULL_KIND) - 1,
            snap.shard,
            snap.seq,
            snap.records.len() as u64,
        ))
        .expect("wal entries serialize");
        let tail = bincode::serialize(&(snap.ledger_height, snap.ledger_head))
            .expect("wal entries serialize");
        let len = head.len() + snap.records.len() * RECORD_BYTES + tail.len();
        self.storage.compact(FULL_KIND, len, &mut |out| {
            out.write_all(&head)?;
            for run in snap.records.chunks(FULL_STREAM_RECORDS) {
                // A run encodes as its length (dropped) and its records.
                let bytes = bincode::serialize(run).expect("wal entries serialize");
                out.write_all(&bytes[8..])?;
            }
            out.write_all(&tail)
        })
    }

    /// Appends a delta checkpoint (a [`WalEntry::CheckpointDelta`])
    /// without taking ownership of its record list.
    pub fn append_delta(&mut self, delta: &DeltaSnapshot) -> std::io::Result<()> {
        self.append_payload(DELTA_KIND, &encode_borrowed(DELTA_KIND, delta))
    }

    /// Forces buffered appends durable (the group-commit flush tick).
    /// No-op when nothing is pending.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.storage.dirty() {
            self.storage.sync()?;
        }
        Ok(())
    }

    /// Clean shutdown: appends the [`WalEntry::Close`] marker and
    /// syncs, so the reopened log replays with `clean_close == true`
    /// and no torn tail.
    pub fn close(&mut self) -> std::io::Result<()> {
        self.append(&WalEntry::Close)?;
        self.storage.sync()
    }

    /// Bytes currently in the log.
    pub fn len_bytes(&self) -> u64 {
        self.storage.len_bytes()
    }

    /// Syncs performed over the log's lifetime.
    pub fn syncs(&self) -> u64 {
        self.storage.syncs()
    }

    /// True when appended records await a sync.
    pub fn dirty(&self) -> bool {
        self.storage.dirty()
    }
}

impl std::fmt::Debug for ReplicaWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaWal")
            .field("durability", &self.durability)
            .field("len_bytes", &self.storage.len_bytes())
            .field("syncs", &self.storage.syncs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringbft_store::wal::scan;
    use ringbft_store::KvStore;

    fn snap_at(seq: u64, kv: &KvStore) -> Snapshot {
        Snapshot::capture(ShardId(0), seq, kv, 0, [0; 32])
    }

    fn store(keys: u64) -> KvStore {
        let mut kv = KvStore::new();
        for k in 0..keys {
            kv.put(k, k + 100);
        }
        kv
    }

    #[test]
    fn restart_replays_checkpoint_chain_and_commit_watermark() {
        let handle = MemWalHandle::new();
        let (mut wal, fresh) = ReplicaWal::open_mem(handle.clone(), Durability::Strict);
        assert!(fresh.full.is_none() && fresh.entries == 0);

        let mut kv = store(8);
        let full = snap_at(8, &kv);
        let d0 = full.digest();
        wal.append_full(&full).unwrap();
        kv.put(3, 999);
        let delta = DeltaSnapshot::capture(ShardId(0), 8, d0, 16, [3u64], &kv, 1, [1; 32]);
        wal.append_delta(&delta).unwrap();
        // The vote carries the digest the live replica maintained
        // incrementally.
        let mut live = CheckpointStore::new(&store(8));
        live.fold_window([(3, 999)]);
        wal.append(&WalEntry::CheckpointVote {
            seq: 16,
            digest: live.digest(ShardId(0), 16),
        })
        .unwrap();
        for seq in 17..=19 {
            wal.append(&WalEntry::Commit {
                seq,
                digest: [seq as u8; 32],
            })
            .unwrap();
        }

        let (_, recovered) = ReplicaWal::open_mem(handle, Durability::Strict);
        assert_eq!(recovered.durable_seq, 19);
        assert_eq!(recovered.deltas.len(), 1);
        assert!(!recovered.clean_close);
        let tip = recovered.fold(ShardId(0)).expect("chain survived");
        assert_eq!(tip.seq, 16);
        assert_eq!(
            tip.store.to_kv().state_fingerprint(),
            kv.state_fingerprint()
        );
        assert_eq!(tip.digest, Snapshot::digest_of_store(ShardId(0), 16, &kv));
        assert_eq!(
            recovered.votes,
            vec![(16, tip.digest)],
            "the replayed tip carries the digest this replica voted"
        );
        assert_eq!(tip.chain, vec![d0, tip.digest]);
    }

    #[test]
    fn borrowed_snapshot_appends_encode_like_owned_entries() {
        let mut kv = store(5);
        let full = snap_at(8, &kv);
        kv.put(2, 7);
        let delta =
            DeltaSnapshot::capture(ShardId(0), 8, full.digest(), 16, [2u64], &kv, 1, [1; 32]);
        for (entry, borrowed) in [
            (
                WalEntry::CheckpointFull(full.clone()),
                encode_borrowed(FULL_KIND, &full),
            ),
            (
                WalEntry::CheckpointDelta(delta.clone()),
                encode_borrowed(DELTA_KIND, &delta),
            ),
        ] {
            assert_eq!(bincode::serialize(&entry).unwrap(), borrowed);
            assert_eq!(bincode::deserialize::<WalEntry>(&borrowed).unwrap(), entry);
        }
        assert_eq!(WalEntry::CheckpointFull(full).kind(), FULL_KIND);
        assert_eq!(WalEntry::CheckpointDelta(delta).kind(), DELTA_KIND);
    }

    #[test]
    fn streamed_full_snapshot_frame_equals_the_appended_entry() {
        // More records than one streamed run, and a partial last run.
        let mut kv = store(2 * FULL_STREAM_RECORDS as u64 + 5);
        kv.put(17, 3);
        let full = Snapshot::capture(ShardId(3), 64, &kv, 9, [4; 32]);
        // The frame an append of the whole encoded entry writes.
        let expected = {
            let handle = MemWalHandle::new();
            let (mut plain, _) = MemWal::open(handle.clone());
            plain
                .append(FULL_KIND, &encode_borrowed(FULL_KIND, &full))
                .unwrap();
            handle.bytes()
        };
        assert_eq!(
            bincode::serialize(&full.records[..1]).unwrap().len(),
            8 + RECORD_BYTES
        );

        let handle = MemWalHandle::new();
        let (mut wal, _) = ReplicaWal::open_mem(handle.clone(), Durability::Strict);
        wal.append(&WalEntry::Commit {
            seq: 1,
            digest: [1; 32],
        })
        .unwrap();
        wal.append_full(&full).unwrap();
        assert_eq!(handle.bytes(), expected, "MemWal frame");

        let dir =
            std::env::temp_dir().join(format!("ringbft-streamed-full-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("replica.wal");
        let (mut wal, _) = ReplicaWal::open_file(&path, Durability::Strict).unwrap();
        wal.append(&WalEntry::Commit {
            seq: 1,
            digest: [1; 32],
        })
        .unwrap();
        wal.append_full(&full).unwrap();
        assert_eq!(wal.len_bytes(), expected.len() as u64);
        drop(wal);
        assert_eq!(std::fs::read(&path).unwrap(), expected, "FileWal frame");
        let (_, recovered) = ReplicaWal::open_file(&path, Durability::Strict).unwrap();
        assert_eq!(recovered.entries, 1);
        assert_eq!(recovered.full.as_ref(), Some(&full));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_chained_to_another_digest_ends_the_fold() {
        // A log whose links were chained under a different digest
        // definition (or a corrupted base): the sequence numbers line
        // up, so replay keeps the delta, but the fold refuses it.
        let handle = MemWalHandle::new();
        let (mut wal, _) = ReplicaWal::open_mem(handle.clone(), Durability::Strict);
        let mut kv = store(4);
        wal.append_full(&snap_at(8, &kv)).unwrap();
        kv.put(1, 5);
        let delta = DeltaSnapshot::capture(ShardId(0), 8, [7; 32], 16, [1u64], &kv, 0, [0; 32]);
        wal.append_delta(&delta).unwrap();
        let (_, recovered) = ReplicaWal::open_mem(handle, Durability::Strict);
        assert_eq!(recovered.deltas.len(), 1);
        let tip = recovered.fold(ShardId(0)).expect("full survives");
        assert_eq!(tip.seq, 8);
        assert_eq!(tip.chain.len(), 1);
        assert_eq!(
            tip.store.to_kv().state_fingerprint(),
            store(4).state_fingerprint()
        );
    }

    #[test]
    fn full_capture_compacts_the_log() {
        let handle = MemWalHandle::new();
        let (mut wal, _) = ReplicaWal::open_mem(handle.clone(), Durability::Strict);
        for seq in 1..=100 {
            wal.append(&WalEntry::Commit {
                seq,
                digest: [0; 32],
            })
            .unwrap();
        }
        let grown = wal.len_bytes();
        let kv = store(4);
        wal.append_full(&snap_at(128, &kv)).unwrap();
        assert!(
            wal.len_bytes() < grown,
            "compaction shrinks the log: {} vs {grown}",
            wal.len_bytes()
        );
        let (_, recovered) = ReplicaWal::open_mem(handle, Durability::Strict);
        assert_eq!(recovered.entries, 1, "only the full snapshot remains");
        assert_eq!(recovered.durable_seq, 0, "old commit markers subsumed");
        assert_eq!(recovered.fold(ShardId(0)).unwrap().seq, 128);
    }

    #[test]
    fn batched_mode_defers_sync_and_crash_drops_tail() {
        let handle = MemWalHandle::new();
        let (mut wal, _) = ReplicaWal::open_mem(handle.clone(), Durability::Batched(50));
        let kv = store(4);
        wal.append_full(&snap_at(8, &kv)).unwrap(); // compaction always syncs
        wal.append(&WalEntry::Commit {
            seq: 9,
            digest: [9; 32],
        })
        .unwrap();
        assert!(wal.dirty(), "batched append defers the sync");
        wal.flush().unwrap();
        assert!(!wal.dirty());
        wal.append(&WalEntry::Commit {
            seq: 10,
            digest: [10; 32],
        })
        .unwrap();
        // Power loss before the next flush tick: seq 10 is gone, 9 is
        // durable.
        handle.crash();
        let (_, recovered) = ReplicaWal::open_mem(handle, Durability::Batched(50));
        assert_eq!(recovered.durable_seq, 9);
    }

    #[test]
    fn close_marks_clean_shutdown_and_nothing_after_it() {
        let handle = MemWalHandle::new();
        let (mut wal, _) = ReplicaWal::open_mem(handle.clone(), Durability::None);
        wal.append(&WalEntry::Commit {
            seq: 1,
            digest: [1; 32],
        })
        .unwrap();
        wal.close().unwrap();
        assert!(!wal.dirty(), "close syncs everything");
        // The raw log's final frame is the Close marker.
        let (records, _) = scan(&handle.bytes());
        assert_eq!(records.last().unwrap().kind, CLOSE_KIND);
        let (_, recovered) = ReplicaWal::open_mem(handle, Durability::None);
        assert!(recovered.clean_close);
        assert_eq!(recovered.durable_seq, 1);
    }

    #[test]
    fn unchainable_delta_is_skipped_not_folded() {
        let handle = MemWalHandle::new();
        let (mut wal, _) = ReplicaWal::open_mem(handle.clone(), Durability::Strict);
        let kv = store(4);
        wal.append_full(&snap_at(8, &kv)).unwrap();
        // A delta whose base is NOT the snapshot we hold: replay must
        // not fold it — the stale full stays the (older) restart point.
        let delta = DeltaSnapshot::capture(ShardId(0), 16, [7; 32], 24, [1u64], &kv, 0, [0; 32]);
        wal.append_delta(&delta).unwrap();
        let (_, recovered) = ReplicaWal::open_mem(handle, Durability::Strict);
        assert!(recovered.deltas.is_empty(), "broken link skipped");
        let tip = recovered.fold(ShardId(0)).expect("full survives");
        assert_eq!(tip.seq, 8);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use ringbft_store::KvStore;

    proptest! {
        /// Torn-tail, typed edition: flip any byte inside the final
        /// frame of a replica log and recovery still reproduces the
        /// state of the previous durable record.
        #[test]
        fn corrupt_typed_tail_recovers_previous_state(
            commits in 1u64..24,
            flip_at in any::<usize>(),
            flip_bit in 0u8..8,
        ) {
            let handle = MemWalHandle::new();
            let (mut wal, _) = ReplicaWal::open_mem(handle.clone(), Durability::Strict);
            let mut kv = KvStore::new();
            for k in 0..6u64 {
                kv.put(k, k * 11 + 1);
            }
            let full = Snapshot::capture(ShardId(0), 8, &kv, 0, [0; 32]);
            wal.append_full(&full).unwrap();
            for seq in 0..commits {
                wal.append(&WalEntry::Commit { seq: 9 + seq, digest: [seq as u8; 32] }).unwrap();
            }
            let clean = handle.bytes();
            let (records, _) = ringbft_store::wal::scan(&clean);
            let last_len = {
                let last = records.last().expect("records present");
                // frame = header(13) + payload
                13 + last.payload.len()
            };
            let mut bytes = clean.clone();
            let tail_start = bytes.len() - last_len;
            let victim = tail_start + flip_at % last_len;
            bytes[victim] ^= 1 << flip_bit;
            handle.set_bytes(bytes);
            let (_, recovered) = ReplicaWal::open_mem(handle, Durability::Strict);
            // All but the final commit marker replayed.
            prop_assert_eq!(
                recovered.durable_seq,
                if commits >= 2 { 9 + commits - 2 } else { 0 }
            );
            let tip = recovered.fold(ShardId(0)).expect("checkpoint survives");
            prop_assert_eq!(tip.seq, 8);
            prop_assert_eq!(tip.store.to_kv().state_fingerprint(), kv.state_fingerprint());
        }
    }
}
