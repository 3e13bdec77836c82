//! The write-ahead log substrate: an append-only record log with
//! explicit durability boundaries, behind the [`Storage`] trait so the
//! replica's persistence hooks are backend-agnostic.
//!
//! Two backends ship:
//!
//! * [`MemWal`] — an in-memory log backed by a shared [`MemWalHandle`],
//!   used by the deterministic simulator. The handle survives the node
//!   it is attached to, and [`MemWalHandle::crash`] models a power-loss
//!   kill -9: everything past the last `sync` watermark is discarded,
//!   exactly the bytes a real disk may lose.
//! * [`FileWal`] — a real file. `append` writes through to the OS file
//!   (surviving a process kill), `sync` calls `fdatasync` (surviving
//!   power loss), and `open` replays the existing log, truncating a
//!   torn tail.
//!
//! ## Record framing
//!
//! Every record is framed as
//!
//! ```text
//! [len: u32 LE][checksum: u64 LE][kind: u8][payload: len bytes]
//! ```
//!
//! where the checksum covers `len`, `kind` *and* the payload. Replay
//! scans from the start and stops at the first frame that is
//! incomplete or fails its checksum — the *torn tail* a crash mid-write
//! leaves behind. The torn suffix is truncated, never replayed: a
//! record is either durable in full or it never happened.
//!
//! ## Compaction
//!
//! [`Storage::compact`] replaces the whole log with one record, the
//! replica's full checkpoint snapshot. Its payload is streamed: the
//! caller writes it piecewise into the log's new contents while the
//! frame checksum is computed on the way through, and the header's
//! checksum is patched in at the end. The frame is byte-identical to an
//! appended one, and neither the payload nor the frame is ever held in
//! a buffer of its own.

use std::fs;
use std::io::{self, Read as _, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Frame header bytes: `len (4) + checksum (8) + kind (1)`.
const FRAME_HEADER: usize = 4 + 8 + 1;

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Record kind tag (meaning assigned by the layer above).
    pub kind: u8,
    /// Opaque payload.
    pub payload: Vec<u8>,
}

/// A cheap deterministic 64-bit mixer (splitmix64 finalizer) — the same
/// construction `KvStore::state_fingerprint` uses.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Per-record checksum over `(len, kind, payload)`, fed incrementally
/// so a frame can be checksummed while its payload streams past. Not
/// cryptographic — the WAL is a local-integrity device (torn writes,
/// bit rot), not a trust boundary; state fetched from peers is verified
/// against quorum-stable SHA-256 digests instead.
///
/// The payload is mixed in 8-byte little-endian words, the last one
/// zero-padded, however its bytes were split across
/// [`Checksum::update`] calls.
struct Checksum {
    h: u64,
    /// The current word, of which `filled` bytes have arrived.
    word: [u8; 8],
    filled: usize,
    /// Payload bytes fed so far.
    fed: usize,
}

impl Checksum {
    fn new(kind: u8, len: usize) -> Checksum {
        Checksum {
            h: mix(
                0x57414c_u64, // "WAL"
                (len as u64) << 8 | kind as u64,
            ),
            word: [0; 8],
            filled: 0,
            fed: 0,
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.fed += bytes.len();
        if self.filled > 0 {
            let take = (8 - self.filled).min(bytes.len());
            self.word[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled < 8 {
                return;
            }
            self.h = mix(self.h, u64::from_le_bytes(self.word));
            self.filled = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.h = mix(self.h, u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        self.word[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    fn finish(mut self) -> u64 {
        if self.filled > 0 {
            self.word[self.filled..].fill(0);
            self.h = mix(self.h, u64::from_le_bytes(self.word));
        }
        self.h
    }
}

/// The checksum of a whole payload.
fn checksum(kind: u8, payload: &[u8]) -> u64 {
    let mut sum = Checksum::new(kind, payload.len());
    sum.update(payload);
    sum.finish()
}

/// Encodes one framed record.
fn encode(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&checksum(kind, payload).to_le_bytes());
    frame.push(kind);
    frame.extend_from_slice(payload);
    frame
}

/// Writes one record's payload, in as many pieces as it likes, into the
/// log (the payload argument of [`Storage::compact`]).
pub type PayloadWriter<'a> = dyn FnMut(&mut dyn Write) -> io::Result<()> + 'a;

/// Forwards payload bytes to the log while checksumming them.
struct Checksummed<'a, W> {
    out: &'a mut W,
    sum: Checksum,
}

impl<W: Write> Write for Checksummed<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.out.write(buf)?;
        self.sum.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Streams one framed record into `out` at its current position and
/// returns the frame's length. The header goes out with a zero
/// checksum, `payload` writes its `len` bytes through the running
/// checksum, and the checksum is then patched into the header: the
/// bytes equal `encode(kind, ..)` of the same payload, and the payload
/// is never buffered whole.
fn write_frame<W: Write + Seek>(
    out: &mut W,
    kind: u8,
    len: usize,
    payload: &mut PayloadWriter<'_>,
) -> io::Result<u64> {
    let len32 = u32::try_from(len)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "payload exceeds a frame"))?;
    let start = out.stream_position()?;
    out.write_all(&len32.to_le_bytes())?;
    out.write_all(&[0; 8])?;
    out.write_all(&[kind])?;
    let mut body = Checksummed {
        out: &mut *out,
        sum: Checksum::new(kind, len),
    };
    payload(&mut body)?;
    let sum = body.sum;
    if sum.fed != len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("payload wrote {} bytes, declared {len}", sum.fed),
        ));
    }
    let end = out.stream_position()?;
    out.seek(SeekFrom::Start(start + 4))?;
    out.write_all(&sum.finish().to_le_bytes())?;
    out.seek(SeekFrom::Start(end))?;
    Ok(end - start)
}

/// Scans `bytes` for the longest valid record prefix. Returns the
/// decoded records and the byte length of the valid prefix; everything
/// past it is a torn tail to truncate.
pub fn scan(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while bytes.len() - at >= FRAME_HEADER {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let Some(end) = at.checked_add(FRAME_HEADER + len) else {
            break;
        };
        if end > bytes.len() {
            break; // incomplete frame: torn tail
        }
        let sum = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8 bytes"));
        let kind = bytes[at + 12];
        let payload = &bytes[at + FRAME_HEADER..end];
        if checksum(kind, payload) != sum {
            break; // corrupt frame: torn tail
        }
        records.push(WalRecord {
            kind,
            payload: payload.to_vec(),
        });
        at = end;
    }
    (records, at)
}

/// An append-only record log with explicit durability boundaries.
///
/// `append` buffers a record into the log; `sync` makes everything
/// appended so far durable (fsync, or the simulator's modeled
/// equivalent). What "a crash loses" is backend-specific: [`FileWal`]
/// keeps non-synced appends across a *process* kill (the OS holds
/// them), while [`MemWalHandle::crash`] models the stricter power-loss
/// contract where only synced bytes survive.
pub trait Storage: Send {
    /// Appends one record. Durable only after the next [`Storage::sync`].
    fn append(&mut self, kind: u8, payload: &[u8]) -> std::io::Result<()>;

    /// Makes every appended record durable.
    fn sync(&mut self) -> std::io::Result<()>;

    /// Number of syncs performed over the log's lifetime.
    fn syncs(&self) -> u64;

    /// Bytes currently in the log (framing included).
    fn len_bytes(&self) -> u64;

    /// True when at least one append happened since the last sync.
    fn dirty(&self) -> bool;

    /// Atomically replaces the log's contents with one record and syncs
    /// (checkpoint compaction). On `Ok` the log holds exactly that
    /// record, durably; on `Err` it still holds what it held before.
    ///
    /// The record is `kind` with a `len`-byte payload that `payload`
    /// writes. The payload streams into the log's new contents, its
    /// checksum computed on the way through, so a compaction of a large
    /// snapshot never holds the encoded payload, nor its frame, in a
    /// buffer of its own. Writing other than exactly `len` bytes fails
    /// the compaction.
    fn compact(
        &mut self,
        kind: u8,
        len: usize,
        payload: &mut PayloadWriter<'_>,
    ) -> std::io::Result<()>;
}

// ---------------------------------------------------------------------
// In-memory backend (simulator)
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct MemInner {
    bytes: Vec<u8>,
    /// Durable watermark: everything below survives [`MemWalHandle::crash`].
    synced: usize,
    syncs: u64,
}

/// The shared buffer behind a [`MemWal`]: clone-cheap, survives the
/// node that writes to it, so a simulated restart can reopen the log
/// the crashed node left behind.
#[derive(Debug, Clone, Default)]
pub struct MemWalHandle(Arc<Mutex<MemInner>>);

impl MemWalHandle {
    /// Fresh empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Models a power-loss crash: discards every byte past the last
    /// sync watermark. Always lands on a record boundary because the
    /// watermark is only ever advanced by `sync`.
    pub fn crash(&self) {
        let mut inner = self.0.lock().expect("wal lock");
        let synced = inner.synced;
        inner.bytes.truncate(synced);
    }

    /// Bytes currently in the log (diagnostics).
    pub fn len_bytes(&self) -> u64 {
        self.0.lock().expect("wal lock").bytes.len() as u64
    }

    /// Syncs performed over the log's lifetime (modeled fsync count).
    pub fn syncs(&self) -> u64 {
        self.0.lock().expect("wal lock").syncs
    }

    /// Raw log bytes (test corruption hooks).
    pub fn bytes(&self) -> Vec<u8> {
        self.0.lock().expect("wal lock").bytes.clone()
    }

    /// Replaces the raw log bytes (test corruption hooks); marks
    /// everything present as synced.
    pub fn set_bytes(&self, bytes: Vec<u8>) {
        let mut inner = self.0.lock().expect("wal lock");
        inner.synced = bytes.len();
        inner.bytes = bytes;
    }
}

/// In-memory [`Storage`] backend over a shared [`MemWalHandle`].
#[derive(Debug)]
pub struct MemWal {
    handle: MemWalHandle,
}

impl MemWal {
    /// Opens the log in `handle`: validates the existing bytes,
    /// truncates any torn tail, and returns the backend plus the valid
    /// records for replay.
    pub fn open(handle: MemWalHandle) -> (MemWal, Vec<WalRecord>) {
        let records = {
            let mut inner = handle.0.lock().expect("wal lock");
            let (records, valid) = scan(&inner.bytes);
            inner.bytes.truncate(valid);
            inner.synced = inner.synced.min(valid);
            records
        };
        (MemWal { handle }, records)
    }
}

impl Storage for MemWal {
    fn append(&mut self, kind: u8, payload: &[u8]) -> std::io::Result<()> {
        let frame = encode(kind, payload);
        self.handle
            .0
            .lock()
            .expect("wal lock")
            .bytes
            .extend_from_slice(&frame);
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let mut inner = self.handle.0.lock().expect("wal lock");
        inner.synced = inner.bytes.len();
        inner.syncs += 1;
        Ok(())
    }

    fn syncs(&self) -> u64 {
        self.handle.syncs()
    }

    fn len_bytes(&self) -> u64 {
        self.handle.len_bytes()
    }

    fn dirty(&self) -> bool {
        let inner = self.handle.0.lock().expect("wal lock");
        inner.bytes.len() > inner.synced
    }

    fn compact(
        &mut self,
        kind: u8,
        len: usize,
        payload: &mut PayloadWriter<'_>,
    ) -> std::io::Result<()> {
        // Built beside the old contents and swapped in whole, so a
        // failed payload leaves the log as it was.
        let mut log = io::Cursor::new(Vec::with_capacity(FRAME_HEADER + len));
        write_frame(&mut log, kind, len, payload)?;
        let bytes = log.into_inner();
        let mut inner = self.handle.0.lock().expect("wal lock");
        inner.synced = bytes.len();
        inner.bytes = bytes;
        inner.syncs += 1;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// File backend
// ---------------------------------------------------------------------

/// File-backed [`Storage`] backend.
#[derive(Debug)]
pub struct FileWal {
    path: PathBuf,
    file: fs::File,
    len: u64,
    dirty: bool,
    syncs: u64,
}

impl FileWal {
    /// Opens (or creates) the log at `path`: replays the existing
    /// bytes, truncates any torn tail off the file, and returns the
    /// backend positioned for append plus the valid records.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<(FileWal, Vec<WalRecord>)> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid) = scan(&bytes);
        if valid < bytes.len() {
            // Torn tail: cut it off so the next append extends a clean
            // record boundary.
            file.set_len(valid as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid as u64))?;
        Ok((
            FileWal {
                path,
                file,
                len: valid as u64,
                dirty: false,
                syncs: 0,
            },
            records,
        ))
    }

    /// The path this log lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Storage for FileWal {
    fn append(&mut self, kind: u8, payload: &[u8]) -> std::io::Result<()> {
        let frame = encode(kind, payload);
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        self.dirty = true;
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()?;
        self.dirty = false;
        self.syncs += 1;
        Ok(())
    }

    fn syncs(&self) -> u64 {
        self.syncs
    }

    fn len_bytes(&self) -> u64 {
        self.len
    }

    fn dirty(&self) -> bool {
        self.dirty
    }

    fn compact(
        &mut self,
        kind: u8,
        len: usize,
        payload: &mut PayloadWriter<'_>,
    ) -> std::io::Result<()> {
        // Write-new / fsync / rename-over: the log is never in a state
        // where a crash leaves neither the old nor the new contents. A
        // compaction that fails before the rename leaves the old log
        // in place and the open file handle on it.
        let tmp = self.path.with_extension("wal.tmp");
        let written = (|| -> io::Result<u64> {
            let mut out = io::BufWriter::new(fs::File::create(&tmp)?);
            let len = write_frame(&mut out, kind, len, payload)?;
            out.into_inner().map_err(|e| e.into_error())?.sync_data()?;
            Ok(len)
        })();
        let len = match written {
            Ok(len) => len,
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                return Err(e);
            }
        };
        fs::rename(&tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                if let Ok(d) = fs::File::open(dir) {
                    let _ = d.sync_all(); // durability of the rename itself
                }
            }
        }
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.len = len;
        self.dirty = false;
        self.syncs += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records_of(bytes: &[(u8, Vec<u8>)]) -> Vec<WalRecord> {
        bytes
            .iter()
            .map(|(kind, payload)| WalRecord {
                kind: *kind,
                payload: payload.clone(),
            })
            .collect()
    }

    #[test]
    fn mem_wal_round_trips_records() {
        let handle = MemWalHandle::new();
        let (mut wal, replayed) = MemWal::open(handle.clone());
        assert!(replayed.is_empty());
        wal.append(1, b"alpha").unwrap();
        wal.append(2, b"").unwrap();
        wal.append(3, &[0xFF; 100]).unwrap();
        wal.sync().unwrap();
        let (_, replayed) = MemWal::open(handle);
        assert_eq!(
            replayed,
            records_of(&[
                (1, b"alpha".to_vec()),
                (2, Vec::new()),
                (3, vec![0xFF; 100])
            ])
        );
    }

    #[test]
    fn mem_wal_crash_discards_unsynced_suffix() {
        let handle = MemWalHandle::new();
        let (mut wal, _) = MemWal::open(handle.clone());
        wal.append(1, b"durable").unwrap();
        wal.sync().unwrap();
        wal.append(2, b"lost").unwrap();
        assert!(wal.dirty());
        handle.crash();
        let (wal, replayed) = MemWal::open(handle);
        assert_eq!(replayed, records_of(&[(1, b"durable".to_vec())]));
        assert!(!wal.dirty());
    }

    #[test]
    fn torn_tail_is_truncated_not_replayed() {
        let handle = MemWalHandle::new();
        let (mut wal, _) = MemWal::open(handle.clone());
        wal.append(1, b"first").unwrap();
        wal.append(2, b"second").unwrap();
        wal.sync().unwrap();
        // Tear the final record: drop its last byte.
        let mut bytes = handle.bytes();
        bytes.pop();
        handle.set_bytes(bytes);
        let (_, replayed) = MemWal::open(handle.clone());
        assert_eq!(replayed, records_of(&[(1, b"first".to_vec())]));
        // The reopen truncated the torn bytes off the log itself.
        let (_, valid) = scan(&handle.bytes());
        assert_eq!(valid as u64, handle.len_bytes());
    }

    #[test]
    fn compact_replaces_contents() {
        let handle = MemWalHandle::new();
        let (mut wal, _) = MemWal::open(handle.clone());
        for i in 0..10u8 {
            wal.append(i, &[i; 16]).unwrap();
        }
        wal.compact(7, 4, &mut |out| out.write_all(b"only"))
            .unwrap();
        assert!(!wal.dirty());
        let (_, replayed) = MemWal::open(handle);
        assert_eq!(replayed, records_of(&[(7, b"only".to_vec())]));
    }

    #[test]
    fn file_wal_survives_reopen_and_truncates_torn_tail() {
        let dir = std::env::temp_dir().join(format!("ringbft-wal-test-{}", std::process::id()));
        let path = dir.join("replica.wal");
        let _ = fs::remove_file(&path);
        {
            let (mut wal, replayed) = FileWal::open(&path).unwrap();
            assert!(replayed.is_empty());
            wal.append(1, b"one").unwrap();
            wal.append(2, b"two").unwrap();
            wal.sync().unwrap();
            assert_eq!(wal.syncs(), 1);
        }
        // Clean reopen: both records replay.
        {
            let (wal, replayed) = FileWal::open(&path).unwrap();
            assert_eq!(
                replayed,
                records_of(&[(1, b"one".to_vec()), (2, b"two".to_vec())])
            );
            assert_eq!(wal.len_bytes(), fs::metadata(&path).unwrap().len());
        }
        // Tear the tail on disk: flip a payload byte of the last record.
        {
            let mut bytes = fs::read(&path).unwrap();
            let n = bytes.len();
            bytes[n - 1] ^= 0x40;
            fs::write(&path, &bytes).unwrap();
        }
        {
            let (mut wal, replayed) = FileWal::open(&path).unwrap();
            assert_eq!(replayed, records_of(&[(1, b"one".to_vec())]));
            // And appending after the truncation produces a clean log.
            wal.append(3, b"three").unwrap();
            wal.sync().unwrap();
        }
        {
            let (_, replayed) = FileWal::open(&path).unwrap();
            assert_eq!(
                replayed,
                records_of(&[(1, b"one".to_vec()), (3, b"three".to_vec())])
            );
        }
        // Compaction rewrites the file atomically.
        {
            let (mut wal, _) = FileWal::open(&path).unwrap();
            wal.compact(9, 4, &mut |out| out.write_all(b"base"))
                .unwrap();
            wal.append(4, b"delta").unwrap();
            wal.sync().unwrap();
        }
        {
            let (_, replayed) = FileWal::open(&path).unwrap();
            assert_eq!(
                replayed,
                records_of(&[(9, b"base".to_vec()), (4, b"delta".to_vec())])
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A scratch directory for one file-backed test.
    pub(super) fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ringbft-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn file_compaction_that_stops_before_its_rename_keeps_the_previous_log() {
        let dir = test_dir("wal-stopped-compaction");
        let path = dir.join("replica.wal");
        let tmp = path.with_extension("wal.tmp");
        let (mut wal, _) = FileWal::open(&path).unwrap();
        wal.append(1, b"base").unwrap();
        wal.append(2, b"delta").unwrap();
        wal.sync().unwrap();
        let before = fs::read(&path).unwrap();
        // A payload that fails halfway through, and one that writes
        // fewer bytes than it declared: both stop before the rename.
        let failing = wal.compact(9, 64, &mut |out| {
            out.write_all(&[7; 32])?;
            Err(io::Error::other("capture failed"))
        });
        assert_eq!(failing.unwrap_err().to_string(), "capture failed");
        let short = wal.compact(9, 64, &mut |out| out.write_all(&[7; 63]));
        assert_eq!(short.unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert!(!tmp.exists(), "a stopped compaction removes its new file");
        assert_eq!(fs::read(&path).unwrap(), before);
        assert_eq!(wal.len_bytes(), before.len() as u64);
        // The handle still appends to the previous log.
        wal.append(3, b"tail").unwrap();
        wal.sync().unwrap();
        drop(wal);
        // A crash between writing the new file and renaming it leaves
        // a stray temporary file, which replay ignores.
        fs::write(&tmp, encode(9, b"never renamed")).unwrap();
        let (_, replayed) = FileWal::open(&path).unwrap();
        assert_eq!(
            replayed,
            records_of(&[
                (1, b"base".to_vec()),
                (2, b"delta".to_vec()),
                (3, b"tail".to_vec())
            ])
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_compaction_with_a_failing_payload_keeps_the_previous_log() {
        let handle = MemWalHandle::new();
        let (mut wal, _) = MemWal::open(handle.clone());
        wal.append(1, b"base").unwrap();
        wal.sync().unwrap();
        let before = handle.bytes();
        let failing = wal.compact(9, 8, &mut |out| {
            out.write_all(b"half")?;
            Err(io::Error::other("capture failed"))
        });
        assert!(failing.is_err());
        assert!(wal
            .compact(9, 8, &mut |out| out.write_all(b"too long!"))
            .is_err());
        assert_eq!(handle.bytes(), before);
        assert_eq!(wal.syncs(), 1);
    }

    #[test]
    fn empty_and_garbage_logs_scan_to_nothing() {
        assert_eq!(scan(&[]).1, 0);
        let garbage = vec![0xAB; 7]; // shorter than a header
        assert_eq!(scan(&garbage), (Vec::new(), 0));
        // A header-sized run of random bytes fails its checksum.
        let garbage = vec![0x11; 64];
        assert_eq!(scan(&garbage), (Vec::new(), 0));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests::test_dir;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Torn-tail contract: flipping any single byte anywhere inside
        /// the *final* record's frame makes replay stop exactly at the
        /// previous record — recovery succeeds from the durable prefix,
        /// and the corrupt tail is never replayed.
        #[test]
        fn corrupt_tail_byte_recovers_previous_records(
            payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..8),
            flip_at in any::<usize>(),
            flip_bit in 0u8..8,
        ) {
            let handle = MemWalHandle::new();
            let (mut wal, _) = MemWal::open(handle.clone());
            for (i, p) in payloads.iter().enumerate() {
                wal.append(i as u8, p).unwrap();
            }
            wal.sync().unwrap();
            let mut bytes = handle.bytes();
            // Frame boundary of the last record.
            let last_frame = FRAME_HEADER + payloads.last().expect("non-empty").len();
            let tail_start = bytes.len() - last_frame;
            let victim = tail_start + flip_at % last_frame;
            bytes[victim] ^= 1 << flip_bit;
            handle.set_bytes(bytes);
            let (_, replayed) = MemWal::open(handle);
            prop_assert_eq!(replayed.len(), payloads.len() - 1, "tail never replayed");
            for (i, rec) in replayed.iter().enumerate() {
                prop_assert_eq!(rec.kind, i as u8);
                prop_assert_eq!(&rec.payload, &payloads[i]);
            }
        }

        /// The incremental checksum, fed in arbitrary pieces, is the
        /// word-by-word definition the log format fixes.
        #[test]
        fn checksum_is_the_word_by_word_definition(
            payload in proptest::collection::vec(any::<u8>(), 0..100),
            cut in any::<usize>(),
            kind in any::<u8>(),
        ) {
            let mut h = mix(0x57414c_u64, (payload.len() as u64) << 8 | kind as u64);
            for chunk in payload.chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                h = mix(h, u64::from_le_bytes(word));
            }
            let (a, b) = payload.split_at(cut % (payload.len() + 1));
            let mut sum = Checksum::new(kind, payload.len());
            sum.update(a);
            sum.update(b);
            prop_assert_eq!(sum.finish(), h);
        }

        /// A compaction whose payload arrives in arbitrary pieces
        /// writes exactly the frame an append of the whole payload
        /// writes, on both backends, and the file backend's reopen
        /// replays it.
        #[test]
        fn streamed_compaction_writes_the_appended_frame(
            payload in proptest::collection::vec(any::<u8>(), 0..300),
            cuts in proptest::collection::vec(any::<usize>(), 0..6),
            kind in any::<u8>(),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (payload.len() + 1)).collect();
            cuts.push(0);
            cuts.push(payload.len());
            cuts.sort_unstable();
            let mut pieces = |out: &mut dyn Write| {
                for w in cuts.windows(2) {
                    out.write_all(&payload[w[0]..w[1]])?;
                }
                Ok(())
            };
            let frame = encode(kind, &payload);

            let handle = MemWalHandle::new();
            let (mut wal, _) = MemWal::open(handle.clone());
            wal.append(1, b"replaced").unwrap();
            wal.compact(kind, payload.len(), &mut pieces).unwrap();
            prop_assert_eq!(handle.bytes(), frame.clone());
            prop_assert_eq!(wal.len_bytes(), frame.len() as u64);

            let dir = test_dir("wal-streamed-compaction");
            let path = dir.join("replica.wal");
            let (mut wal, _) = FileWal::open(&path).unwrap();
            wal.append(1, b"replaced").unwrap();
            wal.compact(kind, payload.len(), &mut pieces).unwrap();
            prop_assert_eq!(wal.len_bytes(), frame.len() as u64);
            drop(wal);
            prop_assert_eq!(fs::read(&path).unwrap(), frame);
            let (_, replayed) = FileWal::open(&path).unwrap();
            prop_assert_eq!(replayed, vec![WalRecord { kind, payload: payload.clone() }]);
            let _ = fs::remove_dir_all(&dir);
        }

        /// Replay is the identity on whatever record sequence was
        /// appended, across sync boundaries.
        #[test]
        fn replay_round_trips(
            payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..128), 0..16),
        ) {
            let handle = MemWalHandle::new();
            let (mut wal, _) = MemWal::open(handle.clone());
            for (i, p) in payloads.iter().enumerate() {
                wal.append((i % 251) as u8, p).unwrap();
                if i % 3 == 0 {
                    wal.sync().unwrap();
                }
            }
            wal.sync().unwrap();
            let (_, replayed) = MemWal::open(handle);
            prop_assert_eq!(replayed.len(), payloads.len());
            for (i, rec) in replayed.iter().enumerate() {
                prop_assert_eq!(rec.kind, (i % 251) as u8);
                prop_assert_eq!(&rec.payload, &payloads[i]);
            }
        }
    }
}
