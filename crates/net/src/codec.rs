//! Length-prefixed, MAC-authenticated binary framing for protocol
//! messages on real sockets.
//!
//! Every frame is a fixed 12-byte header, a 9-byte destination address,
//! a 32-byte HMAC-SHA256 authenticator, and a bincode-encoded
//! peer-independent body (sender + message + trace):
//!
//! ```text
//! +--------+---------+-------+----------+--------+-------+--------------------------+
//! | magic  | version | flags | body len | addr   | mac   | bincode(from, msg, trace)|
//! | u32 LE | u16 LE  | u16LE | u32 LE   | 9 B    | 32 B  | `body len` bytes         |
//! +--------+---------+-------+----------+--------+-------+--------------------------+
//! ```
//!
//! The header is versioned so future PRs can evolve the body encoding
//! (compression, signatures) without breaking running clusters mid-
//! upgrade: a decoder rejects frames whose `version` it does not speak
//! instead of misparsing them. Version 2 introduced the authenticator.
//!
//! Since v6 the destination is *not* part of the body: a broadcast
//! serializes its payload exactly once ([`encode_body`]) and stamps a
//! fresh fixed-size prefix — header, address, MAC — per destination
//! ([`frame_prefix`]). The encoded body bytes are shared (`Arc`) across
//! every peer queue, so an N-way fan-out pays one bincode encode
//! instead of N.
//!
//! The MAC implements the paper's §3 authenticated channels with the
//! pairwise keys of [`ringbft_crypto::KeyStore`]: a data frame is tagged
//! under the `{from, to}` pair key, a [`Hello`] under the
//! `{sender, receiver}` pair key. The address bytes are covered by the
//! MAC alongside the body, so per-peer addressing is authenticated even
//! though it sits outside the shared body. A frame whose MAC does not
//! verify is rejected ([`CodecError::BadMac`]) and the connection is
//! dropped — matching the simulator, which charges the same per-message
//! hash cost in its CPU model.
//!
//! The body length is bounded by [`MAX_FRAME_BYTES`]; the bound is
//! derived from the same size model the simulator charges for bandwidth
//! (`ringbft_types::wire`): the largest legitimate message is a Forward
//! carrying a full batch plus its certificate, so the cap leaves two
//! orders of magnitude of headroom above the paper's standard settings
//! while still refusing absurd allocations from corrupt peers.

use ringbft_crypto::KeyStore;
use ringbft_types::wire;
use ringbft_types::{ClientId, NodeId, ReplicaId, ShardId, TraceContext};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Frame magic: `"RBFT"` little-endian.
pub const MAGIC: u32 = u32::from_le_bytes(*b"RBFT");

/// Current frame version (2 = MAC-authenticated frames; 3 = hole-fetch
/// messages added to the recovery vocabulary; 4 = delta state transfer —
/// `StateRequest` gained the requester's base, `StatePlan` replaced the
/// `StateDone` trailer, and `StateChunk` is chain-link framed; 5 =
/// causal tracing — the envelope gained an optional
/// [`TraceContext`](ringbft_types::TraceContext) and transactions carry
/// an optional trace field, so older peers must not decode v5 bodies;
/// 6 = serialize-once fan-out — the destination moved out of the body
/// into a fixed 9-byte address field between the header and the MAC, so
/// a broadcast's body bytes are identical for every destination).
pub const VERSION: u16 = 6;

/// Bytes of the fixed frame header (excluding address + authenticator).
pub const HEADER_BYTES: usize = 12;

/// Bytes of the destination address following the header (v6): a 1-byte
/// node-kind tag and an 8-byte payload (replica: shard + index as two
/// `u32` LE; client: one `u64` LE).
pub const ADDR_BYTES: usize = 9;

/// Bytes of the frame authenticator following the address.
pub const FRAME_MAC_BYTES: usize = 32;

/// Bytes of the complete per-destination frame prefix: header, address,
/// MAC. Everything before the (shared, peer-independent) body.
pub const PREFIX_BYTES: usize = HEADER_BYTES + ADDR_BYTES + FRAME_MAC_BYTES;

/// The channel authenticator: derives and checks per-frame HMACs from
/// the deployment's shared [`KeyStore`] seed (every process of one
/// cluster must use the same seed — the `auth_seed` cluster knob).
#[derive(Debug, Clone)]
pub struct FrameAuth {
    ks: KeyStore,
}

impl FrameAuth {
    /// An authenticator over the key-distribution oracle seeded with
    /// `seed`.
    pub fn from_seed(seed: u64) -> FrameAuth {
        FrameAuth {
            ks: KeyStore::from_seed(seed),
        }
    }

    /// MAC of a data frame exchanged between `from` and `to`, covering
    /// the destination address bytes and the shared body. The domain
    /// tag separates data from Hello MACs, so flipping the (otherwise
    /// unauthenticated) `FLAG_HELLO` header bit can never turn an
    /// authenticated data frame into an accepted route announcement.
    fn data_tag(&self, from: NodeId, to: NodeId, addr: &[u8; ADDR_BYTES], body: &[u8]) -> [u8; 32] {
        self.ks.mac_parts(from, to, &[b"rbft-data", addr, body]).0
    }

    /// MAC of a Hello frame sent by `node` to `receiver` (domain-tagged,
    /// see [`FrameAuth::data_tag`]; covers address + body like data).
    fn hello_tag(
        &self,
        node: NodeId,
        receiver: NodeId,
        addr: &[u8; ADDR_BYTES],
        body: &[u8],
    ) -> [u8; 32] {
        self.ks
            .mac_parts(node, receiver, &[b"rbft-hello", addr, body])
            .0
    }
}

/// Encodes a destination into the fixed v6 address field.
fn encode_addr(to: NodeId) -> [u8; ADDR_BYTES] {
    let mut a = [0u8; ADDR_BYTES];
    match to {
        NodeId::Replica(r) => {
            a[0] = 0;
            a[1..5].copy_from_slice(&r.shard.0.to_le_bytes());
            a[5..9].copy_from_slice(&r.index.to_le_bytes());
        }
        NodeId::Client(c) => {
            a[0] = 1;
            a[1..9].copy_from_slice(&c.0.to_le_bytes());
        }
    }
    a
}

/// Decodes the fixed v6 address field back into a destination.
fn decode_addr(addr: &[u8; ADDR_BYTES]) -> Result<NodeId, CodecError> {
    match addr[0] {
        0 => {
            let shard = u32::from_le_bytes(addr[1..5].try_into().expect("4 bytes"));
            let index = u32::from_le_bytes(addr[5..9].try_into().expect("4 bytes"));
            Ok(NodeId::Replica(ReplicaId::new(ShardId(shard), index)))
        }
        1 => {
            let id = u64::from_le_bytes(addr[1..9].try_into().expect("8 bytes"));
            Ok(NodeId::Client(ClientId(id)))
        }
        tag => Err(CodecError::Body(bincode::Error::from(
            serde::Error::invalid(&format!("bad address tag {tag}")),
        ))),
    }
}

/// Header flag: the body is a [`Hello`] control frame, not an
/// [`Envelope`].
pub const FLAG_HELLO: u16 = 1;

/// Upper bound on a frame body. Sized from the wire model: a Forward of
/// a 100 000-transaction batch with a 1000-strong certificate stays well
/// under this.
pub const MAX_FRAME_BYTES: u32 = {
    // forward_bytes(100_000, 1000), inlined because the wire model's
    // helpers are not `const fn`: preprepare + certificate.
    let huge_forward = (208 + wire::PER_TXN_BYTES * 100_000) + 131 + wire::ATTEST_BYTES * 1000;
    // The model counts logical bytes; real encodings carry ids and
    // lengths too, so allow 16× the modeled size.
    (huge_forward * 16) as u32
};

/// A routed protocol message as it travels on the wire.
///
/// `to` is carried explicitly because one listener can host several
/// logical nodes (a `ringbft-node` process hosting a whole shard, or a
/// client host serving thousands of logical clients behind aliases).
/// Since codec v6 it rides in the frame's fixed address field, not the
/// body: the body bytes (`from` + `msg` + `trace`) are identical for
/// every destination of a broadcast.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<M> {
    /// The sending node.
    pub from: NodeId,
    /// The destination node (possibly an alias the receiver resolves).
    pub to: NodeId,
    /// The protocol message.
    pub msg: M,
    /// Causal trace context (codec v5): present when `msg` transports a
    /// sampled transaction, so frames can be correlated by trace id and
    /// ring hop without decoding the body. Covered by the frame MAC
    /// like every other body byte.
    pub trace: Option<TraceContext>,
}

/// Borrowing view of a frame body: everything in an [`Envelope`] except
/// the destination. Hand-written codec impls because the vendored serde
/// derive intentionally rejects generics.
struct BodyRef<'a, M> {
    from: NodeId,
    msg: &'a M,
    trace: &'a Option<TraceContext>,
}

impl<M: Serialize> Serialize for BodyRef<'_, M> {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.from.serialize(out);
        self.msg.serialize(out);
        self.trace.serialize(out);
    }
}

/// Owned counterpart of [`BodyRef`], produced by decoding.
struct BodyOwned<M> {
    from: NodeId,
    msg: M,
    trace: Option<TraceContext>,
}

impl<M: Deserialize> Deserialize for BodyOwned<M> {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        Ok(BodyOwned {
            from: Deserialize::deserialize(r)?,
            msg: Deserialize::deserialize(r)?,
            trace: Deserialize::deserialize(r)?,
        })
    }
}

/// Serializes the peer-independent half of a data frame exactly once.
/// The returned bytes are shared (`Arc`) by every destination of a
/// broadcast; [`frame_prefix`] stamps the per-peer header + address +
/// MAC in front of them.
pub fn encode_body<M: Serialize>(
    from: NodeId,
    msg: &M,
    trace: &Option<TraceContext>,
) -> Result<Arc<[u8]>, CodecError> {
    let body = bincode::serialize(&BodyRef { from, msg, trace }).map_err(CodecError::Body)?;
    if body.len() as u64 > MAX_FRAME_BYTES as u64 {
        return Err(CodecError::Oversized(body.len() as u64));
    }
    Ok(Arc::from(body))
}

/// Builds the fixed-size per-destination prefix (header + address +
/// MAC) for a shared body previously produced by [`encode_body`]. No
/// allocation: an N-way broadcast is one `encode_body` plus N of these.
pub fn frame_prefix(from: NodeId, to: NodeId, body: &[u8], auth: &FrameAuth) -> [u8; PREFIX_BYTES] {
    let addr = encode_addr(to);
    let mac = auth.data_tag(from, to, &addr, body);
    let mut prefix = [0u8; PREFIX_BYTES];
    prefix[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    prefix[4..6].copy_from_slice(&VERSION.to_le_bytes());
    prefix[6..8].copy_from_slice(&0u16.to_le_bytes());
    prefix[8..12].copy_from_slice(&(body.len() as u32).to_le_bytes());
    prefix[HEADER_BYTES..HEADER_BYTES + ADDR_BYTES].copy_from_slice(&addr);
    prefix[HEADER_BYTES + ADDR_BYTES..].copy_from_slice(&mac);
    prefix
}

/// Connection-setup announcement: the first frame a peer sends on a
/// fresh connection.
///
/// Cluster config files list replica addresses, but client hosts join
/// dynamically (and may sit behind ephemeral ports), so replies would
/// have nowhere to go. The Hello closes the loop: it names the sending
/// node, the logical ids aliased to it, and the port its own listener
/// accepts on. The receiver combines that port with the connection's
/// source IP to learn a dial-back address.
///
/// Trust note: a Hello is accepted only when its HMAC verifies under
/// the pair key of the announced node and the receiving node, so route
/// announcements cannot be forged without that pair's secret.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hello {
    /// The node this connection belongs to.
    pub node: NodeId,
    /// Logical ids whose traffic should route to `node` (a client host
    /// serving many logical clients).
    pub aliases: Vec<NodeId>,
    /// The port `node`'s own listener accepts on (IP comes from the
    /// connection's source address).
    pub listen_port: u16,
}

/// Any frame a connection can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<M> {
    /// A routed protocol message.
    Data(Envelope<M>),
    /// A connection-setup announcement.
    Hello(Hello),
}

/// Decoding/encoding failures.
#[derive(Debug)]
pub enum CodecError {
    /// The peer sent a frame with the wrong magic.
    BadMagic(u32),
    /// The peer speaks a frame version we do not.
    BadVersion(u16),
    /// A frame body (inbound declared, or outbound encoded) exceeds
    /// [`MAX_FRAME_BYTES`].
    Oversized(u64),
    /// The frame's HMAC authenticator failed to verify (§3 authenticated
    /// channels): forged, corrupted, or sent under a different
    /// `auth_seed`.
    BadMac,
    /// The body failed to decode.
    Body(bincode::Error),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            CodecError::Oversized(n) => write!(f, "frame body of {n} bytes exceeds cap"),
            CodecError::BadMac => write!(f, "frame authenticator rejected"),
            CodecError::Body(e) => write!(f, "frame body: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Decodes and MAC-verifies one complete frame body. Shared by
/// [`FrameAssembler::next_frame`] and [`decode_raw_frame`] so both
/// enforce identical authentication.
fn decode_body<M: Deserialize>(
    flags: u16,
    addr: &[u8; ADDR_BYTES],
    mac: &[u8; FRAME_MAC_BYTES],
    body: &[u8],
    auth: &FrameAuth,
    local: NodeId,
) -> Result<Frame<M>, CodecError> {
    if flags & FLAG_HELLO != 0 {
        let hello: Hello = bincode::deserialize(body).map_err(CodecError::Body)?;
        if !ringbft_crypto::hmac::digest_eq(&auth.hello_tag(hello.node, local, addr, body), mac) {
            return Err(CodecError::BadMac);
        }
        Ok(Frame::Hello(hello))
    } else {
        let to = decode_addr(addr)?;
        let b: BodyOwned<M> = bincode::deserialize(body).map_err(CodecError::Body)?;
        if !ringbft_crypto::hmac::digest_eq(&auth.data_tag(b.from, to, addr, body), mac) {
            return Err(CodecError::BadMac);
        }
        Ok(Frame::Data(Envelope {
            from: b.from,
            to,
            msg: b.msg,
            trace: b.trace,
        }))
    }
}

/// A frame whose header passed validation but whose MAC check and body
/// decode are still pending.
///
/// This is the unit of work the verify/hash pipeline stage moves off
/// the reactor thread: extraction (cheap, needs the stream cursor) runs
/// on the reactor via [`FrameAssembler::next_raw_frame`]; verification
/// (HMAC + deserialize, the expensive part) runs wherever
/// [`decode_raw_frame`] is called — a worker pool under
/// `pipeline_workers > 0`, the reactor itself otherwise.
#[derive(Debug, Clone)]
pub struct RawFrame {
    /// Header flags ([`FLAG_HELLO`]).
    pub flags: u16,
    /// The destination address field (parsed but not yet MAC-checked).
    pub addr: [u8; ADDR_BYTES],
    /// The frame authenticator (not yet checked).
    pub mac: [u8; FRAME_MAC_BYTES],
    /// The encoded body (not yet decoded).
    pub body: Vec<u8>,
}

impl RawFrame {
    /// True when the body is a [`Hello`] control frame. The reactor
    /// verifies Hellos inline — they are rare (one per connection) and
    /// routing must not lag behind the verify queue.
    pub fn is_hello(&self) -> bool {
        self.flags & FLAG_HELLO != 0
    }
}

/// MAC-verifies and decodes an extracted frame: the deferred second
/// half of [`FrameAssembler::next_frame`], enforcing the exact same
/// authentication rules.
pub fn decode_raw_frame<M: Deserialize>(
    raw: &RawFrame,
    auth: &FrameAuth,
    local: NodeId,
) -> Result<Frame<M>, CodecError> {
    decode_body(raw.flags, &raw.addr, &raw.mac, &raw.body, auth, local)
}

/// Validates the fixed 12-byte header at the start of `bytes`,
/// returning `(flags, body_len)`.
fn parse_header(bytes: &[u8]) -> Result<(u16, usize), CodecError> {
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let flags = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes"));
    let len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if len > MAX_FRAME_BYTES {
        return Err(CodecError::Oversized(len as u64));
    }
    Ok((flags, len as usize))
}

/// Incremental frame reassembly for nonblocking sockets: bytes arrive
/// in arbitrary chunks (`extend`), frames come out whole (`next_frame`).
///
/// This is the reactor's read path: a nonblocking `read` may deliver
/// half a header, a header plus part of a body, or several frames at
/// once — the assembler buffers until a complete
/// `header + MAC + body` is present, then decodes and verifies it with
/// the exact same rules as [`decode_raw_frame`]. The header
/// is validated as soon as it is complete, so a corrupt peer is
/// rejected before its declared body length allocates anything.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily so a burst of small
    /// frames does not memmove the tail once per frame).
    pos: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `pos` is dead.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed (partial-frame residue).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extracts the next complete frame, or `Ok(None)` when more bytes
    /// are needed. A malformed header or failed MAC is an error: the
    /// stream is unrecoverable and the connection must be dropped.
    pub fn next_frame<M: Deserialize>(
        &mut self,
        auth: &FrameAuth,
        local: NodeId,
    ) -> Result<Option<Frame<M>>, CodecError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < PREFIX_BYTES {
            return Ok(None);
        }
        let (flags, len) = parse_header(avail)?;
        let total = PREFIX_BYTES + len;
        if avail.len() < total {
            return Ok(None);
        }
        let addr: [u8; ADDR_BYTES] = avail[HEADER_BYTES..HEADER_BYTES + ADDR_BYTES]
            .try_into()
            .expect("addr bytes");
        let mac: [u8; FRAME_MAC_BYTES] = avail[HEADER_BYTES + ADDR_BYTES..PREFIX_BYTES]
            .try_into()
            .expect("mac bytes");
        let body = &avail[PREFIX_BYTES..total];
        let frame = decode_body(flags, &addr, &mac, body, auth, local)?;
        self.pos += total;
        Ok(Some(frame))
    }

    /// Extracts the next complete frame *without* verifying or decoding
    /// it — only the header is validated. The MAC check and body decode
    /// happen later via [`decode_raw_frame`] (on a verify worker).
    /// Errors carry the same meaning as [`FrameAssembler::next_frame`]:
    /// the stream is unrecoverable and the connection must be dropped.
    pub fn next_raw_frame(&mut self) -> Result<Option<RawFrame>, CodecError> {
        let mut scratch = Vec::new();
        self.next_raw_frame_in(&mut scratch)
    }

    /// Like [`FrameAssembler::next_raw_frame`], but moves the body into
    /// `scratch` (cleared first) instead of a fresh allocation — the
    /// reactor feeds pooled buffers here so the steady-state offload
    /// path performs no per-frame allocs. On a complete frame, `scratch`
    /// is taken (left empty); on `Ok(None)` or error it is untouched and
    /// the caller keeps it for the next call.
    pub fn next_raw_frame_in(
        &mut self,
        scratch: &mut Vec<u8>,
    ) -> Result<Option<RawFrame>, CodecError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < PREFIX_BYTES {
            return Ok(None);
        }
        let (flags, len) = parse_header(avail)?;
        let total = PREFIX_BYTES + len;
        if avail.len() < total {
            return Ok(None);
        }
        let addr: [u8; ADDR_BYTES] = avail[HEADER_BYTES..HEADER_BYTES + ADDR_BYTES]
            .try_into()
            .expect("addr bytes");
        let mac: [u8; FRAME_MAC_BYTES] = avail[HEADER_BYTES + ADDR_BYTES..PREFIX_BYTES]
            .try_into()
            .expect("mac bytes");
        scratch.clear();
        scratch.extend_from_slice(&avail[PREFIX_BYTES..total]);
        self.pos += total;
        Ok(Some(RawFrame {
            flags,
            addr,
            mac,
            body: std::mem::take(scratch),
        }))
    }
}

fn frame_with(
    flags: u16,
    addr: [u8; ADDR_BYTES],
    mac: [u8; 32],
    body: Vec<u8>,
) -> Result<Vec<u8>, CodecError> {
    if body.len() as u64 > MAX_FRAME_BYTES as u64 {
        // Refuse rather than panic: the runtime drops-and-counts
        // unencodable messages, and a frozen replica would be worse
        // than a lost frame.
        return Err(CodecError::Oversized(body.len() as u64));
    }
    let mut frame = Vec::with_capacity(PREFIX_BYTES + body.len());
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&VERSION.to_le_bytes());
    frame.extend_from_slice(&flags.to_le_bytes());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&addr);
    frame.extend_from_slice(&mac);
    frame.extend_from_slice(&body);
    Ok(frame)
}

/// Encodes one data frame (header + address + MAC + body) into a fresh
/// contiguous buffer. Convenience for unicast paths and tests;
/// the reactor's broadcast path uses [`encode_body`] + [`frame_prefix`]
/// to share the body bytes across destinations.
pub fn encode_frame<M: Serialize>(
    env: &Envelope<M>,
    auth: &FrameAuth,
) -> Result<Vec<u8>, CodecError> {
    let body = bincode::serialize(&BodyRef {
        from: env.from,
        msg: &env.msg,
        trace: &env.trace,
    })
    .map_err(CodecError::Body)?;
    let addr = encode_addr(env.to);
    let mac = auth.data_tag(env.from, env.to, &addr, &body);
    frame_with(0, addr, mac, body)
}

/// Encodes a [`Hello`] control frame addressed to `receiver` (the peer
/// being dialled; Hello MACs bind the connection's two endpoints). The
/// address field names the receiver, mirroring data frames.
pub fn encode_hello_frame(
    hello: &Hello,
    auth: &FrameAuth,
    receiver: NodeId,
) -> Result<Vec<u8>, CodecError> {
    let body = bincode::serialize(hello).map_err(CodecError::Body)?;
    let addr = encode_addr(receiver);
    let mac = auth.hello_tag(hello.node, receiver, &addr, &body);
    frame_with(FLAG_HELLO, addr, mac, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringbft_core::RingMsg;
    use ringbft_sim::AnyMsg;
    use ringbft_types::txn::{Operation, OperationKind, Transaction};
    use ringbft_types::{ClientId, ReplicaId, ShardId, TxnId};
    use std::sync::Arc;

    fn auth() -> FrameAuth {
        FrameAuth::from_seed(0)
    }

    fn receiver() -> NodeId {
        NodeId::Replica(ReplicaId::new(ShardId(0), 0))
    }

    /// Feeds `bytes` to a fresh assembler and decodes the first frame.
    fn decode(bytes: &[u8], local: NodeId) -> Result<Option<Frame<AnyMsg>>, CodecError> {
        let mut asm = FrameAssembler::new();
        asm.extend(bytes);
        asm.next_frame(&auth(), local)
    }

    fn sample_env() -> Envelope<AnyMsg> {
        let txn = Transaction::new(
            TxnId(7),
            ClientId(3),
            vec![Operation {
                shard: ShardId(0),
                key: 42,
                kind: OperationKind::ReadModifyWrite,
            }],
        );
        Envelope {
            from: NodeId::Client(ClientId(3)),
            to: receiver(),
            msg: AnyMsg::Ring(RingMsg::Request {
                txn: Arc::new(txn),
                relayed: false,
            }),
            trace: Some(TraceContext::new(ringbft_types::trace::trace_id_for(7))),
        }
    }

    #[test]
    fn frame_round_trips() {
        let env = sample_env();
        let frame = encode_frame(&env, &auth()).unwrap();
        let decoded = decode(&frame, receiver()).unwrap();
        assert!(matches!(decoded, Some(Frame::Data(d)) if d == env));
    }

    #[test]
    fn header_is_versioned() {
        let env = sample_env();
        let mut frame = encode_frame(&env, &auth()).unwrap();
        frame[4] = 99; // version
        let err = decode(&frame, receiver()).unwrap_err();
        assert!(matches!(err, CodecError::BadVersion(99)));

        let mut frame = encode_frame(&env, &auth()).unwrap();
        frame[0] ^= 0xff; // magic
        let err = decode(&frame, receiver()).unwrap_err();
        assert!(matches!(err, CodecError::BadMagic(_)));
    }

    #[test]
    fn oversized_frames_rejected_before_allocation() {
        let env = sample_env();
        let mut frame = encode_frame(&env, &auth()).unwrap();
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&frame[..PREFIX_BYTES], receiver()).unwrap_err();
        assert!(matches!(err, CodecError::Oversized(_)));
    }

    #[test]
    fn tampered_body_or_mac_is_rejected() {
        let env = sample_env();
        // Flip one bit of the MAC.
        let mut frame = encode_frame(&env, &auth()).unwrap();
        frame[HEADER_BYTES + ADDR_BYTES] ^= 1;
        let err = decode(&frame, receiver()).unwrap_err();
        assert!(matches!(err, CodecError::BadMac));
        // Flip one bit of the destination address: the MAC covers it.
        let mut frame = encode_frame(&env, &auth()).unwrap();
        frame[HEADER_BYTES + 1] ^= 1;
        let err = decode(&frame, receiver()).unwrap_err();
        assert!(matches!(err, CodecError::BadMac | CodecError::Body(_)));
        // Flip one bit of the body.
        let mut frame = encode_frame(&env, &auth()).unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 1;
        let err = decode(&frame, receiver()).unwrap_err();
        assert!(matches!(err, CodecError::BadMac | CodecError::Body(_)));
    }

    #[test]
    fn reflagging_a_data_frame_as_hello_is_rejected() {
        // The header flags are outside the MAC, but the MAC domain tag
        // makes a data tag useless for a Hello frame: an on-path
        // tamperer flipping FLAG_HELLO must not plant a route.
        let env = sample_env();
        let mut frame = encode_frame(&env, &auth()).unwrap();
        frame[6] |= FLAG_HELLO as u8;
        let err = decode(&frame, receiver()).unwrap_err();
        assert!(matches!(err, CodecError::BadMac | CodecError::Body(_)));
    }

    #[test]
    fn wrong_auth_seed_is_rejected() {
        let env = sample_env();
        let frame = encode_frame(&env, &FrameAuth::from_seed(1)).unwrap();
        let err = decode(&frame, receiver()).unwrap_err();
        assert!(matches!(err, CodecError::BadMac));
    }

    #[test]
    fn hello_macs_bind_the_receiver() {
        let hello = Hello {
            node: NodeId::Replica(ReplicaId::new(ShardId(1), 2)),
            aliases: vec![],
            listen_port: 4242,
        };
        let frame = encode_hello_frame(&hello, &auth(), receiver()).unwrap();
        let decoded = decode(&frame, receiver());
        assert!(matches!(decoded, Ok(Some(Frame::Hello(h))) if h == hello));
        // A different receiver must not accept it (wrong pair key).
        let other = NodeId::Replica(ReplicaId::new(ShardId(2), 3));
        let err = decode(&frame, other).unwrap_err();
        assert!(matches!(err, CodecError::BadMac));
    }

    #[test]
    fn truncated_frames_wait_for_more_bytes() {
        // Every strict prefix — the empty stream included — is an
        // incomplete frame, never an error or a decoded message.
        let frame = encode_frame(&sample_env(), &auth()).unwrap();
        for cut in 0..frame.len() {
            assert!(
                decode(&frame[..cut], receiver()).unwrap().is_none(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn assembler_reassembles_frames_across_split_reads() {
        let env = sample_env();
        let frame = encode_frame(&env, &auth()).unwrap();
        // Feed the frame one byte at a time: no prefix may yield a
        // frame, the final byte must yield exactly one.
        let mut asm = FrameAssembler::new();
        for (i, b) in frame.iter().enumerate() {
            asm.extend(std::slice::from_ref(b));
            let got = asm.next_frame::<AnyMsg>(&auth(), receiver()).unwrap();
            if i + 1 < frame.len() {
                assert!(got.is_none(), "frame surfaced early at byte {i}");
            } else {
                assert!(matches!(got, Some(Frame::Data(d)) if d == env));
            }
        }
        assert_eq!(asm.buffered(), 0);
        assert!(asm
            .next_frame::<AnyMsg>(&auth(), receiver())
            .unwrap()
            .is_none());
    }

    #[test]
    fn assembler_handles_two_frames_split_at_every_boundary() {
        let env = sample_env();
        let hello = Hello {
            node: NodeId::Replica(ReplicaId::new(ShardId(1), 2)),
            aliases: vec![NodeId::Client(ClientId(9))],
            listen_port: 4242,
        };
        let mut stream = encode_frame(&env, &auth()).unwrap();
        stream.extend_from_slice(&encode_hello_frame(&hello, &auth(), receiver()).unwrap());
        for cut in 0..=stream.len() {
            let mut asm = FrameAssembler::new();
            let mut frames = Vec::new();
            for chunk in [&stream[..cut], &stream[cut..]] {
                asm.extend(chunk);
                while let Some(f) = asm.next_frame::<AnyMsg>(&auth(), receiver()).unwrap() {
                    frames.push(f);
                }
            }
            assert_eq!(frames.len(), 2, "cut at {cut}");
            assert!(matches!(&frames[0], Frame::Data(d) if *d == env));
            assert!(matches!(&frames[1], Frame::Hello(h) if *h == hello));
            assert_eq!(asm.buffered(), 0);
        }
    }

    #[test]
    fn raw_extraction_defers_mac_and_decode() {
        let env = sample_env();
        let frame = encode_frame(&env, &auth()).unwrap();
        let mut asm = FrameAssembler::new();
        asm.extend(&frame);
        let raw = asm.next_raw_frame().unwrap().expect("complete frame");
        assert!(!raw.is_hello());
        assert_eq!(asm.buffered(), 0);
        // The deferred decode enforces the same authentication.
        let decoded = decode_raw_frame::<AnyMsg>(&raw, &auth(), receiver()).unwrap();
        assert!(matches!(decoded, Frame::Data(d) if d == env));

        // A tampered MAC passes extraction (header-only) but fails the
        // deferred verify — exactly the split the offload stage relies
        // on: corruption is caught before delivery, just off-thread.
        let mut tampered = raw.clone();
        tampered.mac[0] ^= 1;
        let err = decode_raw_frame::<AnyMsg>(&tampered, &auth(), receiver()).unwrap_err();
        assert!(matches!(err, CodecError::BadMac));
    }

    #[test]
    fn raw_extraction_validates_headers_eagerly() {
        let env = sample_env();
        let mut frame = encode_frame(&env, &auth()).unwrap();
        frame[4] = 99; // version
        let mut asm = FrameAssembler::new();
        asm.extend(&frame);
        let err = asm.next_raw_frame().unwrap_err();
        assert!(matches!(err, CodecError::BadVersion(99)));

        // A Hello extracts with the flag visible, so the reactor can
        // keep routing frames on the fast path.
        let hello = Hello {
            node: NodeId::Replica(ReplicaId::new(ShardId(1), 2)),
            aliases: vec![],
            listen_port: 4242,
        };
        let mut asm = FrameAssembler::new();
        asm.extend(&encode_hello_frame(&hello, &auth(), receiver()).unwrap());
        let raw = asm.next_raw_frame().unwrap().expect("complete frame");
        assert!(raw.is_hello());
        let decoded = decode_raw_frame::<AnyMsg>(&raw, &auth(), receiver()).unwrap();
        assert!(matches!(decoded, Frame::Hello(h) if h == hello));
    }

    #[test]
    fn assembler_rejects_corruption_without_waiting_for_the_body() {
        let env = sample_env();
        let mut frame = encode_frame(&env, &auth()).unwrap();
        frame[0] ^= 0xff; // magic
        let mut asm = FrameAssembler::new();
        // The frame prefix alone is enough to reject — the (possibly
        // huge) declared body never needs to arrive.
        asm.extend(&frame[..PREFIX_BYTES]);
        let err = asm.next_frame::<AnyMsg>(&auth(), receiver()).unwrap_err();
        assert!(matches!(err, CodecError::BadMagic(_)));

        let mut frame = encode_frame(&env, &auth()).unwrap();
        frame[HEADER_BYTES + ADDR_BYTES] ^= 1; // MAC bit
        let mut asm = FrameAssembler::new();
        asm.extend(&frame);
        let err = asm.next_frame::<AnyMsg>(&auth(), receiver()).unwrap_err();
        assert!(matches!(err, CodecError::BadMac));
    }

    #[test]
    fn shared_body_plus_prefix_equals_unicast_encoding() {
        // The serialize-once path (encode_body + frame_prefix per peer)
        // must emit byte-identical frames to the unicast encoder, so
        // every decoder accepts either interchangeably.
        let env = sample_env();
        let body = encode_body(env.from, &env.msg, &env.trace).unwrap();
        let prefix = frame_prefix(env.from, env.to, &body, &auth());
        let mut fanned = prefix.to_vec();
        fanned.extend_from_slice(&body);
        assert_eq!(fanned, encode_frame(&env, &auth()).unwrap());

        // A second destination reuses the same body bytes; only the
        // prefix differs, and both decode to their own destination.
        let other = NodeId::Replica(ReplicaId::new(ShardId(2), 3));
        let prefix2 = frame_prefix(env.from, other, &body, &auth());
        assert_ne!(prefix[HEADER_BYTES..], prefix2[HEADER_BYTES..]);
        let mut frame2 = prefix2.to_vec();
        frame2.extend_from_slice(&body);
        let Some(Frame::Data(decoded)) = decode(&frame2, receiver()).unwrap() else {
            panic!("a data frame");
        };
        assert_eq!(decoded.to, other);
        assert_eq!(decoded.msg, env.msg);
    }

    #[test]
    fn pooled_raw_extraction_takes_and_returns_scratch() {
        let env = sample_env();
        let frame = encode_frame(&env, &auth()).unwrap();
        let mut asm = FrameAssembler::new();
        // A partial frame leaves the scratch buffer with the caller.
        asm.extend(&frame[..PREFIX_BYTES]);
        let mut scratch = Vec::with_capacity(4096);
        assert!(asm.next_raw_frame_in(&mut scratch).unwrap().is_none());
        assert_eq!(scratch.capacity(), 4096);
        // The complete frame moves the scratch into the RawFrame body.
        asm.extend(&frame[PREFIX_BYTES..]);
        let raw = asm
            .next_raw_frame_in(&mut scratch)
            .unwrap()
            .expect("complete frame");
        assert!(scratch.is_empty());
        assert!(raw.body.capacity() >= 4096, "pooled capacity reused");
        let decoded = decode_raw_frame::<AnyMsg>(&raw, &auth(), receiver()).unwrap();
        assert!(matches!(decoded, Frame::Data(d) if d == env));
    }
}
