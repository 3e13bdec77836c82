//! Cluster configuration files for `ringbft-node`.
//!
//! A cluster file is JSON carrying the [`SystemConfig`] knobs plus the
//! peer address map:
//!
//! ```json
//! {
//!   "protocol": "RingBft",
//!   "shards": [
//!     { "n": 4, "region": "Oregon" },
//!     { "n": 4, "region": "Iowa" }
//!   ],
//!   "batch_size": 100,
//!   "num_keys": 600000,
//!   "clients": 1000,
//!   "cross_shard_rate": 0.3,
//!   "involved_shards": 2,
//!   "remote_reads": 0,
//!   "timers_ms": { "local": 2000, "remote": 4000, "transmit": 6000, "client": 8000 },
//!   "checkpoint_interval": 128,
//!   "state_chunk_records": 4096,
//!   "auth_seed": 0,
//!   "pipeline_workers": 2,
//!   "trace_sample_rate": 64,
//!   "durability": { "batched": 50 },
//!   "peers": {
//!     "S0r0": "10.0.0.10:4100",
//!     "S0r1": "10.0.0.11:4100"
//!   }
//! }
//! ```
//!
//! Only `protocol`, `shards` and `peers` are required; every other knob
//! defaults to [`SystemConfig::uniform`]'s paper-standard values.
//! Replica names use the `Display` spelling of [`ReplicaId`] (`S<shard>r
//! <index>`), the same names the logs print.

use ringbft_types::{
    Duration, ProtocolKind, Region, ReplicaId, ShardConfig, ShardId, SystemConfig,
};
use serde_json::Value;
use std::collections::HashMap;
use std::net::SocketAddr;

/// A parsed cluster file.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The protocol deployment description.
    pub system: SystemConfig,
    /// Listener address of every replica.
    pub peers: HashMap<ReplicaId, SocketAddr>,
}

/// Configuration loading failure with context.
#[derive(Debug)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cluster config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ConfigError> {
    Err(ConfigError(msg.into()))
}

fn protocol_by_name(name: &str) -> Option<ProtocolKind> {
    let all = [
        ProtocolKind::RingBft,
        ProtocolKind::Ahl,
        ProtocolKind::Sharper,
        ProtocolKind::Pbft,
        ProtocolKind::Zyzzyva,
        ProtocolKind::Sbft,
        ProtocolKind::Poe,
        ProtocolKind::HotStuff,
        ProtocolKind::Rcc,
    ];
    all.into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
}

fn region_by_name(name: &str) -> Option<Region> {
    Region::ALL
        .into_iter()
        .find(|r| r.name().eq_ignore_ascii_case(name))
}

/// Parses a replica name in the `Display` spelling, e.g. `"S2r0"`.
pub fn parse_replica_name(name: &str) -> Result<ReplicaId, ConfigError> {
    let rest = name
        .strip_prefix('S')
        .ok_or_else(|| ConfigError(format!("replica name `{name}` must look like S0r1")))?;
    let (shard, index) = rest
        .split_once('r')
        .ok_or_else(|| ConfigError(format!("replica name `{name}` must look like S0r1")))?;
    let shard: u32 = shard
        .parse()
        .map_err(|_| ConfigError(format!("bad shard in `{name}`")))?;
    let index: u32 = index
        .parse()
        .map_err(|_| ConfigError(format!("bad index in `{name}`")))?;
    Ok(ReplicaId::new(ShardId(shard), index))
}

/// Top-level keys a cluster file may carry.
const KNOWN_KEYS: [&str; 19] = [
    "protocol",
    "shards",
    "batch_size",
    "adaptive_batching",
    "num_keys",
    "clients",
    "cross_shard_rate",
    "involved_shards",
    "remote_reads",
    "ring_offset",
    "timers_ms",
    "checkpoint_interval",
    "state_chunk_records",
    "full_snapshot_every",
    "auth_seed",
    "pipeline_workers",
    "trace_sample_rate",
    "durability",
    "peers",
];

/// Rejects any member of the object `v` that is not in `known`, so a
/// typo'd knob fails loudly instead of silently running with the paper
/// default (every process must share the file, so a silent fallback
/// would be a cross-process misconfiguration).
fn check_keys(v: &serde_json::Value, known: &[&str], within: &str) -> Result<(), ConfigError> {
    for (key, _) in v.as_object().into_iter().flatten() {
        if !known.contains(&key.as_str()) {
            return err(format!(
                "unknown key `{key}` in {within} (known: {})",
                known.join(", ")
            ));
        }
    }
    Ok(())
}

/// Reads an optional knob `v` (named `name` in errors) with `read`. A
/// knob that is present but of the wrong type is an error naming the
/// key and the expected type, as loud as an unknown key: the replica
/// must not run on the paper default the file meant to override.
fn typed<'a, T>(
    v: Option<&'a Value>,
    name: &str,
    want: &str,
    read: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<Option<T>, ConfigError> {
    v.map(|v| read(v).ok_or_else(|| ConfigError(format!("bad `{name}` (want {want})"))))
        .transpose()
}

/// Parses a cluster file's text.
pub fn parse_cluster_config(text: &str) -> Result<ClusterConfig, ConfigError> {
    let doc = serde_json::from_str(text).map_err(|e| ConfigError(e.to_string()))?;
    check_keys(&doc, &KNOWN_KEYS, "the cluster file")?;

    let protocol_name = doc
        .get("protocol")
        .and_then(|v| v.as_str())
        .ok_or_else(|| ConfigError("missing `protocol`".into()))?;
    let protocol = protocol_by_name(protocol_name)
        .ok_or_else(|| ConfigError(format!("unknown protocol `{protocol_name}`")))?;

    let shard_docs = doc
        .get("shards")
        .and_then(|v| v.as_array())
        .ok_or_else(|| ConfigError("missing `shards` array".into()))?;
    if shard_docs.is_empty() {
        return err("`shards` must not be empty");
    }
    let mut shards = Vec::new();
    for (i, s) in shard_docs.iter().enumerate() {
        check_keys(s, &["n", "region"], &format!("shard {i}"))?;
        let n = typed(
            s.get("n"),
            &format!("shards[{i}].n"),
            "a positive integer",
            Value::as_u64,
        )?
        .ok_or_else(|| ConfigError(format!("shard {i}: missing `n`")))?;
        if n == 0 {
            return err(format!("shard {i}: `n` must be at least 1"));
        }
        let region = typed(
            s.get("region"),
            &format!("shards[{i}].region"),
            "a name",
            Value::as_str,
        )?;
        let region = match region {
            Some(name) => region_by_name(name)
                .ok_or_else(|| ConfigError(format!("shard {i}: unknown region `{name}`")))?,
            None => Region::for_shard(i),
        };
        shards.push(ShardConfig {
            id: ShardId(i as u32),
            n: n as usize,
            region,
        });
    }

    // Start from the paper-standard knobs, then apply overrides.
    let z = shards.len();
    let n0 = shards[0].n;
    let mut system = SystemConfig::uniform(protocol, z, n0);
    system.shards = shards;
    system.involved_shards = z;

    let u64_knob = |key: &str| typed(doc.get(key), key, "a non-negative integer", Value::as_u64);
    if let Some(v) = u64_knob("batch_size")? {
        system.batch_size = v as usize;
    }
    if let Some(v) = u64_knob("num_keys")? {
        system.num_keys = v;
    }
    if let Some(v) = u64_knob("clients")? {
        system.clients = v as usize;
    }
    if let Some(v) = u64_knob("involved_shards")? {
        system.involved_shards = v as usize;
    }
    if let Some(v) = u64_knob("remote_reads")? {
        system.remote_reads = v as usize;
    }
    if let Some(v) = u64_knob("ring_offset")? {
        system.ring_offset = u32::try_from(v)
            .map_err(|_| ConfigError(format!("`ring_offset` {v} is out of range")))?;
    }
    if let Some(v) = u64_knob("checkpoint_interval")? {
        system.checkpoint_interval = v;
    }
    if let Some(v) = u64_knob("state_chunk_records")? {
        system.state_chunk_records = v as usize;
    }
    if let Some(v) = u64_knob("full_snapshot_every")? {
        system.full_snapshot_every = v;
    }
    if let Some(v) = u64_knob("auth_seed")? {
        system.auth_seed = v;
    }
    if let Some(v) = u64_knob("pipeline_workers")? {
        system.pipeline_workers = v as usize;
    }
    if let Some(v) = u64_knob("trace_sample_rate")? {
        system.trace_sample_rate = v;
    }
    if let Some(v) = typed(
        doc.get("cross_shard_rate"),
        "cross_shard_rate",
        "a number",
        Value::as_f64,
    )? {
        system.cross_shard_rate = v;
    }
    if let Some(v) = typed(
        doc.get("adaptive_batching"),
        "adaptive_batching",
        "true or false",
        Value::as_bool,
    )? {
        system.adaptive_batching = v;
    }
    if let Some(v) = doc.get("durability") {
        // The serde spelling of `Durability`: "none", "strict", or
        // { "batched": <ms> }.
        check_keys(v, &["batched"], "`durability`")?;
        let parsed = match v.as_str() {
            Some("none") => Some(ringbft_types::Durability::None),
            Some("strict") => Some(ringbft_types::Durability::Strict),
            Some(_) => None,
            None => v
                .as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == "batched"))
                .and_then(|(_, ms)| ms.as_u64())
                .map(ringbft_types::Durability::Batched),
        };
        system.durability = parsed.ok_or_else(|| {
            ConfigError("bad `durability` (want \"none\", \"strict\" or {\"batched\": ms})".into())
        })?;
    }
    if let Some(t) = typed(doc.get("timers_ms"), "timers_ms", "an object", |v| {
        v.as_object().map(|_| v)
    })? {
        check_keys(t, &["local", "remote", "transmit", "client"], "`timers_ms`")?;
        let timer = |key: &str, fallback: Duration| {
            let ms = typed(
                t.get(key),
                &format!("timers_ms.{key}"),
                "integer milliseconds",
                Value::as_u64,
            )?;
            Ok::<_, ConfigError>(ms.map_or(fallback, Duration::from_millis))
        };
        system.timers.local = timer("local", system.timers.local)?;
        system.timers.remote = timer("remote", system.timers.remote)?;
        system.timers.transmit = timer("transmit", system.timers.transmit)?;
        system.timers.client = timer("client", system.timers.client)?;
    }
    system
        .validate()
        .map_err(|e| ConfigError(format!("invalid system config: {e}")))?;

    let peer_doc = doc
        .get("peers")
        .and_then(|v| v.as_object())
        .ok_or_else(|| ConfigError("missing `peers` object".into()))?;
    let mut peers = HashMap::new();
    for (name, addr) in peer_doc {
        let replica = parse_replica_name(name)?;
        let addr_text = addr
            .as_str()
            .ok_or_else(|| ConfigError(format!("peer `{name}`: address must be a string")))?;
        let addr: SocketAddr = addr_text
            .parse()
            .map_err(|_| ConfigError(format!("peer `{name}`: bad address `{addr_text}`")))?;
        peers.insert(replica, addr);
    }

    Ok(ClusterConfig { system, peers })
}

/// Loads and parses a cluster file.
pub fn load_cluster_config(path: &std::path::Path) -> Result<ClusterConfig, ConfigError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ConfigError(format!("read {}: {e}", path.display())))?;
    parse_cluster_config(&text)
}

/// Renders a cluster file for `system` with the given peer addresses
/// (used by docs/examples and round-trip tests).
pub fn render_cluster_config(
    system: &SystemConfig,
    peers: &HashMap<ReplicaId, SocketAddr>,
) -> String {
    let shards: Vec<serde_json::Value> = system
        .shards
        .iter()
        .map(|s| {
            serde_json::json!({
                "n": s.n as u64,
                "region": s.region.name(),
            })
        })
        .collect();
    let mut peer_entries: Vec<(ReplicaId, SocketAddr)> =
        peers.iter().map(|(r, a)| (*r, *a)).collect();
    peer_entries.sort_by_key(|(r, _)| *r);
    let peer_members: Vec<(String, serde_json::Value)> = peer_entries
        .into_iter()
        .map(|(r, a)| (r.to_string(), serde_json::Value::String(a.to_string())))
        .collect();
    let doc = serde_json::json!({
        "protocol": system.protocol.name(),
        "shards": shards,
        "batch_size": system.batch_size as u64,
        "adaptive_batching": system.adaptive_batching,
        "num_keys": system.num_keys,
        "clients": system.clients as u64,
        "cross_shard_rate": system.cross_shard_rate,
        "involved_shards": system.involved_shards as u64,
        "remote_reads": system.remote_reads as u64,
        "ring_offset": system.ring_offset,
        "checkpoint_interval": system.checkpoint_interval,
        "state_chunk_records": system.state_chunk_records as u64,
        "full_snapshot_every": system.full_snapshot_every,
        "auth_seed": system.auth_seed,
        "pipeline_workers": system.pipeline_workers as u64,
        "trace_sample_rate": system.trace_sample_rate,
        "durability": match system.durability {
            ringbft_types::Durability::None => serde_json::json!("none"),
            ringbft_types::Durability::Strict => serde_json::json!("strict"),
            ringbft_types::Durability::Batched(ms) => serde_json::json!({ "batched": ms }),
        },
        "timers_ms": serde_json::json!({
            "local": system.timers.local.as_nanos() / 1_000_000,
            "remote": system.timers.remote.as_nanos() / 1_000_000,
            "transmit": system.timers.transmit.as_nanos() / 1_000_000,
            "client": system.timers.client.as_nanos() / 1_000_000,
        }),
        "peers": serde_json::Value::Object(peer_members),
    });
    serde_json::to_string_pretty(&doc).expect("render config")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_file() {
        let text = r#"{
            "protocol": "RingBft",
            "shards": [{ "n": 4 }, { "n": 4, "region": "Iowa" }],
            "peers": { "S0r0": "127.0.0.1:4100", "S1r3": "127.0.0.1:4101" }
        }"#;
        let cc = parse_cluster_config(text).unwrap();
        assert_eq!(cc.system.protocol, ProtocolKind::RingBft);
        assert_eq!(cc.system.z(), 2);
        assert_eq!(cc.system.shards[1].region, Region::Iowa);
        assert_eq!(cc.system.batch_size, 100); // paper default
        assert_eq!(
            cc.peers[&ReplicaId::new(ShardId(1), 3)],
            "127.0.0.1:4101".parse().unwrap()
        );
    }

    #[test]
    fn overrides_apply_and_validate() {
        let text = r#"{
            "protocol": "RingBFT",
            "shards": [{ "n": 4 }, { "n": 4 }],
            "batch_size": 10,
            "cross_shard_rate": 0.5,
            "timers_ms": { "local": 100, "remote": 200, "transmit": 300, "client": 400 },
            "peers": {}
        }"#;
        let cc = parse_cluster_config(text).unwrap();
        assert_eq!(cc.system.batch_size, 10);
        assert_eq!(cc.system.cross_shard_rate, 0.5);
        assert_eq!(cc.system.timers.local, Duration::from_millis(100));
    }

    #[test]
    fn recovery_and_auth_knobs_parse() {
        let text = r#"{
            "protocol": "RingBft",
            "shards": [{ "n": 4 }],
            "checkpoint_interval": 16,
            "state_chunk_records": 512,
            "full_snapshot_every": 2,
            "auth_seed": 7,
            "pipeline_workers": 3,
            "trace_sample_rate": 8,
            "peers": {}
        }"#;
        let cc = parse_cluster_config(text).unwrap();
        assert_eq!(cc.system.checkpoint_interval, 16);
        assert_eq!(cc.system.state_chunk_records, 512);
        assert_eq!(cc.system.full_snapshot_every, 2);
        assert_eq!(cc.system.auth_seed, 7);
        assert_eq!(cc.system.pipeline_workers, 3);
        assert_eq!(cc.system.trace_sample_rate, 8);
        // An absurd worker count fails SystemConfig validation.
        assert!(parse_cluster_config(
            r#"{ "protocol": "RingBft", "shards": [{ "n": 4 }],
                 "pipeline_workers": 65, "peers": {} }"#
        )
        .is_err());
        // A zero interval fails SystemConfig validation.
        assert!(parse_cluster_config(
            r#"{ "protocol": "RingBft", "shards": [{ "n": 4 }],
                 "checkpoint_interval": 0, "peers": {} }"#
        )
        .is_err());
        // So does a zero full-snapshot cadence.
        assert!(parse_cluster_config(
            r#"{ "protocol": "RingBft", "shards": [{ "n": 4 }],
                 "full_snapshot_every": 0, "peers": {} }"#
        )
        .is_err());
    }

    #[test]
    fn durability_knob_parses() {
        use ringbft_types::Durability;
        let mk = |lit: &str| {
            parse_cluster_config(&format!(
                r#"{{ "protocol": "RingBft", "shards": [{{ "n": 4 }}],
                     "durability": {lit}, "peers": {{}} }}"#
            ))
        };
        // Absent ⇒ the batched default.
        let cc = parse_cluster_config(
            r#"{ "protocol": "RingBft", "shards": [{ "n": 4 }], "peers": {} }"#,
        )
        .unwrap();
        assert_eq!(cc.system.durability, Durability::Batched(50));
        assert_eq!(mk(r#""none""#).unwrap().system.durability, Durability::None);
        assert_eq!(
            mk(r#""strict""#).unwrap().system.durability,
            Durability::Strict
        );
        assert_eq!(
            mk(r#"{ "batched": 20 }"#).unwrap().system.durability,
            Durability::Batched(20)
        );
        // A malformed value fails parse; a zero interval fails
        // SystemConfig validation.
        assert!(mk(r#""sometimes""#).is_err());
        assert!(mk(r#"{ "batched": 0 }"#).is_err());
    }

    #[test]
    fn adaptive_batching_knob_parses() {
        let mk = |lit: &str| {
            parse_cluster_config(&format!(
                r#"{{ "protocol": "RingBft", "shards": [{{ "n": 4 }}],
                     "adaptive_batching": {lit}, "peers": {{}} }}"#
            ))
        };
        // Absent ⇒ off: deployed clusters keep the fixed flush policy
        // (and its committed bench/fault-matrix numbers) by default.
        let cc = parse_cluster_config(
            r#"{ "protocol": "RingBft", "shards": [{ "n": 4 }], "peers": {} }"#,
        )
        .unwrap();
        assert!(!cc.system.adaptive_batching);
        assert!(mk("true").unwrap().system.adaptive_batching);
        assert!(!mk("false").unwrap().system.adaptive_batching);
        assert!(mk(r#""sometimes""#).is_err());
        // render_cluster_config emits the knob, so a generated config
        // round-trips it (covered broadly by render_parse_round_trip;
        // pinned here for a non-default value).
        let mut system = SystemConfig::uniform(ProtocolKind::RingBft, 2, 4);
        system.adaptive_batching = true;
        let mut peers = HashMap::new();
        for shard in &system.shards {
            for r in shard.replicas() {
                peers.insert(r, format!("127.0.0.1:{}", 4200 + r.index).parse().unwrap());
            }
        }
        let cc = parse_cluster_config(&render_cluster_config(&system, &peers)).unwrap();
        assert!(cc.system.adaptive_batching);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_cluster_config("{}").is_err());
        assert!(parse_cluster_config(
            r#"{ "protocol": "NoSuch", "shards": [{ "n": 4 }], "peers": {} }"#
        )
        .is_err());
        assert!(parse_cluster_config(
            r#"{ "protocol": "RingBft", "shards": [{ "n": 4 }],
                 "peers": { "bogus": "127.0.0.1:1" } }"#
        )
        .is_err());
        // Ill-ordered timers are caught by SystemConfig::validate.
        assert!(parse_cluster_config(
            r#"{ "protocol": "RingBft", "shards": [{ "n": 4 }],
                 "timers_ms": { "local": 500, "remote": 100 }, "peers": {} }"#
        )
        .is_err());
        // Numbers that must not panic or be silently accepted: a
        // zero-replica shard (first or later), an offset beyond u32,
        // unknown keys inside nested objects, and knobs of the wrong
        // type (which would otherwise leave the paper default in place).
        for bad in [
            r#""shards": [{ "n": 4 }, { "n": 0 }]"#,
            r#""shards": [{ "n": 0 }]"#,
            r#""shards": [{ "n": 4 }], "ring_offset": 4294967296"#,
            r#""shards": [{ "n": 4 }], "timers_ms": { "locl": 100 }"#,
            r#""shards": [{ "n": 4, "regoin": "Iowa" }]"#,
            r#""shards": [{ "n": 4 }], "durability": { "batched": 50, "x": 1 }"#,
            r#""shards": [{ "n": 4 }], "batch_size": "500""#,
            r#""shards": [{ "n": 4 }], "batch_size": -1"#,
            r#""shards": [{ "n": 4 }], "checkpoint_interval": 1.5"#,
            r#""shards": [{ "n": 4 }], "cross_shard_rate": "0.3""#,
            r#""shards": [{ "n": 4 }], "timers_ms": { "local": "100" }"#,
            r#""shards": [{ "n": 4 }], "pipeline_workers": true"#,
            r#""shards": [{ "n": 4, "region": 2 }]"#,
            r#""shards": [{ "n": "4" }]"#,
            r#""shards": [{ "n": 4 }], "timers_ms": 100"#,
            r#""shards": [{ "n": 4 }], "timers_ms": "100""#,
        ] {
            let text = format!(r#"{{ "protocol": "RingBft", {bad}, "peers": {{}} }}"#);
            assert!(parse_cluster_config(&text).is_err(), "{bad}");
        }
        let err = parse_cluster_config(
            r#"{ "protocol": "RingBft", "shards": [{ "n": 4 }],
                 "timers_ms": { "local": "100" }, "peers": {} }"#,
        )
        .unwrap_err();
        assert!(
            err.0.contains("`timers_ms.local`") && err.0.contains("integer"),
            "{err}"
        );
        let err = parse_cluster_config(
            r#"{ "protocol": "RingBft", "shards": [{ "n": "4" }], "peers": {} }"#,
        )
        .unwrap_err();
        assert!(err.0.contains("`shards[0].n`"), "{err}");
    }

    #[test]
    fn render_parse_round_trip() {
        let system = SystemConfig::uniform(ProtocolKind::RingBft, 2, 4);
        let mut peers = HashMap::new();
        for shard in &system.shards {
            for r in shard.replicas() {
                peers.insert(r, format!("127.0.0.1:{}", 4100 + r.index).parse().unwrap());
            }
        }
        let text = render_cluster_config(&system, &peers);
        let cc = parse_cluster_config(&text).unwrap();
        assert_eq!(cc.system, system);
        assert_eq!(cc.peers, peers);
    }

    #[test]
    fn unknown_keys_rejected() {
        for (knob, key) in [
            (r#""batchsize": 500"#, "batchsize"),
            // The runtime runs one reactor per node; the knob is gone.
            (r#""reactor_shards": 2"#, "reactor_shards"),
        ] {
            let err = parse_cluster_config(&format!(
                r#"{{ "protocol": "RingBft", "shards": [{{ "n": 4 }}],
                     {knob}, "peers": {{}} }}"#
            ))
            .unwrap_err();
            assert!(err.0.contains(&format!("unknown key `{key}`")), "{err}");
        }
    }

    #[test]
    fn replica_names_parse() {
        assert_eq!(
            parse_replica_name("S2r7").unwrap(),
            ReplicaId::new(ShardId(2), 7)
        );
        assert!(parse_replica_name("2r7").is_err());
        assert!(parse_replica_name("Sxr7").is_err());
    }
}
