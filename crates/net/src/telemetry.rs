//! Standard telemetry scrape routes for hosted nodes.
//!
//! [`NodeRuntime::serve_telemetry`] accepts any [`TelemetryRoutes`];
//! [`standard_routes`] is the canonical one for [`AnyNode`] runtimes, so
//! `ringbft-node`, [`LocalCluster`]-based tests, and scripts all scrape
//! the same shape:
//!
//! * `GET /metrics` — one JSON object `{"id", "metrics", "net"}`: the
//!   hosted node's registry + phase-histogram snapshot and the
//!   transport instruments ([`metrics_fields`]). The exit snapshot
//!   (`ringbft-node --metrics-path`) writes the same fields per node,
//!   so a live scrape and the final snapshot can be compared counter
//!   for counter.
//! * `GET /trace` — the node's replica trace ring followed by the
//!   transport's connection-lifecycle ring, as JSON lines
//!   ([`trace_body`], also `ringbft-node --trace-dump-path`). Span
//!   events in this dump feed `ringbft_obs::SpanCollector::ingest_dump`
//!   directly.
//!
//! [`NodeRuntime::serve_telemetry`]: crate::runtime::NodeRuntime::serve_telemetry
//! [`TelemetryRoutes`]: crate::runtime::TelemetryRoutes
//! [`LocalCluster`]: crate::cluster::LocalCluster

use crate::runtime::NetTelemetry;
use ringbft_obs::json::ObjectWriter;
use ringbft_sim::AnyNode;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Writes one runtime's `/metrics` fields into `w`: its `id`, the
/// node's registry snapshot as `metrics` (`null` when the protocol is
/// not instrumented) and the transport instruments as `net`.
pub fn metrics_fields(w: &mut ObjectWriter, node: &AnyNode, net: &NetTelemetry) {
    w.field_str("id", &net.id.to_string())
        .field_raw("metrics", node.metrics_json().as_deref().unwrap_or("null"))
        .field_raw("net", &net.metrics_json);
}

/// The `/metrics` body: [`metrics_fields`] as one JSON object.
pub fn metrics_body(node: &AnyNode, net: &NetTelemetry) -> String {
    let mut w = ObjectWriter::new();
    metrics_fields(&mut w, node, net);
    w.finish()
}

/// The `/trace` body: the replica trace ring (span + protocol events)
/// followed by the transport ring, JSONL.
pub fn trace_body(node: &AnyNode, net: &NetTelemetry) -> String {
    let mut out = node.trace_jsonl().unwrap_or_default();
    out.push_str(&net.trace_jsonl);
    out
}

/// The canonical routes of an [`AnyNode`] runtime.
pub fn standard_routes(path: &str, node: &AnyNode, net: &NetTelemetry) -> Option<(String, String)> {
    match path {
        "/metrics" => Some(("application/json".into(), metrics_body(node, net))),
        "/trace" => Some(("application/x-ndjson".into(), trace_body(node, net))),
        _ => None,
    }
}

/// Minimal blocking HTTP/1.0 GET against a scrape endpoint, returning
/// `(status, body)`. For tests and in-process checks; scripts use
/// `curl`.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, std::time::Duration::from_secs(5))?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let text = String::from_utf8_lossy(&response);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = match text.find("\r\n\r\n") {
        Some(i) => text[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}
