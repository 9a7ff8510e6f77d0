//! The daemon wire protocol: length-prefixed, versioned frames of
//! flat-JSON lines.
//!
//! Every message is one **frame**: a 4-byte big-endian payload length
//! followed by a UTF-8 payload of newline-separated flat JSON objects —
//! the exact object dialect the record store's JSONL codec defines
//! (string keys, number/string values, canonical writer). Every line —
//! header, device, request, result, metric, record, stamp — is read by
//! the one reader of that dialect, [`iolb_records::jsonl::FlatObject`],
//! so the socket protocol and the store files cannot drift apart. The
//! first line of every payload is a header carrying the protocol
//! version (`"v"`) and the message type; list-shaped messages (submit
//! requests, batch results) follow with one object per element.
//!
//! The decoder is written for hostile input: truncated frames, payloads
//! above [`MAX_FRAME_BYTES`], foreign versions, non-UTF-8 bytes and
//! malformed objects are all **typed errors** ([`WireError`]), never
//! panics — and it is **linear in the payload** with one allocation per
//! line, so a frame at the cap costs milliseconds (the frame deadline
//! bounds reading a frame, this bounds decoding it). The encoders write
//! every line straight into the caller's buffer — a connection's
//! [`Scratch`] — and allocate nothing once it is warm. Pinned by
//! `crates/service/tests/{proptest_wire,wire_allocs}.rs`.
//!
//! Six request kinds exist, mirroring the [`crate::session::Backend`]
//! trait plus replication and lifecycle control:
//!
//! | request | response |
//! |---------|----------|
//! | `Submit { device, requests }` | `Submitted { session, unique }` |
//! | `Wait { session }` | `Results { results }` |
//! | `Sync` | `Synced { persisted, total }` |
//! | `Stats` | `Stats { metrics }` |
//! | `Pull` | `State { store }` |
//! | `Shutdown` | `Bye` |
//!
//! plus `Error { message }`, which the daemon may answer to anything.
//!
//! `Pull`/`State` is the anti-entropy path: a peer daemon pulls another
//! daemon's full in-memory state — every record (serialized with the
//! record store's own per-line codec, [`iolb_records::jsonl`]), every
//! LRU stamp, and the logical clock — and folds it in with
//! [`ShardedStore::absorb`], the CRDT-style union merge. The normative
//! protocol spec lives in `docs/PROTOCOL.md`; CI checks that document's
//! frame constants against this file.

use crate::service::{ServeResult, ServeSource};
use crate::session::TuneRequest;
use crate::shard::ShardedStore;
use crate::telemetry::{MetricsSnapshot, Registry};
use iolb_gpusim::DeviceSpec;
use iolb_records::jsonl::{self, Escaped, FlatObject};
use std::fmt::Write as _;
use std::io::{Read, Write};

/// Protocol version stamped into every payload header. Foreign versions
/// are rejected whole (same stance as the record schema and the shard
/// manifest: re-issue the request from a matching build, never guess at
/// field semantics). Version 2 added the `Pull`/`State` anti-entropy
/// messages; version 3 extended the `Stats` response with the metrics
/// registry (counters, gauges, latency-histogram snapshots); version 4
/// added the `anchor` serve source and the `retune` result flag
/// (anchored transfer serving); version 5 added fused operator chains —
/// submit request lines carry an optional `epi` epilogue tag and every
/// serve result carries a `fused` flag marking gate-approved fused
/// chains; version 6 made the `Stats` response the metrics registry
/// alone, in its own line encoding
/// (`MetricsSnapshot::encode_lines`) — the service counters are
/// registry counters now, so no separate counter snapshot rides beside it.
/// Version-1 through version-5 peers alike are rejected with
/// [`WireError::ForeignVersion`] rather than served a grammar they
/// cannot fully speak.
pub const WIRE_VERSION: u32 = 6;

/// Hard ceiling on a frame payload. A VGG-scale submit is a few KiB;
/// anything claiming megabytes is hostile or corrupt and is rejected
/// *before* the payload is allocated or read.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum WireError {
    /// The transport failed mid-operation.
    Io(std::io::Error),
    /// The stream ended before a full frame arrived.
    Truncated { expected: usize, got: usize },
    /// The peer closed the connection where a frame was required.
    ConnectionClosed,
    /// The frame header claims a payload above [`MAX_FRAME_BYTES`].
    Oversized { len: usize },
    /// The payload header carries a protocol version this build does not
    /// speak.
    ForeignVersion { got: u64 },
    /// The payload is not valid UTF-8 / flat JSON / a known message.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o failed: {e}"),
            WireError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} byte(s), got {got}")
            }
            WireError::ConnectionClosed => write!(f, "connection closed before a response"),
            WireError::Oversized { len } => {
                write!(f, "oversized frame: {len} byte(s) exceeds the {MAX_FRAME_BYTES} cap")
            }
            WireError::ForeignVersion { got } => {
                write!(f, "foreign wire version {got} (this build speaks {WIRE_VERSION})")
            }
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A client-to-daemon message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a batch of tuning requests on a device (one session).
    Submit { device: DeviceSpec, requests: Vec<TuneRequest> },
    /// Block until a previously submitted session resolves.
    Wait { session: u64 },
    /// Flush the daemon's shard directory now.
    Sync,
    /// Snapshot the daemon's counters.
    Stats,
    /// Replicate: send me your full in-memory store state (records, LRU
    /// stamps, logical clock). The anti-entropy request peers exchange.
    Pull,
    /// Persist and exit.
    Shutdown,
}

/// A daemon-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Submitted {
        session: u64,
        unique: usize,
    },
    Results {
        results: Vec<Option<ServeResult>>,
    },
    Synced {
        persisted: bool,
        total: usize,
    },
    /// The daemon's metrics registry: service counters, the queue-depth
    /// and budget gauges, latency histograms. The typed
    /// [`ServiceSnapshot`](crate::service::ServiceSnapshot) is a view the
    /// client reads out of it.
    Stats {
        metrics: MetricsSnapshot,
    },
    /// Full store state answering a [`Request::Pull`]: the receiver
    /// [`ShardedStore::absorb`]s it (union of records, per-fingerprint
    /// max stamps, max clock), so replication converges whatever the
    /// exchange order.
    State {
        store: Box<ShardedStore>,
    },
    Bye,
    Error {
        message: String,
    },
}

// ---------------------------------------------------------------- frames

/// Reads exactly `buf.len()` bytes unless the stream ends first; returns
/// how many bytes actually arrived.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(filled)
}

/// Encodes one message into the connection's [`Scratch`] and writes it as
/// one frame. The length prefix and the payload are staged together, so
/// the frame leaves in a single `write` syscall: two writes would double
/// the syscalls of the busy loop and, on TCP, can split a frame across
/// packets even with `TCP_NODELAY`. A payload over [`MAX_FRAME_BYTES`] is
/// refused before any byte is written, so no peer is sent a frame it
/// must reject.
fn write_message(
    w: &mut impl Write,
    scratch: &mut Scratch,
    encode: impl FnOnce(&mut String),
) -> Result<(), WireError> {
    scratch.encode.clear();
    encode(&mut scratch.encode);
    let payload = scratch.encode.as_bytes();
    if payload.len() > MAX_FRAME_BYTES {
        return Err(WireError::Oversized { len: payload.len() });
    }
    scratch.frame.clear();
    scratch.frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    scratch.frame.extend_from_slice(payload);
    w.write_all(&scratch.frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame into the connection's [`Scratch`] and returns its
/// payload as text: a read of the 4-byte length prefix, then a read of
/// the payload. `Ok(None)` is a clean end of stream before the frame's
/// first byte; a stream ending *inside* a frame is
/// [`WireError::Truncated`], and a length prefix above the cap is
/// rejected before the payload buffer grows or any payload byte is read.
fn read_message<'s>(
    r: &mut impl Read,
    scratch: &'s mut Scratch,
) -> Result<Option<&'s str>, WireError> {
    let mut prefix = [0u8; 4];
    let got = read_full(r, &mut prefix)?;
    if got == 0 {
        return Ok(None);
    }
    if got < prefix.len() {
        return Err(WireError::Truncated { expected: prefix.len(), got });
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized { len });
    }
    scratch.payload.clear();
    scratch.payload.resize(len, 0);
    let got = read_full(r, &mut scratch.payload)?;
    if got < len {
        return Err(WireError::Truncated { expected: len, got });
    }
    std::str::from_utf8(&scratch.payload)
        .map(Some)
        .map_err(|_| WireError::Malformed("frame payload is not UTF-8".into()))
}

// ------------------------------------------------------------- payloads

/// A flat-object reader's reason (a missing field, a wrong type, an
/// unknown tag) is a malformed frame.
impl From<String> for WireError {
    fn from(reason: String) -> Self {
        WireError::Malformed(reason)
    }
}

fn finite_f64(fields: &FlatObject, key: &str) -> Result<f64, WireError> {
    let v = fields.f64(key)?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(WireError::Malformed(format!("field {key:?} must be finite, got {v}")))
    }
}

/// Most elements a list-shaped message's vector is sized for up front:
/// a header's claimed count is not trusted with more memory than a
/// large real session needs (beyond it the vector grows as lines
/// actually decode).
const RESERVE_CAP: usize = 1024;

/// A payload's header line, parsed and its version checked, and the
/// non-blank lines after it.
fn open_payload<'a>(
    payload: &'a str,
) -> Result<(FlatObject<'a>, impl Iterator<Item = &'a str>), WireError> {
    let mut lines = payload.lines().filter(|l| !l.trim().is_empty());
    let head =
        FlatObject::parse(lines.next().ok_or_else(|| WireError::Malformed("empty frame".into()))?)?;
    let v = head.u64("v")?;
    if v != u64::from(WIRE_VERSION) {
        return Err(WireError::ForeignVersion { got: v });
    }
    Ok((head, lines))
}

/// The next of a list-shaped message's `n` element lines.
fn element<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    frame: &str,
    i: usize,
    n: usize,
    what: &str,
) -> Result<&'a str, WireError> {
    lines.next().ok_or_else(|| {
        WireError::Malformed(format!("{frame} frame ends after {i} of {n} {what}(s)"))
    })
}

fn header(out: &mut String, kind: &str) {
    let _ = writeln!(out, "{{\"v\":{WIRE_VERSION},\"type\":\"{kind}\"}}");
}

fn encode_device(d: &DeviceSpec, out: &mut String) {
    let _ = writeln!(
        out,
        concat!(
            "{{\"dev\":\"{}\",\"sms\":{},\"smem\":{},\"smem_block\":{},\"threads_sm\":{},",
            "\"threads_block\":{},\"blocks_sm\":{},\"clock_ghz\":{},\"lanes\":{},",
            "\"dram_gbps\":{},\"txn\":{},\"launch_us\":{},\"eff\":{}}}"
        ),
        Escaped(d.name),
        d.num_sms,
        d.smem_per_sm,
        d.max_smem_per_block,
        d.max_threads_per_sm,
        d.max_threads_per_block,
        d.max_blocks_per_sm,
        d.clock_ghz,
        d.fma_lanes_per_sm,
        d.dram_gbps,
        d.transaction_bytes,
        d.launch_overhead_us,
        d.compute_efficiency,
    );
}

/// Decodes a device line. The preset name resolves the `&'static str`
/// device name; every numeric field then comes from the wire, so a
/// client with a customised preset (e.g. a clamped `smem_per_sm`) is
/// served faithfully. Unknown preset names are a typed error — a record
/// tuned for a device this build cannot even name must not be fabricated.
fn decode_device(line: &str) -> Result<DeviceSpec, WireError> {
    let fields = FlatObject::parse(line)?;
    let name = fields.str("dev")?;
    let preset = DeviceSpec::all()
        .into_iter()
        .find(|p| p.name == name)
        .ok_or_else(|| WireError::Malformed(format!("unknown device preset {name:?}")))?;
    Ok(DeviceSpec {
        name: preset.name,
        num_sms: fields.u32("sms")?,
        smem_per_sm: fields.u32("smem")?,
        max_smem_per_block: fields.u32("smem_block")?,
        max_threads_per_sm: fields.u32("threads_sm")?,
        max_threads_per_block: fields.u32("threads_block")?,
        max_blocks_per_sm: fields.u32("blocks_sm")?,
        clock_ghz: finite_f64(&fields, "clock_ghz")?,
        fma_lanes_per_sm: fields.u32("lanes")?,
        dram_gbps: finite_f64(&fields, "dram_gbps")?,
        transaction_bytes: fields.u32("txn")?,
        launch_overhead_us: finite_f64(&fields, "launch_us")?,
        compute_efficiency: finite_f64(&fields, "eff")?,
    })
}

fn encode_result(result: &Option<ServeResult>, out: &mut String) {
    let Some(r) = result else {
        out.push_str("{\"ok\":0}\n");
        return;
    };
    let (src, cancelled, retune) = match r.source {
        ServeSource::ShardHit => ("hit", 0, 0),
        ServeSource::Stolen => ("stolen", 0, 0),
        ServeSource::Inline { cancelled_speculative } => {
            ("inline", usize::from(cancelled_speculative), 0)
        }
        ServeSource::Anchored { retune } => ("anchor", 0, usize::from(retune)),
    };
    let _ = write!(
        out,
        "{{\"ok\":1,\"src\":\"{src}\",\"cancel\":{cancelled},\"retune\":{retune},\"fused\":{},\
         \"fresh\":{},\"cached\":{},\"cost_ms\":{},",
        usize::from(r.fused),
        r.fresh_measurements,
        r.cache_hits,
        r.cost_ms,
    );
    jsonl::write_config_fields(out, &r.config);
    out.push_str("}\n");
}

fn decode_result(line: &str) -> Result<Option<ServeResult>, WireError> {
    let fields = FlatObject::parse(line)?;
    if fields.u64("ok")? == 0 {
        return Ok(None);
    }
    let source = match fields.str("src")? {
        "hit" => ServeSource::ShardHit,
        "stolen" => ServeSource::Stolen,
        "inline" => ServeSource::Inline { cancelled_speculative: fields.u64("cancel")? != 0 },
        "anchor" => ServeSource::Anchored { retune: fields.u64("retune")? != 0 },
        other => return Err(WireError::Malformed(format!("unknown serve source {other:?}"))),
    };
    Ok(Some(ServeResult {
        source,
        fused: fields.u64("fused")? != 0,
        fresh_measurements: fields.usize("fresh")?,
        cache_hits: fields.usize("cached")?,
        cost_ms: finite_f64(&fields, "cost_ms")?,
        config: jsonl::read_config_fields(&fields)?,
    }))
}

/// Serializes a request payload (frame body, no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = String::new();
    encode_request_into(req, &mut out);
    out.into_bytes()
}

/// [`encode_request`] appending to a caller-owned string — the
/// hot-path variant that lets a connection reuse one encode buffer
/// across requests (the caller clears it). Every line is written
/// straight into `out`: no allocation beyond the buffer's own growth.
pub fn encode_request_into(req: &Request, out: &mut String) {
    match req {
        Request::Submit { device, requests } => encode_submit_into(device, requests, out),
        Request::Wait { session } => {
            let _ =
                writeln!(out, "{{\"v\":{WIRE_VERSION},\"type\":\"wait\",\"session\":{session}}}");
        }
        Request::Sync => header(out, "sync"),
        Request::Stats => header(out, "stats"),
        Request::Pull => header(out, "pull"),
        Request::Shutdown => header(out, "shutdown"),
    }
}

/// The payload of a [`Request::Submit`] from borrowed parts, so a client
/// holding a slice of requests encodes it without building the message.
pub(crate) fn encode_submit_into(device: &DeviceSpec, requests: &[TuneRequest], out: &mut String) {
    let _ = writeln!(out, "{{\"v\":{WIRE_VERSION},\"type\":\"submit\",\"n\":{}}}", requests.len());
    encode_device(device, out);
    for r in requests {
        r.write_wire_line(out);
        out.push('\n');
    }
}

/// Parses a request payload. Never panics: every malformation is a
/// typed [`WireError`].
pub fn decode_request(payload: &str) -> Result<Request, WireError> {
    let (head, mut lines) = open_payload(payload)?;
    let req = match head.str("type")? {
        "submit" => {
            let n = head.usize("n")?;
            let device = decode_device(lines.next().ok_or_else(|| {
                WireError::Malformed("submit frame is missing its device line".into())
            })?)?;
            let mut requests = Vec::with_capacity(n.min(RESERVE_CAP));
            for i in 0..n {
                let line = element(&mut lines, "submit", i, n, "request")?;
                requests.push(TuneRequest::from_wire_line(line)?);
            }
            Request::Submit { device, requests }
        }
        "wait" => Request::Wait { session: head.u64("session")? },
        "sync" => Request::Sync,
        "stats" => Request::Stats,
        "pull" => Request::Pull,
        "shutdown" => Request::Shutdown,
        other => return Err(WireError::Malformed(format!("unknown request type {other:?}"))),
    };
    if lines.next().is_some() {
        return Err(WireError::Malformed("trailing lines after message".into()));
    }
    Ok(req)
}

/// Serializes a response payload (frame body, no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = String::new();
    encode_response_into(resp, &mut out);
    out.into_bytes()
}

/// [`encode_response`] appending to a caller-owned string (see
/// [`encode_request_into`]).
pub fn encode_response_into(resp: &Response, out: &mut String) {
    match resp {
        Response::Submitted { session, unique } => {
            let _ = writeln!(
                out,
                "{{\"v\":{WIRE_VERSION},\"type\":\"submitted\",\"session\":{session},\"unique\":{unique}}}"
            );
        }
        Response::Results { results } => {
            let _ = writeln!(
                out,
                "{{\"v\":{WIRE_VERSION},\"type\":\"results\",\"n\":{}}}",
                results.len()
            );
            for r in results {
                encode_result(r, out);
            }
        }
        Response::Synced { persisted, total } => {
            let _ = writeln!(
                out,
                "{{\"v\":{WIRE_VERSION},\"type\":\"synced\",\"persisted\":{},\"total\":{total}}}",
                u8::from(*persisted)
            );
        }
        Response::Stats { metrics } => {
            let _ = writeln!(
                out,
                "{{\"v\":{WIRE_VERSION},\"type\":\"stats\",\"n\":{}}}",
                metrics.line_count()
            );
            metrics.encode_lines(out);
        }
        Response::State { store } => {
            let records =
                || store.shards().flat_map(|(_, shard)| shard.entries()).flat_map(|(_, r)| r);
            let _ = writeln!(
                out,
                "{{\"v\":{WIRE_VERSION},\"type\":\"state\",\"n\":{},\"h\":{},\"clock\":{}}}",
                records().count(),
                store.hit_stamps().count(),
                store.clock()
            );
            // One line per record, in the record store's own canonical
            // per-line codec — the wire state and the shard files are
            // the same dialect by construction.
            for rec in records() {
                jsonl::encode_into(rec, out);
                out.push('\n');
            }
            for (fp, stamp) in store.hit_stamps() {
                let _ = writeln!(out, "{{\"fp\":\"{}\",\"stamp\":{stamp}}}", Escaped(fp));
            }
        }
        Response::Bye => header(out, "bye"),
        Response::Error { message } => {
            let _ = writeln!(
                out,
                "{{\"v\":{WIRE_VERSION},\"type\":\"error\",\"msg\":\"{}\"}}",
                Escaped(message)
            );
        }
    }
}

/// Parses a response payload. Never panics on hostile input.
pub fn decode_response(payload: &str) -> Result<Response, WireError> {
    let (head, mut lines) = open_payload(payload)?;
    let resp = match head.str("type")? {
        "submitted" => {
            Response::Submitted { session: head.u64("session")?, unique: head.usize("unique")? }
        }
        "results" => {
            let n = head.usize("n")?;
            let mut results = Vec::with_capacity(n.min(RESERVE_CAP));
            for i in 0..n {
                results.push(decode_result(element(&mut lines, "results", i, n, "result")?)?);
            }
            Response::Results { results }
        }
        "synced" => {
            Response::Synced { persisted: head.u64("persisted")? != 0, total: head.usize("total")? }
        }
        "stats" => {
            let n = head.usize("n")?;
            let mut metrics = Registry::default();
            for i in 0..n {
                metrics.decode_line(element(&mut lines, "stats", i, n, "metric")?)?;
            }
            Response::Stats { metrics: metrics.snapshot() }
        }
        "state" => {
            let n = head.usize("n")?;
            let h = head.usize("h")?;
            let mut store = ShardedStore::new();
            for i in 0..n {
                store.insert(jsonl::decode(element(&mut lines, "state", i, n, "record")?)?);
            }
            for i in 0..h {
                let fields = FlatObject::parse(element(&mut lines, "state", i, h, "stamp")?)?;
                store.restore_hit(fields.str("fp")?, fields.u64("stamp")?);
            }
            store.restore_clock(head.u64("clock")?);
            Response::State { store: Box::new(store) }
        }
        "bye" => Response::Bye,
        "error" => Response::Error { message: head.str("msg")?.to_string() },
        other => return Err(WireError::Malformed(format!("unknown response type {other:?}"))),
    };
    if lines.next().is_some() {
        return Err(WireError::Malformed("trailing lines after message".into()));
    }
    Ok(resp)
}

// ------------------------------------------------------ framed messages

/// Reusable per-connection encode/decode buffers: one payload buffer
/// for inbound frames, one string for outbound encoding, one staging
/// buffer for the outbound frame. Every framed read and write goes
/// through a connection's `Scratch`, so a connection that serves many
/// frames touches the allocator once per *high-water mark* instead of
/// per request (capacity stays bounded by [`MAX_FRAME_BYTES`]).
#[derive(Default)]
pub struct Scratch {
    /// Inbound frame payload buffer.
    pub(crate) payload: Vec<u8>,
    /// Outbound encode buffer.
    pub(crate) encode: String,
    /// Outbound frame staging: length prefix + payload, one `write`.
    pub(crate) frame: Vec<u8>,
}

/// Writes one framed request.
pub fn write_request(
    w: &mut impl Write,
    req: &Request,
    scratch: &mut Scratch,
) -> Result<(), WireError> {
    write_message(w, scratch, |out| encode_request_into(req, out))
}

/// Writes one framed [`Request::Submit`] from borrowed parts (see
/// [`encode_submit_into`]).
pub(crate) fn write_submit(
    w: &mut impl Write,
    device: &DeviceSpec,
    requests: &[TuneRequest],
    scratch: &mut Scratch,
) -> Result<(), WireError> {
    write_message(w, scratch, |out| encode_submit_into(device, requests, out))
}

/// Reads one framed request; `Ok(None)` is a clean client disconnect.
/// The daemon reads every request through this function.
pub fn read_request(
    r: &mut impl Read,
    scratch: &mut Scratch,
) -> Result<Option<Request>, WireError> {
    read_message(r, scratch)?.map(decode_request).transpose()
}

/// Writes one framed response.
pub fn write_response(
    w: &mut impl Write,
    resp: &Response,
    scratch: &mut Scratch,
) -> Result<(), WireError> {
    write_message(w, scratch, |out| encode_response_into(resp, out))
}

/// Reads one framed response. A response is always owed, so a clean
/// close here is [`WireError::ConnectionClosed`].
pub fn read_response(r: &mut impl Read, scratch: &mut Scratch) -> Result<Response, WireError> {
    decode_response(read_message(r, scratch)?.ok_or(WireError::ConnectionClosed)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_core::optimality::TileKind;
    use iolb_core::shapes::{ConvShape, WinogradTile};
    use iolb_dataflow::config::ScheduleConfig;
    use iolb_tensor::layout::Layout;

    fn sample_requests() -> Vec<TuneRequest> {
        vec![
            TuneRequest::bare(ConvShape::new(32, 14, 14, 16, 1, 1, 1, 0), TileKind::Direct),
            TuneRequest::bare(
                ConvShape::square(16, 14, 16, 3, 1, 1),
                TileKind::Winograd(WinogradTile::F4X3),
            ),
            TuneRequest::fused(
                ConvShape::square(16, 28, 32, 3, 1, 1),
                TileKind::Direct,
                iolb_core::Epilogue::Relu,
            ),
            TuneRequest::fused(
                ConvShape::square(16, 28, 32, 3, 1, 1),
                TileKind::Winograd(WinogradTile::F2X3),
                iolb_core::Epilogue::ReluPool { k: 2 },
            ),
        ]
    }

    /// A two-device store with records, LRU stamps and a non-trivial
    /// clock — everything a `State` frame must carry bit-exactly.
    fn sample_store() -> ShardedStore {
        let mut store = ShardedStore::new();
        for (device, cost) in [("Tesla V100", 1.0 / 3.0), ("GTX 1080 Ti", 0.25)] {
            let workload = iolb_records::Workload::new(
                ConvShape::new(32, 14, 14, 16, 1, 1, 1, 0),
                TileKind::Direct,
                device,
                96 * 1024,
            );
            let rec =
                iolb_records::TuningRecord::new(workload.clone(), sample_result().config, cost, 7)
                    .unwrap();
            store.insert(rec);
            store.touch(&workload.fingerprint());
        }
        store
    }

    fn sample_result() -> ServeResult {
        ServeResult {
            config: ScheduleConfig {
                x: 7,
                y: 14,
                z: 8,
                nxt: 7,
                nyt: 2,
                nzt: 4,
                sb_bytes: 16 * 1024,
                layout: Layout::Chw,
            },
            cost_ms: 1.0 / 3.0,
            source: ServeSource::Inline { cancelled_speculative: true },
            fresh_measurements: 12,
            cache_hits: 3,
            fused: false,
        }
    }

    #[test]
    fn requests_round_trip() {
        let device = DeviceSpec { smem_per_sm: 1234, ..DeviceSpec::v100() };
        for req in [
            Request::Submit { device: device.clone(), requests: sample_requests() },
            Request::Submit { device, requests: Vec::new() },
            Request::Wait { session: u64::MAX - 1 },
            Request::Sync,
            Request::Stats,
            Request::Pull,
            Request::Shutdown,
        ] {
            let payload = encode_request(&req);
            let back = decode_request(std::str::from_utf8(&payload).unwrap()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        let telemetry = crate::telemetry::Telemetry::new();
        telemetry.incr("iolb_sessions_total", 5);
        telemetry.gauge("iolb_daemon_open_connections", 2);
        telemetry.observe("iolb_session_us", 1234);
        telemetry.observe("iolb_session_us", u64::MAX);
        for resp in [
            Response::Submitted { session: 7, unique: 3 },
            Response::Results { results: vec![Some(sample_result()), None] },
            Response::Results {
                results: vec![
                    Some(ServeResult {
                        source: ServeSource::Anchored { retune: true },
                        fresh_measurements: 0,
                        cache_hits: 0,
                        ..sample_result()
                    }),
                    Some(ServeResult {
                        source: ServeSource::Anchored { retune: false },
                        ..sample_result()
                    }),
                ],
            },
            Response::Results {
                results: vec![
                    Some(ServeResult { fused: true, ..sample_result() }),
                    Some(ServeResult { fused: true, cost_ms: 0.125, ..sample_result() }),
                ],
            },
            Response::Synced { persisted: true, total: 99 },
            Response::Stats { metrics: telemetry.snapshot() },
            Response::Stats { metrics: MetricsSnapshot::default() },
            Response::State { store: Box::new(sample_store()) },
            Response::State { store: Box::new(ShardedStore::new()) },
            Response::Bye,
            Response::Error { message: "tab\there \"quoted\"".to_string() },
        ] {
            let payload = encode_response(&resp);
            let back = decode_response(std::str::from_utf8(&payload).unwrap()).unwrap();
            if let (Response::Results { results: a }, Response::Results { results: b }) =
                (&resp, &back)
            {
                let lhs = a[0].as_ref().unwrap();
                let rhs = b[0].as_ref().unwrap();
                assert_eq!(lhs.cost_ms.to_bits(), rhs.cost_ms.to_bits(), "cost lost bits");
            }
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn state_round_trip_preserves_records_stamps_and_clock() {
        let store = sample_store();
        let payload = encode_response(&Response::State { store: Box::new(store.clone()) });
        let Response::State { store: back } =
            decode_response(std::str::from_utf8(&payload).unwrap()).unwrap()
        else {
            panic!("state frame decoded to a different message");
        };
        assert_eq!(back.clock(), store.clock());
        assert_eq!(back.merged().to_jsonl(), store.merged().to_jsonl(), "records drifted");
        for (fp, stamp) in store.hit_stamps() {
            assert_eq!(back.last_hit(fp), stamp, "stamp of {fp} drifted");
        }
        // A state frame cut mid-record is a typed error, never a partial
        // store.
        let text = std::str::from_utf8(&payload).unwrap();
        let cut = text.lines().next().unwrap().len() + 1 + 10;
        assert!(matches!(decode_response(&text[..cut]), Err(WireError::Malformed(_))));
    }

    #[test]
    fn framed_round_trip_over_a_buffer() {
        let req = Request::Submit { device: DeviceSpec::v100(), requests: sample_requests() };
        let (mut buf, mut scratch) = (Vec::new(), Scratch::default());
        write_request(&mut buf, &req, &mut scratch).unwrap();
        write_request(&mut buf, &Request::Shutdown, &mut scratch).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_request(&mut cursor, &mut scratch).unwrap(), Some(req));
        assert_eq!(read_request(&mut cursor, &mut scratch).unwrap(), Some(Request::Shutdown));
        assert_eq!(read_request(&mut cursor, &mut scratch).unwrap(), None, "clean end of stream");
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        let (mut full, mut scratch) = (Vec::new(), Scratch::default());
        write_request(&mut full, &Request::Stats, &mut scratch).unwrap();
        for cut in 1..full.len() {
            let mut cursor = std::io::Cursor::new(full[..cut].to_vec());
            match read_request(&mut cursor, &mut scratch) {
                Err(WireError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut prefix = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes().to_vec();
        prefix.extend_from_slice(b"whatever");
        let mut cursor = std::io::Cursor::new(prefix);
        let mut scratch = Scratch::default();
        assert!(matches!(
            read_request(&mut cursor, &mut scratch),
            Err(WireError::Oversized { len }) if len == MAX_FRAME_BYTES + 1
        ));
        assert_eq!(scratch.payload.capacity(), 0, "the payload buffer never grew");
        // And the writer refuses to emit one, before writing anything.
        let huge = Response::Error { message: "x".repeat(MAX_FRAME_BYTES) };
        let mut sink = Vec::new();
        assert!(matches!(
            write_response(&mut sink, &huge, &mut scratch),
            Err(WireError::Oversized { .. })
        ));
        assert!(sink.is_empty(), "an oversized frame wrote {} byte(s)", sink.len());
    }

    #[test]
    fn foreign_versions_are_rejected() {
        let payload = format!("{{\"v\":{},\"type\":\"stats\"}}", WIRE_VERSION + 1);
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::ForeignVersion { got }) if got == u64::from(WIRE_VERSION) + 1
        ));
        assert!(matches!(decode_response(&payload), Err(WireError::ForeignVersion { .. })));
    }

    #[test]
    fn unknown_devices_and_sources_are_rejected() {
        let mut payload = String::from_utf8(encode_request(&Request::Submit {
            device: DeviceSpec::v100(),
            requests: Vec::new(),
        }))
        .unwrap();
        payload = payload.replace("Tesla V100", "TPU v9");
        assert!(matches!(decode_request(&payload), Err(WireError::Malformed(_))));
        let resp = String::from_utf8(encode_response(&Response::Results {
            results: vec![Some(sample_result())],
        }))
        .unwrap();
        let resp = resp.replace("\"src\":\"inline\"", "\"src\":\"teleported\"");
        assert!(matches!(decode_response(&resp), Err(WireError::Malformed(_))));
    }
}
