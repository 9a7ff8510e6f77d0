//! Dependency-free telemetry: counters, gauges, log-spaced latency
//! histograms, and a structured JSONL event log.
//!
//! The serving paths ([`crate::service`], [`crate::daemon`],
//! [`crate::fleet`]) are instrumented with a [`Telemetry`] registry —
//! monotonic counters, gauges, and fixed-bucket [`LatencyHistogram`]s —
//! which is also where every service counter lives
//! ([`crate::service::ServiceStats`] is a view read out of it). Its
//! snapshots have one line encoding (`MetricsSnapshot::encode_lines`):
//! the wire `Stats` response carries it, the stats sidecar stores it,
//! and `tune-cache metrics` renders either as Prometheus-style text.
//!
//! Two properties carry the design:
//!
//! * **Observation never feeds tuning.** Every measured duration is a
//!   side channel; tuning results stay a pure function of
//!   `(workload, budget, seed)` with instrumentation enabled — the
//!   bit-identical contracts in `tests/daemon.rs`/`tests/fleet.rs` hold
//!   unchanged.
//! * **Histogram merge is associative and commutative with exact count
//!   conservation** (bucket-wise saturating addition), so per-peer
//!   snapshots fold across a fleet in any order — pinned by
//!   `tests/proptest_telemetry.rs`.
//!
//! The event log is a seq-numbered JSONL sink (same flat-object dialect
//! as the record store) covering the request lifecycle: session submit →
//! queue wait → measure/steal/hit → persist. Sequence numbers are
//! assigned under the sink lock, so under `RAYON_NUM_THREADS=1` the
//! emitted order is deterministic. Warn/error events additionally mirror
//! to stderr, replacing the daemon's former bare `eprintln!`s; the
//! `log_event!` macro is the one emission path.

use iolb_records::jsonl::{escape, Escaped, FlatObject};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of histogram buckets. Bucket `i < NUM_BUCKETS - 1` counts
/// observations with value `<= 2^i` (log-spaced: 1 µs, 2 µs, 4 µs, …
/// ~67 s for microsecond latencies); the last bucket is the overflow.
pub const NUM_BUCKETS: usize = 28;

/// Upper bound of bucket `i` (raw units; `u64::MAX` for the overflow
/// bucket).
pub fn bucket_bound(i: usize) -> u64 {
    if i + 1 < NUM_BUCKETS {
        1u64 << i
    } else {
        u64::MAX
    }
}

/// A fixed-bucket, log-spaced histogram of non-negative integer
/// observations (canonically microseconds; `daemon_frame_bytes` reuses
/// the same buckets for sizes). Merging adds bucket-wise, so the total
/// count is conserved exactly and merge order never matters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    counts: [u64; NUM_BUCKETS],
    sum: u64,
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a histogram from wire parts. Rejects a bucket list of
    /// the wrong arity — a foreign bucket layout must not be silently
    /// reinterpreted.
    pub fn from_parts(sum: u64, buckets: &[u64]) -> Result<Self, String> {
        let counts: [u64; NUM_BUCKETS] = buckets.try_into().map_err(|_| {
            format!("histogram carries {} bucket(s), expected {NUM_BUCKETS}", buckets.len())
        })?;
        Ok(Self { counts, sum })
    }

    /// Records one observation (raw units, canonically µs).
    pub fn record(&mut self, value: u64) {
        let bucket =
            (0..NUM_BUCKETS - 1).find(|&i| value <= bucket_bound(i)).unwrap_or(NUM_BUCKETS - 1);
        self.counts[bucket] = self.counts[bucket].saturating_add(1);
        self.sum = self.sum.saturating_add(value);
    }

    /// Total observations — always the exact sum of the bucket counts.
    pub fn count(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// Sum of all observed values (raw units).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Per-bucket counts, in bound order.
    pub fn buckets(&self) -> &[u64; NUM_BUCKETS] {
        &self.counts
    }

    /// Folds another histogram in: bucket-wise saturating addition.
    /// Associative and commutative, and (absent saturation) conserves
    /// the exact total count — so fleet-wide merges are order-free.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The `q`-quantile readout (`0 < q <= 1`): the upper bound of the
    /// bucket holding the `ceil(q * count)`-th smallest observation.
    /// Exact in the sense that the same bucket counts always produce the
    /// same readout, merged or not; resolution is the bucket width. The
    /// overflow bucket reads as `2^(NUM_BUCKETS - 1)`. Empty → 0.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= target {
                return if i + 1 < NUM_BUCKETS { 1u64 << i } else { 1u64 << (NUM_BUCKETS - 1) };
            }
        }
        1u64 << (NUM_BUCKETS - 1)
    }
}

/// One named histogram inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub histogram: LatencyHistogram,
}

/// A point-in-time copy of a [`Telemetry`] registry: the thing the
/// `Stats` wire message carries, the stats sidecar stores and
/// `tune-cache metrics` renders. Names are sorted, so encodes are
/// canonical.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub histograms: Vec<HistogramSnapshot>,
}

/// Folds `theirs` into the name-sorted `mine` in one pass over both:
/// equal names combine through `fold`, new names are cloned in, `mine`
/// stays name-sorted.
fn merge_named<T: Clone>(
    mine: &mut Vec<T>,
    theirs: &[T],
    name: impl Fn(&T) -> &str,
    fold: impl Fn(&mut T, &T),
) {
    if theirs.is_empty() {
        return;
    }
    // Snapshots are name-sorted by construction, so this sort is one
    // comparison per element; it only moves anything for a hand-built
    // list.
    let mut theirs: Vec<&T> = theirs.iter().collect();
    theirs.sort_by(|a, b| name(a).cmp(name(b)));
    let mut out: Vec<T> = Vec::with_capacity(mine.len() + theirs.len());
    let mut rest = std::mem::take(mine).into_iter().peekable();
    for t in theirs {
        while let Some(m) = rest.next_if(|m| name(m) <= name(t)) {
            out.push(m);
        }
        match out.last_mut() {
            Some(last) if name(last) == name(t) => fold(last, t),
            _ => out.push(t.clone()),
        }
    }
    out.extend(rest);
    *mine = out;
}

impl MetricsSnapshot {
    /// Folds another snapshot in: counters and gauges add by name
    /// (saturating), histograms merge by name. Order-free, like the
    /// fleet's stats aggregation that uses it, and linear in the two
    /// snapshots' sizes — a peer's reply may hold 40 000 names.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let add = |mine: &mut (String, u64), theirs: &(String, u64)| {
            mine.1 = mine.1.saturating_add(theirs.1);
        };
        merge_named(&mut self.counters, &other.counters, |c| c.0.as_str(), add);
        merge_named(&mut self.gauges, &other.gauges, |g| g.0.as_str(), add);
        merge_named(
            &mut self.histograms,
            &other.histograms,
            |h| h.name.as_str(),
            |mine, theirs| mine.histogram.merge(&theirs.histogram),
        );
    }

    /// What `self` counted on top of `baseline`: every counter becomes
    /// `self - baseline` (saturating; unchanged counters drop out), while
    /// gauges and histograms — point-in-time readings, not increments —
    /// are carried as they are. [`merge`](Self::merge)-ing the result
    /// into another process's snapshot is how counters add up across
    /// writers instead of the last one erasing the rest.
    pub(crate) fn counters_since(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| (name.clone(), v.saturating_sub(baseline.counter(name).unwrap_or(0))))
            .filter(|(_, delta)| *delta > 0)
            .collect();
        MetricsSnapshot { counters, ..self.clone() }
    }

    /// The one line encoding of a snapshot — what the stats sidecar, the
    /// wire `stats` frame and everything reading either carry: one flat
    /// JSON object per metric, self-describing by its first key
    /// (`"c"` counter, `"g"` gauge, `"h"` histogram), in name order.
    /// Written straight into `out`, [`line_count`](Self::line_count)
    /// lines of it.
    pub(crate) fn encode_lines(&self, out: &mut String) {
        for (kind, list) in [("c", &self.counters), ("g", &self.gauges)] {
            for (name, value) in list {
                let _ = writeln!(out, "{{\"{kind}\":\"{}\",\"val\":{value}}}", Escaped(name));
            }
        }
        for h in &self.histograms {
            let _ = write!(
                out,
                "{{\"h\":\"{}\",\"sum\":{},\"buckets\":\"",
                Escaped(&h.name),
                h.histogram.sum()
            );
            for (i, count) in h.histogram.buckets().iter().enumerate() {
                let _ = write!(out, "{}{count}", if i == 0 { "" } else { "," });
            }
            out.push_str("\"}\n");
        }
    }

    /// How many lines [`encode_lines`](Self::encode_lines) writes: one
    /// per metric.
    pub(crate) fn line_count(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms.iter().find(|h| h.name == name).map(|h| &h.histogram)
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Prometheus-style text exposition: `# TYPE` lines, cumulative
    /// `_bucket{le="..."}` series, `_sum`/`_count` per histogram. Bucket
    /// bounds are raw units (µs for `*_us` histograms, bytes for
    /// `*_bytes`); a name may carry embedded `{label="..."}` pairs,
    /// which render verbatim (the `# TYPE` line strips them).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let base = name.split('{').next().unwrap_or(name);
            out.push_str(&format!("# TYPE {base} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let base = name.split('{').next().unwrap_or(name);
            out.push_str(&format!("# TYPE {base} gauge\n{name} {value}\n"));
        }
        for h in &self.histograms {
            let name = &h.name;
            let base = name.split('{').next().unwrap_or(name);
            out.push_str(&format!("# TYPE {base} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &c) in h.histogram.buckets().iter().enumerate() {
                cumulative = cumulative.saturating_add(c);
                let le =
                    if i + 1 < NUM_BUCKETS { format!("{}", 1u64 << i) } else { "+Inf".to_string() };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n", h.histogram.sum()));
            out.push_str(&format!("{name}_count {}\n", h.histogram.count()));
        }
        out
    }
}

/// Named metrics, keyed by name: what a [`Telemetry`] handle guards,
/// and what `MetricsSnapshot::encode_lines` lines are decoded into —
/// a frame of `n` names in any order costs `n log n`, where inserting
/// each into the snapshot's sorted lists would cost `n^2`.
#[derive(Default)]
pub(crate) struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, LatencyHistogram>,
}

impl Registry {
    /// Decodes one `MetricsSnapshot::encode_lines` line (added by
    /// name, so a repeated name accumulates, saturating). Strict:
    /// anything that is not a metric line is an error and changes
    /// nothing — the wire decoder surfaces it, the sidecar loader skips
    /// the line.
    pub(crate) fn decode_line(&mut self, line: &str) -> Result<(), String> {
        let fields = FlatObject::parse(line)?;
        // The first key says which kind of metric the line is; its value
        // is the metric's name.
        match fields.fields().first().map(|(kind, _)| &**kind) {
            Some(kind @ ("c" | "g")) => {
                let (name, value) = (fields.str(kind)?, fields.u64("val")?);
                let list = if kind == "c" { &mut self.counters } else { &mut self.gauges };
                let slot = list.entry(name.to_string()).or_insert(0);
                *slot = slot.saturating_add(value);
            }
            Some("h") => {
                let name = fields.str("h")?;
                let sum = fields.u64("sum")?;
                let buckets: Vec<u64> = fields
                    .str("buckets")?
                    .split(',')
                    .map(|b| b.parse().map_err(|_| format!("non-numeric histogram bucket {b:?}")))
                    .collect::<Result<_, String>>()?;
                let histogram = LatencyHistogram::from_parts(sum, &buckets)?;
                self.histograms.entry(name.to_string()).or_default().merge(&histogram);
            }
            _ => return Err(format!("not a metric line: {line:?}")),
        }
        Ok(())
    }

    /// A copy of everything, names sorted.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(n, v)| (n.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(n, v)| (n.clone(), *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, h)| HistogramSnapshot { name: n.clone(), histogram: h.clone() })
                .collect(),
        }
    }
}

/// A cloneable handle on one metrics registry. Every
/// [`crate::TuningService`] owns one (shared with its daemon when
/// served); the [`crate::FleetRouter`] keeps its own for router-side
/// metrics and merges the peers' in on demand.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Arc<Mutex<Registry>>,
}

impl Telemetry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds to a monotonic counter. Adding zero is a no-op: a counter
    /// nothing ever bumped stays absent from the registry. The name is
    /// only copied the first time it is seen.
    pub fn incr(&self, name: &str, by: u64) {
        if by == 0 {
            return;
        }
        let mut reg = self.inner.lock().expect("telemetry registry poisoned");
        match reg.counters.get_mut(name) {
            Some(slot) => *slot = slot.saturating_add(by),
            None => {
                reg.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Moves one count from counter `from` to counter `to`, atomically —
    /// an event booked under one name turned out to belong to another
    /// (a queued job promoted to a stronger tier).
    pub(crate) fn rebook(&self, from: &str, to: &str) {
        let mut reg = self.inner.lock().expect("telemetry registry poisoned");
        if let Some(slot) = reg.counters.get_mut(from) {
            *slot = slot.saturating_sub(1);
        }
        *reg.counters.entry(to.to_string()).or_insert(0) += 1;
    }

    /// Sets a gauge to its current value.
    pub(crate) fn gauge(&self, name: &str, value: u64) {
        let mut reg = self.inner.lock().expect("telemetry registry poisoned");
        reg.gauges.insert(name.to_string(), value);
    }

    /// Records one raw observation into a named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        let mut reg = self.inner.lock().expect("telemetry registry poisoned");
        reg.histograms.entry(name.to_string()).or_default().record(value);
    }

    /// Records a duration (as whole microseconds) into a named histogram.
    pub(crate) fn observe_since(&self, name: &str, start: Instant) {
        let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.observe(name, us);
    }

    /// A point-in-time copy of the counters alone — what the typed
    /// stats view reads, without copying every histogram's buckets.
    pub(crate) fn counters(&self) -> MetricsSnapshot {
        let reg = self.inner.lock().expect("telemetry registry poisoned");
        MetricsSnapshot {
            counters: reg.counters.iter().map(|(n, v)| (n.clone(), *v)).collect(),
            ..MetricsSnapshot::default()
        }
    }

    /// A point-in-time copy of everything, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.lock().expect("telemetry registry poisoned").snapshot()
    }
}

// ------------------------------------------------------------ event log

/// Event severity. Warn and above mirror to stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Level {
    Debug,
    Info,
    Warn,
    Error,
}

impl Level {
    fn label(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

struct Sink {
    writer: Box<dyn Write + Send>,
    level: Level,
}

/// A seq-numbered structured event log writing flat-JSON lines. The
/// global instance ([`events`]) is what [`log_event!`] emits to;
/// tests construct their own. Without a sink, only warn/error events do
/// anything (the stderr mirror); set `IOLB_EVENT_LOG=<path>` (and
/// optionally `IOLB_EVENT_LEVEL=debug|info|warn|error`) before first use
/// to capture the full lifecycle as JSONL.
#[derive(Default)]
pub(crate) struct EventLog {
    seq: AtomicU64,
    sink: Mutex<Option<Sink>>,
}

impl EventLog {
    fn new() -> Self {
        Self::default()
    }

    /// Directs events at `level` and above into a JSONL writer.
    fn set_sink(&self, writer: Box<dyn Write + Send>, level: Level) {
        *self.sink.lock().expect("event sink poisoned") = Some(Sink { writer, level });
    }

    /// Emits one event. The sequence number is assigned under the sink
    /// lock, so sink order always equals seq order; under
    /// `RAYON_NUM_THREADS=1` both are deterministic.
    pub(crate) fn emit(&self, level: Level, event: &str, fields: &[(&str, String)]) {
        let mut sink = self.sink.lock().expect("event sink poisoned");
        if level >= Level::Warn {
            let mut line = format!("iolb[{}] {event}", level.label());
            for (k, v) in fields {
                line.push_str(&format!(" {k}={v}"));
            }
            eprintln!("{line}");
        }
        let Some(s) = sink.as_mut() else { return };
        if level < s.level {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut line = format!(
            "{{\"seq\":{seq},\"level\":\"{}\",\"event\":\"{}\"",
            level.label(),
            escape(event)
        );
        for (k, v) in fields {
            line.push_str(&format!(",\"{}\":\"{}\"", escape(k), escape(v)));
        }
        line.push_str("}\n");
        // A failing sink must never take the serving path down with it.
        let _ = s.writer.write_all(line.as_bytes());
        let _ = s.writer.flush();
    }
}

/// The process-wide event log. First use installs a JSONL sink from
/// `IOLB_EVENT_LOG` / `IOLB_EVENT_LEVEL` if set.
pub(crate) fn events() -> &'static EventLog {
    static EVENTS: OnceLock<EventLog> = OnceLock::new();
    EVENTS.get_or_init(|| {
        let log = EventLog::new();
        if let Ok(path) = std::env::var("IOLB_EVENT_LOG") {
            let level = match std::env::var("IOLB_EVENT_LEVEL").as_deref() {
                Ok("debug") => Level::Debug,
                Ok("warn") => Level::Warn,
                Ok("error") => Level::Error,
                _ => Level::Info,
            };
            if let Ok(file) = std::fs::OpenOptions::new().create(true).append(true).open(&path) {
                log.set_sink(Box::new(file), level);
            }
        }
        log
    })
}

/// Emits one structured event through the global [`EventLog`]:
/// `log_event!(Warn, "daemon.persist_failed", dir = dir.display(), error = e)`.
/// Field values format through `Display`. Warn/error mirror to stderr;
/// everything lands in the JSONL sink when one is configured.
macro_rules! log_event {
    ($level:ident, $event:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::telemetry::events().emit(
            $crate::telemetry::Level::$level,
            $event,
            &[$((stringify!($key), ::std::string::ToString::to_string(&$value))),*],
        )
    };
}
pub(crate) use log_event;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_into_log_spaced_buckets() {
        let mut h = LatencyHistogram::new();
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.buckets()[0], 2, "0 and 1 land in the <=1 bucket");
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 2, "3 and 4 land in the <=4 bucket");
        assert_eq!(h.buckets()[10], 1, "1000 lands in the <=1024 bucket");
        assert_eq!(h.buckets()[NUM_BUCKETS - 1], 1, "u64::MAX overflows");
        assert_eq!(h.sum(), u64::MAX, "sum saturates, never wraps");
    }

    #[test]
    fn quantiles_read_bucket_upper_bounds() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram reads 0");
        for v in 0..100u64 {
            h.record(v * 10); // 0..990 µs
        }
        assert_eq!(h.quantile(0.5), 512);
        assert_eq!(h.quantile(0.99), 1024);
        assert_eq!(h.quantile(1.0), 1024);
    }

    #[test]
    fn merge_conserves_counts_and_commutes() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in [1, 5, 900, 1 << 20] {
            a.record(v);
        }
        for v in [2, 2, 70_000] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), a.count() + b.count());
        assert_eq!(ab.sum(), a.sum() + b.sum());
    }

    #[test]
    fn snapshot_merge_folds_by_name() {
        let t1 = Telemetry::new();
        t1.incr("requests_total", 3);
        t1.gauge("queue_len", 5);
        t1.observe("wait_us", 100);
        let t2 = Telemetry::new();
        t2.incr("requests_total", 4);
        t2.incr("evictions_total", 1);
        t2.observe("wait_us", 200);
        let mut merged = t1.snapshot();
        merged.merge(&t2.snapshot());
        assert_eq!(merged.counter("requests_total"), Some(7));
        assert_eq!(merged.counter("evictions_total"), Some(1));
        assert_eq!(merged.histogram("wait_us").unwrap().count(), 2);
        // Merging the other way lands on the same snapshot.
        let mut other = t2.snapshot();
        other.merge(&t1.snapshot());
        assert_eq!(merged, other);
    }

    #[test]
    fn zero_increments_leave_no_trace_and_rebook_moves_one_count() {
        let t = Telemetry::new();
        t.incr("never_total", 0);
        assert_eq!(t.snapshot().counter("never_total"), None);
        t.incr("neighbor_total", 2);
        t.rebook("neighbor_total", "batch_total");
        let snap = t.snapshot();
        assert_eq!(
            (snap.counter("neighbor_total"), snap.counter("batch_total")),
            (Some(1), Some(1))
        );
    }

    #[test]
    fn line_encoding_round_trips_and_rejects_non_metric_lines() {
        let t = Telemetry::new();
        t.incr("iolb_requests_total", 3);
        t.incr("iolb_hits_total{kind=\"cin-halved\"}", 1);
        t.gauge("iolb_queue_len", 5);
        t.observe("iolb_wait_us", 100);
        let snap = t.snapshot();
        let mut text = String::new();
        snap.encode_lines(&mut text);
        assert_eq!(text.lines().count(), 4, "one line per metric");
        let mut back = Registry::default();
        for line in text.lines() {
            back.decode_line(line).unwrap();
        }
        assert_eq!(back.snapshot(), snap);
        for junk in [
            "not a line",
            "{\"unknown_key\":5}",
            "{\"c\":\"x\"}",
            "{\"h\":\"x\",\"sum\":1,\"buckets\":\"1,2\"}",
        ] {
            assert!(back.decode_line(junk).is_err(), "{junk} must be rejected");
        }
        assert_eq!(back.snapshot(), snap, "a rejected line leaves the registry untouched");
    }

    #[test]
    fn counters_since_is_what_merges_additively_across_writers() {
        let t = Telemetry::new();
        t.incr("a_total", 5);
        t.incr("b_total", 1);
        let baseline = t.snapshot();
        t.incr("a_total", 2);
        t.incr("c_total", 4);
        t.gauge("queue_len", 9);
        let delta = t.snapshot().counters_since(&baseline);
        assert_eq!(delta.counters, vec![("a_total".to_string(), 2), ("c_total".to_string(), 4)]);
        assert_eq!(delta.gauges, vec![("queue_len".to_string(), 9)], "gauges are readings");
        // Another writer's view plus the delta is the sum of both.
        let mut disk = baseline.clone();
        disk.merge(&delta);
        assert_eq!((disk.counter("a_total"), disk.counter("b_total")), (Some(7), Some(1)));
    }

    #[test]
    fn prometheus_exposition_has_type_lines_and_cumulative_buckets() {
        let t = Telemetry::new();
        t.incr("iolb_requests_total", 2);
        t.observe("iolb_wait_us", 3);
        t.observe("iolb_wait_us", 5);
        let text = t.snapshot().to_prometheus();
        assert!(text.contains("# TYPE iolb_requests_total counter\niolb_requests_total 2\n"));
        assert!(text.contains("# TYPE iolb_wait_us histogram\n"));
        assert!(text.contains("iolb_wait_us_bucket{le=\"2\"} 0\n"));
        assert!(text.contains("iolb_wait_us_bucket{le=\"4\"} 1\n"));
        assert!(text.contains("iolb_wait_us_bucket{le=\"8\"} 2\n"));
        assert!(text.contains("iolb_wait_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("iolb_wait_us_sum 8\n"));
        assert!(text.contains("iolb_wait_us_count 2\n"));
        // Embedded labels render verbatim but the TYPE line strips them.
        let t = Telemetry::new();
        t.incr("fleet_requests{peer=\"a\"}", 1);
        let text = t.snapshot().to_prometheus();
        assert!(text.contains("# TYPE fleet_requests counter\nfleet_requests{peer=\"a\"} 1\n"));
    }

    #[test]
    fn event_log_assigns_dense_ordered_seqs() {
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buffer = Arc::new(Mutex::new(Vec::new()));
        let log = EventLog::new();
        log.set_sink(Box::new(Shared(buffer.clone())), Level::Info);
        log.emit(Level::Info, "session.submit", &[("requests", "4".to_string())]);
        log.emit(Level::Debug, "queue.claim", &[]); // below sink level: dropped
        log.emit(Level::Warn, "daemon.persist_failed", &[("error", "disk on fire".to_string())]);
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":0,\"level\":\"info\",\"event\":\"session.submit\""));
        assert!(lines[1].starts_with("{\"seq\":1,\"level\":\"warn\""));
        assert!(lines[1].contains("\"error\":\"disk on fire\""));
        // Every line is the store's flat-object dialect.
        for line in lines {
            FlatObject::parse(line).expect("event line parses");
        }
    }

    #[test]
    fn from_parts_round_trips_and_rejects_foreign_arity() {
        let mut h = LatencyHistogram::new();
        for v in [3, 900, 1 << 24] {
            h.record(v);
        }
        let back = LatencyHistogram::from_parts(h.sum(), h.buckets()).unwrap();
        assert_eq!(back, h);
        assert!(LatencyHistogram::from_parts(0, &[1, 2, 3]).is_err());
    }
}
