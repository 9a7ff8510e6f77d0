//! The flat-object JSON dialect and the JSONL codec for [`TuningRecord`]s.
//!
//! The build environment is offline, so there is no serde; everything
//! this workspace persists or sends is a line holding one flat JSON
//! object (string keys; number or string values). [`FlatObject`] is the
//! single implementation of that grammar: record-store files, wire
//! frames (`iolb_service::wire`), metrics lines, the event log and the
//! bench summaries are all read through it, so the formats cannot drift
//! apart. It borrows from the line — keys and values are slices, a
//! string is copied only when it contains an escape, number tokens stay
//! raw so a `u64` above 2^53 is exact — and reads a line in one pass:
//! time linear in its length, one allocation.
//!
//! The dialect, exactly: one object per line, whitespace (` \t\r\n`)
//! allowed around every token, nothing after the closing brace; six
//! string escapes (`\"` `\\` `\/` `\n` `\t` `\r`, no `\u`), every other
//! byte of a string literal; numbers are tokens over `0-9 + - . e E`
//! that start with `-` or a digit and parse as a Rust `f64`; no nesting,
//! no `true`/`false`/`null`; duplicate keys are rejected (they signal
//! corruption). Anything else is an `Err` with a reason — the store
//! layer turns that into a skip-and-report instead of a failed load.
//!
//! The writer is **canonical**: fixed field order, floats in Rust's
//! shortest-round-trip `Display` form, integers bare — the same record
//! always serializes to the same bytes, which is what lets two runs
//! produce bit-identical store files.

use crate::record::{parse_algo_tag, write_algo_tag, TuningRecord, Workload, SCHEMA_VERSION};
use iolb_core::epilogue::Epilogue;
use iolb_core::optimality::TileKind;
use iolb_core::shapes::ConvShape;
use iolb_dataflow::config::ScheduleConfig;
use std::borrow::Cow;
use std::cell::Cell;
use std::fmt::{self, Write as _};

/// Serializes one record as its canonical JSON line (no trailing `\n`).
///
/// `cost_ms` uses Rust's float `Display`, which prints the shortest
/// decimal that parses back to the identical bits — the codec's
/// round-trip guarantee for floats rests on that.
pub fn encode(rec: &TuningRecord) -> String {
    let mut out = String::new();
    encode_into(rec, &mut out);
    out
}

/// [`encode`] appending to a caller-owned buffer: no allocation beyond
/// the buffer's own growth.
pub fn encode_into(rec: &TuningRecord, out: &mut String) {
    let w = &rec.workload;
    let _ = write!(out, "{{\"v\":{SCHEMA_VERSION},");
    write_workload_fields(out, w.kind, w.epilogue, &w.shape);
    let _ = write!(out, ",\"dev\":\"{}\",\"smem\":{},", Escaped(&w.device), w.smem_bytes);
    write_config_fields(out, &rec.config);
    let _ = write!(out, ",\"cost_ms\":{},\"seed\":{}}}", rec.cost_ms, rec.seed);
}

/// Writes `"algo":…,["epi":…,]"batch":…,…,"pad":…` — what a record line
/// and a wire submit line (`TuneRequest::to_wire_line` in
/// `iolb-autotune`) both say about a workload, under one set of field
/// names. The unfused case emits no `"epi"`, keeping pre-fusion lines
/// byte-identical.
pub fn write_workload_fields(out: &mut String, kind: TileKind, epilogue: Epilogue, s: &ConvShape) {
    out.push_str("\"algo\":\"");
    let _ = write_algo_tag(out, kind);
    if !epilogue.is_none() {
        out.push_str("\",\"epi\":\"");
        let _ = epilogue.write_tag(out);
    }
    let _ = write!(
        out,
        "\",\"batch\":{},\"cin\":{},\"hin\":{},\"win\":{},\"cout\":{},\"kh\":{},\"kw\":{},\
         \"stride\":{},\"pad\":{}",
        s.batch, s.cin, s.hin, s.win, s.cout, s.kh, s.kw, s.stride, s.pad,
    );
}

/// Reads what [`write_workload_fields`] wrote; the shape is validated.
/// `"epi"` is optional: absent means an unfused convolution, which is
/// exactly what every pre-fusion line says.
pub fn read_workload_fields(obj: &FlatObject) -> Result<(TileKind, Epilogue, ConvShape), String> {
    let kind = parse_algo_tag(obj.str("algo")?)?;
    let epilogue = match obj.opt("epi") {
        Some(tag) => Epilogue::parse_tag(tag.as_str("epi")?)?,
        None => Epilogue::None,
    };
    let shape = ConvShape {
        batch: obj.usize("batch")?,
        cin: obj.usize("cin")?,
        hin: obj.usize("hin")?,
        win: obj.usize("win")?,
        cout: obj.usize("cout")?,
        kh: obj.usize("kh")?,
        kw: obj.usize("kw")?,
        stride: obj.usize("stride")?,
        pad: obj.usize("pad")?,
    };
    shape.validate().map_err(|e| format!("invalid shape: {e}"))?;
    Ok((kind, epilogue, shape))
}

/// Writes `"x":…,…,"sb":…,"layout":…` — a schedule config as record
/// lines and wire result lines both carry it.
pub fn write_config_fields(out: &mut String, c: &ScheduleConfig) {
    let _ = write!(
        out,
        "\"x\":{},\"y\":{},\"z\":{},\"nxt\":{},\"nyt\":{},\"nzt\":{},\"sb\":{},\"layout\":\"{}\"",
        c.x,
        c.y,
        c.z,
        c.nxt,
        c.nyt,
        c.nzt,
        c.sb_bytes,
        c.layout.name(),
    );
}

/// Reads what [`write_config_fields`] wrote.
pub fn read_config_fields(obj: &FlatObject) -> Result<ScheduleConfig, String> {
    Ok(ScheduleConfig {
        x: obj.usize("x")?,
        y: obj.usize("y")?,
        z: obj.usize("z")?,
        nxt: obj.usize("nxt")?,
        nyt: obj.usize("nyt")?,
        nzt: obj.usize("nzt")?,
        sb_bytes: obj.u32("sb")?,
        layout: obj.str("layout")?.parse()?,
    })
}

/// Parses one line into a record. Fails (with a reason) on malformed
/// JSON, missing fields, bad values, or a schema-version mismatch.
pub fn decode(line: &str) -> Result<TuningRecord, String> {
    let obj = FlatObject::parse(line)?;
    let version = obj.u64("v")?;
    if version != u64::from(SCHEMA_VERSION) {
        return Err(format!(
            "unsupported schema version {version} (this build reads {SCHEMA_VERSION})"
        ));
    }
    let (kind, epilogue, shape) = read_workload_fields(&obj)?;
    let workload = Workload {
        shape,
        kind,
        device: obj.str("dev")?.to_string(),
        smem_bytes: obj.u32("smem")?,
        epilogue,
    };
    let config = read_config_fields(&obj)?;
    TuningRecord::new(workload, config, obj.f64("cost_ms")?, obj.u64("seed")?)
}

/// One value of a [`FlatObject`]. Numbers keep their raw token so
/// integer fields are parsed exactly (a `u64` seed above 2^53 would lose
/// bits through an `f64` detour), by the accessor that knows the wanted
/// type; the reader has already checked the token is a number.
#[derive(Debug, Clone, PartialEq)]
pub enum Field<'a> {
    Num(Cow<'a, str>),
    Str(Cow<'a, str>),
}

/// A [`Field`] that owns its text, as [`parse_flat_object`] returns it.
pub type Value = Field<'static>;

impl Field<'_> {
    pub fn as_str(&self, key: &str) -> Result<&str, String> {
        match self {
            Field::Str(s) => Ok(s),
            Field::Num(_) => Err(format!("field {key:?} must be a string")),
        }
    }

    pub fn as_f64(&self, key: &str) -> Result<f64, String> {
        self.number(key, "number")
    }

    pub fn as_u64(&self, key: &str) -> Result<u64, String> {
        self.number(key, "integer")
    }

    fn number<T: std::str::FromStr>(&self, key: &str, what: &str) -> Result<T, String> {
        match self {
            Field::Num(raw) => {
                raw.parse().map_err(|_| format!("field {key:?}: bad {what} {raw:?}"))
            }
            Field::Str(_) => Err(format!("field {key:?} must be a number")),
        }
    }
}

/// One parsed line of the flat-object dialect (see the module docs),
/// borrowing from the line, with the typed field accessors every decoder
/// needs. Errors are reasons as strings, naming the field.
#[derive(Debug, Clone)]
pub struct FlatObject<'a> {
    fields: Vec<(Cow<'a, str>, Field<'a>)>,
    /// Where the next lookup starts. Canonical writers emit fields in
    /// the order their decoders ask for them, so a lookup usually hits
    /// at the cursor instead of scanning from the front; any other order
    /// still finds the field by wrapping around.
    cursor: Cell<usize>,
}

impl<'a> FlatObject<'a> {
    /// Reads one line. Single pass, linear in `line.len()`; the field
    /// list is the only allocation unless a string contains an escape.
    pub fn parse(line: &'a str) -> Result<Self, String> {
        let mut r = Reader { line, pos: 0 };
        // Sized for the widest line a hot path reads (a record: 24 fields).
        let mut fields: Vec<(Cow<'a, str>, Field<'a>)> = Vec::with_capacity(24);
        // One bit per key seen, by a hash of the key: a clear bit proves
        // the key is new, so the duplicate scan runs only on a collision.
        // Past `MASKED_KEYS` fields the mask is full and a scan per key
        // would be quadratic; such a line is checked by one sort instead.
        let mut seen = 0u64;
        r.skip_ws();
        r.expect(b'{')?;
        r.skip_ws();
        if r.peek() == Some(b'}') {
            r.pos += 1;
        } else {
            loop {
                r.skip_ws();
                let key = r.string()?;
                if fields.len() < MASKED_KEYS {
                    let bit = key_bit(&key);
                    if seen & bit != 0 && fields.iter().any(|(k, _)| *k == key) {
                        return Err(duplicate_key(&key));
                    }
                    seen |= bit;
                }
                r.skip_ws();
                r.expect(b':')?;
                r.skip_ws();
                let value = r.value()?;
                fields.push((key, value));
                r.skip_ws();
                match r.peek() {
                    Some(b',') => r.pos += 1,
                    Some(b'}') => {
                        r.pos += 1;
                        break;
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", r.pos)),
                }
            }
        }
        r.skip_ws();
        if r.pos != line.len() {
            return Err(format!("trailing garbage after object at byte {}", r.pos));
        }
        if fields.len() > MASKED_KEYS {
            let mut keys: Vec<&str> = fields.iter().map(|(k, _)| &**k).collect();
            keys.sort_unstable();
            if let Some(pair) = keys.windows(2).find(|pair| pair[0] == pair[1]) {
                return Err(duplicate_key(pair[0]));
            }
        }
        Ok(Self { fields, cursor: Cell::new(0) })
    }

    /// The fields in line order.
    pub fn fields(&self) -> &[(Cow<'a, str>, Field<'a>)] {
        &self.fields
    }

    /// The value under `key`, if the line has one.
    pub fn opt(&self, key: &str) -> Option<&Field<'a>> {
        let start = self.cursor.get();
        let at = (start..self.fields.len()).chain(0..start).find(|&i| self.fields[i].0 == key)?;
        self.cursor.set(at + 1);
        Some(&self.fields[at].1)
    }

    fn get(&self, key: &str) -> Result<&Field<'a>, String> {
        self.opt(key).ok_or_else(|| format!("missing field {key:?}"))
    }

    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.get(key)?.as_str(key)
    }

    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.get(key)?.as_f64(key)
    }

    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)?.as_u64(key)
    }

    pub fn usize(&self, key: &str) -> Result<usize, String> {
        usize::try_from(self.u64(key)?).map_err(|_| format!("field {key:?} out of range"))
    }

    pub fn u32(&self, key: &str) -> Result<u32, String> {
        u32::try_from(self.u64(key)?).map_err(|_| format!("field {key:?} out of range"))
    }
}

/// How many fields [`FlatObject::parse`] checks for duplicates key by
/// key, against its 64-bit seen-keys mask.
const MASKED_KEYS: usize = 64;

/// The bit a key sets in [`FlatObject::parse`]'s seen-keys mask: a
/// multiplicative hash of the key's length and first eight bytes.
fn key_bit(key: &str) -> u64 {
    let mut word = key.len() as u64;
    for &b in key.as_bytes().iter().take(8) {
        word = (word << 8) ^ u64::from(b);
    }
    1 << (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

/// Out of line on purpose: formatting `key` in the field loop takes its
/// address there, which keeps the loop's state out of registers and
/// doubles the time of every parse.
#[cold]
#[inline(never)]
fn duplicate_key(key: &str) -> String {
    format!("duplicate key {key:?}")
}

/// [`FlatObject::parse`] with every key and value copied out: the owning
/// form for callers that keep the fields beyond the line (the benchmark
/// crate collects them into a map). An adaptor, not a second parser.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let owned = |(key, field): (Cow<'_, str>, Field<'_>)| {
        let value = match field {
            Field::Num(raw) => Value::Num(raw.into_owned().into()),
            Field::Str(s) => Value::Str(s.into_owned().into()),
        };
        (key.into_owned(), value)
    };
    Ok(FlatObject::parse(line)?.fields.into_iter().map(owned).collect())
}

struct Reader<'a> {
    line: &'a str,
    pos: usize,
}

// The helpers below are forced inline: out of line, `string` and `value`
// alone cost a fifth of `FlatObject::parse`.
impl<'a> Reader<'a> {
    #[inline(always)]
    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    #[inline(always)]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    #[inline(always)]
    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", want as char, self.pos))
        }
    }

    /// A string literal: a slice of the line up to the closing quote,
    /// copied (run by run, so still linear) only when it has an escape.
    #[inline(always)]
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let bytes = self.line.as_bytes();
        let mut unescaped: Option<String> = None;
        loop {
            // `"` and `\` are ASCII, so every cut below is a char boundary.
            let run = self.pos;
            let stop = bytes[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            let literal = &self.line[run..run + stop];
            if bytes[run + stop] == b'"' {
                self.pos = run + stop + 1;
                return Ok(match unescaped {
                    None => Cow::Borrowed(literal),
                    Some(mut out) => {
                        out.push_str(literal);
                        Cow::Owned(out)
                    }
                });
            }
            let esc = *bytes.get(run + stop + 1).ok_or("unterminated escape")?;
            let out = unescaped.get_or_insert_with(String::new);
            out.push_str(literal);
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                other => return Err(format!("unsupported escape \\{}", other as char)),
            });
            self.pos = run + stop + 2;
        }
    }

    #[inline(always)]
    fn value(&mut self) -> Result<Field<'a>, String> {
        match self.peek() {
            Some(b'"') => Ok(Field::Str(self.string()?)),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
                    self.pos += 1;
                }
                let raw = &self.line[start..self.pos];
                // The charset above admits junk like "1e+e": a token is a
                // number if the float parser takes it. All-digit tokens —
                // nearly every number on a line — need not ask, and are
                // then parsed once, by the field that reads them.
                if !raw.bytes().all(|b| b.is_ascii_digit()) && raw.parse::<f64>().is_err() {
                    return Err(format!("bad number token {raw:?}"));
                }
                Ok(Field::Num(Cow::Borrowed(raw)))
            }
            _ => Err(format!("expected a string or number value at byte {}", self.pos)),
        }
    }
}

/// A string as the inside of a JSON string literal, written without
/// allocating: `write!(out, "\"{}\"", Escaped(name))`.
pub struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rest = self.0;
        while let Some(at) = rest.find(['"', '\\', '\n', '\t', '\r']) {
            f.write_str(&rest[..at])?;
            f.write_str(match rest.as_bytes()[at] {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\t' => "\\t",
                _ => "\\r",
            })?;
            rest = &rest[at + 1..];
        }
        f.write_str(rest)
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    Escaped(s).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_core::shapes::WinogradTile;
    use iolb_tensor::layout::Layout;

    fn record(cost: f64) -> TuningRecord {
        TuningRecord::new(
            Workload::new(
                ConvShape::square(64, 28, 32, 3, 1, 1),
                TileKind::Direct,
                "Tesla V100",
                96 * 1024,
            ),
            ScheduleConfig {
                x: 7,
                y: 7,
                z: 8,
                nxt: 7,
                nyt: 7,
                nzt: 2,
                sb_bytes: 16 * 1024,
                layout: Layout::Chw,
            },
            cost,
            0xA7E,
        )
        .unwrap()
    }

    #[test]
    fn round_trip_is_exact_including_floats() {
        // Shortest-round-trip Display must restore every bit of the cost.
        for cost in [
            0.1,
            1.0 / 3.0,
            1e-9,
            123456.789012345,
            f64::MIN_POSITIVE,
            2.2250738585072014e-308,
            9007199254740993.0, // 2^53 + 1 (rounds; still must round-trip its own bits)
        ] {
            let rec = record(cost);
            let line = encode(&rec);
            let back = decode(&line).unwrap();
            assert_eq!(back.cost_ms.to_bits(), rec.cost_ms.to_bits(), "cost {cost} lost bits");
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(encode(&record(0.5)), encode(&record(0.5)));
    }

    #[test]
    fn seeds_above_2_pow_53_survive() {
        let mut rec = record(1.0);
        rec.seed = u64::MAX - 1;
        let back = decode(&encode(&rec)).unwrap();
        assert_eq!(back.seed, u64::MAX - 1);
    }

    #[test]
    fn winograd_and_all_layouts_round_trip() {
        for layout in Layout::ALL {
            let mut rec = record(2.5);
            rec.config.layout = layout;
            rec.workload.kind = TileKind::Winograd(WinogradTile::F4X3);
            // Winograd spaces require e-multiple tiles; the codec doesn't
            // validate that (the space does), it just round-trips.
            let back = decode(&encode(&rec)).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn fused_records_round_trip_and_unfused_lines_are_unchanged() {
        use iolb_core::epilogue::Epilogue;
        let bare = encode(&record(1.0));
        assert!(!bare.contains("\"epi\""), "unfused lines must not grow an epi field");
        for epi in [Epilogue::Relu, Epilogue::ReluPool { k: 2 }] {
            let mut rec = record(1.0);
            rec.workload.epilogue = epi;
            let line = encode(&rec);
            assert!(line.contains(&format!("\"epi\":\"{}\"", epi.tag())));
            let back = decode(&line).unwrap();
            assert_eq!(back, rec);
        }
        // A bad epilogue tag is rejected, not silently dropped.
        let line = encode(&record(1.0))
            .replace("\"algo\":\"direct\",", "\"algo\":\"direct\",\"epi\":\"+swish\",");
        assert!(decode(&line).is_err());
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let line = encode(&record(1.0)).replace("\"v\":1,", "\"v\":2,");
        let err = decode(&line).unwrap_err();
        assert!(err.contains("version"), "unhelpful error: {err}");
    }

    #[test]
    fn malformed_lines_are_rejected_with_reasons() {
        for (line, why) in [
            ("", "empty"),
            ("not json at all", "no object"),
            ("{\"v\":1", "truncated"),
            ("{\"v\":1}", "missing fields"),
            ("[1,2,3]", "not an object"),
            ("{\"v\":1,\"v\":1}", "duplicate key"),
            ("{\"v\":\"one\"}", "wrong type"),
        ] {
            assert!(decode(line).is_err(), "{why}: accepted {line:?}");
        }
        // Trailing garbage after a valid object.
        let line = format!("{} trailing", encode(&record(1.0)));
        assert!(decode(&line).is_err());
        // A NaN cost can't even be written, but a hand-edited one must be
        // rejected on read.
        let line =
            encode(&record(1.0)).replace(format!("\"cost_ms\":{}", 1.0).as_str(), "\"cost_ms\":-5");
        assert!(decode(&line).is_err(), "negative cost accepted");
    }

    /// A golden field: a string, or a number token with its `u64` reading
    /// (if it has one) and the bits of its `f64` reading.
    enum G {
        S(&'static str),
        N(&'static str, Option<u64>, u64),
    }
    use G::{N, S};

    /// The dialect, pinned line by line: the verdict, fields and reasons
    /// below were printed by the parser this reader replaced (the commit
    /// before `FlatObject`), so the accept/reject set cannot move
    /// unnoticed — and no second parser is kept around to compare with.
    /// A line's verdict: its fields in order, or the reason it is refused.
    type Verdict = Result<&'static [(&'static str, G)], &'static str>;

    #[rustfmt::skip]
    const GOLDEN: &[(&str, Verdict)] = &[
        ("{}", Ok(&[])),
        (" { } ", Ok(&[])),
        ("{\"a\":1}", Ok(&[("a", N("1", Some(1), 0x3ff0000000000000))])),
        (" {\t\"a\" :\r 1 ,\n\"b\" : \"x\" } ", Ok(&[("a", N("1", Some(1), 0x3ff0000000000000)), ("b", S("x"))])),
        ("{\"a\":1}\n", Ok(&[("a", N("1", Some(1), 0x3ff0000000000000))])),
        ("\t\r\n{\"a\":\"x\"}\t\r\n", Ok(&[("a", S("x"))])),
        ("{\"\":\"\"}", Ok(&[("", S(""))])),
        ("", Err("expected '{' at byte 0")),
        ("   ", Err("expected '{' at byte 3")),
        ("{", Err("expected '\"' at byte 1")),
        ("}", Err("expected '{' at byte 0")),
        ("{\"a\":1", Err("expected ',' or '}' at byte 6")),
        ("{\"a\":1,", Err("expected '\"' at byte 7")),
        ("{\"a\":1,}", Err("expected '\"' at byte 7")),
        ("{,}", Err("expected '\"' at byte 1")),
        ("{\"a\":1,,\"b\":2}", Err("expected '\"' at byte 7")),
        ("{\"a\":1,\"a\":2}", Err("duplicate key \"a\"")),
        ("{\"a\":1,\"b\":2,\"a\":\"x\"}", Err("duplicate key \"a\"")),
        ("{\"a\":1} x", Err("trailing garbage after object at byte 8")),
        ("{\"a\":1}}", Err("trailing garbage after object at byte 7")),
        ("{\"a\":1}{\"b\":2}", Err("trailing garbage after object at byte 7")),
        ("{\"a\" 1}", Err("expected ':' at byte 5")),
        ("{\"a\":1 \"b\":2}", Err("expected ',' or '}' at byte 7")),
        ("{a:1}", Err("expected '\"' at byte 1")),
        ("{1:1}", Err("expected '\"' at byte 1")),
        ("{\"a\":}", Err("expected a string or number value at byte 5")),
        ("{\"a\"}", Err("expected ':' at byte 4")),
        ("[1,2,3]", Err("expected '{' at byte 0")),
        ("\"a\"", Err("expected '{' at byte 0")),
        ("not json at all", Err("expected '{' at byte 0")),
        ("{\"a\":{\"b\":1}}", Err("expected a string or number value at byte 5")),
        ("{\"a\":[1]}", Err("expected a string or number value at byte 5")),
        ("{\"a\":true}", Err("expected a string or number value at byte 5")),
        ("{\"a\":false}", Err("expected a string or number value at byte 5")),
        ("{\"a\":null}", Err("expected a string or number value at byte 5")),
        ("{\"a\":NaN}", Err("expected a string or number value at byte 5")),
        ("{\"a\":inf}", Err("expected a string or number value at byte 5")),
        ("{\"a\":0}", Ok(&[("a", N("0", Some(0), 0x0000000000000000))])),
        ("{\"a\":-0}", Ok(&[("a", N("-0", None, 0x8000000000000000))])),
        ("{\"a\":0123}", Ok(&[("a", N("0123", Some(123), 0x405ec00000000000))])),
        ("{\"a\":1.5}", Ok(&[("a", N("1.5", None, 0x3ff8000000000000))])),
        ("{\"a\":-5}", Ok(&[("a", N("-5", None, 0xc014000000000000))])),
        ("{\"a\":1.}", Ok(&[("a", N("1.", None, 0x3ff0000000000000))])),
        ("{\"a\":-.5}", Ok(&[("a", N("-.5", None, 0xbfe0000000000000))])),
        ("{\"a\":.5}", Err("expected a string or number value at byte 5")),
        ("{\"a\":+1}", Err("expected a string or number value at byte 5")),
        ("{\"a\":1e5}", Ok(&[("a", N("1e5", None, 0x40f86a0000000000))])),
        ("{\"a\":1E-5}", Ok(&[("a", N("1E-5", None, 0x3ee4f8b588e368f1))])),
        ("{\"a\":2.5e+3}", Ok(&[("a", N("2.5e+3", None, 0x40a3880000000000))])),
        ("{\"a\":1e999}", Ok(&[("a", N("1e999", None, 0x7ff0000000000000))])),
        ("{\"a\":1e-999}", Ok(&[("a", N("1e-999", None, 0x0000000000000000))])),
        ("{\"a\":1e+e}", Err("bad number token \"1e+e\"")),
        ("{\"a\":1e}", Err("bad number token \"1e\"")),
        ("{\"a\":1e+}", Err("bad number token \"1e+\"")),
        ("{\"a\":-}", Err("bad number token \"-\"")),
        ("{\"a\":--1}", Err("bad number token \"--1\"")),
        ("{\"a\":-e5}", Err("bad number token \"-e5\"")),
        ("{\"a\":-.}", Err("bad number token \"-.\"")),
        ("{\"a\":1.2.3}", Err("bad number token \"1.2.3\"")),
        ("{\"a\":1-2}", Err("bad number token \"1-2\"")),
        ("{\"a\":1+2}", Err("bad number token \"1+2\"")),
        ("{\"a\":1e5e5}", Err("bad number token \"1e5e5\"")),
        ("{\"a\":1x}", Err("expected ',' or '}' at byte 6")),
        ("{\"a\":1 2}", Err("expected ',' or '}' at byte 7")),
        ("{\"a\":18446744073709551615}", Ok(&[("a", N("18446744073709551615", Some(18446744073709551615), 0x43f0000000000000))])),
        ("{\"a\":18446744073709551616}", Ok(&[("a", N("18446744073709551616", None, 0x43f0000000000000))])),
        ("{\"a\":9007199254740993}", Ok(&[("a", N("9007199254740993", Some(9007199254740993), 0x4340000000000000))])),
        ("{\"a\":12345678901234567890123}", Ok(&[("a", N("12345678901234567890123", None, 0x4484ea15b273b38a))])),
        ("{\"a\":0.1,\"b\":0.3333333333333333,\"c\":2.2250738585072014e-308,\"d\":5e-324}", Ok(&[("a", N("0.1", None, 0x3fb999999999999a)), ("b", N("0.3333333333333333", None, 0x3fd5555555555555)), ("c", N("2.2250738585072014e-308", None, 0x0010000000000000)), ("d", N("5e-324", None, 0x0000000000000001))])),
        ("{\"a\":\"q\\\"b\\\\s\\/n\\nt\\tr\\r.\"}", Ok(&[("a", S("q\"b\\s/n\nt\tr\r."))])),
        ("{\"a\":\"\\\\\"}", Ok(&[("a", S("\\"))])),
        ("{\"a\":\"\\\"\"}", Ok(&[("a", S("\""))])),
        ("{\"a\":\"\\u0041\"}", Err("unsupported escape \\u")),
        ("{\"a\":\"\\x41\"}", Err("unsupported escape \\x")),
        ("{\"a\":\"\\b\"}", Err("unsupported escape \\b")),
        ("{\"a\":\"\\f\"}", Err("unsupported escape \\f")),
        ("{\"a\":\"\\0\"}", Err("unsupported escape \\0")),
        ("{\"a\":\"\\é\"}", Err("unsupported escape \\Ã")),
        ("{\"a\":\"unterminated}", Err("unterminated string")),
        ("{\"a\":\"x", Err("unterminated string")),
        ("{\"a\":\"esc\\", Err("unterminated escape")),
        ("{\"a\":\"esc\\\"}", Err("unterminated string")),
        ("{\"a", Err("unterminated string")),
        ("{\"a\":\"x\"y}", Err("expected ',' or '}' at byte 8")),
        ("{\"a\":\"raw\ttab and\nnewline\"}", Ok(&[("a", S("raw\ttab and\nnewline"))])),
        ("{\"a\":\"{}[],:\"}", Ok(&[("a", S("{}[],:"))])),
        ("{\"ключ\":\"значение\",\"k\":\"日本語 ✓ 🚀\"}", Ok(&[("ключ", S("значение")), ("k", S("日本語 ✓ 🚀"))])),
        ("{\"a\":\"é\\\\è\\n€\"}", Ok(&[("a", S("é\\è\n€"))])),
        ("{\"a\\\"b\":1,\"t\\tk\":\"v\"}", Ok(&[("a\"b", N("1", Some(1), 0x3ff0000000000000)), ("t\tk", S("v"))])),
        ("{\"a\\/b\":1,\"a/b\":2}", Err("duplicate key \"a/b\"")),
        ("{\"k\\u0041\":1}", Err("unsupported escape \\u")),
        ("{\"é\":1,\"é\":2}", Err("duplicate key \"é\"")),
        ("{\"v\":6,\"type\":\"submit\",\"n\":43}", Ok(&[("v", N("6", Some(6), 0x4018000000000000)), ("type", S("submit")), ("n", N("43", Some(43), 0x4045800000000000))])),
        ("{\"ok\":1,\"src\":\"hit\",\"cancel\":0,\"retune\":0,\"fused\":0,\"fresh\":0,\"cached\":0,\"cost_ms\":0.013312,\"x\":7,\"y\":14,\"z\":8,\"nxt\":7,\"nyt\":2,\"nzt\":4,\"sb\":16384,\"layout\":\"CHW\"}", Ok(&[("ok", N("1", Some(1), 0x3ff0000000000000)), ("src", S("hit")), ("cancel", N("0", Some(0), 0x0000000000000000)), ("retune", N("0", Some(0), 0x0000000000000000)), ("fused", N("0", Some(0), 0x0000000000000000)), ("fresh", N("0", Some(0), 0x0000000000000000)), ("cached", N("0", Some(0), 0x0000000000000000)), ("cost_ms", N("0.013312", None, 0x3f8b43526527a205)), ("x", N("7", Some(7), 0x401c000000000000)), ("y", N("14", Some(14), 0x402c000000000000)), ("z", N("8", Some(8), 0x4020000000000000)), ("nxt", N("7", Some(7), 0x401c000000000000)), ("nyt", N("2", Some(2), 0x4000000000000000)), ("nzt", N("4", Some(4), 0x4010000000000000)), ("sb", N("16384", Some(16384), 0x40d0000000000000)), ("layout", S("CHW"))])),
        ("{\"h\":\"iolb_session_us\",\"sum\":18446744073709551615,\"buckets\":\"0,1,2\"}", Ok(&[("h", S("iolb_session_us")), ("sum", N("18446744073709551615", Some(18446744073709551615), 0x43f0000000000000)), ("buckets", S("0,1,2"))])),
    ];

    #[test]
    fn golden_table_pins_the_dialect() {
        assert!(GOLDEN.len() >= 40);
        for (line, expected) in GOLDEN {
            let got = FlatObject::parse(line);
            let owned = parse_flat_object(line);
            match expected {
                Err(reason) => {
                    assert_eq!(got.err().as_deref(), Some(*reason), "{line:?}");
                    assert_eq!(owned.err().as_deref(), Some(*reason), "{line:?}");
                }
                Ok(fields) => {
                    let obj = got.unwrap_or_else(|e| panic!("{line:?} rejected: {e}"));
                    let owned = owned.expect("the adaptor accepts what the reader accepts");
                    assert_eq!(obj.fields().len(), fields.len(), "{line:?}");
                    assert_eq!(owned.len(), fields.len(), "{line:?}");
                    for (((key, want), (got_key, got)), (owned_key, owned)) in
                        fields.iter().zip(obj.fields()).zip(&owned)
                    {
                        assert_eq!(got_key, key, "{line:?}");
                        assert_eq!(owned_key, key, "{line:?}");
                        match want {
                            S(text) => {
                                assert_eq!(got.as_str(key), Ok(*text), "{line:?}");
                                assert_eq!(owned, &Value::Str(text.to_string().into()), "{line:?}");
                                assert!(got.as_u64(key).is_err() && got.as_f64(key).is_err());
                            }
                            N(raw, int, float_bits) => {
                                assert_eq!(got, &Field::Num(Cow::Borrowed(raw)), "{line:?}");
                                assert_eq!(owned, &Value::Num(raw.to_string().into()), "{line:?}");
                                assert_eq!(got.as_u64(key).ok(), *int, "{line:?} {key}");
                                assert_eq!(owned.as_u64(key).ok(), *int, "{line:?} {key}");
                                let float = got.as_f64(key).expect("a number token is an f64");
                                assert_eq!(float.to_bits(), *float_bits, "{line:?} {key}");
                                assert!(got.as_str(key).is_err());
                            }
                        }
                        // Typed lookup by name reads the same field.
                        assert_eq!(obj.opt(key), Some(got), "{line:?} {key}");
                    }
                }
            }
        }
    }

    #[test]
    fn wide_lines_reject_duplicates_wherever_they_sit() {
        let wide = |n: usize, extra: &str| {
            let fields: Vec<String> = (0..n).map(|i| format!("\"k{i}\":{i}")).collect();
            format!("{{{}{extra}}}", fields.join(","))
        };
        for n in [MASKED_KEYS - 1, MASKED_KEYS, MASKED_KEYS + 1, 1000] {
            let line = wide(n, "");
            let obj = FlatObject::parse(&line).unwrap();
            assert_eq!(obj.fields().len(), n);
            assert_eq!(obj.u64(&format!("k{}", n - 1)), Ok(n as u64 - 1));
            for dup in [0, MASKED_KEYS - 2, n - 1] {
                let line = wide(n, &format!(",\"k{dup}\":0"));
                assert_eq!(
                    FlatObject::parse(&line).err(),
                    Some(format!("duplicate key \"k{dup}\""))
                );
            }
        }
    }

    #[test]
    fn lookups_find_fields_in_any_order() {
        let obj = FlatObject::parse("{\"a\":1,\"b\":\"x\",\"c\":3}").unwrap();
        for order in [["a", "b", "c"], ["c", "b", "a"], ["b", "a", "c"], ["c", "a", "b"]] {
            for key in order {
                assert!(obj.opt(key).is_some(), "{key} after the cursor moved");
                assert!(obj.opt("missing").is_none());
            }
        }
        assert_eq!((obj.u64("c"), obj.u64("a"), obj.str("b")), (Ok(3), Ok(1), Ok("x")));
        assert_eq!(obj.u64("b"), Err("field \"b\" must be a number".to_string()));
        assert_eq!(obj.str("d"), Err("missing field \"d\"".to_string()));
        assert_eq!(
            FlatObject::parse("{\"n\":4294967296}").unwrap().u32("n"),
            Err("field \"n\" out of range".to_string())
        );
    }

    #[test]
    fn device_names_with_specials_round_trip() {
        let mut rec = record(1.0);
        rec.workload.device = "dev \"quoted\" \\ slash\tname".to_string();
        let back = decode(&encode(&rec)).unwrap();
        assert_eq!(back.workload.device, rec.workload.device);
    }
}
