//! Property tests for the daemon wire codec (mirroring the JSONL
//! corruption-tolerance tests in `iolb-records`): whatever bytes arrive
//! on the socket, the decoder returns a typed [`WireError`] — it never
//! panics, never fabricates a message, and never reads past the frame
//! cap.

use iolb_core::optimality::TileKind;
use iolb_core::shapes::ConvShape;
use iolb_dataflow::config::ScheduleConfig;
use iolb_gpusim::DeviceSpec;
use iolb_service::wire::{
    self, read_request, read_response, Request, Response, Scratch, WireError, MAX_FRAME_BYTES,
    WIRE_VERSION,
};
use iolb_service::{
    HistogramSnapshot, LatencyHistogram, MetricsSnapshot, ServiceSnapshot, ServiceStats,
    ShardedStore, TuneRequest, NUM_BUCKETS,
};
use iolb_tensor::layout::Layout;
use proptest::prelude::*;
use std::fmt::Write as _;

/// A valid framed Submit built from drawn layer coordinates.
fn framed_submit(draws: &[(u32, u32)]) -> (Request, Vec<u8>) {
    let requests: Vec<TuneRequest> = draws
        .iter()
        .map(|&(cin_pow, cout_pow)| {
            TuneRequest::bare(
                ConvShape::new(1 << (cin_pow % 5), 14, 14, 1 << (cout_pow % 5), 1, 1, 1, 0),
                TileKind::Direct,
            )
        })
        .collect();
    let request = Request::Submit { device: DeviceSpec::v100(), requests };
    let mut frame = Vec::new();
    wire::write_request(&mut frame, &request, &mut Scratch::default())
        .expect("encode valid request");
    (request, frame)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte soup through both decoders and the framed reader:
    /// typed errors only, no panics, no fabricated messages.
    #[test]
    fn arbitrary_bytes_never_panic_the_codec(
        data in prop::collection::vec(0u32..256, 0..160),
    ) {
        let bytes: Vec<u8> = data.iter().map(|&b| b as u8).collect();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = wire::decode_request(&text);
        let _ = wire::decode_response(&text);
        let mut cursor = std::io::Cursor::new(bytes);
        // The byte soup is its own framing: whatever the first 4 bytes
        // claim, the reader must return (Ok or typed Err), not panic or
        // hang.
        let _ = read_request(&mut cursor, &mut Scratch::default());
        let mut cursor = std::io::Cursor::new(text.into_bytes());
        let _ = read_response(&mut cursor, &mut Scratch::default());
    }

    /// Every strict prefix of a valid frame is rejected as truncated
    /// (or is the clean empty stream), and never decodes to a message.
    #[test]
    fn truncated_frames_are_rejected_without_panicking(
        draws in prop::collection::vec((0u32..5, 0u32..5), 0..6),
        cut_seed in 0usize..10_000,
    ) {
        let (_, frame) = framed_submit(&draws);
        let cut = cut_seed % frame.len();
        let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
        match read_request(&mut cursor, &mut Scratch::default()) {
            Ok(None) => prop_assert_eq!(cut, 0, "only the empty stream is a clean EOF"),
            Ok(Some(msg)) => prop_assert!(false, "truncated frame decoded to {msg:?}"),
            Err(WireError::Truncated { expected, got }) => prop_assert!(got < expected),
            Err(other) => prop_assert!(false, "expected Truncated, got {other:?}"),
        }
        // A response reader on the same prefix: closed or truncated,
        // never a fabricated response.
        let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
        match read_response(&mut cursor, &mut Scratch::default()) {
            Err(WireError::ConnectionClosed) => prop_assert_eq!(cut, 0),
            Err(WireError::Truncated { .. }) => prop_assert!(cut > 0),
            Err(WireError::Malformed(_)) | Err(WireError::ForeignVersion { .. }) => {
                // A request payload is not a response: also acceptable
                // once the whole frame arrived — but a *strict* prefix
                // can never parse that far.
                prop_assert!(false, "prefix decoded past the frame layer");
            }
            other => prop_assert!(false, "expected a typed error, got {other:?}"),
        }
    }

    /// Length prefixes above the cap are rejected before any payload
    /// allocation, whatever the claimed size.
    #[test]
    fn oversized_payloads_are_rejected(len_over in 1usize..(u32::MAX as usize - MAX_FRAME_BYTES)) {
        let len = MAX_FRAME_BYTES + len_over;
        let mut stream = (len as u32).to_be_bytes().to_vec();
        stream.extend_from_slice(b"ignored");
        let mut cursor = std::io::Cursor::new(stream);
        match read_request(&mut cursor, &mut Scratch::default()) {
            Err(WireError::Oversized { len: got }) => prop_assert_eq!(got, len),
            other => prop_assert!(false, "expected Oversized, got {other:?}"),
        }
    }

    /// Unknown message versions are rejected whole, with the version
    /// reported — obsolete ones (version-1 peers predate Pull/State)
    /// just like future ones.
    #[test]
    fn foreign_versions_are_rejected(
        version in prop_oneof![
            0u64..u64::from(WIRE_VERSION),
            (u64::from(WIRE_VERSION) + 1)..1_000_000,
        ],
    ) {
        let payload = format!("{{\"v\":{version},\"type\":\"sync\"}}");
        match wire::decode_request(&payload) {
            Err(WireError::ForeignVersion { got }) => prop_assert_eq!(got, version),
            other => prop_assert!(false, "expected ForeignVersion, got {other:?}"),
        }
        match wire::decode_response(&payload) {
            Err(WireError::ForeignVersion { got }) => prop_assert_eq!(got, version),
            other => prop_assert!(false, "expected ForeignVersion, got {other:?}"),
        }
    }

    /// Valid submits round-trip exactly through the framed reader.
    #[test]
    fn valid_submits_round_trip(draws in prop::collection::vec((0u32..5, 0u32..5), 0..8)) {
        let (request, frame) = framed_submit(&draws);
        let mut cursor = std::io::Cursor::new(frame);
        prop_assert_eq!(read_request(&mut cursor, &mut Scratch::default()).unwrap(), Some(request));
    }

    /// `State` frames — the anti-entropy payload — round-trip an
    /// arbitrary store exactly (records, LRU stamps, clock), and every
    /// strict prefix of the frame is rejected at the framing layer,
    /// never decoded into a partial store.
    #[test]
    fn state_frames_round_trip(
        draws in prop::collection::vec((0u32..5, 0u32..3, 1u32..50, 0u32..4), 0..8),
        cut_seed in 0usize..10_000,
    ) {
        let mut store = ShardedStore::new();
        for &(cin_pow, dev, cost_scale, touches) in &draws {
            let device = ["Tesla V100", "GTX 1080 Ti", "Jetson AGX"][dev as usize];
            let workload = iolb_records::Workload::new(
                ConvShape::new(1 << (cin_pow % 5), 14, 14, 16, 1, 1, 1, 0),
                TileKind::Direct,
                device,
                96 * 1024,
            );
            let config = ScheduleConfig {
                x: 7, y: 7, z: 1 << (cin_pow % 5),
                nxt: 1, nyt: 1, nzt: 1,
                sb_bytes: 16 * 1024,
                layout: Layout::Chw,
            };
            let fingerprint = workload.fingerprint();
            store.insert(
                iolb_records::TuningRecord::new(workload, config, f64::from(cost_scale) / 3.0, 7)
                    .expect("valid record"),
            );
            for _ in 0..touches {
                store.touch(&fingerprint);
            }
        }
        let response = Response::State { store: Box::new(store.clone()) };
        let mut frame = Vec::new();
        wire::write_response(&mut frame, &response, &mut Scratch::default()).expect("encode state");
        let mut cursor = std::io::Cursor::new(frame.clone());
        match read_response(&mut cursor, &mut Scratch::default()).expect("read state back") {
            Response::State { store: got } => prop_assert_eq!(*got, store),
            other => prop_assert!(false, "expected State, got {other:?}"),
        }
        let cut = cut_seed % frame.len();
        let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
        match read_response(&mut cursor, &mut Scratch::default()) {
            Err(WireError::ConnectionClosed) => prop_assert_eq!(cut, 0),
            Err(WireError::Truncated { expected, got }) => prop_assert!(got < expected),
            other => prop_assert!(false, "expected a framing error, got {other:?}"),
        }
    }

    /// v6 `Stats` frames round-trip an arbitrary metrics registry —
    /// counters, gauges, and full histogram bucket vectors — exactly,
    /// and the typed service view read out of the decoded registry
    /// equals the one read out of the original. This pins the
    /// acceptance bar that readouts fetched over the wire equal the
    /// in-process registry.
    #[test]
    fn stats_frames_round_trip(
        counters in prop::collection::vec((0u32..26, 0u64..1_000_000_000), 0..6),
        gauges in prop::collection::vec((0u32..26, 0u64..1_000_000_000), 0..4),
        histograms in prop::collection::vec(
            (0u32..26, prop::collection::vec(0u64..1_000_000, NUM_BUCKETS)),
            0..4,
        ),
        fresh in 0usize..1_000_000,
        queue_len in 0usize..10_000,
    ) {
        // Distinct sorted names, as a real registry snapshot yields.
        let named = |draws: &[(u32, u64)]| -> Vec<(String, u64)> {
            let mut out: Vec<(String, u64)> = draws
                .iter()
                .map(|&(n, v)| (format!("iolb_metric_{:02}", n % 26), v))
                .collect();
            out.sort();
            out.dedup_by(|a, b| a.0 == b.0);
            out
        };
        let mut hists: Vec<HistogramSnapshot> = histograms
            .iter()
            .map(|(n, buckets)| HistogramSnapshot {
                name: format!("iolb_hist_{:02}_us", n % 26),
                histogram: LatencyHistogram::from_parts(
                    buckets.iter().sum(),
                    buckets,
                ).expect("fixed arity"),
            })
            .collect();
        hists.sort_by(|a, b| a.name.cmp(&b.name));
        hists.dedup_by(|a, b| a.name == b.name);
        let mut metrics = MetricsSnapshot {
            counters: named(&counters),
            gauges: named(&gauges),
            histograms: hists,
        };
        // The service's own counters and gauges ride in the same registry.
        let stats = ServiceStats { fresh_measurements: fresh, ..Default::default() };
        let mut service = MetricsSnapshot::default();
        service.counters.extend(stats.counters().into_iter().filter(|(_, v)| *v > 0));
        service.gauges.push(("iolb_queue_len".to_string(), queue_len as u64));
        service.gauges.push(("iolb_budget_left".to_string(), queue_len as u64 / 2));
        metrics.merge(&service);
        let snapshot = ServiceSnapshot::from_metrics(&metrics);
        prop_assert_eq!(snapshot.stats.fresh_measurements, fresh);
        prop_assert_eq!((snapshot.queue_len, snapshot.budget_left), (queue_len, queue_len / 2));
        let response = Response::Stats { metrics: metrics.clone() };
        let mut frame = Vec::new();
        wire::write_response(&mut frame, &response, &mut Scratch::default()).expect("encode stats");
        let mut cursor = std::io::Cursor::new(frame);
        match read_response(&mut cursor, &mut Scratch::default()).expect("read stats back") {
            Response::Stats { metrics: got } => {
                prop_assert_eq!(ServiceSnapshot::from_metrics(&got), snapshot);
                prop_assert_eq!(got, metrics);
            }
            other => prop_assert!(false, "expected Stats, got {other:?}"),
        }
    }
}

/// Previous protocol revisions are rejected whole by both sides —
/// a v2 peer (pre-histogram `Stats`), a v3 peer (pre-anchor serve
/// source), a v4 peer (pre-fusion: no `epi` request field, no `fused`
/// result flag) or a v5 peer (`Stats` still carrying a separate
/// counter snapshot) must get a clean [`WireError::ForeignVersion`], not a
/// partially-understood message, from the request decoder and the
/// response decoder alike.
#[test]
fn stale_wire_versions_are_rejected_by_both_decoders() {
    assert_eq!(WIRE_VERSION, 6, "update this pin when the protocol rolls");
    for stale in [2u64, 3, 4, 5] {
        for kind in ["sync", "stats", "shutdown"] {
            let payload = format!("{{\"v\":{stale},\"type\":\"{kind}\"}}");
            match wire::decode_request(&payload) {
                Err(WireError::ForeignVersion { got }) if got == stale => {}
                other => panic!("request decoder: expected ForeignVersion({stale}), got {other:?}"),
            }
            match wire::decode_response(&payload) {
                Err(WireError::ForeignVersion { got }) if got == stale => {}
                other => {
                    panic!("response decoder: expected ForeignVersion({stale}), got {other:?}")
                }
            }
        }
    }
}

/// A `Submit` whose shape overflows is refused with a typed error, in a
/// debug build (where the unchecked `hin + 2 * pad` panicked) and in
/// release (where it wrapped and the shape was accepted with a two-row
/// output, or with zero MACs).
#[test]
fn hostile_shapes_in_a_submit_are_refused_with_a_typed_error() {
    let shape = ConvShape::new(16, 14, 14, 8, 1, 1, 1, 0);
    let request = Request::Submit {
        device: DeviceSpec::v100(),
        requests: vec![TuneRequest::bare(shape, TileKind::Direct)],
    };
    let payload = String::from_utf8(wire::encode_request(&request)).expect("frames are UTF-8");
    let fields = |batch: u64, cin: u64, cout: u64, k: u64, pad: u64| {
        format!(
            "\"batch\":{batch},\"cin\":{cin},\"hin\":14,\"win\":14,\"cout\":{cout},\
             \"kh\":{k},\"kw\":{k},\"stride\":1,\"pad\":{pad}"
        )
    };
    let valid = fields(1, 16, 8, 1, 0);
    assert!(payload.contains(&valid), "submit line moved: {payload}");
    let big = 1u64 << 32;
    for hostile in [fields(1, 16, 8, 3, 1 << 63), fields(big, big, big, 1, 0)] {
        let payload = payload.replace(&valid, &hostile);
        match wire::decode_request(&payload) {
            Err(WireError::Malformed(why)) => assert!(why.contains("overflow"), "{why}"),
            other => panic!("{hostile}: expected a typed refusal, got {other:?}"),
        }
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(payload.as_bytes());
        match read_request(&mut frame.as_slice(), &mut Scratch::default()) {
            Err(WireError::Malformed(why)) => assert!(why.contains("overflow"), "{why}"),
            other => {
                panic!("{hostile}: expected a typed refusal from the framed reader, got {other:?}")
            }
        }
    }
}

/// ROADMAP aim 3, "never by hang": decoding is linear in the payload, so
/// a frame at the cap costs milliseconds. The frame deadline covers
/// *reading* a frame, not decoding it, so a quadratic decoder (the
/// reader before `FlatObject` spent 23 s of CPU on the first frame
/// below, in a release build) is a hang by another name. Bounds are for
/// a debug test build on a loaded two-core host; the best of three
/// tries is taken so a descheduled test thread does not fail the build.
#[test]
fn a_frame_at_the_cap_decodes_in_linear_time() {
    fn best_of_three(mut decode: impl FnMut()) -> std::time::Duration {
        (0..3)
            .map(|_| {
                let started = std::time::Instant::now();
                decode();
                started.elapsed()
            })
            .min()
            .expect("three tries")
    }
    let limit = std::time::Duration::from_millis(250);
    let device_line = String::from_utf8(wire::encode_request(&Request::Submit {
        device: DeviceSpec::v100(),
        requests: Vec::new(),
    }))
    .expect("frames are UTF-8");
    for (kib, limit) in [(1000, limit), (256, limit / 4)] {
        // Escape-heavy on purpose (four bytes on the wire per repeat):
        // every other character is copied out of an escape.
        let message = "é\"".repeat(kib * 1024 / 4);
        let error =
            String::from_utf8(wire::encode_response(&Response::Error { message: message.clone() }))
                .expect("frames are UTF-8");
        assert!(error.len() <= MAX_FRAME_BYTES && error.len() >= kib * 1024);
        let took = best_of_three(|| match wire::decode_response(&error) {
            Ok(Response::Error { message: got }) => assert_eq!(got, message),
            other => panic!("expected the error message back, got {other:?}"),
        });
        assert!(took < limit, "{kib} KiB error frame took {took:?}");

        // A submit whose device name is the whole frame: refused (no
        // such preset), and refused quickly.
        let submit = device_line.replace("Tesla V100", &"x".repeat(kib * 1024));
        assert!(submit.len() <= MAX_FRAME_BYTES);
        let took = best_of_three(|| {
            assert!(matches!(wire::decode_request(&submit), Err(WireError::Malformed(_))));
        });
        assert!(took < limit, "{kib} KiB submit frame took {took:?}");
    }

    // One line of very many fields instead of one long string: the
    // duplicate-key check must not compare every key with every other.
    let mut wide = String::from("{\"v\":6,\"type\":\"sync\"");
    let mut fields = 0;
    while wide.len() < MAX_FRAME_BYTES - 32 {
        write!(wide, ",\"k{fields}\":{fields}").expect("writing to a String");
        fields += 1;
    }
    wide.push('}');
    assert!(fields > 50_000 && wide.len() <= MAX_FRAME_BYTES);
    let took = best_of_three(|| {
        assert_eq!(wire::decode_request(&wide).expect("unknown fields are ignored"), Request::Sync);
    });
    assert!(took < limit, "a header of {fields} fields took {took:?}");
    wide.insert_str(wide.len() - 1, ",\"k7\":7");
    assert!(matches!(wire::decode_request(&wide), Err(WireError::Malformed(_))), "duplicate key");

    // Many short lines instead of one long string: 10 000 results.
    let hit = iolb_service::ServeResult {
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
        source: iolb_service::ServeSource::ShardHit,
        fresh_measurements: 0,
        cache_hits: 0,
        fused: false,
    };
    let results: Vec<_> = (0..10_000).map(|i| (i % 2 == 0).then(|| hit.clone())).collect();
    let response = Response::Results { results };
    let frame = String::from_utf8(wire::encode_response(&response)).expect("frames are UTF-8");
    assert!(frame.len() <= MAX_FRAME_BYTES && frame.len() > MAX_FRAME_BYTES * 3 / 4);
    let took = best_of_three(|| {
        assert_eq!(wire::decode_response(&frame).expect("valid frame"), response);
    });
    assert!(took < limit, "10 000-result frame took {took:?}");

    // A `stats` reply whose names arrive in descending order: each one
    // belongs at the front of a name-sorted list, so decoding must not
    // insert them into one as they come.
    for (names, limit) in [(40_000, limit), (10_000, limit / 3)] {
        let counters = (0..names).map(|i| (format!("m{i:05}"), 1)).collect();
        let sorted =
            Response::Stats { metrics: MetricsSnapshot { counters, ..Default::default() } };
        let frame = String::from_utf8(wire::encode_response(&sorted)).expect("frames are UTF-8");
        let mut lines: Vec<&str> = frame.lines().collect();
        lines[1..].reverse();
        let descending = lines.join("\n");
        assert!(descending.len() <= MAX_FRAME_BYTES && lines.len() == names + 1);
        let took = best_of_three(|| {
            assert_eq!(wire::decode_response(&descending).expect("valid frame"), sorted);
        });
        assert!(took < limit, "a stats frame of {names} descending names took {took:?}");
    }

    // The fleet folds its peers' `stats` replies into one snapshot: two
    // full-frame replies with no name in common (every incoming name
    // sorts before every held one) must merge in one pass, not by
    // inserting each name into a sorted list.
    for (names, limit) in [(40_000, limit), (10_000, limit / 3)] {
        let snapshot = |prefix: char| MetricsSnapshot {
            counters: (0..names).map(|i| (format!("{prefix}{i:05}"), 1)).collect(),
            ..Default::default()
        };
        let (incoming, held) = (snapshot('a'), snapshot('b'));
        let took = best_of_three(|| {
            let mut merged = held.clone();
            merged.merge(&incoming);
            assert_eq!(merged.counters.len(), 2 * names);
            assert!(merged.counters.windows(2).all(|w| w[0].0 < w[1].0), "names stay sorted");
        });
        assert!(took < limit, "merging two disjoint {names}-name snapshots took {took:?}");
    }
}
