//! Same bytes, same verdicts across the parser replacement: the frame
//! payloads and the shard directory under `tests/fixtures/wire_v6/` were
//! written by the build *before* `FlatObject` (wire version 6, record
//! schema 1). This build must read every one of them and write the very
//! same bytes back — which is what lets an old client talk to a new
//! daemon, and a new daemon open an old store, and vice versa.

use conv_iolb::service::wire::{self, Request, Response, WIRE_VERSION};
use conv_iolb::service::ShardedStore;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire_v6").join(name)
}

fn payload(name: &str) -> String {
    String::from_utf8(std::fs::read(fixture(name)).expect("fixture readable")).expect("UTF-8")
}

#[test]
fn parent_written_frames_decode_and_re_encode_byte_identically() {
    assert_eq!(WIRE_VERSION, 6, "regenerate tests/fixtures/wire_v6 when the protocol rolls");
    let submit = payload("submit.frame");
    let request = wire::decode_request(&submit).expect("parent submit frame decodes");
    match &request {
        Request::Submit { device, requests } => {
            assert_eq!((device.name, device.smem_per_sm), ("Tesla V100", 65536));
            assert_eq!(requests.len(), 56);
            assert_eq!(requests.iter().filter(|r| !r.epilogue.is_none()).count(), 28);
        }
        other => panic!("expected Submit, got {other:?}"),
    }
    assert_eq!(wire::encode_request(&request), submit.as_bytes());

    for name in ["results.frame", "stats.frame", "state.frame", "error.frame"] {
        let text = payload(name);
        let response = wire::decode_response(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        match (name, &response) {
            ("results.frame", Response::Results { results }) => {
                assert_eq!(results.len(), 56);
                assert!(results.iter().any(Option::is_none) && results.iter().any(Option::is_some));
            }
            ("stats.frame", Response::Stats { metrics }) => {
                assert_eq!(metrics.counter("iolb_sessions_total"), Some(5));
                assert_eq!(metrics.counter("iolb_kind_served_total{kind=\"w2x3\"}"), Some(3));
                assert_eq!(metrics.histogram("iolb_session_us").map(|h| h.sum()), Some(u64::MAX));
            }
            ("state.frame", Response::State { store }) => assert_eq!(store.len(), 228),
            ("error.frame", Response::Error { message }) => {
                assert_eq!(message, "tab\there \"quoted\" back\\slash /slash\r\nünïcode 日本");
            }
            (_, other) => panic!("{name} decoded to {other:?}"),
        }
        assert_eq!(wire::encode_response(&response), text.as_bytes(), "{name} re-encodes");
    }
}

#[test]
fn parent_written_shard_directory_loads_clean_and_re_saves_byte_identically() {
    let (store, report) = ShardedStore::load(fixture("shards")).expect("fixture directory loads");
    assert!(report.is_clean(), "warnings: {:?}", report.warnings);
    assert_eq!((store.len(), report.loaded, store.shard_count()), (228, 228, 2));
    // The state frame was encoded from this very store.
    match wire::decode_response(&payload("state.frame")).expect("state frame decodes") {
        Response::State { store: over_the_wire } => assert_eq!(*over_the_wire, store),
        other => panic!("expected State, got {other:?}"),
    }
    let dir = std::env::temp_dir().join(format!("iolb-wire-fixtures-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    store.save(&dir).expect("re-save");
    let names = |d: &std::path::Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(d)
            .expect("directory listable")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    assert_eq!(names(&dir), names(&fixture("shards")));
    for name in names(&dir) {
        let (ours, theirs) =
            (std::fs::read(dir.join(&name)), std::fs::read(fixture("shards").join(&name)));
        assert_eq!(ours.expect("re-saved file"), theirs.expect("fixture file"), "{name} differs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
