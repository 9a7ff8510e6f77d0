//! Allocation pin for the wire codec — a count, so it repeats exactly on
//! any host: decoding a frame allocates once per line (the line's field
//! list) plus a small constant, and encoding into a warm
//! [`wire::Scratch`] does not allocate at all. (The owning parser this
//! replaced allocated about 35 times per line.)

use iolb_autotune::plan::{algo_candidates, fast_config};
use iolb_core::shapes::ConvShape;
use iolb_gpusim::DeviceSpec;
use iolb_service::wire::{self, Request, Response, Scratch};
use iolb_service::{ServeResult, ServeSource, TuneRequest};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell` of a `Copy` type, so touching it
// neither allocates nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// ResNet-18's conv layers (`iolb_cnn::models::resnet18`, which this
/// crate cannot depend on): every layer × algorithm candidate, 28
/// requests — the benchmark's median hit session.
fn resnet18_session() -> Vec<TuneRequest> {
    let mut shapes =
        vec![ConvShape::new(3, 224, 224, 64, 7, 7, 2, 3), ConvShape::square(64, 56, 64, 3, 1, 1)];
    for (hw, cin, cout) in [(56, 64, 128), (28, 128, 256), (14, 256, 512)] {
        shapes.push(ConvShape::new(cin, hw, hw, cout, 3, 3, 2, 1));
        shapes.push(ConvShape::new(cin, hw, hw, cout, 1, 1, 2, 0));
        shapes.push(ConvShape::square(cout, hw / 2, cout, 3, 1, 1));
        shapes.push(ConvShape::square(cout, hw / 2, cout, 3, 1, 1));
    }
    shapes
        .iter()
        .flat_map(|s| algo_candidates(s).into_iter().map(|(kind, _)| TuneRequest::bare(*s, kind)))
        .collect()
}

#[test]
fn decoding_allocates_once_per_line_and_warm_encoding_not_at_all() {
    let device = DeviceSpec::v100();
    let requests = resnet18_session();
    assert_eq!(requests.len(), 28);
    let results: Vec<Option<ServeResult>> = requests
        .iter()
        .map(|r| {
            fast_config(&r.shape, r.kind, &device).map(|config| ServeResult {
                config,
                cost_ms: 1.0 / 3.0,
                source: ServeSource::ShardHit,
                fresh_measurements: 0,
                cache_hits: 0,
                fused: false,
            })
        })
        .collect();
    let submit = Request::Submit { device, requests };
    let answer = Response::Results { results };
    let submit_text = String::from_utf8(wire::encode_request(&submit)).expect("UTF-8");
    let answer_text = String::from_utf8(wire::encode_response(&answer)).expect("UTF-8");

    // Per line: its field list. Beyond that, the submit decoder makes the
    // request vector and the device-preset list; the results decoder the
    // result vector.
    let (count, decoded) = allocations(|| wire::decode_request(&submit_text));
    assert_eq!(decoded.expect("valid frame"), submit);
    let lines = submit_text.lines().count() as u64;
    assert!(count <= lines + 2, "submit: {count} allocations for {lines} lines");

    let (count, decoded) = allocations(|| wire::decode_response(&answer_text));
    assert_eq!(decoded.expect("valid frame"), answer);
    let lines = answer_text.lines().count() as u64;
    assert!(count <= lines + 1, "results: {count} allocations for {lines} lines");

    // A connection's scratch grows to its high-water mark once; after
    // that a frame is encoded and staged without touching the allocator.
    let mut scratch = Scratch::default();
    let mut sink = std::io::sink();
    wire::write_request_buffered(&mut sink, &submit, &mut scratch).expect("warm-up");
    wire::write_response_buffered(&mut sink, &answer, &mut scratch).expect("warm-up");
    let (count, wrote) = allocations(|| {
        wire::write_request_buffered(&mut sink, &submit, &mut scratch)
            .and_then(|()| wire::write_response_buffered(&mut sink, &answer, &mut scratch))
    });
    wrote.expect("sink never fails");
    assert_eq!(count, 0, "encoding into a warm Scratch allocated");
}
