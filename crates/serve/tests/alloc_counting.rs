//! Counting-allocator proof for the zero-copy decode path: once a
//! connection's read buffer holds a small frame, parsing and decoding
//! it must not touch the heap at all. A regression here (say, an
//! accidental `to_vec` inside `decode_borrowed`) turns every request
//! on a 10k-connection box back into allocator traffic, which is
//! exactly what the multiplexed runtime was built to avoid.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use storypivot_serve::proto::{frame, frame_into, frame_ready, Request, RequestRef, Response};
use storypivot_types::{DocId, SourceKind, StoryId};

struct Counting;

thread_local! {
    // Per thread: the tests in this binary run on parallel threads, and
    // one test's warm-up must not count against the other's steady state.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations observed while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    f();
    ALLOCS.get() - before
}

#[test]
fn small_frame_decode_is_allocation_free_at_steady_state() {
    // The frames the server sees per-request on the hot path. AddSource
    // borrows its name from the frame; GetStory/RemoveDoc/Query/Stats
    // are fixed-size.
    let frames: Vec<Vec<u8>> = vec![
        frame(|b| Request::QueryStories.encode(b)),
        frame(|b| Request::GetStory(StoryId::new(7)).encode(b)),
        frame(|b| Request::RemoveDoc(DocId::new(9)).encode(b)),
        frame(|b| Request::Stats.encode(b)),
        frame(|b| Request::Metrics.encode(b)),
        frame(|b| {
            Request::AddSource {
                name: "zero copy herald".into(),
                kind: SourceKind::Newspaper,
                lag: 3600,
            }
            .encode(b)
        }),
    ];

    // Warm-up pass: any lazy one-time setup happens here.
    for f in &frames {
        let total = frame_ready(f).unwrap().unwrap();
        let _ = Request::decode_borrowed(&f[4..total]).unwrap();
    }

    for f in &frames {
        let n = allocs_during(|| {
            for _ in 0..100 {
                let total = frame_ready(f).unwrap().unwrap();
                let req = Request::decode_borrowed(&f[4..total]).unwrap();
                // Touch the decoded value so the borrow is real work,
                // not dead code.
                match req {
                    RequestRef::AddSource { name, .. } => assert!(!name.is_empty()),
                    RequestRef::GetStory(id) => assert_eq!(id.raw(), 7),
                    RequestRef::RemoveDoc(id) => assert_eq!(id.raw(), 9),
                    _ => {}
                }
            }
        });
        assert_eq!(n, 0, "borrowed decode of {:?} allocated {n} times in 100 iterations", &f[4..5]);
    }
}

#[test]
fn small_response_encode_into_warm_buffer_is_allocation_free() {
    // The server's reply path: frame_into re-encodes into a pooled
    // buffer whose capacity survives from the previous checkout.
    let responses = [
        Response::Ingested(StoryId::new(3)),
        Response::Removed(12),
        Response::Busy { retry_after_ms: 25 },
        Response::ShutdownAck,
    ];
    let mut buf = Vec::with_capacity(256);
    // Warm-up establishes capacity.
    for r in &responses {
        frame_into(&mut buf, |b| r.encode(b));
    }
    let n = allocs_during(|| {
        for _ in 0..100 {
            for r in &responses {
                frame_into(&mut buf, |b| r.encode(b));
            }
        }
    });
    assert_eq!(n, 0, "steady-state reply encode allocated {n} times");
}
