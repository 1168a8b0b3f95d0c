//! The heap traffic of one identification probe, against a counting
//! allocator.
//!
//! `Identifier::score_probe` runs once per ingested snippet. Its scratch
//! is pooled, and its window is a borrowed slice of the store's
//! per-source index, so at steady state a probe should touch the heap
//! only when a pooled buffer or a story's stored fold outgrows what it
//! had. This test drives an `identify_dense`-shaped stream (the
//! benchmark's world seed, 2 sources, ω = 14 days) through
//! `EventStore::insert` + `Identifier::score_probe` and holds the second
//! half of it to a ceiling on allocations plus reallocations per probe.
//! A window collected into a fresh `Vec<&Snippet>` per probe costs ≈ 8.7
//! here; the compact slice costs under 1.
//!
//! Its own binary: a global allocator is process-wide. The counters are
//! per thread, so the harness's other threads do not count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use storypivot::core::identify::Identifier;
use storypivot::gen::{CorpusBuilder, GenConfig};
use storypivot::prelude::*;
use storypivot::store::EventStore;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are those of `System.alloc`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations plus reallocations one steady-state probe may make, on
/// average over the second half of the stream.
const CEILING_PER_PROBE: f64 = 2.0;

/// `(allocations, reallocations)` so far on this thread.
fn counts() -> (u64, u64) {
    (ALLOCS.get(), REALLOCS.get())
}

#[test]
fn a_steady_state_probe_stays_under_the_heap_ceiling() {
    let corpus = CorpusBuilder::new(
        GenConfig::default().with_seed(2015).with_sources(2).with_target_snippets(7_500),
    )
    .build();
    let cfg = PivotConfig::temporal(14 * DAY);
    let mut store = EventStore::new();
    let mut idents = Vec::new();
    for s in &corpus.sources {
        store.register_source(s.clone()).unwrap();
        idents.push(Identifier::new(s.id, cfg.identify.clone(), cfg.sketch));
    }

    let half = corpus.snippets.len() / 2;
    let (mut allocs, mut reallocs, mut probes, mut compared) = (0u64, 0u64, 0u64, 0u64);
    for (i, s) in corpus.snippets.iter().enumerate() {
        store.insert(s.clone()).unwrap();
        let ident = &mut idents[s.source.index()];
        let before = counts();
        let (c, _, _) = ident.score_probe(s, &store);
        let after = counts();
        if i >= half {
            allocs += after.0 - before.0;
            reallocs += after.1 - before.1;
            probes += 1;
            compared += c as u64;
        }
        ident.assign(s, &store);
        if ident.maintenance_due() {
            ident.maintain(&store);
        }
    }

    let per = |n: u64| n as f64 / probes as f64;
    println!(
        "{probes} probes, {:.0} candidates each: {:.2} allocations + {:.2} reallocations per probe",
        per(compared),
        per(allocs),
        per(reallocs)
    );
    // A stream whose windows are near empty would prove nothing.
    assert!(per(compared) >= 100.0, "windows of {:.0} candidates", per(compared));
    let total = per(allocs + reallocs);
    assert!(
        total <= CEILING_PER_PROBE,
        "a probe makes {total:.2} heap operations, ceiling {CEILING_PER_PROBE}"
    );
}
