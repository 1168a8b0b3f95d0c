//! The memory account against a counting allocator.
//!
//! `StoryPivot::memory_account` computes what each part of the engine
//! holds from the layout of its collections. This test ingests a
//! 24-source corpus (the shape of the benchmark's `identify_wide`
//! workload, where per-story state weighs most) under a counting
//! `#[global_allocator]` and asserts that
//!
//! * the parts sum to within 15 % of the live bytes the allocator saw
//!   the engine take, so no structure of any size is missing from the
//!   account, and
//! * the engine holds at most 1.2 KiB per snippet, so the next structure
//!   built eagerly for every story fails here and not in a benchmark
//!   (with a MinHash signature and two heavy-hitter maps per story, as
//!   before they were derived on read, this corpus took 3.2 KiB).
//!
//! Its own binary, one test: a global allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicIsize, Ordering};

use storypivot::gen::{CorpusBuilder, GenConfig};
use storypivot::prelude::*;
use storypivot::types::mem;

struct Counting;

/// Bytes currently allocated, process-wide. Relaxed: a statistic that
/// publishes nothing else, read on the one thread that does the work.
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are those of `System.alloc`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Engine bytes per ingested snippet the build must stay under.
const CEILING_PER_SNIPPET: f64 = 1.2 * 1024.0;

/// `mem::hash_map_bytes` restates hashbrown's table layout; hold it to
/// one real allocation per size class so a `std` that lays tables out
/// differently fails here and not as a drift in the ratio below.
#[cfg(target_arch = "x86_64")]
fn assert_table_formula_matches_the_allocator() {
    for capacity in [1, 3, 7, 8, 100, 5_000] {
        let before = LIVE.load(Ordering::Relaxed);
        let map: HashMap<u32, u64> = HashMap::with_capacity(capacity);
        let took = (LIVE.load(Ordering::Relaxed) - before) as usize;
        assert_eq!(mem::hash_map_bytes(&map), took, "table for capacity {capacity}");
    }
}

#[test]
fn account_sums_to_live_bytes_and_stays_under_the_per_snippet_ceiling() {
    let corpus = CorpusBuilder::new(
        GenConfig::default().with_seed(21).with_sources(24).with_target_snippets(9_000),
    )
    .build();

    #[cfg(target_arch = "x86_64")]
    assert_table_formula_matches_the_allocator();

    let before = LIVE.load(Ordering::Relaxed);
    let mut pivot = StoryPivot::new(PivotConfig::temporal(7 * DAY));
    for s in &corpus.sources {
        pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    for s in &corpus.snippets {
        pivot.ingest(s.clone()).unwrap();
    }
    let live = (LIVE.load(Ordering::Relaxed) - before) as f64;

    let walk = std::time::Instant::now();
    let account = pivot.memory_account();
    println!("account walked in {:?}", walk.elapsed());
    let snippets = corpus.snippets.len() as f64;
    println!("{} snippets, {} stories", corpus.snippets.len(), pivot.story_count());
    for (structure, bytes) in &account {
        println!("{structure:<24} {bytes:>10} B {:>8.1} B/snippet", *bytes as f64 / snippets);
    }
    let accounted: usize = account.iter().map(|&(_, bytes)| bytes).sum();
    let per_snippet = live / snippets;
    println!("accounted {accounted} B, live {live} B, {per_snippet:.0} B/snippet");

    let ratio = accounted as f64 / live;
    assert!((0.85..=1.15).contains(&ratio), "the account covers {ratio:.3} of the live bytes");
    assert!(
        per_snippet <= CEILING_PER_SNIPPET,
        "the engine holds {per_snippet:.0} B per snippet, ceiling {CEILING_PER_SNIPPET:.0}"
    );
    // No sketching configured, so nothing was materialised.
    assert_eq!(account.iter().find(|(s, _)| *s == "align.sketches"), Some(&("align.sketches", 0)));
}
