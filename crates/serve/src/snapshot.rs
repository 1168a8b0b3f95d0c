//! Epoch-versioned, immutable per-shard read snapshots.
//!
//! Every QUERY_STORIES and GET_STORY used to ride the same bounded
//! MPSC queue as ingest, so a read flash-crowd competed with writes
//! for shard-worker time. Instead, each shard worker publishes a
//! [`ShardSnapshot`] (under its shard's owner lock: on the shard thread,
//! or on the I/O worker applying an uncontended INGEST inline) — an immutable, id-sorted view of its story
//! partition — into a [`SnapshotSlot`]. Publication is an `Arc` swap
//! behind a readers–writer lock held for nanoseconds: readers clone the
//! `Arc` and release the lock, so queries never block the writer and
//! the writer never blocks queries. I/O workers answer reads directly
//! from the slots on the connection's own thread, bypassing the shard
//! queues entirely.
//!
//! **A publish costs what the ops since the last one changed, not what
//! the shard holds.** Stories are `Arc`'d and shared between epochs.
//! The worker keeps the current vector in a [`StoryTable`]; to publish
//! it drains the engine's change log (`StoryPivot::drain_changes`),
//! [`StoryTable::patch`]es exactly those ids — binary search, then
//! replace / insert / remove, cloning and sorting the members of that
//! story only — and hands out a clone of the vector of `Arc`s. An
//! unchanged story costs one reference-count bump: no allocation, no
//! member copy, no sort, no hash lookup. (Measured on `serve_mixed`,
//! ~310 stories per shard: 1–2 stories patched and ≈ 3 µs per publish,
//! against ≈ 36 µs for rebuilding every summary.) [`summaries`] is the
//! from-scratch builder: it seeds the table whenever the engine object
//! is replaced (recovery, rebuild after a panic, replica bootstrap), and
//! it is the oracle — debug builds assert patched == rebuilt on every
//! publish.
//!
//! A snapshot is published after every applied op, before that op's
//! reply: per snippet inside an INGEST_BATCH, once per shipped batch on
//! a follower, once more per drain and whenever the engine object is
//! replaced. That ordering *is* read-your-writes — a
//! client that saw its write acked is guaranteed the next read, on any
//! connection, reflects it — and it needs no clock and no knob: at
//! ≈ 3 µs a publish there is nothing to amortise.

use std::sync::{Arc, PoisonError, RwLock};

use crate::proto::StorySummary;
use storypivot_core::StoryPivot;
use storypivot_types::StoryId;

/// An immutable snapshot of one shard's story partition.
#[derive(Debug, Default)]
pub struct ShardSnapshot {
    /// Publication sequence number: bumped on every publish, starting
    /// at 1 for the post-recovery snapshot (epoch 0 is the empty
    /// pre-recovery placeholder).
    pub epoch: u64,
    /// Every story on the shard, sorted by story id; member lists are
    /// sorted too (the engine's partition order). Entries are shared
    /// with the neighbouring epochs that did not change them.
    pub stories: Vec<Arc<StorySummary>>,
}

impl ShardSnapshot {
    /// Look up one story by id (binary search over the sorted vec).
    pub fn get(&self, id: StoryId) -> Option<&StorySummary> {
        self.stories
            .binary_search_by_key(&id, |s| s.id)
            .ok()
            .map(|i| &*self.stories[i])
    }
}

/// One story as the wire reports it, or `None` when the engine no
/// longer has it.
pub fn summary_of(pivot: &StoryPivot, id: StoryId) -> Option<StorySummary> {
    let state = pivot.story(id)?;
    let mut members = state.story.members.clone();
    members.sort_unstable();
    Some(StorySummary {
        id,
        source: state.source(),
        lifespan: state.lifespan(),
        members,
    })
}

/// Every story of the engine, from scratch, sorted by id: what a
/// [`StoryTable`] is seeded with and what it must equal after any
/// sequence of patches.
pub fn summaries(pivot: &StoryPivot) -> Vec<StorySummary> {
    pivot
        .story_partition()
        .into_iter()
        .map(|(id, members)| {
            let state = pivot.story(id).expect("partitioned story exists");
            StorySummary {
                id,
                source: state.source(),
                lifespan: state.lifespan(),
                members,
            }
        })
        .collect()
}

/// The shard worker's own, always-current story vector — what the next
/// publish hands out. Kept id-sorted.
#[derive(Debug, Default)]
pub struct StoryTable {
    stories: Vec<Arc<StorySummary>>,
}

impl StoryTable {
    /// Start over from a from-scratch rebuild (`all` sorted by id).
    pub fn seed(&mut self, all: Vec<StorySummary>) {
        debug_assert!(all.windows(2).all(|w| w[0].id < w[1].id));
        self.stories = all.into_iter().map(Arc::new).collect();
    }

    /// Bring the entries of `changed` up to date: `lookup` returns a
    /// changed story's current summary, or `None` when it no longer
    /// exists. Returns how many entries were replaced, inserted or
    /// removed. Snapshots handed out earlier keep their old entries.
    pub fn patch(
        &mut self,
        changed: &[StoryId],
        mut lookup: impl FnMut(StoryId) -> Option<StorySummary>,
    ) -> usize {
        let mut patched = 0;
        for &id in changed {
            match (self.stories.binary_search_by_key(&id, |s| s.id), lookup(id)) {
                (Ok(i), Some(story)) => self.stories[i] = Arc::new(story),
                (Ok(i), None) => drop(self.stories.remove(i)),
                (Err(i), Some(story)) => self.stories.insert(i, Arc::new(story)),
                // Created and gone again between two publishes.
                (Err(_), None) => continue,
            }
            patched += 1;
        }
        patched
    }

    /// The current vector as epoch `epoch`: one `Arc` bump per story.
    pub fn snapshot(&self, epoch: u64) -> ShardSnapshot {
        ShardSnapshot {
            epoch,
            stories: self.stories.clone(),
        }
    }

    /// Whether the table equals a from-scratch rebuild.
    pub fn matches(&self, rebuilt: &[StorySummary]) -> bool {
        self.stories.iter().map(|s| &**s).eq(rebuilt)
    }
}

/// The slot holding a shard's newest published snapshot.
///
/// The shard worker is the only publisher, whichever thread holds its
/// owner lock; I/O workers (and tests) are the readers. Swap-on-publish means a reader that loaded the old
/// `Arc` keeps a consistent view for as long as it likes without
/// holding any lock. The lock is only ever held for an `Arc` clone or a
/// `mem::replace`, so there is no half-written state behind a poisoned
/// one and both sides ride through poisoning.
#[derive(Debug, Default)]
pub struct SnapshotSlot {
    inner: RwLock<Arc<ShardSnapshot>>,
}

impl SnapshotSlot {
    /// An empty epoch-0 slot (what readers see before recovery ends).
    pub fn new() -> SnapshotSlot {
        SnapshotSlot::default()
    }

    /// Swap in a new snapshot. The previous one is released after the
    /// lock: when no reader holds it, that walks its whole story vector.
    pub fn publish(&self, snap: Arc<ShardSnapshot>) {
        let previous = {
            let mut current = self.inner.write().unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *current, snap)
        };
        drop(previous);
    }

    /// Clone out the current snapshot; the lock is held only for the
    /// `Arc` clone.
    pub fn load(&self) -> Arc<ShardSnapshot> {
        Arc::clone(&self.inner.read().unwrap_or_else(PoisonError::into_inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storypivot_types::{SnippetId, SourceId, TimeRange, Timestamp};

    fn summary(id: u32, members: &[u32]) -> StorySummary {
        StorySummary {
            id: StoryId::new(id),
            source: SourceId::new(id >> 24),
            lifespan: TimeRange::new(Timestamp::from_secs(0), Timestamp::from_secs(1)),
            members: members.iter().map(|&m| SnippetId::new(m)).collect(),
        }
    }

    fn table(stories: &[StorySummary]) -> StoryTable {
        let mut t = StoryTable::default();
        t.seed(stories.to_vec());
        t
    }

    #[test]
    fn get_binary_searches_the_sorted_stories() {
        let snap = table(&[summary(2, &[2]), summary(5, &[5]), summary(9, &[9])]).snapshot(1);
        assert_eq!(snap.get(StoryId::new(5)).unwrap().id, StoryId::new(5));
        assert!(snap.get(StoryId::new(4)).is_none());
        assert!(ShardSnapshot::default().get(StoryId::new(0)).is_none());
    }

    #[test]
    fn publish_swaps_for_every_handle_and_old_readers_keep_their_view() {
        let slot = Arc::new(SnapshotSlot::new());
        let reader = Arc::clone(&slot);
        assert_eq!(reader.load().epoch, 0);
        let old = reader.load();
        slot.publish(Arc::new(table(&[summary(3, &[3])]).snapshot(1)));
        // The other handle sees the new epoch; the Arc loaded earlier
        // still reads the old, consistent view.
        assert_eq!(reader.load().epoch, 1);
        assert_eq!(old.epoch, 0);
        assert!(old.stories.is_empty());

        // A thread that dies holding the lock poisons it; the slot only
        // ever holds a whole `Arc`, so both sides carry on.
        let poisoner = Arc::clone(&slot);
        let died = std::thread::spawn(move || {
            let _guard = poisoner.inner.write();
            panic!("poison the slot");
        })
        .join();
        assert!(died.is_err());
        assert_eq!(reader.load().epoch, 1);
        slot.publish(Arc::new(table(&[]).snapshot(2)));
        assert_eq!(reader.load().epoch, 2);
    }

    /// Two sources on one shard: ids are `source·2²⁴ + n`, so source 0's
    /// next story lands between its last one and source 2's first.
    #[test]
    fn patch_replaces_inserts_mid_vector_and_removes() {
        let s2 = 2 << 24;
        let mut now =
            vec![summary(0, &[1]), summary(1, &[2]), summary(s2, &[3]), summary(s2 + 1, &[4])];
        let mut t = table(&now);
        let before = t.snapshot(1);

        // Story 1 grows, story 2 is new (mid-vector), story s2 is gone,
        // and 7 was created and removed again before anyone published.
        now[1] = summary(1, &[2, 5]);
        now[2] = summary(2, &[6]);
        let changed = [1, 2, s2, 7].map(StoryId::new);
        let patched = t.patch(&changed, |id| now.iter().find(|s| s.id == id).cloned());
        assert_eq!(patched, 3, "replace + insert + remove; the already-gone id is a no-op");
        assert!(t.matches(&now));
        let after = t.snapshot(2);
        let ids: Vec<u32> = after.stories.iter().map(|s| s.id.raw()).collect();
        assert_eq!(ids, [0, 1, 2, s2 + 1]);

        // Unchanged entries are the same allocation in both epochs;
        // the snapshot taken before the patch still reads its own view.
        assert!(Arc::ptr_eq(&before.stories[0], &after.stories[0]));
        assert!(Arc::ptr_eq(&before.stories[3], &after.stories[3]));
        assert_eq!(before.get(StoryId::new(1)).unwrap().members.len(), 1);
        assert!(before.get(StoryId::new(2)).is_none());
        assert!(before.get(StoryId::new(s2)).is_some());
        assert_eq!(before.stories.len(), 4);
    }

    #[test]
    fn patching_from_empty_and_down_to_empty() {
        let mut t = StoryTable::default();
        let only = summary(4, &[1]);
        assert_eq!(t.patch(&[only.id], |_| Some(only.clone())), 1);
        assert!(t.matches(std::slice::from_ref(&only)));
        assert_eq!(t.patch(&[only.id], |_| None), 1);
        assert!(t.matches(&[]));
        assert_eq!(t.patch(&[], |_| unreachable!("nothing changed")), 0);
    }
}
