//! Epoch-versioned, immutable per-shard read snapshots.
//!
//! Every QUERY_STORIES and GET_STORY used to ride the same bounded
//! MPSC queue as ingest, so a read flash-crowd competed with writes
//! for shard-worker time. Instead, each shard worker publishes a
//! [`ShardSnapshot`] (under its shard's owner lock, on whichever thread
//! holds it: an I/O worker, a replica puller or the orchestrator) — an
//! immutable, id-sorted view of its story partition — into a
//! [`SnapshotSlot`]. Publication is an `Arc` swap
//! behind a readers–writer lock held for nanoseconds: readers clone the
//! `Arc` and release the lock, so queries never block the writer and
//! the writer never blocks queries. I/O workers answer reads directly
//! from the slots on the connection's own thread, bypassing the shard
//! queues entirely.
//!
//! **A publish costs what the ops since the last one changed, not what
//! the shard holds.** The worker keeps the current stories in a
//! [`StoryTable`]: a persistent chunked vector, `Vec<Arc<Chunk>>`,
//! where each chunk is an id-sorted run of `Arc<StorySummary>` cut to
//! [`CHUNK`] entries. To publish, the worker drains the engine's change
//! log (`StoryPivot::drain_changes`) and [`StoryTable::patch`]es exactly
//! those ids: binary search for the chunk, then for the entry; copy the
//! chunk if a snapshot still shares it; replace / insert / remove,
//! cloning and sorting the members of that story only. A chunk that
//! grows past twice [`CHUNK`] is split, and one that empties is
//! dropped. The snapshot it hands out is a clone of the chunk list —
//! built in the snapshot the previous publish replaced, when no reader
//! still holds that one — so a publish costs the entries of the chunks
//! it patched plus one reference-count bump per chunk, allocates only
//! the chunk copies and the patched summaries, and an unchanged chunk
//! is the same allocation in both epochs. (Measured on `serve_mixed`'s ingest
//! stream, ~310 stories per shard: 1.0 story patched, ≈ 23 entries
//! copied and ≈ 1.4 µs per publish, where the flat vector of `Arc`s it
//! replaced cost 4.0–4.7 µs, and rebuilding every summary ≈ 36 µs.) [`summaries`] is the from-scratch builder:
//! it seeds the table whenever the engine object is replaced (recovery,
//! rebuild after a panic, replica bootstrap), and it is the oracle —
//! debug builds assert patched == rebuilt on every publish.
//!
//! A snapshot is published after every applied op, before that op's
//! reply: per snippet inside an INGEST_BATCH, once per shipped batch on
//! a follower, once more per drain and whenever the engine object is
//! replaced. That ordering *is* read-your-writes — a
//! client that saw its write acked is guaranteed the next read, on any
//! connection, reflects it — and it needs no clock and no knob: a
//! publish costs about what the journal append does, so there is
//! nothing to amortise.

use std::sync::{Arc, PoisonError, RwLock};

use crate::proto::StorySummary;
use storypivot_core::StoryPivot;
use storypivot_types::StoryId;

/// The entries a chunk is cut to when the table is seeded; a chunk that
/// grows past twice this is split in half. A patch copies at most
/// `2 × CHUNK` entries per story it changes, and a snapshot lists every
/// chunk, so 16 balances the two at a few hundred stories per shard (8
/// and 24 published slower on `serve_mixed`'s stream).
pub const CHUNK: usize = 16;

/// An id-sorted run of a table's stories; never empty inside a table,
/// and never longer than `2 × CHUNK` between patches.
type Chunk = Vec<Arc<StorySummary>>;

/// The index of the chunk that holds `id`, or that an insert of `id`
/// belongs in: the first chunk whose last id is not below `id`, else
/// the last chunk. `None` when there are no chunks.
fn chunk_for(chunks: &[Arc<Chunk>], id: StoryId) -> Option<usize> {
    let after = chunks.partition_point(|c| c.last().is_some_and(|s| s.id < id));
    chunks.len().checked_sub(1).map(|last| after.min(last))
}

/// An immutable snapshot of one shard's story partition.
#[derive(Debug, Default)]
pub struct ShardSnapshot {
    /// Publication sequence number: bumped on every publish, starting
    /// at 1 for the post-recovery snapshot (epoch 0 is the empty
    /// pre-recovery placeholder).
    pub epoch: u64,
    /// Every story on the shard, in id-sorted chunks shared with the
    /// neighbouring epochs that did not change them.
    chunks: Vec<Arc<Chunk>>,
    len: usize,
}

impl ShardSnapshot {
    /// Look up one story by id: a binary search for its chunk, then
    /// one inside it.
    pub fn get(&self, id: StoryId) -> Option<&StorySummary> {
        let chunk = &self.chunks[chunk_for(&self.chunks, id)?];
        chunk.binary_search_by_key(&id, |s| s.id).ok().map(|i| &*chunk[i])
    }

    /// Every story on the shard, in id order; member lists are sorted
    /// too (the engine's partition order).
    pub fn stories(&self) -> impl Iterator<Item = &StorySummary> {
        self.chunks.iter().flat_map(|chunk| chunk.iter().map(|s| &**s))
    }

    /// How many stories the shard holds.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the shard holds no story.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Merge id-sorted runs of stories — one per shard snapshot — into one
/// id-sorted stream, in time linear in the stories (times the runs,
/// which are the few shards).
pub fn merge_by_id<'a, I>(runs: impl IntoIterator<Item = I>) -> impl Iterator<Item = &'a StorySummary>
where
    I: Iterator<Item = &'a StorySummary>,
{
    let mut runs: Vec<_> = runs.into_iter().map(Iterator::peekable).collect();
    std::iter::from_fn(move || {
        let (_, run) = runs
            .iter_mut()
            .filter_map(|run| Some((run.peek()?.id, run)))
            .min_by_key(|&(id, _)| id)?;
        run.next()
    })
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

/// What one [`StoryTable::patch`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Patched {
    /// Entries replaced, inserted or removed.
    pub stories: usize,
    /// Entries cloned (one reference-count bump each) to copy the
    /// chunks a handed-out snapshot still shared.
    pub copied: usize,
}

/// The shard worker's own, always-current story table — what the next
/// publish hands out. Kept id-sorted, in chunks of `1..=2 × CHUNK`
/// entries.
#[derive(Debug, Default)]
pub struct StoryTable {
    chunks: Vec<Arc<Chunk>>,
    len: usize,
    /// A snapshot the slot handed back and no reader held: the next
    /// [`StoryTable::snapshot`] is built in it instead of allocating.
    spare: Option<Arc<ShardSnapshot>>,
}

impl StoryTable {
    /// Start over from a from-scratch rebuild (`all` sorted by id), cut
    /// into chunks of [`CHUNK`] entries.
    pub fn seed(&mut self, all: Vec<StorySummary>) {
        debug_assert!(all.windows(2).all(|w| w[0].id < w[1].id));
        self.len = all.len();
        self.chunks.clear();
        let mut stories = all.into_iter().map(Arc::new).peekable();
        while stories.peek().is_some() {
            self.chunks.push(Arc::new(stories.by_ref().take(CHUNK).collect()));
        }
    }

    /// Bring the entries of `changed` up to date: `lookup` returns a
    /// changed story's current summary, or `None` when it no longer
    /// exists. A chunk a snapshot still shares is copied before it is
    /// edited, so snapshots handed out earlier keep their old entries.
    pub fn patch(
        &mut self,
        changed: &[StoryId],
        mut lookup: impl FnMut(StoryId) -> Option<StorySummary>,
    ) -> Patched {
        let mut done = Patched::default();
        for &id in changed {
            let story = lookup(id);
            let Some(c) = chunk_for(&self.chunks, id) else {
                // The first story of an empty table.
                if let Some(story) = story {
                    self.chunks.push(Arc::new(vec![Arc::new(story)]));
                    self.len += 1;
                    done.stories += 1;
                }
                continue;
            };
            let at = self.chunks[c].binary_search_by_key(&id, |s| s.id);
            if at.is_err() && story.is_none() {
                // Created and gone again between two publishes.
                continue;
            }
            if Arc::get_mut(&mut self.chunks[c]).is_none() {
                done.copied += self.chunks[c].len();
            }
            let chunk = Arc::make_mut(&mut self.chunks[c]);
            match (at, story) {
                (Ok(i), Some(story)) => chunk[i] = Arc::new(story),
                (Ok(i), None) => {
                    chunk.remove(i);
                    self.len -= 1;
                }
                (Err(i), Some(story)) => {
                    chunk.insert(i, Arc::new(story));
                    self.len += 1;
                }
                (Err(_), None) => unreachable!("skipped above"),
            }
            done.stories += 1;
            if chunk.len() > 2 * CHUNK {
                let tail = chunk.split_off(chunk.len() / 2);
                self.chunks.insert(c + 1, Arc::new(tail));
            } else if chunk.is_empty() {
                self.chunks.remove(c);
            }
        }
        done
    }

    /// The current table as epoch `epoch`. Built in the spare snapshot
    /// when there is one, it costs a reference count per chunk replaced
    /// since the spare was published; a fresh one, one per chunk.
    pub fn snapshot(&mut self, epoch: u64) -> Arc<ShardSnapshot> {
        let Some(mut spare) = self.spare.take() else {
            return Arc::new(ShardSnapshot {
                epoch,
                chunks: self.chunks.clone(),
                len: self.len,
            });
        };
        let snap = Arc::get_mut(&mut spare).expect("a spare snapshot is unshared");
        snap.epoch = epoch;
        snap.len = self.len;
        // The spare lists the chunks of two publishes ago: only a slot
        // whose chunk was replaced since costs reference counts.
        snap.chunks.truncate(self.chunks.len());
        for (slot, chunk) in snap.chunks.iter_mut().zip(&self.chunks) {
            if !Arc::ptr_eq(slot, chunk) {
                slot.clone_from(chunk);
            }
        }
        let listed = snap.chunks.len();
        snap.chunks.extend_from_slice(&self.chunks[listed..]);
        spare
    }

    /// Take back the snapshot a publish replaced: kept as the spare when
    /// no reader holds it, released otherwise.
    pub fn recycle(&mut self, mut previous: Arc<ShardSnapshot>) {
        if Arc::get_mut(&mut previous).is_some() {
            self.spare = Some(previous);
        }
    }

    /// Whether the table equals a from-scratch rebuild, and its chunks
    /// are in shape (none empty or past `2 × CHUNK`, the count right).
    pub fn matches(&self, rebuilt: &[StorySummary]) -> bool {
        self.len == rebuilt.len()
            && self.chunks.iter().all(|c| (1..=2 * CHUNK).contains(&c.len()))
            && self.chunks.iter().flat_map(|c| c.iter().map(|s| &**s)).eq(rebuilt)
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

    /// Swap in a new snapshot and hand back the previous one, outside
    /// the lock, for the publisher to recycle ([`StoryTable::recycle`])
    /// or drop.
    pub fn publish(&self, snap: Arc<ShardSnapshot>) -> Arc<ShardSnapshot> {
        let mut current = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *current, snap)
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

    /// QUERY_STORIES answers in id order by merging the shards' runs:
    /// with `source mod shards` routing, the runs interleave by source.
    #[test]
    fn merge_by_id_interleaves_the_shards_runs_in_id_order() {
        let id = |source: u32, n: u32| (source << 24) + n;
        let shards = [
            table(&[summary(id(0, 0), &[1]), summary(id(0, 1), &[2]), summary(id(3, 0), &[3])]),
            table(&[summary(id(1, 0), &[4]), summary(id(4, 0), &[5]), summary(id(4, 1), &[6])]),
            table(&[]),
            table(&[summary(id(2, 5), &[7])]),
        ]
        .map(|mut t| t.snapshot(1));
        let merged: Vec<u32> =
            merge_by_id(shards.iter().map(|s| s.stories())).map(|s| s.id.raw()).collect();
        let mut want: Vec<u32> = shards.iter().flat_map(|s| s.stories()).map(|s| s.id.raw()).collect();
        want.sort_unstable();
        assert_eq!(merged, want);
        assert_eq!(merge_by_id(Vec::<std::iter::Empty<&StorySummary>>::new()).count(), 0);
    }

    #[test]
    fn publish_swaps_for_every_handle_and_old_readers_keep_their_view() {
        let slot = Arc::new(SnapshotSlot::new());
        let reader = Arc::clone(&slot);
        assert_eq!(reader.load().epoch, 0);
        let old = reader.load();
        drop(slot.publish(table(&[summary(3, &[3])]).snapshot(1)));
        // The other handle sees the new epoch; the Arc loaded earlier
        // still reads the old, consistent view.
        assert_eq!(reader.load().epoch, 1);
        assert_eq!(old.epoch, 0);
        assert!(old.is_empty());

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
        drop(slot.publish(table(&[]).snapshot(2)));
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
        assert_eq!(patched.stories, 3, "replace + insert + remove; the already-gone id is a no-op");
        assert_eq!(patched.copied, 4, "the one chunk, shared with `before`, was copied once");
        assert!(t.matches(&now));
        let after = t.snapshot(2);
        let ids: Vec<u32> = after.stories().map(|s| s.id.raw()).collect();
        assert_eq!(ids, [0, 1, 2, s2 + 1]);

        // Unchanged entries are the same allocation in both epochs;
        // the snapshot taken before the patch still reads its own view.
        let entry = |snap: &ShardSnapshot, id: u32| {
            let chunk = &snap.chunks[chunk_for(&snap.chunks, StoryId::new(id)).unwrap()];
            Arc::clone(chunk.iter().find(|s| s.id.raw() == id).unwrap())
        };
        assert!(Arc::ptr_eq(&entry(&before, 0), &entry(&after, 0)));
        assert!(Arc::ptr_eq(&entry(&before, s2 + 1), &entry(&after, s2 + 1)));
        assert_eq!(before.get(StoryId::new(1)).unwrap().members.len(), 1);
        assert!(before.get(StoryId::new(2)).is_none());
        assert!(before.get(StoryId::new(s2)).is_some());
        assert_eq!(before.len(), 4);
    }

    #[test]
    fn patching_from_empty_and_down_to_empty() {
        let mut t = StoryTable::default();
        let only = summary(4, &[1]);
        assert_eq!(t.patch(&[only.id], |_| Some(only.clone())).stories, 1);
        assert!(t.matches(std::slice::from_ref(&only)));
        assert_eq!(t.patch(&[only.id], |_| None).stories, 1);
        assert!(t.matches(&[]));
        assert!(t.chunks.is_empty(), "the emptied chunk is gone");
        assert_eq!(t.patch(&[], |_| unreachable!("nothing changed")), Patched::default());
    }

    /// The chunked table against a `BTreeMap` model: random batches of
    /// replaces, inserts and removes over two sources' id ranges —
    /// scattered ids (mid-vector inserts, since source 0's new stories
    /// land before source 2's), bursts of inserts that split chunks and
    /// runs of removals that empty them. Each batch's snapshot is
    /// published through a slot, and the one it replaces is recycled
    /// unless an earlier reader (the history) still holds it. After
    /// every batch the table equals the model; every snapshot handed out
    /// earlier still reads its own epoch's model; a chunk no changed id
    /// could reach is the same allocation in the next epoch; and a patch
    /// copies at most `2 × CHUNK` entries per story it changes.
    #[test]
    fn patch_batches_match_a_model_and_share_what_they_did_not_touch() {
        use std::collections::{BTreeMap, HashSet};
        use storypivot_substrate::prop;
        use storypivot_substrate::rng::RngExt;

        // Batches that split a chunk, dropped an emptied one, inserted
        // before the last story, and published into a recycled snapshot.
        let mut seen = [0usize; 4];
        prop::run(48, |rng| {
            let bases = [0u32, 2 << 24];
            let span = rng.random_range(4..160u32);
            let density = rng.random_range(0.0..1.0);
            let mut version = 0u32;
            let mut model = BTreeMap::new();
            for base in bases {
                for n in (0..span).filter(|_| rng.random_bool(density)) {
                    model.insert(base + n, summary(base + n, &[version]));
                }
            }
            let mut table = StoryTable::default();
            table.seed(model.values().cloned().collect());
            let slot = SnapshotSlot::new();
            drop(slot.publish(table.snapshot(1)));
            let mut history: Vec<(Arc<ShardSnapshot>, BTreeMap<u32, StorySummary>)> = Vec::new();
            for epoch in 1..rng.random_range(2..40u64) {
                let before = slot.load();
                if rng.random_bool(0.5) {
                    history.push((Arc::clone(&before), model.clone()));
                }
                version += 1;

                // `Some(true)`: every id is (re)inserted; `Some(false)`:
                // every id is removed; `None`: each decides alone.
                let base = bases[rng.random_range(0..2usize)];
                let (mut ids, all): (Vec<u32>, Option<bool>) = match rng.random_range(0..4) {
                    0 | 1 => {
                        let ids = prop::vec_with(rng, 0, 8, |r| {
                            bases[r.random_range(0..2usize)] + r.random_range(0..span + 4)
                        });
                        (ids, None)
                    }
                    kind => {
                        let start = rng.random_range(0..span);
                        let len = rng.random_range(1..=3 * CHUNK as u32);
                        ((base + start..base + start + len).collect(), Some(kind == 2))
                    }
                };
                ids.sort_unstable();
                ids.dedup();
                for &id in &ids {
                    if all.unwrap_or_else(|| rng.random_bool(0.6)) {
                        let members: Vec<u32> = (0..rng.random_range(1..4)).map(|k| version + k).collect();
                        model.insert(id, summary(id, &members));
                    } else {
                        model.remove(&id);
                    }
                }
                let changed: Vec<StoryId> = ids.iter().map(|&id| StoryId::new(id)).collect();
                let done = table.patch(&changed, |id| model.get(&id.raw()).cloned());

                let want: Vec<StorySummary> = model.values().cloned().collect();
                assert!(table.matches(&want), "epoch {epoch}: the table differs from the model");
                assert!(
                    done.copied <= done.stories * 2 * CHUNK,
                    "epoch {epoch}: {} entries copied for {} stories patched",
                    done.copied,
                    done.stories
                );

                // Which of `before`'s chunks the batch could reach: each
                // id's own chunk, and — for an id past every story — the
                // last chunk that keeps an entry (the ones after it were
                // emptied and dropped).
                let mut reached: HashSet<usize> =
                    changed.iter().filter_map(|&id| chunk_for(&before.chunks, id)).collect();
                let top = before.chunks.last().and_then(|c| c.last()).map(|s| s.id);
                if changed.last().is_some_and(|&id| top.is_some_and(|top| top < id)) {
                    let kept = |c: &Arc<Chunk>| c.iter().any(|s| model.contains_key(&s.id.raw()));
                    reached.extend(before.chunks.iter().rposition(kept));
                }
                seen[3] += table.spare.is_some() as usize;
                let after = table.snapshot(epoch + 1);
                seen[0] += (after.chunks.len() > before.chunks.len()) as usize;
                seen[1] += (after.chunks.len() < before.chunks.len()) as usize;
                seen[2] += changed.iter().any(|&id| top.is_some_and(|top| id < top)
                    && model.contains_key(&id.raw())
                    && before.get(id).is_none()) as usize;
                for (k, chunk) in before.chunks.iter().enumerate() {
                    if !reached.contains(&k) {
                        assert!(
                            after.chunks.iter().any(|a| Arc::ptr_eq(a, chunk)),
                            "epoch {epoch}: chunk {k} was not reached, yet it was copied"
                        );
                    }
                }
                drop(before);
                let previous = slot.publish(after);
                table.recycle(previous);

                for (snap, then) in &history {
                    assert_eq!(snap.len(), then.len());
                    assert!(snap.stories().eq(then.values()), "epoch {} changed", snap.epoch);
                    for (&id, story) in then {
                        assert_eq!(snap.get(StoryId::new(id)), Some(story));
                    }
                }
            }
        });
        if std::env::var(prop::REPLAY_ENV).is_err() {
            assert!(seen.iter().all(|&n| n > 0), "splits, emptied, mid inserts, recycled: {seen:?}");
        }
    }
}
