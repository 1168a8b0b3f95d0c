//! Engine checkpointing: persist a [`StoryPivot`]'s full state (event
//! store + story assignments + id allocators) and restore it later.
//!
//! A repository like GDELT is updated "over fixed time intervals (e.g.,
//! daily)" (paper §1); a long-running pivot therefore needs restarts
//! without replaying months of history. The checkpoint contains the
//! store snapshot plus, per source, the snippet→story assignment, the
//! story-id allocator position and the maintenance phase (snippets
//! identified since the last pass — without it a restored engine would
//! split at other events than one that kept running). Story aggregates
//! (centroids, activity signatures, lifespans) are *recomputed* from
//! the snippets on load — they are derived state, and rebuilding them
//! keeps the format small and version-stable.
//!
//! The configuration is **not** stored: the caller supplies it on load
//! (configs contain policy, not data; loading under a different config
//! is legal and simply applies the new policy from there on).
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "SPVC" | version u32 | store_len u64 | store snapshot
//!   | ident_count u32
//!   | per ident: source u32, next_story u32, since_maintenance u32,
//!       n u32, (snippet u32, story u32)×n
//!   | snippet_ids u32 | doc_ids u32 | source_ids u32
//! ```

use storypivot_store::codec::{decode_store, encode_store};
use storypivot_types::ids::IdGen;
use storypivot_types::{Error, Result, SnippetId, SourceId, StoryId};

use crate::identify::Identifier;
use crate::pivot::StoryPivot;

/// Checkpoint file magic.
pub const MAGIC: &[u8; 4] = b"SPVC";
/// Current checkpoint format version.
pub const VERSION: u32 = 2;

fn get_u32(buf: &mut &[u8], what: &str) -> Result<u32> {
    if buf.len() < 4 {
        return Err(Error::Codec(format!("truncated checkpoint at {what}")));
    }
    let (head, rest) = buf.split_at(4);
    *buf = rest;
    Ok(u32::from_le_bytes(head.try_into().expect("4 bytes")))
}

fn get_u64(buf: &mut &[u8], what: &str) -> Result<u64> {
    if buf.len() < 8 {
        return Err(Error::Codec(format!("truncated checkpoint at {what}")));
    }
    let (head, rest) = buf.split_at(8);
    *buf = rest;
    Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
}

impl StoryPivot {
    /// Serialize the engine's full state.
    pub fn save_checkpoint(&self) -> Vec<u8> {
        let timer = self.metrics.checkpoint_save_duration.start();
        let store_bytes = encode_store(&self.store);
        let mut out = Vec::with_capacity(store_bytes.len() + 64);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(store_bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&store_bytes);

        let mut sources: Vec<SourceId> = self.identifiers.keys().copied().collect();
        sources.sort_unstable();
        out.extend_from_slice(&(sources.len() as u32).to_le_bytes());
        for source in sources {
            let ident = &self.identifiers[&source];
            out.extend_from_slice(&source.raw().to_le_bytes());
            out.extend_from_slice(&ident.next_story_id_raw().to_le_bytes());
            // Saturating: the count is only ever compared with `maintenance_every`.
            let since = u32::try_from(ident.since_maintenance()).unwrap_or(u32::MAX);
            out.extend_from_slice(&since.to_le_bytes());
            out.extend_from_slice(&(ident.assigned_count() as u32).to_le_bytes());
            // Ascending by snippet id, so equal engines write equal bytes.
            for (snippet, story) in ident.assignments() {
                out.extend_from_slice(&snippet.raw().to_le_bytes());
                out.extend_from_slice(&story.raw().to_le_bytes());
            }
        }
        out.extend_from_slice(&self.snippet_ids.allocated().to_le_bytes());
        out.extend_from_slice(&self.doc_ids.allocated().to_le_bytes());
        out.extend_from_slice(&self.source_ids.allocated().to_le_bytes());
        drop(timer);
        out
    }

    /// Restore an engine from a checkpoint under the given
    /// configuration. Story aggregates are rebuilt deterministically
    /// (members are folded in `(story, snippet)` order); alignment is
    /// not part of the checkpoint — call [`StoryPivot::align`] after
    /// loading.
    pub fn load_checkpoint(config: crate::config::PivotConfig, mut buf: &[u8]) -> Result<Self> {
        if buf.len() < 4 || &buf[..4] != MAGIC {
            return Err(Error::Codec("not a StoryPivot checkpoint".into()));
        }
        buf = &buf[4..];
        let version = get_u32(&mut buf, "version")?;
        if version != VERSION {
            return Err(Error::Codec(format!(
                "unsupported checkpoint version {version} (expected {VERSION})"
            )));
        }
        let store_len = get_u64(&mut buf, "store length")? as usize;
        if buf.len() < store_len {
            return Err(Error::Codec("truncated checkpoint store".into()));
        }
        let (store_bytes, rest) = buf.split_at(store_len);
        buf = rest;
        let store = decode_store(store_bytes)?;

        let mut pivot = StoryPivot::try_new(config)?;
        pivot.store = store;

        let ident_count = get_u32(&mut buf, "identifier count")?;
        for _ in 0..ident_count {
            let source = SourceId::new(get_u32(&mut buf, "source id")?);
            if pivot.store.source(source).is_none() {
                return Err(Error::Codec(format!(
                    "checkpoint references unregistered source {source}"
                )));
            }
            let next_story = get_u32(&mut buf, "story allocator")?;
            let since_maintenance = get_u32(&mut buf, "maintenance phase")?;
            let n = get_u32(&mut buf, "assignment count")?;
            let mut ident = Identifier::new(
                source,
                pivot.config.identify.clone(),
                pivot.config.sketch,
            );
            let mut assignments = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let snippet = SnippetId::new(get_u32(&mut buf, "snippet id")?);
                let story = StoryId::new(get_u32(&mut buf, "story id")?);
                assignments.push((snippet, story));
            }
            // Deterministic rebuild order: by (story, snippet).
            assignments.sort_unstable_by_key(|&(s, c)| (c, s));
            for (snippet, story) in assignments {
                let sn = pivot
                    .store
                    .get(snippet)
                    .ok_or_else(|| {
                        Error::Codec(format!("assignment references missing snippet {snippet}"))
                    })?
                    .clone();
                if sn.source != source {
                    return Err(Error::Codec(format!(
                        "snippet {snippet} belongs to {}, not {source}",
                        sn.source
                    )));
                }
                ident.force_assign(&sn, story);
            }
            ident.restore_next_story_id(next_story);
            ident.restore_since_maintenance(since_maintenance as usize);
            pivot.identifiers.insert(source, ident);
        }
        pivot.snippet_ids = IdGen::starting_at(get_u32(&mut buf, "snippet allocator")?);
        pivot.doc_ids = IdGen::starting_at(get_u32(&mut buf, "doc allocator")?);
        pivot.source_ids = IdGen::starting_at(get_u32(&mut buf, "source allocator")?);
        if !buf.is_empty() {
            return Err(Error::Codec(format!(
                "{} trailing bytes after checkpoint",
                buf.len()
            )));
        }
        // Every stored snippet must be assigned (else the checkpoint was
        // taken from a corrupt engine).
        pivot.check_invariants()?;
        Ok(pivot)
    }
}

// ---- generation-numbered checkpoint files ----------------------------
//
// A long-running daemon checkpoints *while serving*, so checkpoint
// writes must never be able to destroy the previous good state: each
// checkpoint is a new file `shard{i}.g{generation}.spvc`, written to a
// `.tmp` sibling and atomically renamed into place. Loading walks the
// generations newest-first and skips anything that fails to decode —
// a crash mid-write (or a corrupt disk) costs one generation, not the
// shard. Old generations beyond a small keep-window are pruned after a
// successful write.

/// How many checkpoint generations [`write_generation`] retains.
pub const KEPT_GENERATIONS: u64 = 2;

fn generation_file(shard: usize, generation: u64) -> String {
    format!("shard{shard}.g{generation:010}.spvc")
}

/// Parse `shard{i}.g{generation}.spvc` back into its generation, when
/// the name belongs to `shard`.
fn parse_generation(name: &str, shard: usize) -> Option<u64> {
    let rest = name.strip_prefix(&format!("shard{shard}.g"))?;
    rest.strip_suffix(".spvc")?.parse().ok()
}

/// Atomically persist checkpoint `bytes` as generation `generation` of
/// `shard` under `dir` (created if absent): write `*.tmp`, fsync,
/// rename. A crash at any point leaves either the old generation set or
/// the old set plus the complete new file — never a half-written
/// checkpoint under the real name. Prunes generations older than
/// [`KEPT_GENERATIONS`]. Returns the final path.
pub fn write_generation(
    dir: &std::path::Path,
    shard: usize,
    generation: u64,
    bytes: &[u8],
) -> Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)
        .map_err(|e| Error::Io(format!("create {}: {e}", dir.display())))?;
    let final_path = dir.join(generation_file(shard, generation));
    let tmp_path = final_path.with_extension("spvc.tmp");
    {
        let mut f = std::fs::File::create(&tmp_path)
            .map_err(|e| Error::Io(format!("create {}: {e}", tmp_path.display())))?;
        use std::io::Write as _;
        f.write_all(bytes)
            .and_then(|_| f.sync_all())
            .map_err(|e| Error::Io(format!("write {}: {e}", tmp_path.display())))?;
    }
    std::fs::rename(&tmp_path, &final_path)
        .map_err(|e| Error::Io(format!("rename to {}: {e}", final_path.display())))?;
    // Prune old generations (best effort — a leftover file only wastes
    // space, it can never shadow a newer generation).
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Some(g) = entry.file_name().to_str().and_then(|n| parse_generation(n, shard)) {
                if g + KEPT_GENERATIONS <= generation {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }
    Ok(final_path)
}

/// Load the newest generation of `shard`'s checkpoint that decodes
/// cleanly, returning the restored engine and its generation number.
/// Corrupt or truncated generations are skipped with a warning on
/// stderr; a missing directory or no usable generation is `Ok(None)`
/// (cold start). Leftover `*.tmp` files are ignored by construction.
pub fn load_newest(
    dir: &std::path::Path,
    shard: usize,
    config: crate::config::PivotConfig,
) -> Result<Option<(StoryPivot, u64)>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(Error::Io(format!("read {}: {e}", dir.display()))),
    };
    let mut generations: Vec<u64> = entries
        .flatten()
        .filter_map(|e| e.file_name().to_str().and_then(|n| parse_generation(n, shard)))
        .collect();
    generations.sort_unstable_by(|a, b| b.cmp(a));
    for generation in generations {
        let path = dir.join(generation_file(shard, generation));
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("checkpoint: skipping unreadable {}: {e}", path.display());
                continue;
            }
        };
        match StoryPivot::load_checkpoint(config.clone(), &bytes) {
            Ok(pivot) => return Ok(Some((pivot, generation))),
            Err(e) => {
                eprintln!("checkpoint: skipping corrupt {}: {e}", path.display());
            }
        }
    }
    Ok(None)
}

/// Raw bytes of the newest generation file of `shard` under `dir`,
/// without decoding them. This is the leader side of replica
/// bootstrap: the follower gets the checkpoint verbatim (and persists
/// the same bytes under the same generation number), so leader and
/// follower agree on the exact durable cursor. Unreadable files are
/// skipped newest-first like [`load_newest`]; a missing directory or
/// no file at all is `Ok(None)` (the shard has never checkpointed —
/// bootstrap from an empty engine instead).
pub fn newest_generation_bytes(
    dir: &std::path::Path,
    shard: usize,
) -> Result<Option<(u64, Vec<u8>)>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(Error::Io(format!("read {}: {e}", dir.display()))),
    };
    let mut generations: Vec<u64> = entries
        .flatten()
        .filter_map(|e| e.file_name().to_str().and_then(|n| parse_generation(n, shard)))
        .collect();
    generations.sort_unstable_by(|a, b| b.cmp(a));
    for generation in generations {
        let path = dir.join(generation_file(shard, generation));
        match std::fs::read(&path) {
            Ok(bytes) => return Ok(Some((generation, bytes))),
            Err(e) => {
                eprintln!("checkpoint: skipping unreadable {}: {e}", path.display());
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PivotConfig;
    use storypivot_types::{EntityId, Snippet, SourceKind, TermId, Timestamp, DAY};

    fn populated() -> StoryPivot {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let b = pivot.add_source_with_lag("b", SourceKind::Wire, 3600);
        for day in 0..6i64 {
            for (src, e) in [(a, 1u32), (b, 1), (a, 40)] {
                let id = pivot.fresh_snippet_id();
                let s = Snippet::builder(id, src, Timestamp::from_secs(day * DAY))
                    .doc(pivot.fresh_doc_id())
                    .entity(EntityId::new(e), 1.0)
                    .entity(EntityId::new(e + 1), 1.0)
                    .term(TermId::new(e), 1.0)
                    .build();
                pivot.ingest(s).unwrap();
            }
        }
        pivot
    }

    fn partition(p: &StoryPivot) -> Vec<Vec<u32>> {
        let mut v: Vec<Vec<u32>> = p
            .global_stories()
            .iter()
            .map(|g| {
                let mut m: Vec<u32> = g.members.iter().map(|&(id, _)| id.raw()).collect();
                m.sort_unstable();
                m
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn checkpoint_round_trips_state_and_results() {
        let mut original = populated();
        original.align();
        let bytes = original.save_checkpoint();

        let mut restored =
            StoryPivot::load_checkpoint(PivotConfig::default(), &bytes).unwrap();
        assert_eq!(restored.store().len(), original.store().len());
        assert_eq!(restored.story_count(), original.story_count());
        // Same per-snippet assignments.
        for sn in original.store().iter() {
            assert_eq!(restored.story_of(sn.id), original.story_of(sn.id));
        }
        // Alignment recomputes to the identical partition.
        restored.align();
        assert_eq!(partition(&restored), partition(&original));
        restored.check_invariants().unwrap();
    }

    #[test]
    fn restored_engine_continues_ingesting_without_id_collisions() {
        let original = populated();
        let next_before = original.snippet_ids.allocated();
        let bytes = original.save_checkpoint();
        let mut restored = StoryPivot::load_checkpoint(PivotConfig::default(), &bytes).unwrap();
        let fresh = restored.fresh_snippet_id();
        assert_eq!(fresh.raw(), next_before, "allocator resumes past old ids");
        let s = Snippet::builder(fresh, SourceId::new(0), Timestamp::from_secs(999))
            .entity(EntityId::new(1), 1.0)
            .build();
        restored.ingest(s).unwrap();
        // Fresh story ids do not collide with checkpointed ones either.
        let story = restored.fresh_story_id_for(SourceId::new(0)).unwrap();
        assert!(restored.story(story).is_none());
    }

    #[test]
    fn truncated_and_corrupt_checkpoints_error_cleanly() {
        let mut original = populated();
        original.align();
        let bytes = original.save_checkpoint();
        for cut in [0usize, 3, 4, 8, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                StoryPivot::load_checkpoint(PivotConfig::default(), &bytes[..cut]).is_err(),
                "cut {cut} must fail"
            );
        }
        let mut garbled = bytes.clone();
        garbled[0] = b'X';
        assert!(StoryPivot::load_checkpoint(PivotConfig::default(), &garbled).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(StoryPivot::load_checkpoint(PivotConfig::default(), &trailing).is_err());
    }

    #[test]
    fn generation_store_writes_atomically_and_loads_newest_valid() {
        let dir = std::env::temp_dir()
            .join(format!("storypivot-ckpt-gen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Cold start: nothing there.
        assert!(load_newest(&dir, 0, PivotConfig::default()).unwrap().is_none());

        let mut pivot = populated();
        pivot.align();
        write_generation(&dir, 0, 1, &pivot.save_checkpoint()).unwrap();
        let before_g2 = pivot.store().len();
        // Mutate, checkpoint again at generation 2.
        let id = pivot.fresh_snippet_id();
        let s = Snippet::builder(id, SourceId::new(0), Timestamp::from_secs(7 * DAY))
            .doc(pivot.fresh_doc_id())
            .entity(EntityId::new(1), 1.0)
            .build();
        pivot.ingest(s).unwrap();
        write_generation(&dir, 0, 2, &pivot.save_checkpoint()).unwrap();

        let (restored, generation) = load_newest(&dir, 0, PivotConfig::default())
            .unwrap()
            .expect("a generation must load");
        assert_eq!(generation, 2);
        assert_eq!(restored.store().len(), before_g2 + 1);

        // Corrupt generation 2: the loader must fall back to 1 with a
        // warning instead of failing.
        let g2 = dir.join("shard0.g0000000002.spvc");
        let mut bytes = std::fs::read(&g2).unwrap();
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&g2, &bytes).unwrap();
        let (fallback, generation) = load_newest(&dir, 0, PivotConfig::default())
            .unwrap()
            .expect("generation 1 must still load");
        assert_eq!(generation, 1);
        assert_eq!(fallback.store().len(), before_g2);

        // A stale .tmp (crash mid-write) is invisible to the loader.
        std::fs::write(dir.join("shard0.g0000000009.spvc.tmp"), b"half-written").unwrap();
        assert_eq!(load_newest(&dir, 0, PivotConfig::default()).unwrap().unwrap().1, 1);

        // Other shards' files don't interfere.
        assert!(load_newest(&dir, 1, PivotConfig::default()).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_generation_bytes_ships_verbatim() {
        let dir = std::env::temp_dir()
            .join(format!("storypivot-ckpt-bytes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Nothing checkpointed yet: None, not an error.
        assert!(newest_generation_bytes(&dir, 0).unwrap().is_none());

        let pivot = populated();
        let bytes = pivot.save_checkpoint();
        write_generation(&dir, 0, 3, &bytes).unwrap();
        write_generation(&dir, 0, 4, &bytes).unwrap();
        let (generation, shipped) = newest_generation_bytes(&dir, 0).unwrap().unwrap();
        assert_eq!(generation, 4);
        assert_eq!(shipped, bytes, "bytes ship verbatim, not re-encoded");
        // The shipped bytes decode to the same engine a local load gets.
        let restored = StoryPivot::load_checkpoint(PivotConfig::default(), &shipped).unwrap();
        assert_eq!(restored.store().len(), pivot.store().len());
        // Other shards see nothing.
        assert!(newest_generation_bytes(&dir, 1).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_pruning_keeps_a_bounded_window() {
        let dir = std::env::temp_dir()
            .join(format!("storypivot-ckpt-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pivot = populated();
        let bytes = pivot.save_checkpoint();
        for generation in 1..=5u64 {
            write_generation(&dir, 0, generation, &bytes).unwrap();
        }
        let kept: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(kept.len() as u64, KEPT_GENERATIONS, "kept {kept:?}");
        assert!(kept.iter().any(|n| n.contains("g0000000005")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loading_under_a_different_config_applies_new_policy() {
        let original = populated();
        let bytes = original.save_checkpoint();
        // Load under complete matching: state carries over, future
        // ingests use the new mode.
        let mut restored =
            StoryPivot::load_checkpoint(PivotConfig::complete(), &bytes).unwrap();
        assert_eq!(restored.story_count(), original.story_count());
        restored.align();
        assert!(!restored.global_stories().is_empty());
    }
}
