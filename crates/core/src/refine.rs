//! Story refinement (paper §2.3, Figure 1d).
//!
//! Alignment reveals identification mistakes: in the paper's running
//! example, `v¹₄` was wrongly assigned to story `c¹₁`, and correlating
//! events across sources exposes the irregularity. Refinement moves such
//! snippets to the global story where they are most *cohesive* and
//! propagates the decision back into the per-source story sets.
//!
//! The rule is conservative (hysteresis): a snippet only moves when its
//! cohesion in the best competing global story exceeds cohesion in its
//! current one by a configurable margin.
//!
//! Two planners live here. `plan_reference` is the sweep as first
//! written — every cohesion scored through the store, every candidate
//! snippet sorted — and runs only as the oracle. The private `Refiner`
//! plans the identical move list at a cost that follows what changed
//! since the previous sweep rather than what exists: a cohesion with an
//! unchanged member list is read from a version-keyed cache, one with a
//! changed list is extended over the members the list gained (a maximum
//! does not care in which order it is taken), and a snippet none of
//! whose entity-sharing neighbours changed lists keeps the alternatives
//! it was last judged against without walking a posting list. Why each
//! of these is exact is argued step by step on `Refiner`; in debug
//! builds every extended cohesion is re-scored in full and every
//! carried-over probe is run anyway, and both must agree.

use std::collections::HashMap;

use storypivot_store::EventStore;
use storypivot_types::{mem, EntityId, GlobalStoryId, Snippet, SnippetId, SourceId, StoryId};

use crate::align::AlignOutcome;
use crate::config::RefineConfig;
use crate::identify::{Identifier, STORY_ID_STRIDE};
use crate::sim::{ProbeScorer, SimWeights};

/// One corrective move performed by refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineMove {
    /// The snippet that moved.
    pub snippet: SnippetId,
    /// Its per-source story before the move.
    pub from_story: StoryId,
    /// Its per-source story after the move (possibly freshly created).
    pub to_story: StoryId,
    /// The global story it left.
    pub from_global: GlobalStoryId,
    /// The global story it joined.
    pub to_global: GlobalStoryId,
}

/// Summary of a [`crate::pivot::StoryPivot::refine`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RefineReport {
    /// All moves across all rounds, in application order.
    pub moves: Vec<RefineMove>,
    /// Number of rounds executed (each followed by re-alignment).
    pub rounds: usize,
}

impl RefineReport {
    /// Number of snippets moved.
    pub fn move_count(&self) -> usize {
        self.moves.len()
    }
}

/// The source owning a story id (story ids are partitioned by source,
/// see [`STORY_ID_STRIDE`]).
#[inline]
pub fn story_source(story: StoryId) -> SourceId {
    SourceId::new(story.raw() / STORY_ID_STRIDE)
}

/// What one planning sweep cost. Both planners report it, so the
/// engine's refine counters mean the same thing whichever ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SweepStats {
    /// Snippet-pair similarity scorings performed.
    pub pairs_scored: u64,
    /// `(snippet, global story)` cohesions answered from the cache.
    pub cache_hits: u64,
    /// `(snippet, global story)` cohesions that had to be scored.
    pub cache_misses: u64,
    /// The misses among them answered by extending the cohesion with
    /// the story's parent list over the members the story gained.
    pub extended: u64,
    /// Snippets whose alternative stories were carried over from the
    /// previous sweep instead of probed.
    pub probes_reused: u64,
}

/// How many alternative global stories a snippet is judged against.
const MAX_ALTERNATIVES: usize = 8;

/// The hysteresis rule: move only to a story that is cohesive enough in
/// absolute terms *and* beats the current one by the margin.
#[inline]
fn should_move(current: f64, alternative: f64, cfg: &RefineConfig) -> bool {
    alternative >= cfg.min_target_cohesion && alternative - current > cfg.move_margin
}

// ---- the production planner ----------------------------------------------

/// "None yet" in the [`Refiner`]'s dense snippet-indexed tables.
const NONE: u32 = u32::MAX;

/// A snippet's cohesion with one member list.
#[derive(Debug, Clone, Copy)]
struct Judged {
    /// The list's version; 0 is never issued and marks an empty slot.
    version: u32,
    /// Raw id of a member the cohesion is attained by, [`NONE`] when
    /// the cohesion is 0.0 (no member scored above it).
    argmax: u32,
    cohesion: f64,
}

/// What a sweep remembers of one snippet: 184 B.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// The stories it was judged against — its own, then its
    /// alternatives in rank order. 16 B a slot, 144 B.
    judged: [Judged; MAX_ALTERNATIVES + 1],
    /// The key snippet (smallest `(overlap desc, id asc)` candidate) of
    /// each of those alternatives, [`NONE`]-padded.
    keys: [u32; MAX_ALTERNATIVES],
    /// The sweep that wrote the row; no sweep is number 0.
    written: u32,
}

impl Row {
    const EMPTY: Row = Row {
        judged: [Judged {
            version: 0,
            argmax: NONE,
            cohesion: 0.0,
        }; MAX_ALTERNATIVES + 1],
        keys: [NONE; MAX_ALTERNATIVES],
        written: 0,
    };
}

/// How a changed member list differs from its *parent*: the previous
/// sweep's list that held its first member.
#[derive(Debug, Clone)]
struct Delta {
    parent_version: u32,
    /// Members whose previous list was not the parent (new snippets
    /// included).
    added: Vec<SnippetId>,
    /// The parent's members that are not in this list, ascending.
    removed: Vec<SnippetId>,
}

/// Plans refinement moves; owned by [`crate::pivot::StoryPivot`] so its
/// cohesion cache survives from sweep to sweep and from call to call.
///
/// It produces exactly the move list of [`plan_reference`] (the old
/// sweep, kept as the test oracle) from four changes:
///
/// 1. **Dense tables.** One `snippet → global-story index` table and one
///    resolved `&Snippet` list per global story are built once per sweep;
///    no scoring goes through a hash map.
/// 2. **Story-level candidate probe.** The reference sorts every snippet
///    sharing an entity with `v` by `(overlap desc, id asc)` and keeps the
///    first eight distinct global stories it meets. The position of a
///    story in that order is the smallest key of any of its snippets, so
///    the probe counts overlaps into a stamped dense counter, folds each
///    touched snippet into its story's smallest key and sorts the ≤ 40
///    stories instead of the ~500 snippets.
/// 3. **Version-keyed cohesion cache.** `cohesion(v, G)` is a pure
///    function of `v` and of `G`'s member-id list (a stored snippet's
///    content never changes). Every distinct member list gets a *version*:
///    a list that is element-for-element equal to a list of the previous
///    sweep keeps that list's version, any other list gets a number never
///    issued before. A snippet's row keeps the cohesions of the versions
///    it was last judged against; a version found there is reused, any
///    other is scored. The move *decision* is recomputed from the scores
///    on every sweep — nothing remembers a decision.
/// 4. **Deltas.** `cohesion(v, G) = max over G's members other than v`,
///    and a maximum does not care in which order it is taken. A changed
///    list records what it gained and lost against its parent
///    ([`Delta`]), a row remembers a member each cohesion is attained by,
///    and a miss on a list whose parent's version is in the row — with
///    that member not among the lost — is answered by continuing the
///    same `if s > best` loop over the gained members only. The old
///    maximum is attained by a member that stayed, so
///    `max(stayed ∪ gained) = max(old, max(gained))` bit for bit; NaN
///    scores never pass `>` on either route; `v` itself is skipped on
///    both and is never its own argmax, so `v` having just joined or
///    left the list changes nothing. When the remembered member left
///    (or a tied one did and happened to be the one remembered) the
///    list is scored in full, as is one with no parent in the row.
/// 5. **Clean snippets.** The probe's answer for `v` is a function of
///    which snippets share an entity with `v` and of how they are
///    grouped into lists. Every sweep stamps the entities of every
///    snippet that changed lists: those in some [`Delta`], the members of
///    a changed list without a parent, and the members of a previous
///    list that no current list has as parent. A snippet whose row the
///    previous sweep wrote and none of whose entities is stamped is
///    *clean*: no snippet sharing an entity with it — itself included —
///    is in any delta, so all of a previous list's `v`-sharing members
///    sit in the one child that has it as parent, no two previous lists
///    with `v`-sharing members merged, and none moved into or out of
///    `v`'s own story. The partition of `v`'s candidates, their overlaps
///    and ids — hence every key and the first eight — repeat, so the
///    alternatives are the stories now holding the *key snippets*
///    remembered beside the row, in the remembered order, and the
///    posting walk is skipped. They are still judged through the row: a
///    clean snippet's alternative can have gained members that share
///    nothing with it, which is what step 4 is for.
///
/// The one way a version could outlive its meaning is snippet-id reuse
/// (remove, then ingest different content under the same id, landing in
/// an identical id list), so every removal calls [`Refiner::forget`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Refiner {
    /// Member-id list (ascending, as a global story's members are) and
    /// version of each global story of the previous sweep, by that
    /// sweep's story index.
    lists: Vec<(Vec<SnippetId>, u32)>,
    /// Snippet (raw id) → index into `lists`, [`NONE`] where the snippet
    /// is in no global story.
    story_of: Vec<u32>,
    /// The `story_of` of the sweep before, kept for its allocation:
    /// a sweep fills it with the new table, reads the old one beside it
    /// and swaps the two.
    story_of_spare: Vec<u32>,
    /// The last version issued; 0 ("never judged") is not one.
    last_version: u32,
    /// Snippet (raw id) → its row in `rows`, [`NONE`] before the snippet
    /// is first judged. The indirection keeps the 184 B rows to snippets
    /// this engine refined (a shard sees a fraction of the id space).
    row_of: Vec<u32>,
    /// What each snippet was last judged against.
    rows: Vec<Row>,
    /// The current sweep's number; 0 is before the first.
    sweep: u32,
    /// Entity → the last sweep in which a snippet mentioning it changed
    /// lists. Keyed like the store's entity index: entity ids are
    /// client-chosen, not dense.
    entity_moved: HashMap<EntityId, u32>,
    /// Probe scratch: per snippet `(stamp, shared entities)`, valid for
    /// the current probe iff the stamp equals `probe`.
    overlap: Vec<(u32, u32)>,
    /// Probe scratch: per story `(stamp, smallest candidate key)`.
    story_key: Vec<(u32, u64)>,
    probe: u32,
    touched: Vec<u32>,
    ranked: Vec<(u64, u32)>,
}

impl Refiner {
    /// Heap bytes of the remembered lists, tables, rows and probe
    /// scratch (the memory account).
    pub(crate) fn heap_bytes(&self) -> usize {
        mem::vec_bytes(&self.lists)
            + self.lists.iter().map(|(ids, _)| mem::vec_bytes(ids)).sum::<usize>()
            + mem::vec_bytes(&self.story_of)
            + mem::vec_bytes(&self.story_of_spare)
            + mem::vec_bytes(&self.row_of)
            + mem::vec_bytes(&self.rows)
            + mem::hash_map_bytes(&self.entity_moved)
            + mem::vec_bytes(&self.overlap)
            + mem::vec_bytes(&self.story_key)
            + mem::vec_bytes(&self.touched)
            + mem::vec_bytes(&self.ranked)
    }

    /// Forget the previous sweep's lists and every cached cohesion: the
    /// next sweep issues new versions and scores everything afresh.
    pub(crate) fn forget(&mut self) {
        self.lists.clear();
        self.story_of.clear();
        self.row_of.clear();
        self.rows.clear();
        self.entity_moved.clear();
    }

    /// Version every global story of `outcome` against the previous
    /// sweep's lists, stamp the entities of every snippet that changed
    /// lists, and rebuild the dense tables for this sweep. Returns, per
    /// story, what its list gained and lost — `None` for a list equal to
    /// its parent, and for one without.
    fn begin_sweep(&mut self, outcome: &AlignOutcome, store: &EventStore) -> Vec<Option<Delta>> {
        let stories = outcome.global_stories.len();
        if u32::MAX - self.last_version < stories as u32 {
            // Version space exhausted (once per 2³² changed lists).
            self.forget();
            self.last_version = 0;
        }
        self.sweep = self.sweep.wrapping_add(1);
        if self.sweep == 0 {
            // Stamp wrapped: old stamps could collide, so drop them all.
            self.forget();
            self.sweep = 1;
        }

        // The new snippet → story table first: a list's losses are its
        // parent's members that the new table puts elsewhere.
        let mut lists: Vec<(Vec<SnippetId>, u32)> = Vec::with_capacity(stories);
        let mut table_len = 0usize;
        for g in &outcome.global_stories {
            let ids: Vec<SnippetId> = g.members.iter().map(|&(id, _)| id).collect();
            debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "members are sorted by id");
            if let Some(max) = ids.last() {
                table_len = table_len.max(max.index() + 1);
            }
            lists.push((ids, 0));
        }
        let mut story_of = std::mem::take(&mut self.story_of_spare);
        story_of.clear();
        story_of.resize(table_len, NONE);
        for (gi, (ids, _)) in lists.iter().enumerate() {
            for id in ids {
                story_of[id.index()] = gi as u32;
            }
        }

        let sweep = self.sweep;
        let entity_moved = &mut self.entity_moved;
        let mut moved = |ids: &[SnippetId]| {
            for s in ids.iter().filter_map(|&id| store.get(id)) {
                for entity in s.entities().keys() {
                    entity_moved.insert(entity, sweep);
                }
            }
        };
        let previously = |id: &SnippetId| self.story_of.get(id.index()).copied().unwrap_or(NONE);
        let mut has_child = vec![false; self.lists.len()];
        let mut deltas = Vec::with_capacity(stories);
        for (gi, (ids, version)) in lists.iter_mut().enumerate() {
            // Non-empty lists partition the snippets, so the list of the
            // previous sweep that held the first member is the only one
            // that can be equal.
            let parent_at = ids.first().map_or(NONE, previously);
            let parent = self.lists.get(parent_at as usize);
            if parent.is_some() {
                has_child[parent_at as usize] = true;
            }
            if let Some(&(_, unchanged)) = parent.filter(|(parent_ids, _)| parent_ids == ids) {
                *version = unchanged;
                deltas.push(None);
                continue;
            }
            self.last_version += 1;
            *version = self.last_version;
            let Some((parent_ids, parent_version)) = parent else {
                moved(ids);
                deltas.push(None);
                continue;
            };
            let delta = Delta {
                parent_version: *parent_version,
                added: ids.iter().copied().filter(|m| previously(m) != parent_at).collect(),
                removed: parent_ids
                    .iter()
                    .copied()
                    .filter(|m| story_of.get(m.index()) != Some(&(gi as u32)))
                    .collect(),
            };
            moved(&delta.added);
            moved(&delta.removed);
            deltas.push(Some(delta));
        }
        for ((orphaned, _), _) in self.lists.iter().zip(&has_child).filter(|&(_, &child)| !child) {
            moved(orphaned);
        }
        self.lists = lists;
        self.story_of_spare = std::mem::replace(&mut self.story_of, story_of);

        if self.row_of.len() < table_len {
            self.row_of.resize(table_len, NONE);
        }
        if self.overlap.len() < table_len {
            self.overlap.resize(table_len, (0, 0));
        }
        if self.story_key.len() < stories {
            self.story_key.resize(stories, (0, 0));
        }
        deltas
    }

    /// Leave in `self.ranked` the first [`MAX_ALTERNATIVES`] global
    /// stories other than `current` in the order the reference meets them
    /// when it walks `candidates_by_entities(v)`.
    fn probe_alternatives(&mut self, v: &Snippet, current: u32, store: &EventStore) {
        self.probe = self.probe.wrapping_add(1);
        if self.probe == 0 {
            // Stamp wrapped: old stamps could collide, so reset them all.
            self.overlap.fill((0, 0));
            self.story_key.fill((0, 0));
            self.probe = 1;
        }
        let probe = self.probe;

        self.touched.clear();
        for entity in v.entities().keys() {
            for cand in store.entity_postings(entity) {
                let i = cand.index();
                match self.story_of.get(i) {
                    Some(&g) if g != NONE && g != current => {}
                    _ => continue,
                }
                let slot = &mut self.overlap[i];
                if slot.0 == probe {
                    slot.1 += 1;
                } else {
                    *slot = (probe, 1);
                    self.touched.push(i as u32);
                }
            }
        }

        // Ascending key == (overlap desc, snippet id asc).
        self.ranked.clear();
        for &i in &self.touched {
            let key = u64::from(u32::MAX - self.overlap[i as usize].1) << 32 | u64::from(i);
            let g = self.story_of[i as usize];
            let best = &mut self.story_key[g as usize];
            if best.0 != probe {
                *best = (probe, key);
                self.ranked.push((0, g));
            } else if key < best.1 {
                best.1 = key;
            }
        }
        for entry in &mut self.ranked {
            entry.0 = self.story_key[entry.1 as usize].1;
        }
        self.ranked.sort_unstable();
        self.ranked.truncate(MAX_ALTERNATIVES);
    }

    /// Plan one sweep's moves on the frozen state (nothing is applied).
    pub(crate) fn plan(
        &mut self,
        store: &EventStore,
        identifiers: &HashMap<SourceId, Identifier>,
        outcome: &AlignOutcome,
        cfg: &RefineConfig,
        weights: &SimWeights,
    ) -> (Vec<RefineMove>, SweepStats) {
        let deltas = self.begin_sweep(outcome, store);
        let resolve = |ids: &[SnippetId]| -> Vec<&Snippet> {
            ids.iter().filter_map(|&id| store.get(id)).collect()
        };
        let members: Vec<Vec<&Snippet>> = self.lists.iter().map(|(ids, _)| resolve(ids)).collect();
        let gained: Vec<Vec<&Snippet>> = deltas
            .iter()
            .map(|d| d.as_ref().map_or_else(Vec::new, |d| resolve(&d.added)))
            .collect();
        let versions: Vec<u32> = self.lists.iter().map(|&(_, version)| version).collect();

        let mut stats = SweepStats::default();
        let mut probes_reused = 0u64; // (`judge` holds `stats`)
        let mut planned: Vec<RefineMove> = Vec::new();
        for (gi, g) in outcome.global_stories.iter().enumerate() {
            for &v in &members[gi] {
                let scorer = weights.probe(&v.content);
                let at = self.row_of[v.id.index()];
                let last = self.rows.get(at as usize).copied().unwrap_or(Row::EMPTY);
                let mut row = Row {
                    written: self.sweep,
                    ..Row::EMPTY
                };
                let mut judge = |slot: usize, story: u32| {
                    let version = versions[story as usize];
                    let known = |wanted: u32| last.judged.iter().find(|j| j.version == wanted);
                    let (argmax, cohesion) = if let Some(hit) = known(version) {
                        stats.cache_hits += 1;
                        (hit.argmax, hit.cohesion)
                    } else {
                        stats.cache_misses += 1;
                        let all = &members[story as usize];
                        // A cohesion with the parent list whose argmax
                        // is still a member.
                        let from = deltas[story as usize].as_ref().and_then(|d| {
                            known(d.parent_version).filter(|j| {
                                d.removed.binary_search_by_key(&j.argmax, |m| m.raw()).is_err()
                            })
                        });
                        match from {
                            Some(j) => {
                                stats.extended += 1;
                                let start = (j.argmax, j.cohesion);
                                let new = &gained[story as usize];
                                let extended = score_cohesion(&scorer, v.id, start, new, &mut stats);
                                if cfg!(debug_assertions) {
                                    let uncounted = &mut SweepStats::default();
                                    let full = score_cohesion(&scorer, v.id, (NONE, 0.0), all, uncounted);
                                    debug_assert_eq!(
                                        extended.1.to_bits(),
                                        full.1.to_bits(),
                                        "extended cohesion of {} with story {story} differs",
                                        v.id
                                    );
                                }
                                extended
                            }
                            None => score_cohesion(&scorer, v.id, (NONE, 0.0), all, &mut stats),
                        }
                    };
                    row.judged[slot] = Judged {
                        version,
                        argmax,
                        cohesion,
                    };
                    cohesion
                };

                let current = judge(0, gi as u32);
                // Written by the previous sweep, and nothing sharing an
                // entity with `v` changed lists since: the alternatives
                // are where the remembered key snippets are now.
                let clean = at != NONE
                    && last.written == self.sweep - 1
                    && v.entities().keys().all(|e| self.entity_moved.get(&e) != Some(&self.sweep));
                if clean {
                    probes_reused += 1;
                    self.ranked.clear();
                    for &key in last.keys.iter().take_while(|&&key| key != NONE) {
                        self.ranked.push((u64::from(key), self.story_of[key as usize]));
                    }
                    if cfg!(debug_assertions) {
                        let carried: Vec<u32> = self.ranked.iter().map(|&(_, g)| g).collect();
                        self.probe_alternatives(v, gi as u32, store);
                        debug_assert!(
                            self.ranked.iter().map(|&(_, g)| g).eq(carried),
                            "carried-over alternatives of {} differ from a fresh probe",
                            v.id
                        );
                    }
                } else {
                    self.probe_alternatives(v, gi as u32, store);
                }
                let mut best_alt: Option<(u32, f64)> = None;
                for (k, &(key, alt)) in self.ranked.iter().enumerate() {
                    let score = judge(k + 1, alt);
                    if best_alt.is_none_or(|(_, s)| score > s) {
                        best_alt = Some((alt, score));
                    }
                    row.keys[k] = key as u32; // the low half: the key snippet
                }
                if at == NONE {
                    self.row_of[v.id.index()] = self.rows.len() as u32;
                    self.rows.push(row);
                } else {
                    self.rows[at as usize] = row;
                }

                let Some((alt, alt_score)) = best_alt else { continue };
                if !should_move(current, alt_score, cfg) {
                    continue;
                }
                let Some(from_story) = identifiers.get(&v.source).and_then(|i| i.story_of(v.id))
                else {
                    continue;
                };
                planned.push(RefineMove {
                    snippet: v.id,
                    from_story,
                    to_story: from_story, // fixed up at apply time
                    from_global: g.id,
                    to_global: outcome.global_stories[alt as usize].id,
                });
            }
        }
        stats.probes_reused = probes_reused;
        (planned, stats)
    }
}

/// The running maximum `start = (argmax, best)` carried on over
/// `members`: content similarity of the snippet bound in `scorer` to
/// every member other than `v` itself, with a member attaining it.
/// Started from `(NONE, 0.0)` over a whole list this is the cohesion.
fn score_cohesion(
    scorer: &ProbeScorer<'_>,
    v: SnippetId,
    start: (u32, f64),
    members: &[&Snippet],
    stats: &mut SweepStats,
) -> (u32, f64) {
    let (mut argmax, mut best) = start;
    for m in members {
        if m.id == v {
            continue;
        }
        stats.pairs_scored += 1;
        let s = scorer.score(&m.content);
        if s > best {
            best = s;
            argmax = m.id.raw();
        }
    }
    (argmax, best)
}

// ---- the reference planner (test oracle) ----------------------------------

/// Cohesion of snippet `v` with a set of member snippets: the maximum
/// content similarity to any *other* member (single-link, mirroring the
/// identification criterion).
fn cohesion(
    v: &Snippet,
    members: &[SnippetId],
    store: &EventStore,
    weights: &SimWeights,
    stats: &mut SweepStats,
) -> f64 {
    // Bind the probe once; the loop only pays the per-member merge.
    let scorer = weights.probe(&v.content);
    let mut best = 0.0f64;
    stats.cache_misses += 1;
    for &m in members {
        if m == v.id {
            continue;
        }
        if let Some(other) = store.get(m) {
            stats.pairs_scored += 1;
            let s = scorer.score(&other.content);
            if s > best {
                best = s;
            }
        }
    }
    best
}

/// The original planning sweep: every cohesion scored from scratch
/// through the store, every candidate snippet sorted. It defines what a
/// sweep must plan; [`Refiner::plan`] is checked against it and it runs
/// nowhere else ([`crate::pivot::StoryPivot::refine_reference`]).
pub(crate) fn plan_reference(
    store: &EventStore,
    identifiers: &HashMap<SourceId, Identifier>,
    outcome: &AlignOutcome,
    cfg: &RefineConfig,
    weights: &SimWeights,
) -> (Vec<RefineMove>, SweepStats) {
    // Member snippet lists per global story.
    let mut members_of: HashMap<GlobalStoryId, Vec<SnippetId>> = HashMap::new();
    for g in &outcome.global_stories {
        members_of.insert(g.id, g.members.iter().map(|&(id, _)| id).collect());
    }

    let mut stats = SweepStats::default();
    let mut planned: Vec<RefineMove> = Vec::new();
    for g in &outcome.global_stories {
        for &(snippet_id, _) in &g.members {
            let Some(v) = store.get(snippet_id) else { continue };
            let current = cohesion(v, &members_of[&g.id], store, weights, &mut stats);

            // Candidate alternative global stories: wherever snippets
            // sharing entities with v live.
            let mut seen: Vec<GlobalStoryId> = Vec::new();
            let mut best_alt: Option<(GlobalStoryId, f64)> = None;
            for (cand, _overlap) in store.candidates_by_entities(v.entities().keys()) {
                if cand == v.id {
                    continue;
                }
                let Some(&alt_g) = outcome.snippet_to_global.get(&cand) else { continue };
                if alt_g == g.id || seen.contains(&alt_g) {
                    continue;
                }
                seen.push(alt_g);
                if seen.len() > MAX_ALTERNATIVES {
                    break; // cap candidate evaluation
                }
                let score = cohesion(v, &members_of[&alt_g], store, weights, &mut stats);
                if best_alt.is_none_or(|(_, s)| score > s) {
                    best_alt = Some((alt_g, score));
                }
            }

            if let Some((to_global, alt_score)) = best_alt {
                if should_move(current, alt_score, cfg) {
                    let Some(from_story) = identifiers
                        .get(&v.source)
                        .and_then(|i| i.story_of(v.id))
                    else {
                        continue;
                    };
                    planned.push(RefineMove {
                        snippet: v.id,
                        from_story,
                        to_story: from_story, // fixed up at apply time
                        from_global: g.id,
                        to_global,
                    });
                }
            }
        }
    }
    (planned, stats)
}

// ---- apply (shared) --------------------------------------------------------

/// Apply a sweep's planned moves to `identifiers`, skipping any whose
/// snippet an earlier move of the same sweep already displaced. Returns
/// the moves applied (callers re-align afterwards).
pub(crate) fn apply_moves(
    store: &EventStore,
    identifiers: &mut HashMap<SourceId, Identifier>,
    outcome: &AlignOutcome,
    planned: Vec<RefineMove>,
) -> Vec<RefineMove> {
    let mut applied = Vec::with_capacity(planned.len());
    for mut mv in planned {
        let Some(v) = store.get(mv.snippet) else { continue };
        let Some(ident) = identifiers.get_mut(&v.source) else { continue };
        if ident.story_of(v.id) != Some(mv.from_story) {
            continue; // a previous move already touched this story
        }
        // Target per-source story: the target global story's member
        // story in v's source, or a fresh story.
        let to_story = outcome
            .global_story(mv.to_global)
            .expect("global story exists")
            .member_stories
            .iter()
            .copied()
            .find(|&s| story_source(s) == v.source)
            .unwrap_or_else(|| ident.fresh_story_id());
        ident.remove_snippet(v, store);
        ident.force_assign(v, to_story);
        mv.to_story = to_story;
        applied.push(mv);
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::Aligner;
    use crate::config::{AlignConfig, IdentifyConfig, MatchMode, PivotConfig, SketchConfig};
    use crate::pivot::StoryPivot;
    use storypivot_types::{EntityId, EventType, Source, SourceKind, TermId, Timestamp, DAY};

    /// One sweep on default settings, planned by both planners (which
    /// must agree) and then applied.
    fn sweep(
        store: &EventStore,
        identifiers: &mut HashMap<SourceId, Identifier>,
        outcome: &AlignOutcome,
    ) -> Vec<RefineMove> {
        let (cfg, weights) = (RefineConfig::default(), SimWeights::default());
        let (reference, _) = plan_reference(store, identifiers, outcome, &cfg, &weights);
        let (planned, _) = Refiner::default().plan(store, identifiers, outcome, &cfg, &weights);
        assert_eq!(planned, reference);
        apply_moves(store, identifiers, outcome, planned)
    }

    fn snip(id: u32, source: u32, day: i64, entities: &[u32], terms: &[u32]) -> Snippet {
        let mut b = Snippet::builder(
            SnippetId::new(id),
            SourceId::new(source),
            Timestamp::from_secs(day * DAY),
        )
        .event_type(EventType::Accident);
        for &e in entities {
            b = b.entity(EntityId::new(e), 1.0);
        }
        for &t in terms {
            b = b.term(TermId::new(t), 1.0);
        }
        b.build()
    }

    #[test]
    fn story_source_inverts_partitioning() {
        let mut ident = Identifier::new(
            SourceId::new(3),
            IdentifyConfig::default(),
            SketchConfig::default(),
        );
        let id = ident.fresh_story_id();
        assert_eq!(story_source(id), SourceId::new(3));
    }

    /// Reproduce Figure 1d: a snippet misassigned within its source is
    /// pulled to the right global story by cross-source evidence.
    #[test]
    fn misassigned_snippet_is_corrected() {
        let mut store = EventStore::new();
        let mut identifiers: HashMap<SourceId, Identifier> = HashMap::new();
        for i in 0..2u32 {
            store
                .register_source(Source::new(SourceId::new(i), format!("s{i}"), SourceKind::Newspaper))
                .unwrap();
            identifiers.insert(
                SourceId::new(i),
                Identifier::new(
                    SourceId::new(i),
                    IdentifyConfig {
                        mode: MatchMode::Temporal { omega: 7 * DAY },
                        maintenance_every: 0,
                        ..IdentifyConfig::default()
                    },
                    SketchConfig::default(),
                ),
            );
        }

        let ingest = |s: Snippet, store: &mut EventStore, idents: &mut HashMap<SourceId, Identifier>| {
            store.insert(s.clone()).unwrap();
            idents.get_mut(&s.source).unwrap().assign(&s, store);
        };

        // Source 0: story A (plane crash) and story B (unrelated sports).
        for (i, day) in [(0u32, 0i64), (1, 1), (2, 2)] {
            ingest(snip(i, 0, day, &[1, 2], &[10, 11]), &mut store, &mut identifiers);
        }
        for (i, day) in [(10u32, 0i64), (11, 1), (12, 2)] {
            ingest(snip(i, 0, day, &[7, 8], &[20, 21]), &mut store, &mut identifiers);
        }
        // Source 1 mirrors both stories.
        for (i, day) in [(20u32, 0i64), (21, 1), (22, 2)] {
            ingest(snip(i, 1, day, &[1, 2], &[10, 11]), &mut store, &mut identifiers);
        }
        for (i, day) in [(30u32, 0i64), (31, 1), (32, 2)] {
            ingest(snip(i, 1, day, &[7, 8], &[20, 21]), &mut store, &mut identifiers);
        }

        // Inject the identification error: move snippet 2 (crash story)
        // into source 0's sports story, Figure 1's wrong `v¹₄`.
        let victim = store.get(SnippetId::new(2)).unwrap().clone();
        let wrong_story = identifiers[&SourceId::new(0)]
            .story_of(SnippetId::new(10))
            .unwrap();
        let right_story = identifiers[&SourceId::new(0)]
            .story_of(SnippetId::new(0))
            .unwrap();
        {
            let ident = identifiers.get_mut(&SourceId::new(0)).unwrap();
            ident.remove_snippet(&victim, &store);
            ident.force_assign(&victim, wrong_story);
        }

        let mut aligner =
            Aligner::new(AlignConfig::default(), SimWeights::default(), SketchConfig::default());
        let states: Vec<&crate::state::StoryState> =
            identifiers.values().flat_map(|i| i.stories()).collect();
        let outcome = aligner.align(&states, &store);

        let moves = sweep(&store, &mut identifiers, &outcome);

        assert!(
            moves.iter().any(|m| m.snippet == SnippetId::new(2)),
            "the misassigned snippet must move; moves: {moves:?}"
        );
        assert_eq!(
            identifiers[&SourceId::new(0)].story_of(SnippetId::new(2)),
            Some(right_story),
            "snippet must return to the crash story"
        );
    }

    #[test]
    fn well_assigned_snippets_stay_put() {
        let mut store = EventStore::new();
        let mut identifiers: HashMap<SourceId, Identifier> = HashMap::new();
        store
            .register_source(Source::new(SourceId::new(0), "s0", SourceKind::Newspaper))
            .unwrap();
        identifiers.insert(
            SourceId::new(0),
            Identifier::new(SourceId::new(0), IdentifyConfig::default(), SketchConfig::default()),
        );
        for (i, day) in [(0u32, 0i64), (1, 1), (2, 2)] {
            let s = snip(i, 0, day, &[1, 2], &[10, 11]);
            store.insert(s.clone()).unwrap();
            identifiers.get_mut(&SourceId::new(0)).unwrap().assign(&s, &store);
        }
        let mut aligner =
            Aligner::new(AlignConfig::default(), SimWeights::default(), SketchConfig::default());
        let states: Vec<&crate::state::StoryState> =
            identifiers.values().flat_map(|i| i.stories()).collect();
        let outcome = aligner.align(&states, &store);
        let moves = sweep(&store, &mut identifiers, &outcome);
        assert!(moves.is_empty(), "no spurious moves: {moves:?}");
    }

    /// The trap on `harness e2`'s 18 k corpus, in miniature: a lone
    /// snippet is most cohesive with a story its source has no part in,
    /// so it moves into a *fresh* story — which aligns exactly as its old
    /// one did, so every global member list repeats and the same move is
    /// planned again, round after round. Unchanged inputs must not be
    /// read as "it stayed".
    #[test]
    fn move_into_a_fresh_story_is_replanned_every_round() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let b = pivot.add_source("b", SourceKind::Newspaper);
        // Three months apart, so the two stories never align (§2.3), yet
        // the lone snippet's content matches b's story exactly.
        let lone = pivot.fresh_snippet_id();
        pivot.ingest(snip(lone.raw(), a.raw(), 0, &[1, 2], &[10, 11])).unwrap();
        for day in 90..93 {
            let id = pivot.fresh_snippet_id();
            pivot.ingest(snip(id.raw(), b.raw(), day, &[1, 2], &[10, 11])).unwrap();
        }
        pivot.align();
        assert_eq!(pivot.global_stories().len(), 2);

        let mut reference = pivot.clone();
        let report = pivot.refine();
        assert_eq!(report, reference.refine_reference());
        assert_eq!(pivot.story_partition(), reference.story_partition());

        let rounds = pivot.config().refine.max_rounds;
        assert_eq!(report.rounds, rounds);
        assert_eq!(report.move_count(), rounds, "moves: {:?}", report.moves);
        for (i, m) in report.moves.iter().enumerate() {
            assert_eq!(m.snippet, lone);
            assert_ne!(m.to_story, m.from_story);
            assert!(report.moves[..i].iter().all(|p| p.to_story != m.to_story));
        }
        assert_eq!(pivot.global_stories().len(), 2, "the member lists repeat");
    }

    // ---- what extending a cohesion and carrying a probe over can get wrong ----

    /// An engine with counters attached and `n` newspaper sources.
    fn engine(n: u32) -> (StoryPivot, Vec<SourceId>) {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        pivot.set_metrics(crate::metrics::EngineMetrics::register(
            &storypivot_substrate::metrics::Registry::new(),
        ));
        let sources = (0..n).map(|i| pivot.add_source(format!("s{i}"), SourceKind::Newspaper)).collect();
        (pivot, sources)
    }

    /// Ingest one snippet per id, a day apart, all with the same content;
    /// they must land in one story, which is returned.
    fn story(pivot: &mut StoryPivot, source: SourceId, ids: &[u32], entities: &[u32], terms: &[u32]) -> StoryId {
        let stories: Vec<StoryId> = ids
            .iter()
            .enumerate()
            .map(|(day, &id)| pivot.ingest(snip(id, source.raw(), day as i64, entities, terms)).unwrap())
            .collect();
        assert!(stories.iter().all(|&s| s == stories[0]), "one story: {stories:?}");
        stories[0]
    }

    /// What the production planner's sweeps of one `refine()` did:
    /// `(cohesions extended, probes carried over)`.
    fn refine_vs_reference(pivot: &mut StoryPivot) -> (RefineReport, u64, u64) {
        let mut reference = pivot.clone();
        reference.set_metrics(crate::metrics::EngineMetrics::default());
        let m = pivot.metrics().clone();
        let before = (m.refine_cohesion_extended_total.get(), m.refine_probes_reused_total.get());
        let report = pivot.refine();
        assert_eq!(report, reference.refine_reference());
        assert_eq!(pivot.story_partition(), reference.story_partition());
        assert_eq!(pivot.global_stories(), reference.global_stories());
        pivot.check_invariants().unwrap();
        let extended = m.refine_cohesion_extended_total.get() - before.0;
        let reused = m.refine_probes_reused_total.get() - before.1;
        (report, extended, reused)
    }

    /// Sports (snippets 0–2 and 30–32) and crash stories in two sources.
    /// Snippets 10 (`v`) and 11 are a near-duplicate pair inside source
    /// 0's crash story; the other crash reports resemble them less.
    /// Returns source 0's sports story.
    fn near_duplicates_in_the_crash_story() -> (StoryPivot, StoryId) {
        let (mut pivot, s) = engine(2);
        let sports = story(&mut pivot, s[0], &[0, 1, 2], &[7, 8], &[20, 21]);
        let crash = story(&mut pivot, s[0], &[10, 11], &[1, 2], &[10, 11, 30, 31]);
        for id in [12, 13] {
            let day = i64::from(id - 10);
            assert_eq!(pivot.ingest(snip(id, 0, day, &[1, 2], &[10, 12])).unwrap(), crash);
        }
        story(&mut pivot, s[1], &[20, 21, 22], &[1, 2], &[10, 12]);
        story(&mut pivot, s[1], &[30, 31, 32], &[7, 8], &[20, 21]);
        let (warm, ..) = refine_vs_reference(&mut pivot);
        assert_eq!(warm.move_count(), 0);
        assert_eq!(pivot.global_stories().len(), 2);
        (pivot, sports)
    }

    /// `v`'s cohesion with its own story is attained by its near
    /// duplicate. When that one is thrown into the sports story, `v`'s
    /// cohesion with what is left must be scored again — kept, it would
    /// hold `v` in place, while the truth is that `v` now resembles the
    /// sports story (which holds its twin) more than its own.
    #[test]
    fn the_member_a_cohesion_was_attained_by_leaves() {
        let (mut pivot, sports) = near_duplicates_in_the_crash_story();
        pivot.reassign_snippet(SnippetId::new(11), sports).unwrap();
        let (report, ..) = refine_vs_reference(&mut pivot);
        let first = report.moves.iter().find(|m| m.snippet == SnippetId::new(10));
        assert_eq!(first.map(|m| m.to_story), Some(sports), "{report:?}");
    }

    /// Three identical reports (10 = `v`, 11, 12): whichever of `v`'s
    /// twins is thrown into the sports story, `v`'s cohesion stays 1.0
    /// through the other. The one remembered (11, the first in id order)
    /// leaving costs `v` a full re-score of the four that are left; 12
    /// leaving is an extension over nothing.
    #[test]
    fn one_of_two_members_tied_for_the_maximum_leaves() {
        for (leaver, stayer) in [(11u32, 12u32), (12, 11)] {
            let (mut pivot, s) = engine(2);
            let sports = story(&mut pivot, s[0], &[0, 1, 2], &[7, 8], &[20, 21]);
            let crash = story(&mut pivot, s[0], &[10, 11, 12], &[1, 2], &[10, 11]);
            story(&mut pivot, s[1], &[20, 21, 22], &[1, 2], &[10, 12]);
            story(&mut pivot, s[1], &[30, 31, 32], &[7, 8], &[20, 21]);
            assert_eq!(refine_vs_reference(&mut pivot).0.move_count(), 0);

            pivot.reassign_snippet(SnippetId::new(leaver), sports).unwrap();
            let mut one_sweep = pivot.clone();
            let (report, ..) = refine_vs_reference(&mut pivot);
            // The leaver is pulled back; `v` never moves.
            assert!(report.moves.iter().all(|m| m.snippet == SnippetId::new(leaver)), "{report:?}");
            assert_eq!(pivot.story_of(SnippetId::new(leaver)), Some(crash));

            // The first of those sweeps, counted. Scored in full: the
            // sports story with the leaver in it, by the leaver (6) and
            // by the five crash reports whose alternative it now is (7
            // each). Extended: the sports story by its six old members
            // (1 pair each), the crash story by the leaver looking back
            // and by its members — except by `v` when 11 left.
            one_sweep.align_incremental();
            let outcome = one_sweep.outcome.take().unwrap();
            let (cfg, weights) = (RefineConfig::default(), SimWeights::default());
            let refiner = &mut one_sweep.refiner;
            let (_, stats) = refiner.plan(&one_sweep.store, &one_sweep.identifiers, &outcome, &cfg, &weights);
            let own = refiner.rows[refiner.row_of[10] as usize].judged[0];
            assert!(own.cohesion > 0.99, "a twin is still there: {own:?}");
            assert_eq!(own.argmax, stayer);
            let (extended, pairs) = if leaver == 11 { (11, 4 + 47) } else { (12, 47) };
            assert_eq!((stats.extended, stats.pairs_scored), (extended, pairs), "{stats:?}");
        }
    }

    /// Crash story G1 (sources 0 and 1), a story G2 in source 2 that
    /// shares entity 1 with it but is not similar enough to align, and
    /// an unrelated sports story. `v` (snippet 0) mentions entity 1 only,
    /// so G2 is its one alternative.
    fn crash_story_with_an_unaligned_neighbour() -> (StoryPivot, Vec<SourceId>) {
        let (mut pivot, s) = engine(4);
        let crash = pivot.ingest(snip(0, 0, 0, &[1], &[10, 11])).unwrap();
        for id in [1, 2, 3] {
            let day = i64::from(id);
            assert_eq!(pivot.ingest(snip(id, 0, day, &[1, 2], &[10, 11])).unwrap(), crash);
        }
        story(&mut pivot, s[1], &[20, 21, 22], &[1, 2], &[10, 11]);
        story(&mut pivot, s[2], &[40, 41, 42], &[1, 3], &[20, 21]);
        story(&mut pivot, s[0], &[90, 91], &[7, 8], &[50, 51]);
        story(&mut pivot, s[1], &[92, 93], &[7, 8], &[50, 51]);
        let (warm, ..) = refine_vs_reference(&mut pivot);
        assert_eq!(warm.move_count(), 0);
        assert_eq!(pivot.global_stories().len(), 3);
        assert_ne!(pivot.global_of(SnippetId::new(0)), pivot.global_of(SnippetId::new(40)));
        (pivot, s)
    }

    /// A story in a fourth source bridges G1 and G2 into one global
    /// story without mentioning entity 1. G2's members keep their list
    /// mates but arrive in `v`'s own list: `v` must probe again, or it
    /// would weigh its own story as an alternative.
    #[test]
    fn an_alternative_merges_into_the_snippets_own_story() {
        let (mut pivot, s) = crash_story_with_an_unaligned_neighbour();
        story(&mut pivot, s[3], &[60, 61, 62], &[2, 3], &[10, 11, 20, 21]);
        pivot.align_incremental();
        assert_eq!(pivot.global_stories().len(), 2);
        assert_eq!(pivot.global_of(SnippetId::new(0)), pivot.global_of(SnippetId::new(40)));
        let (_, _, reused) = refine_vs_reference(&mut pivot);
        // The sports story is untouched: its four snippets are clean in
        // every sweep; nobody in the merged story is in the first.
        assert!(reused >= 4, "probes reused: {reused}");
        let mut again = pivot.clone();
        again.config.refine.max_rounds = 1;
        assert_eq!(refine_vs_reference(&mut again).2, 4 + 13, "all lists repeat");
    }

    /// G2 grows to two aligned stories (sources 2 and 3), both sharing
    /// entity 1 with `v`; then source 3's is diluted by reports about
    /// something else until the two no longer align. `v` remembers one
    /// key snippet for the pair and now faces two alternatives.
    #[test]
    fn an_alternative_splits_and_both_children_share_an_entity_with_the_snippet() {
        let (mut pivot, s) = crash_story_with_an_unaligned_neighbour();
        let twin = story(&mut pivot, s[3], &[50, 51, 52], &[1, 3], &[20, 21]);
        refine_vs_reference(&mut pivot);
        assert_eq!(pivot.global_stories().len(), 3);
        assert_eq!(pivot.global_of(SnippetId::new(40)), pivot.global_of(SnippetId::new(50)));

        for id in 70..82 {
            pivot.ingest(snip(id, 3, 1, &[5, 6], &[40, 41])).unwrap();
            pivot.reassign_snippet(SnippetId::new(id), twin).unwrap();
        }
        pivot.align_incremental();
        assert_eq!(pivot.global_stories().len(), 4);
        assert_ne!(pivot.global_of(SnippetId::new(40)), pivot.global_of(SnippetId::new(50)));
        let (_, _, reused) = refine_vs_reference(&mut pivot);
        assert!(reused >= 4, "the sports story is clean; probes reused: {reused}");
    }

    /// A report that shares no entity with `v` joins `v`'s alternative:
    /// `v` is clean (its alternatives are carried over) and the
    /// alternative's version is new (its cohesion is extended by the
    /// one newcomer).
    #[test]
    fn a_newcomer_sharing_nothing_with_the_snippet_joins_its_alternative() {
        let (mut pivot, _) = crash_story_with_an_unaligned_neighbour();
        let neighbour = pivot.story_of(SnippetId::new(40)).unwrap();
        assert_eq!(pivot.ingest(snip(43, 2, 3, &[3], &[20, 21])).unwrap(), neighbour);
        pivot.config.refine.max_rounds = 1;
        let (_, extended, reused) = refine_vs_reference(&mut pivot);
        // Entity 3 moved: G2's old members re-probe, everyone else is
        // clean. G2 is an alternative of all seven crash reports (each
        // extends by the newcomer) and its own three members extend too.
        assert_eq!(reused, 7 + 4);
        assert_eq!(extended, 7 + 3);
    }

    /// Snippet ids are the client's: a late report with an id below all
    /// of its story's becomes the list's first member, so the list has
    /// no parent — everything about it is scored and probed afresh.
    #[test]
    fn a_list_whose_first_member_is_new_has_no_parent() {
        let (mut pivot, s) = engine(2);
        let crash = story(&mut pivot, s[0], &[5, 6, 7], &[1, 2], &[10, 11]);
        story(&mut pivot, s[1], &[20, 21, 22], &[1, 2], &[10, 11]);
        story(&mut pivot, s[0], &[90, 91], &[7, 8], &[50, 51]);
        story(&mut pivot, s[1], &[92, 93], &[7, 8], &[50, 51]);
        assert_eq!(refine_vs_reference(&mut pivot).0.move_count(), 0);

        assert_eq!(pivot.ingest(snip(0, 0, 3, &[1, 2], &[10, 11])).unwrap(), crash);
        pivot.config.refine.max_rounds = 1;
        let (_, extended, reused) = refine_vs_reference(&mut pivot);
        assert_eq!(extended, 0);
        assert_eq!(reused, 4, "the sports story only");
    }
}
