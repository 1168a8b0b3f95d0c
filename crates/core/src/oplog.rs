//! Replayable engine operations — the payloads of a per-shard
//! write-ahead log.
//!
//! `pivotd` journals every state-changing request *before* applying it
//! (see `storypivot-serve`); after a crash, replaying the journal on
//! top of the newest checkpoint reconstructs the exact pre-crash
//! engine. Three operations change engine state over the wire, and each
//! one is its own record:
//!
//! ```text
//! op := 0x01 | source        (register a source)
//!     | 0x02 | snippet       (ingest one snippet)
//!     | 0x03 | doc u32       (remove a document everywhere)
//! ```
//!
//! Sources and snippets reuse the store's binary codec, so a journaled
//! ingest is byte-identical to a checkpointed or served one.
//!
//! Replay is **idempotent by construction**: a checkpoint is written
//! first and the journal truncated second, so a crash between the two
//! leaves ops in the journal that the checkpoint already contains.
//! [`replay`] therefore treats "already there" (duplicate snippet or
//! source) and "already gone" (unknown document) as successful no-ops
//! and only propagates errors that indicate real corruption.

use storypivot_store::codec::{decode_snippet, decode_source, encode_snippet, encode_source};
use storypivot_substrate::buf::{Buf, BufMut};
use storypivot_types::{DocId, Error, Result, Snippet, Source, SourceId, StoryId};

use crate::pipeline::DynamicPivot;
use crate::pivot::StoryPivot;

const OP_ADD_SOURCE: u8 = 0x01;
const OP_INGEST: u8 = 0x02;
const OP_REMOVE_DOC: u8 = 0x03;

/// One journaled engine mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayOp {
    /// Register a source (with its server-allocated id).
    AddSource(Source),
    /// Ingest one snippet.
    Ingest(Snippet),
    /// Remove a document and every snippet extracted from it.
    RemoveDoc(DocId),
}

impl ReplayOp {
    /// Append the binary encoding.
    pub fn encode(&self, buf: &mut impl BufMut) {
        match self {
            ReplayOp::AddSource(source) => {
                buf.put_u8(OP_ADD_SOURCE);
                encode_source(buf, source);
            }
            ReplayOp::Ingest(snippet) => {
                buf.put_u8(OP_INGEST);
                encode_snippet(buf, snippet);
            }
            ReplayOp::RemoveDoc(doc) => {
                buf.put_u8(OP_REMOVE_DOC);
                buf.put_u32_le(doc.raw());
            }
        }
    }

    /// The encoding as a fresh byte vector (journal payload form).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode(&mut out);
        out
    }

    /// Decode one op from a full journal payload; trailing bytes are a
    /// codec error.
    pub fn decode(mut payload: &[u8]) -> Result<ReplayOp> {
        let buf = &mut payload;
        if !buf.has_remaining() {
            return Err(Error::Codec("empty replay op".into()));
        }
        let op = match buf.get_u8() {
            OP_ADD_SOURCE => ReplayOp::AddSource(decode_source(buf)?),
            OP_INGEST => ReplayOp::Ingest(decode_snippet(buf)?),
            OP_REMOVE_DOC => {
                if buf.remaining() < 4 {
                    return Err(Error::Codec("truncated remove-doc op".into()));
                }
                ReplayOp::RemoveDoc(DocId::new(buf.get_u32_le()))
            }
            other => return Err(Error::Codec(format!("unknown replay op kind 0x{other:02x}"))),
        };
        if buf.has_remaining() {
            return Err(Error::Codec(format!(
                "{} trailing bytes after replay op",
                buf.remaining()
            )));
        }
        Ok(op)
    }

    /// A stable 64-bit identity for quarantine bookkeeping: FNV-1a over
    /// the encoded bytes, so the same logical op hashes identically
    /// across process restarts (unlike `std`'s randomized hasher).
    pub fn fingerprint(&self) -> u64 {
        fingerprint_of(&self.to_bytes())
    }
}

/// [`ReplayOp::fingerprint`] of an op whose encoding the caller already
/// holds (the journal payload), without encoding it again.
pub fn fingerprint_of(encoded: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in encoded {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// What a successfully applied op produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// The registered source.
    Source(SourceId),
    /// The per-source story the ingested snippet joined.
    Story(StoryId),
    /// How many snippets the document removal evicted.
    Removed(u32),
}

/// Apply one op to an engine, consuming it. This is the only place an
/// op meets the engine: the live serving path and recovery replay both
/// come through here, which is what makes recovered == uninterrupted.
pub fn apply(engine: &mut StoryPivot, op: ReplayOp) -> Result<Applied> {
    match op {
        ReplayOp::AddSource(source) => engine.add_source_registered(source).map(Applied::Source),
        ReplayOp::Ingest(snippet) => engine.ingest(snippet).map(Applied::Story),
        ReplayOp::RemoveDoc(doc) => engine.remove_document(doc).map(|n| Applied::Removed(n as u32)),
    }
}

/// Apply one op during recovery. Returns `true` when the op changed
/// state, `false` when it was an idempotent no-op (already applied via
/// the checkpoint it rode behind); corruption-class errors propagate.
pub fn replay(engine: &mut StoryPivot, op: &ReplayOp) -> Result<bool> {
    match apply(engine, op.clone()) {
        Ok(_) => Ok(true),
        // The checkpoint this journal tail rides behind already holds
        // the effect (crash landed between checkpoint and truncate).
        Err(Error::Duplicate(_)) | Err(Error::UnknownDocument(_)) => Ok(false),
        Err(e) => Err(e),
    }
}

/// [`replay`] on the engine inside a [`DynamicPivot`], bypassing its
/// alignment policy. Kept for the benchmark's `core.oplog.replay_us`
/// loop, which holds one; everything else calls [`replay`].
pub fn replay_op(engine: &mut DynamicPivot, op: &ReplayOp) -> Result<bool> {
    replay(engine.pivot_mut(), op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PivotConfig;
    use storypivot_types::{EntityId, SnippetId, SourceKind, TermId, Timestamp};

    fn fresh_engine() -> StoryPivot {
        StoryPivot::new(PivotConfig::default())
    }

    fn snip(id: u32) -> Snippet {
        Snippet::builder(SnippetId::new(id), SourceId::new(0), Timestamp::from_secs(id as i64))
            .doc(DocId::new(id / 2))
            .entity(EntityId::new(1), 1.0)
            .term(TermId::new(2), 0.5)
            .headline(format!("op {id}"))
            .build()
    }

    #[test]
    fn every_op_round_trips() {
        let ops = [
            ReplayOp::AddSource(Source::new(SourceId::new(3), "wire — ütf8", SourceKind::Wire)),
            ReplayOp::Ingest(snip(9)),
            ReplayOp::RemoveDoc(DocId::new(17)),
        ];
        for op in ops {
            let bytes = op.to_bytes();
            assert_eq!(ReplayOp::decode(&bytes).unwrap(), op);
        }
    }

    #[test]
    fn garbage_and_trailing_bytes_are_codec_errors() {
        assert!(matches!(ReplayOp::decode(&[]), Err(Error::Codec(_))));
        assert!(matches!(ReplayOp::decode(&[0x7F]), Err(Error::Codec(_))));
        let mut bytes = ReplayOp::RemoveDoc(DocId::new(1)).to_bytes();
        bytes.push(0xEE);
        assert!(matches!(ReplayOp::decode(&bytes), Err(Error::Codec(_))));
    }

    #[test]
    fn fingerprints_are_stable_and_distinguish_ops() {
        let a = ReplayOp::Ingest(snip(1));
        let b = ReplayOp::Ingest(snip(2));
        assert_eq!(a.fingerprint(), ReplayOp::decode(&a.to_bytes()).unwrap().fingerprint());
        assert_eq!(a.fingerprint(), fingerprint_of(&a.to_bytes()));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn replay_applies_in_order_and_tolerates_duplicates() {
        let mut engine = fresh_engine();
        let source = Source::new(SourceId::new(0), "s0", SourceKind::Wire);
        assert!(replay(&mut engine, &ReplayOp::AddSource(source.clone())).unwrap());
        assert!(replay(&mut engine, &ReplayOp::Ingest(snip(0))).unwrap());
        assert!(replay(&mut engine, &ReplayOp::Ingest(snip(1))).unwrap());
        // Double-applied ops (checkpoint/truncate crash window) no-op.
        assert!(!replay(&mut engine, &ReplayOp::AddSource(source)).unwrap());
        assert!(!replay(&mut engine, &ReplayOp::Ingest(snip(1))).unwrap());
        assert!(replay(&mut engine, &ReplayOp::RemoveDoc(DocId::new(0))).unwrap());
        assert!(!replay(&mut engine, &ReplayOp::RemoveDoc(DocId::new(0))).unwrap());
        assert_eq!(engine.store().len(), 0);
        // `apply` is the same match, reporting what the op produced and
        // leaving "already there / already gone" to the caller.
        let story = match apply(&mut engine, ReplayOp::Ingest(snip(2))).unwrap() {
            Applied::Story(story) => story,
            other => panic!("an ingest yields a story, got {other:?}"),
        };
        assert_eq!(engine.story(story).unwrap().story.members, [SnippetId::new(2)]);
        assert_eq!(apply(&mut engine, ReplayOp::RemoveDoc(DocId::new(1))), Ok(Applied::Removed(1)));
        assert!(matches!(
            apply(&mut engine, ReplayOp::RemoveDoc(DocId::new(1))),
            Err(Error::UnknownDocument(_))
        ));
    }
}
