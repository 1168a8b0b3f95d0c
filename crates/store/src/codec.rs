//! Binary codec for snippets, sources, and store snapshots.
//!
//! A hand-rolled, length-prefixed little-endian format (no serde): the
//! encoded forms are compact, versioned, and every decode path checks
//! bounds so corrupt or truncated snapshots surface as
//! [`Error::Codec`] instead of panics.
//!
//! Layout of a snapshot:
//!
//! ```text
//! magic "SPVT" | version u32 | source_count u32 | Source…
//!              | snippet_count u32 | Snippet…
//! ```

use storypivot_substrate::buf::{Buf, BufMut};

use storypivot_types::{
    DocId, EntityId, Error, EventType, Result, Snippet, SnippetContent, SnippetId, Source,
    SourceId, SourceKind, SparseVec, TermId, Timestamp,
};

use crate::event_store::EventStore;

/// Snapshot file magic.
pub const MAGIC: &[u8; 4] = b"SPVT";
/// Current snapshot format version.
pub const VERSION: u32 = 1;

// ---- bounded readers ----------------------------------------------

fn need(buf: &impl Buf, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        Err(Error::Codec(format!(
            "truncated input: need {n} bytes for {what}, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

fn get_u8(buf: &mut impl Buf, what: &str) -> Result<u8> {
    need(buf, 1, what)?;
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut impl Buf, what: &str) -> Result<u32> {
    need(buf, 4, what)?;
    Ok(buf.get_u32_le())
}

fn get_i64(buf: &mut impl Buf, what: &str) -> Result<i64> {
    need(buf, 8, what)?;
    Ok(buf.get_i64_le())
}

fn put_str(buf: &mut impl BufMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut impl Buf, what: &str) -> Result<String> {
    let len = get_u32(buf, what)? as usize;
    need(buf, len, what)?;
    let mut raw = vec![0u8; len];
    buf.copy_to_slice(&mut raw);
    String::from_utf8(raw).map_err(|_| Error::Codec(format!("invalid utf-8 in {what}")))
}

// ---- sparse vectors ------------------------------------------------

fn put_sparse<K: Copy + Ord + std::fmt::Debug + Into<u32>>(buf: &mut impl BufMut, v: &SparseVec<K>) {
    buf.put_u32_le(v.len() as u32);
    for (k, w) in v.iter() {
        buf.put_u32_le(k.into());
        buf.put_f32_le(w);
    }
}

fn get_sparse<K: Copy + Ord + std::fmt::Debug + From<u32> + Into<u32>>(
    buf: &mut impl Buf,
    what: &str,
) -> Result<SparseVec<K>> {
    let n = get_u32(buf, what)? as usize;
    // Each entry is 8 bytes; reject absurd counts before allocating.
    need(buf, n.saturating_mul(8), what)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let k = K::from(buf.get_u32_le());
        let w = buf.get_f32_le();
        pairs.push((k, w));
    }
    Ok(SparseVec::from_pairs(pairs))
}

// ---- snippets -------------------------------------------------------

/// Append the encoding of `snippet` to `buf`.
pub fn encode_snippet(buf: &mut impl BufMut, snippet: &Snippet) {
    buf.put_u32_le(snippet.id.raw());
    buf.put_u32_le(snippet.source.raw());
    buf.put_u32_le(snippet.doc.raw());
    buf.put_i64_le(snippet.timestamp.secs());
    buf.put_u8(snippet.content.event_type.code());
    put_str(buf, &snippet.content.headline);
    put_sparse(buf, &snippet.content.entities);
    put_sparse(buf, &snippet.content.terms);
}

/// Decode one snippet from `buf`.
pub fn decode_snippet(buf: &mut impl Buf) -> Result<Snippet> {
    let id = SnippetId::new(get_u32(buf, "snippet id")?);
    let source = SourceId::new(get_u32(buf, "snippet source")?);
    let doc = DocId::new(get_u32(buf, "snippet doc")?);
    let timestamp = Timestamp::from_secs(get_i64(buf, "snippet timestamp")?);
    let type_code = get_u8(buf, "snippet event type")?;
    let event_type = EventType::from_code(type_code)
        .ok_or_else(|| Error::Codec(format!("invalid event type code {type_code}")))?;
    let headline = get_str(buf, "snippet headline")?;
    let entities: SparseVec<EntityId> = get_sparse(buf, "snippet entities")?;
    let terms: SparseVec<TermId> = get_sparse(buf, "snippet terms")?;
    Ok(Snippet {
        id,
        source,
        doc,
        timestamp,
        content: SnippetContent {
            entities,
            terms,
            event_type,
            headline,
        },
    })
}

/// Validate one encoded snippet without allocating, advancing `buf`
/// past it. Accepts exactly the inputs [`decode_snippet`] accepts
/// (bounds, event-type code, headline UTF-8) and returns the header
/// fields a router needs — the snippet id and owning source — so the
/// serving layer can shard a frame without materialising the snippet.
pub fn skip_snippet(buf: &mut &[u8]) -> Result<(SnippetId, SourceId)> {
    fn advance<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8]> {
        if buf.len() < n {
            return Err(Error::Codec(format!(
                "truncated input: need {n} bytes for {what}, have {}",
                buf.len()
            )));
        }
        let (head, tail) = buf.split_at(n);
        *buf = tail;
        Ok(head)
    }
    fn skip_str(buf: &mut &[u8], what: &str) -> Result<()> {
        let len = get_u32(buf, what)? as usize;
        let raw = advance(buf, len, what)?;
        std::str::from_utf8(raw)
            .map(|_| ())
            .map_err(|_| Error::Codec(format!("invalid utf-8 in {what}")))
    }
    fn skip_sparse(buf: &mut &[u8], what: &str) -> Result<()> {
        let n = get_u32(buf, what)? as usize;
        advance(buf, n.saturating_mul(8), what).map(|_| ())
    }

    let id = SnippetId::new(get_u32(buf, "snippet id")?);
    let source = SourceId::new(get_u32(buf, "snippet source")?);
    advance(buf, 4, "snippet doc")?;
    advance(buf, 8, "snippet timestamp")?;
    let type_code = get_u8(buf, "snippet event type")?;
    EventType::from_code(type_code)
        .ok_or_else(|| Error::Codec(format!("invalid event type code {type_code}")))?;
    skip_str(buf, "snippet headline")?;
    skip_sparse(buf, "snippet entities")?;
    skip_sparse(buf, "snippet terms")?;
    Ok((id, source))
}

// ---- sources --------------------------------------------------------

/// Append the encoding of `source` to `buf`.
pub fn encode_source(buf: &mut impl BufMut, source: &Source) {
    buf.put_u32_le(source.id.raw());
    buf.put_u8(source.kind.code());
    buf.put_i64_le(source.typical_lag);
    put_str(buf, &source.name);
}

/// Decode one source from `buf`.
pub fn decode_source(buf: &mut impl Buf) -> Result<Source> {
    let id = SourceId::new(get_u32(buf, "source id")?);
    let kind_code = get_u8(buf, "source kind")?;
    let kind = SourceKind::from_code(kind_code)
        .ok_or_else(|| Error::Codec(format!("invalid source kind code {kind_code}")))?;
    let typical_lag = get_i64(buf, "source lag")?;
    let name = get_str(buf, "source name")?;
    Ok(Source {
        id,
        name,
        kind,
        typical_lag,
    })
}

// ---- snapshots -------------------------------------------------------

/// Encode a full store snapshot.
pub fn encode_store(store: &EventStore) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + store.len() * 96);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);

    let sources: Vec<&Source> = store.sources().collect();
    buf.put_u32_le(sources.len() as u32);
    for s in sources {
        encode_source(&mut buf, s);
    }

    // Deterministic order: by source, then (timestamp, id).
    buf.put_u32_le(store.len() as u32);
    for sid in store.source_ids() {
        for sn in store.snippets_of_source(sid) {
            encode_snippet(&mut buf, sn);
        }
    }
    buf
}

/// Decode a snapshot back into a store (rebuilding every index).
pub fn decode_store(mut buf: &[u8]) -> Result<EventStore> {
    need(&buf, 4, "magic")?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(Error::Codec("bad magic: not a StoryPivot snapshot".into()));
    }
    let version = get_u32(&mut buf, "version")?;
    if version != VERSION {
        return Err(Error::Codec(format!(
            "unsupported snapshot version {version} (expected {VERSION})"
        )));
    }

    let mut store = EventStore::new();
    let source_count = get_u32(&mut buf, "source count")?;
    for _ in 0..source_count {
        store.register_source(decode_source(&mut buf)?)?;
    }
    let snippet_count = get_u32(&mut buf, "snippet count")?;
    for _ in 0..snippet_count {
        store.insert(decode_snippet(&mut buf)?)?;
    }
    if buf.has_remaining() {
        return Err(Error::Codec(format!(
            "{} trailing bytes after snapshot",
            buf.remaining()
        )));
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use storypivot_types::EventType;

    fn sample_snippet() -> Snippet {
        Snippet::builder(
            SnippetId::new(42),
            SourceId::new(3),
            Timestamp::from_ymd(2014, 7, 17),
        )
        .doc(DocId::new(7))
        .entity(EntityId::new(1), 1.5)
        .entity(EntityId::new(9), 0.25)
        .term(TermId::new(4), 0.7)
        .event_type(EventType::Accident)
        .headline("Jetliner Explodes over Ukraine — früh")
        .build()
    }

    fn sample_store() -> EventStore {
        let mut s = EventStore::new();
        s.register_source(Source::new(SourceId::new(0), "New York Times", SourceKind::Newspaper).with_lag(3600))
            .unwrap();
        s.register_source(Source::new(SourceId::new(3), "Wall Street Journal", SourceKind::Newspaper))
            .unwrap();
        s.insert(sample_snippet()).unwrap();
        s.insert(
            Snippet::builder(SnippetId::new(1), SourceId::new(0), Timestamp::from_secs(-5))
                .headline("")
                .build(),
        )
        .unwrap();
        s
    }

    #[test]
    fn snippet_round_trip() {
        let s = sample_snippet();
        let mut buf = Vec::new();
        encode_snippet(&mut buf, &s);
        let got = decode_snippet(&mut &buf[..]).unwrap();
        assert_eq!(got, s);
    }

    #[test]
    fn source_round_trip() {
        let s = Source::new(SourceId::new(5), "Blog Ümlaut", SourceKind::Blog).with_lag(-60);
        let mut buf = Vec::new();
        encode_source(&mut buf, &s);
        assert_eq!(decode_source(&mut &buf[..]).unwrap(), s);
    }

    #[test]
    fn store_round_trip_preserves_everything() {
        let store = sample_store();
        let encoded = encode_store(&store);
        let decoded = decode_store(&encoded).unwrap();
        assert_eq!(decoded.len(), store.len());
        assert_eq!(decoded.source_count(), store.source_count());
        assert_eq!(
            decoded.get(SnippetId::new(42)),
            store.get(SnippetId::new(42))
        );
        assert_eq!(decoded.stats(), store.stats());
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let store = sample_store();
        let encoded = encode_store(&store);
        for cut in [0, 3, 4, 7, 8, 11, encoded.len() / 2, encoded.len() - 1] {
            let err = decode_store(&encoded[..cut]);
            assert!(err.is_err(), "cut at {cut} must fail");
            assert!(matches!(err.unwrap_err(), Error::Codec(_)));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut encoded = encode_store(&sample_store());
        encoded[0] = b'X';
        assert!(matches!(decode_store(&encoded), Err(Error::Codec(_))));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut encoded = encode_store(&sample_store());
        encoded[4] = 99;
        let err = decode_store(&encoded).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut encoded = encode_store(&sample_store());
        encoded.push(0xFF);
        let err = decode_store(&encoded).unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn invalid_event_type_code_rejected() {
        let s = sample_snippet();
        let mut buf = Vec::new();
        encode_snippet(&mut buf, &s);
        // The event-type byte sits after id+source+doc+timestamp = 20 bytes.
        buf[20] = 200;
        assert!(matches!(decode_snippet(&mut &buf[..]), Err(Error::Codec(_))));
    }

    #[test]
    fn absurd_length_prefix_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.put_u32_le(u32::MAX); // sparse vec claiming 4 billion entries
        let r: Result<SparseVec<EntityId>> = get_sparse(&mut &buf[..], "test");
        assert!(r.is_err());
    }

    #[test]
    fn skip_snippet_agrees_with_decode_snippet() {
        let s = sample_snippet();
        let mut buf = Vec::new();
        encode_snippet(&mut buf, &s);
        buf.extend_from_slice(b"tail");

        let mut walker: &[u8] = &buf;
        let (id, source) = skip_snippet(&mut walker).unwrap();
        assert_eq!(id, s.id);
        assert_eq!(source, s.source);
        assert_eq!(walker, b"tail", "skip stops exactly at the snippet end");

        // Both paths reject the same corruptions.
        for cut in 0..buf.len() - 4 {
            let mut a: &[u8] = &buf[..cut];
            let mut b: &[u8] = &buf[..cut];
            assert_eq!(
                skip_snippet(&mut a).is_err(),
                decode_snippet(&mut b).is_err(),
                "skip/decode disagree at cut {cut}"
            );
        }
        let mut bad = buf.clone();
        bad[20] = 200; // invalid event-type code
        assert!(skip_snippet(&mut &bad[..]).is_err());
        let mut bad = buf.clone();
        bad[25] = 0xFF; // invalid utf-8 inside the headline
        assert_eq!(
            skip_snippet(&mut &bad[..]).is_err(),
            decode_snippet(&mut &bad[..]).is_err()
        );
    }

    #[test]
    fn empty_store_round_trips() {
        let store = EventStore::new();
        let decoded = decode_store(&encode_store(&store)).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(decoded.source_count(), 0);
    }
}
