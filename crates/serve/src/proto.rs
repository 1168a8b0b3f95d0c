//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message is one *frame*:
//!
//! ```text
//! len u32 (LE) | opcode u8 | body
//! ```
//!
//! where `len` counts the opcode plus body. Requests use opcodes
//! `0x01..=0x0A`, responses `0x81..=0x8F` (`0x07` and `0x87` are
//! unassigned and decode as unknown opcodes); snippets and sources reuse
//! the store's binary codec, so a served snippet is byte-identical to a
//! checkpointed one. Every decode path bounds-checks before touching
//! bytes: torn frames, oversized length prefixes, garbage opcodes, and
//! trailing bytes all surface as [`Error::Codec`] — never a panic.
//!
//! Replication rides the same framing: a follower polls
//! [`Request::ReplSubscribe`] with its durable cursor and the leader
//! answers [`Response::ReplFrame`] (a run of CRC-framed WAL records,
//! shipped verbatim) or [`Response::ReplCheckpoint`] (a full
//! generation checkpoint when the cursor cannot resume). A follower
//! answers every write with [`Response::NotLeader`].

use std::io::{self, Read};

use storypivot_store::codec::{
    decode_snippet, encode_snippet, get_bytes, get_i64, get_str, get_str_ref, get_u32, get_u64,
    get_u8, need, put_bytes, put_str, skip_snippet,
};
use storypivot_substrate::buf::{Buf, BufMut};
use storypivot_types::{
    DocId, Error, Result, Snippet, SnippetId, SourceId, SourceKind, StoryId, TimeRange,
};

/// Upper bound on one frame's payload (opcode + body). A length prefix
/// above this is rejected *before* any allocation, so a hostile or
/// corrupt peer cannot make the server reserve gigabytes.
pub const MAX_FRAME_LEN: u32 = 16 << 20;

// ---- request opcodes -------------------------------------------------

/// Register a source (body: kind u8, lag i64, name str).
pub const OP_ADD_SOURCE: u8 = 0x01;
/// Ingest one snippet (body: snippet).
pub const OP_INGEST_SNIPPET: u8 = 0x02;
/// Ingest a batch (body: count u32, snippets).
pub const OP_INGEST_BATCH: u8 = 0x03;
/// Query the per-source story partition (empty body).
pub const OP_QUERY_STORIES: u8 = 0x04;
/// Fetch one story (body: story u32).
pub const OP_GET_STORY: u8 = 0x05;
/// Remove a document everywhere (body: doc u32).
pub const OP_REMOVE_DOC: u8 = 0x06;
/// Drain, checkpoint, and stop the server (empty body).
pub const OP_SHUTDOWN: u8 = 0x08;
/// Fetch the merged metrics exposition (empty body).
pub const OP_METRICS: u8 = 0x09;
/// Subscribe to a shard's WAL stream from a resume cursor (body:
/// shard u32, generation u64, wal_offset u64).
pub const OP_REPL_SUBSCRIBE: u8 = 0x0A;

// ---- response opcodes ------------------------------------------------

/// Source registered (body: source u32).
pub const OP_SOURCE_ADDED: u8 = 0x81;
/// Snippet ingested (body: story u32).
pub const OP_INGESTED: u8 = 0x82;
/// Batch ingested (body: count u32).
pub const OP_BATCH_INGESTED: u8 = 0x83;
/// Story partition (body: count u32, summaries).
pub const OP_STORIES: u8 = 0x84;
/// One story (body: summary).
pub const OP_STORY: u8 = 0x85;
/// Document removed (body: count u32).
pub const OP_REMOVED: u8 = 0x86;
/// Server drained and checkpointed (empty body).
pub const OP_SHUTDOWN_ACK: u8 = 0x88;
/// Shard queue full — retry later (body: retry_after_ms u32).
pub const OP_BUSY: u8 = 0x89;
/// Request failed (body: code u8, message str).
pub const OP_ERROR: u8 = 0x8A;
/// Metrics exposition (body: text str).
pub const OP_METRICS_REPLY: u8 = 0x8B;
/// Write rejected by a read-only follower (body: leader str).
pub const OP_NOT_LEADER: u8 = 0x8C;
/// A batch of WAL records shipped verbatim (body: generation u64,
/// next_offset u64, leader_wal_len u64, leader_ops u64, records bytes).
pub const OP_REPL_FRAME: u8 = 0x8D;
/// Bootstrap / catch-up checkpoint (body: generation u64,
/// checkpoint bytes — empty bytes mean "start from a fresh engine").
pub const OP_REPL_CHECKPOINT: u8 = 0x8E;
/// Write shed: it waited in queue past its deadline budget and was
/// dropped unapplied (body: retry_after_ms u32).
pub const OP_SHED: u8 = 0x8F;

// ---- requests --------------------------------------------------------

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register a source; the server allocates the id and routes the
    /// source to its shard.
    AddSource {
        /// Display name.
        name: String,
        /// Source kind.
        kind: SourceKind,
        /// Typical reporting lag in seconds.
        lag: i64,
    },
    /// Ingest one snippet (BUSY backpressure applies).
    IngestSnippet(Snippet),
    /// Ingest a batch (blocks on full shard queues instead of BUSY).
    IngestBatch(Vec<Snippet>),
    /// The per-source story partition across all shards.
    QueryStories,
    /// One story's summary.
    GetStory(StoryId),
    /// Remove a document from every shard.
    RemoveDoc(DocId),
    /// Drain queues, checkpoint every shard, stop the server.
    Shutdown,
    /// The merged Prometheus-style metrics exposition across shards.
    Metrics,
    /// Subscribe to one shard's WAL stream (follower → leader). The
    /// cursor names the follower's durable position: when `generation`
    /// matches the leader's and `wal_offset` is within its journal, the
    /// leader ships records from that offset; otherwise it answers with
    /// a full checkpoint to re-bootstrap from.
    ReplSubscribe {
        /// Shard whose journal is being tailed.
        shard: u32,
        /// Checkpoint generation the follower last applied.
        generation: u64,
        /// Byte offset into the leader's journal (a record boundary).
        wal_offset: u64,
    },
}

impl Request {
    /// Encode opcode + body (without the length prefix).
    pub fn encode(&self, buf: &mut impl BufMut) {
        match self {
            Request::AddSource { name, kind, lag } => {
                buf.put_u8(OP_ADD_SOURCE);
                buf.put_u8(kind.code());
                buf.put_i64_le(*lag);
                put_str(buf, name);
            }
            Request::IngestSnippet(s) => encode_ingest(buf, s),
            Request::IngestBatch(batch) => {
                buf.put_u8(OP_INGEST_BATCH);
                buf.put_u32_le(batch.len() as u32);
                for s in batch {
                    encode_snippet(buf, s);
                }
            }
            Request::QueryStories => buf.put_u8(OP_QUERY_STORIES),
            Request::GetStory(id) => {
                buf.put_u8(OP_GET_STORY);
                buf.put_u32_le(id.raw());
            }
            Request::RemoveDoc(doc) => {
                buf.put_u8(OP_REMOVE_DOC);
                buf.put_u32_le(doc.raw());
            }
            Request::Shutdown => buf.put_u8(OP_SHUTDOWN),
            Request::Metrics => buf.put_u8(OP_METRICS),
            Request::ReplSubscribe {
                shard,
                generation,
                wal_offset,
            } => {
                buf.put_u8(OP_REPL_SUBSCRIBE);
                buf.put_u32_le(*shard);
                buf.put_u64_le(*generation);
                buf.put_u64_le(*wal_offset);
            }
        }
    }

    /// Decode a full frame payload (opcode + body) into an owned
    /// request: [`Request::decode_borrowed`], materialised.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        Request::decode_borrowed(payload).map(|r| r.to_owned())
    }
}

/// Encode an INGEST_SNIPPET request from a borrowed snippet (the
/// encoder behind `Request::IngestSnippet(..).encode`), so a client
/// sends a snippet without copying it into a `Request` first.
pub fn encode_ingest(buf: &mut impl BufMut, snippet: &Snippet) {
    buf.put_u8(OP_INGEST_SNIPPET);
    encode_snippet(buf, snippet);
}

// ---- borrowed (zero-copy) decode ------------------------------------
//
// The multiplexed server decodes every inbound frame directly out of
// the connection's own read buffer. For the small control frames
// that dominate steady-state traffic (GET_STORY, QUERY, METRICS, …) the
// borrowed path performs zero heap allocations: strings stay `&str`
// views into the frame, and snippets and batches are *validated* in
// place — every bounds, UTF-8 and event-type check `decode_snippet`
// would run — but only materialised via `to_owned()` when a layer
// actually needs ownership. This is the only request decoder (owned
// `Request::decode` is this plus `to_owned()`), and responses have only
// the owned one: each is held to the encoder by round trip, not to a
// twin.

/// A validated, still-encoded snippet inside a request frame. The
/// routing header (id, source) is parsed eagerly so the server can
/// shard the frame; the body is decoded only on [`SnippetRef::to_owned`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnippetRef<'a> {
    /// The snippet id from the encoded header.
    pub id: SnippetId,
    /// The owning source — the serving layer's shard-routing key.
    pub source: SourceId,
    raw: &'a [u8],
}

impl SnippetRef<'_> {
    /// Materialise the snippet (the only allocating step).
    pub fn to_owned(&self) -> Snippet {
        decode_snippet(&mut &self.raw[..]).expect("SnippetRef wraps a validated encoding")
    }
}

/// A validated, still-encoded ingest batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRef<'a> {
    count: u32,
    raw: &'a [u8],
}

impl<'a> BatchRef<'a> {
    /// Number of snippets in the batch.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Walk the batch without allocating.
    pub fn iter(&self) -> SnippetIter<'a> {
        SnippetIter {
            rest: self.raw,
            remaining: self.count,
        }
    }

    /// Materialise every snippet.
    pub fn to_owned(&self) -> Vec<Snippet> {
        self.iter().map(|s| s.to_owned()).collect()
    }
}

/// Iterator over the validated snippets of a [`BatchRef`].
#[derive(Debug, Clone)]
pub struct SnippetIter<'a> {
    rest: &'a [u8],
    remaining: u32,
}

impl<'a> Iterator for SnippetIter<'a> {
    type Item = SnippetRef<'a>;

    fn next(&mut self) -> Option<SnippetRef<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let before = self.rest;
        let mut cur = self.rest;
        let (id, source) = skip_snippet(&mut cur).expect("BatchRef wraps a validated encoding");
        let span = &before[..before.len() - cur.len()];
        self.rest = cur;
        Some(SnippetRef {
            id,
            source,
            raw: span,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

/// A client → server message decoded without copying out of the frame.
///
/// Produced by [`Request::decode_borrowed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestRef<'a> {
    /// Register a source.
    AddSource {
        /// Display name (borrowed from the frame).
        name: &'a str,
        /// Source kind.
        kind: SourceKind,
        /// Typical reporting lag in seconds.
        lag: i64,
    },
    /// Ingest one snippet (validated, not yet materialised).
    IngestSnippet(SnippetRef<'a>),
    /// Ingest a batch (validated, not yet materialised).
    IngestBatch(BatchRef<'a>),
    /// The per-source story partition across all shards.
    QueryStories,
    /// One story's summary.
    GetStory(StoryId),
    /// Remove a document from every shard.
    RemoveDoc(DocId),
    /// Drain queues, checkpoint every shard, stop the server.
    Shutdown,
    /// The merged metrics exposition across shards.
    Metrics,
    /// Subscribe to one shard's WAL stream from a resume cursor.
    ReplSubscribe {
        /// Shard whose journal is being tailed.
        shard: u32,
        /// Checkpoint generation the follower last applied.
        generation: u64,
        /// Byte offset into the leader's journal (a record boundary).
        wal_offset: u64,
    },
}

impl RequestRef<'_> {
    /// Materialise an owned [`Request`].
    pub fn to_owned(&self) -> Request {
        match *self {
            RequestRef::AddSource { name, kind, lag } => Request::AddSource {
                name: name.to_string(),
                kind,
                lag,
            },
            RequestRef::IngestSnippet(s) => Request::IngestSnippet(s.to_owned()),
            RequestRef::IngestBatch(b) => Request::IngestBatch(b.to_owned()),
            RequestRef::QueryStories => Request::QueryStories,
            RequestRef::GetStory(id) => Request::GetStory(id),
            RequestRef::RemoveDoc(doc) => Request::RemoveDoc(doc),
            RequestRef::Shutdown => Request::Shutdown,
            RequestRef::Metrics => Request::Metrics,
            RequestRef::ReplSubscribe {
                shard,
                generation,
                wal_offset,
            } => Request::ReplSubscribe {
                shard,
                generation,
                wal_offset,
            },
        }
    }
}

impl Request {
    /// Decode a full frame payload without copying: small frames
    /// allocate nothing, variable-size payloads are validated in place
    /// and materialised lazily. Trailing bytes are a codec error.
    pub fn decode_borrowed(payload: &[u8]) -> Result<RequestRef<'_>> {
        let buf = &mut &payload[..];
        let op = get_u8(buf, "request opcode")?;
        let req = match op {
            OP_ADD_SOURCE => {
                let code = get_u8(buf, "source kind")?;
                let kind = SourceKind::from_code(code)
                    .ok_or_else(|| Error::Codec(format!("invalid source kind code {code}")))?;
                let lag = get_i64(buf, "source lag")?;
                let name = get_str_ref(buf, "source name")?;
                RequestRef::AddSource { name, kind, lag }
            }
            OP_INGEST_SNIPPET => {
                let before = *buf;
                let (id, source) = skip_snippet(buf)?;
                let raw = &before[..before.len() - buf.len()];
                RequestRef::IngestSnippet(SnippetRef { id, source, raw })
            }
            OP_INGEST_BATCH => {
                let n = get_u32(buf, "batch count")?;
                need(buf, (n as usize).saturating_mul(29), "batch snippets")?;
                let before = *buf;
                for _ in 0..n {
                    skip_snippet(buf)?;
                }
                let raw = &before[..before.len() - buf.len()];
                RequestRef::IngestBatch(BatchRef { count: n, raw })
            }
            OP_QUERY_STORIES => RequestRef::QueryStories,
            OP_GET_STORY => RequestRef::GetStory(StoryId::new(get_u32(buf, "story id")?)),
            OP_REMOVE_DOC => RequestRef::RemoveDoc(DocId::new(get_u32(buf, "doc id")?)),
            OP_SHUTDOWN => RequestRef::Shutdown,
            OP_METRICS => RequestRef::Metrics,
            OP_REPL_SUBSCRIBE => RequestRef::ReplSubscribe {
                shard: get_u32(buf, "repl shard")?,
                generation: get_u64(buf, "repl generation")?,
                wal_offset: get_u64(buf, "repl wal offset")?,
            },
            other => return Err(Error::Codec(format!("unknown request opcode 0x{other:02x}"))),
        };
        if !buf.is_empty() {
            return Err(Error::Codec(format!(
                "{} trailing bytes after request",
                buf.len()
            )));
        }
        Ok(req)
    }
}

// ---- story summaries -------------------------------------------------

/// A story as reported over the wire: identity, lifespan, members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorySummary {
    /// The per-source story id.
    pub id: StoryId,
    /// The owning source.
    pub source: SourceId,
    /// The story's lifespan.
    pub lifespan: TimeRange,
    /// Member snippets, sorted by id.
    pub members: Vec<SnippetId>,
}

/// Member ids are copied through a stack block of this many, so a
/// summary costs one `put_slice` per block instead of one per member.
const MEMBER_BLOCK: usize = 64;

/// A summary's fixed part: id, source, lifespan start and end, member
/// count.
const SUMMARY_HEAD: usize = 4 + 4 + 8 + 8 + 4;

fn encode_summary(buf: &mut impl BufMut, s: &StorySummary) {
    let mut head = [0u8; SUMMARY_HEAD];
    head[..4].copy_from_slice(&s.id.raw().to_le_bytes());
    head[4..8].copy_from_slice(&s.source.raw().to_le_bytes());
    head[8..16].copy_from_slice(&s.lifespan.start.secs().to_le_bytes());
    head[16..24].copy_from_slice(&s.lifespan.end.secs().to_le_bytes());
    head[24..].copy_from_slice(&(s.members.len() as u32).to_le_bytes());
    buf.put_slice(&head);
    let mut block = [0u8; 4 * MEMBER_BLOCK];
    for part in s.members.chunks(MEMBER_BLOCK) {
        for (bytes, m) in block.chunks_exact_mut(4).zip(part) {
            bytes.copy_from_slice(&m.raw().to_le_bytes());
        }
        buf.put_slice(&block[..4 * part.len()]);
    }
}

/// The bytes [`encode_stories`] writes for `stories`: what a server
/// reserves before encoding a STORIES response.
pub fn stories_len<'a>(stories: impl IntoIterator<Item = &'a StorySummary>) -> usize {
    1 + 4 + stories.into_iter().map(|s| 4 + 4 + 8 + 8 + 4 + 4 * s.members.len()).sum::<usize>()
}

/// Encode a STORIES response of `count` borrowed summaries. This *is*
/// the encoder behind `Response::Stories(..).encode`, so the server can
/// answer from shared snapshot entries — merged from several shards,
/// hence the count up front — without copying them into a `Response`
/// first.
pub fn encode_stories<'a>(
    buf: &mut impl BufMut,
    count: usize,
    stories: impl IntoIterator<Item = &'a StorySummary>,
) {
    buf.put_u8(OP_STORIES);
    buf.put_u32_le(count as u32);
    let mut encoded = 0;
    for s in stories {
        encode_summary(buf, s);
        encoded += 1;
    }
    debug_assert_eq!(encoded, count, "STORIES count does not match its summaries");
}

/// Encode a STORY response from a borrowed summary (the encoder behind
/// `Response::Story(..).encode`).
pub fn encode_story(buf: &mut impl BufMut, story: &StorySummary) {
    buf.put_u8(OP_STORY);
    encode_summary(buf, story);
}

fn decode_summary(buf: &mut impl Buf) -> Result<StorySummary> {
    need(buf, SUMMARY_HEAD, "story header")?;
    let mut head = [0u8; SUMMARY_HEAD];
    buf.copy_to_slice(&mut head);
    let word = |at: usize| u32::from_le_bytes([head[at], head[at + 1], head[at + 2], head[at + 3]]);
    let secs = |at: usize| i64::from_le_bytes(head[at..at + 8].try_into().expect("eight bytes"));
    let (id, source) = (StoryId::new(word(0)), SourceId::new(word(4)));
    let (start, end, n) = (secs(8), secs(16), word(24) as usize);
    need(buf, n.saturating_mul(4), "story members")?;
    let mut members = Vec::with_capacity(n);
    let mut block = [0u8; 4 * MEMBER_BLOCK];
    for at in (0..n).step_by(MEMBER_BLOCK) {
        let bytes = &mut block[..4 * (n - at).min(MEMBER_BLOCK)];
        buf.copy_to_slice(bytes);
        members.extend(
            bytes.chunks_exact(4).map(|b| SnippetId::new(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))),
        );
    }
    Ok(StorySummary {
        id,
        source,
        lifespan: TimeRange::new(
            storypivot_types::Timestamp::from_secs(start),
            storypivot_types::Timestamp::from_secs(end),
        ),
        members,
    })
}

// ---- responses -------------------------------------------------------

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The id allocated for a registered source.
    SourceAdded(SourceId),
    /// The per-source story the ingested snippet joined.
    Ingested(StoryId),
    /// How many snippets of a batch were ingested.
    BatchIngested(u32),
    /// The story partition, ordered by story id.
    Stories(Vec<StorySummary>),
    /// One story's summary.
    Story(StorySummary),
    /// How many snippets a document removal evicted.
    Removed(u32),
    /// The server drained every queue and wrote its checkpoint.
    ShutdownAck,
    /// The merged metrics exposition text.
    Metrics {
        /// Prometheus-style text exposition.
        text: String,
    },
    /// The target shard's queue is full; retry after the hint.
    Busy {
        /// Suggested client-side backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// The write was admitted but waited in queue past its deadline
    /// budget (`--deadline-ms`) and was shed before touching the
    /// engine. Retrying starts a fresh budget.
    Shed {
        /// Suggested client-side backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// The request failed.
    Error {
        /// Coarse error class (see [`error_code`]).
        code: u8,
        /// Human-readable description.
        message: String,
    },
    /// The server is a read-only follower; writes go to the leader.
    NotLeader {
        /// Address of the leader that accepts writes.
        leader: String,
    },
    /// A batch of WAL records shipped verbatim from the leader's
    /// journal (CRC-framed exactly as stored on disk).
    ReplFrame {
        /// The leader's current checkpoint generation.
        generation: u64,
        /// Journal offset the follower should resume from next.
        next_offset: u64,
        /// The leader's total journal length (for byte-lag gauges).
        leader_wal_len: u64,
        /// Records in the leader's journal since its last checkpoint
        /// (for op-lag gauges).
        leader_ops: u64,
        /// Zero or more whole records, `len|crc|payload` framed.
        records: Vec<u8>,
    },
    /// A full checkpoint to (re-)bootstrap a follower whose cursor
    /// cannot resume (generation mismatch or offset past the journal).
    ReplCheckpoint {
        /// The generation these checkpoint bytes represent.
        generation: u64,
        /// Verbatim generation-file bytes; empty means "fresh engine"
        /// (the leader has never checkpointed this shard).
        checkpoint: Vec<u8>,
    },
}

/// Map an engine error to its wire code (1 unknown reference,
/// 2 duplicate, 3 parse, 4 codec, 5 config, 6 invariant, 7 i/o,
/// 8 busy-after-retries, 9 not-leader).
pub fn error_code(e: &Error) -> u8 {
    match e {
        Error::UnknownSnippet(_)
        | Error::UnknownStory(_)
        | Error::UnknownGlobalStory(_)
        | Error::UnknownSource(_)
        | Error::UnknownDocument(_) => 1,
        Error::Duplicate(_) => 2,
        Error::Parse(_) => 3,
        Error::Codec(_) => 4,
        Error::InvalidConfig(_) => 5,
        Error::Invariant(_) => 6,
        Error::Io(_) => 7,
        Error::Busy { .. } => 8,
        // NotLeader normally travels as its own opcode; the code exists
        // so from_error stays total.
        Error::NotLeader { .. } => 9,
    }
}

impl Response {
    /// The error response for an engine error.
    pub fn from_error(e: &Error) -> Response {
        Response::Error {
            code: error_code(e),
            message: e.to_string(),
        }
    }

    /// Turn an error response back into an [`Error`] (client side).
    /// [`Response::NotLeader`] becomes the typed
    /// [`Error::NotLeader`] so callers can follow the redirect.
    pub fn into_result(self) -> Result<Response> {
        match self {
            Response::Error { code, message } => Err(match code {
                3 => Error::Parse(message),
                4 => Error::Codec(message),
                5 => Error::InvalidConfig(message),
                6 => Error::Invariant(message),
                _ => Error::Io(format!("server error: {message}")),
            }),
            Response::NotLeader { leader } => Err(Error::NotLeader {
                leader_addr: leader,
            }),
            other => Ok(other),
        }
    }

    /// Encode opcode + body (without the length prefix).
    pub fn encode(&self, buf: &mut impl BufMut) {
        match self {
            Response::SourceAdded(id) => {
                buf.put_u8(OP_SOURCE_ADDED);
                buf.put_u32_le(id.raw());
            }
            Response::Ingested(story) => {
                buf.put_u8(OP_INGESTED);
                buf.put_u32_le(story.raw());
            }
            Response::BatchIngested(n) => {
                buf.put_u8(OP_BATCH_INGESTED);
                buf.put_u32_le(*n);
            }
            Response::Stories(stories) => encode_stories(buf, stories.len(), stories),
            Response::Story(s) => encode_story(buf, s),
            Response::Removed(n) => {
                buf.put_u8(OP_REMOVED);
                buf.put_u32_le(*n);
            }
            Response::ShutdownAck => buf.put_u8(OP_SHUTDOWN_ACK),
            Response::Metrics { text } => {
                buf.put_u8(OP_METRICS_REPLY);
                put_str(buf, text);
            }
            Response::Busy { retry_after_ms } => {
                buf.put_u8(OP_BUSY);
                buf.put_u32_le(*retry_after_ms);
            }
            Response::Shed { retry_after_ms } => {
                buf.put_u8(OP_SHED);
                buf.put_u32_le(*retry_after_ms);
            }
            Response::Error { code, message } => {
                buf.put_u8(OP_ERROR);
                buf.put_u8(*code);
                put_str(buf, message);
            }
            Response::NotLeader { leader } => {
                buf.put_u8(OP_NOT_LEADER);
                put_str(buf, leader);
            }
            Response::ReplFrame {
                generation,
                next_offset,
                leader_wal_len,
                leader_ops,
                records,
            } => {
                buf.put_u8(OP_REPL_FRAME);
                buf.put_u64_le(*generation);
                buf.put_u64_le(*next_offset);
                buf.put_u64_le(*leader_wal_len);
                buf.put_u64_le(*leader_ops);
                put_bytes(buf, records);
            }
            Response::ReplCheckpoint {
                generation,
                checkpoint,
            } => {
                buf.put_u8(OP_REPL_CHECKPOINT);
                buf.put_u64_le(*generation);
                put_bytes(buf, checkpoint);
            }
        }
    }

    /// Decode a full frame payload (opcode + body); trailing bytes are
    /// a codec error.
    pub fn decode(mut payload: &[u8]) -> Result<Response> {
        let buf = &mut payload;
        let op = get_u8(buf, "response opcode")?;
        let resp = match op {
            OP_SOURCE_ADDED => Response::SourceAdded(SourceId::new(get_u32(buf, "source id")?)),
            OP_INGESTED => Response::Ingested(StoryId::new(get_u32(buf, "story id")?)),
            OP_BATCH_INGESTED => Response::BatchIngested(get_u32(buf, "batch count")?),
            OP_STORIES => {
                let n = get_u32(buf, "story count")? as usize;
                need(buf, n.saturating_mul(24), "story summaries")?;
                let mut stories = Vec::with_capacity(n);
                for _ in 0..n {
                    stories.push(decode_summary(buf)?);
                }
                Response::Stories(stories)
            }
            OP_STORY => Response::Story(decode_summary(buf)?),
            OP_REMOVED => Response::Removed(get_u32(buf, "removed count")?),
            OP_SHUTDOWN_ACK => Response::ShutdownAck,
            OP_METRICS_REPLY => Response::Metrics {
                text: get_str(buf, "metrics text")?,
            },
            OP_BUSY => Response::Busy {
                retry_after_ms: get_u32(buf, "retry hint")?,
            },
            OP_SHED => Response::Shed {
                retry_after_ms: get_u32(buf, "shed retry hint")?,
            },
            OP_ERROR => {
                let code = get_u8(buf, "error code")?;
                let message = get_str(buf, "error message")?;
                Response::Error { code, message }
            }
            OP_NOT_LEADER => Response::NotLeader {
                leader: get_str(buf, "leader address")?,
            },
            OP_REPL_FRAME => Response::ReplFrame {
                generation: get_u64(buf, "repl generation")?,
                next_offset: get_u64(buf, "repl next offset")?,
                leader_wal_len: get_u64(buf, "repl wal length")?,
                leader_ops: get_u64(buf, "repl op count")?,
                records: get_bytes(buf, "repl records")?,
            },
            OP_REPL_CHECKPOINT => Response::ReplCheckpoint {
                generation: get_u64(buf, "repl generation")?,
                checkpoint: get_bytes(buf, "repl checkpoint")?,
            },
            other => return Err(Error::Codec(format!("unknown response opcode 0x{other:02x}"))),
        };
        if buf.has_remaining() {
            return Err(Error::Codec(format!(
                "{} trailing bytes after response",
                buf.remaining()
            )));
        }
        Ok(resp)
    }
}

// ---- frame I/O -------------------------------------------------------

/// Encode a request or response into a ready-to-send frame.
pub fn frame(encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut payload = Vec::new();
    frame_onto(&mut payload, encode);
    payload
}

/// Encode a frame into a reusable buffer (cleared first), which
/// allocates nothing while the buffer's capacity suffices: the client
/// frames every request this way.
pub fn frame_into(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    frame_onto(out, encode);
}

/// Append one frame to `out`: the server frames an in-order reply
/// straight onto its connection's write buffer, behind the replies not
/// yet written. Reserves 64 bytes first, so a small frame costs at most
/// one allocation.
pub fn frame_onto(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    out.reserve(64);
    let start = out.len();
    out.extend_from_slice(&[0, 0, 0, 0]);
    encode(out);
    let len = (out.len() - start - 4) as u32;
    debug_assert!(len <= MAX_FRAME_LEN);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Peek at a read-accumulation buffer: `Ok(Some(total))` when a
/// complete frame spanning `total` bytes (length prefix + payload) is
/// buffered, `Ok(None)` when more bytes are needed. Empty and
/// oversized length prefixes are rejected as soon as the prefix
/// arrives — before the server buffers (or a peer even sends) the
/// body.
pub fn frame_ready(buf: &[u8]) -> Result<Option<usize>> {
    let Some(&prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let total = 4 + frame_len(prefix)? as usize;
    Ok(if buf.len() >= total { Some(total) } else { None })
}

/// The payload length a frame's 4-byte prefix announces. A frame holds
/// at least an opcode and at most [`MAX_FRAME_LEN`] bytes; any other
/// prefix is [`Error::Codec`].
pub(crate) fn frame_len(prefix: [u8; 4]) -> Result<u32> {
    let len = u32::from_le_bytes(prefix);
    if len == 0 {
        return Err(Error::Codec("empty frame (no opcode)".into()));
    }
    if len > MAX_FRAME_LEN {
        return Err(Error::Codec(format!(
            "oversized frame: {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    Ok(len)
}

/// Read one frame's payload. Returns `Ok(None)` on a clean EOF at a
/// frame boundary; a torn frame (EOF mid-length or mid-body), an empty
/// frame, or an oversized length prefix is [`Error::Codec`] — and the
/// oversized case is rejected *before* allocating.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(Error::Codec(format!(
                    "torn frame: connection closed after {filled} of 4 length bytes"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(Error::Io(e.to_string())),
        }
    }
    let len = frame_len(len_bytes)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            Error::Codec(format!("torn frame: connection closed inside a {len}-byte frame"))
        } else {
            Error::Io(e.to_string())
        }
    })?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use storypivot_types::{EntityId, EventType, TermId, Timestamp};

    fn sample_snippet(id: u32) -> Snippet {
        Snippet::builder(SnippetId::new(id), SourceId::new(2), Timestamp::from_ymd(2014, 7, 17))
            .doc(DocId::new(5))
            .entity(EntityId::new(1), 1.5)
            .term(TermId::new(9), 0.25)
            .event_type(EventType::Accident)
            .headline("MH17 down — früh")
            .build()
    }

    fn round_trip_request(req: Request) {
        let f = frame(|b| req.encode(b));
        let mut r: &[u8] = &f;
        let payload = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), req);
        assert!(!r.has_remaining());
    }

    fn round_trip_response(resp: Response) {
        let f = frame(|b| resp.encode(b));
        let mut r: &[u8] = &f;
        let payload = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::AddSource {
                name: "Ümlaut News".into(),
                kind: SourceKind::Blog,
                lag: -3600,
            },
            Request::IngestSnippet(sample_snippet(7)),
            Request::IngestBatch(vec![sample_snippet(1), sample_snippet(2)]),
            Request::IngestBatch(Vec::new()),
            Request::QueryStories,
            Request::GetStory(StoryId::new(513)),
            Request::RemoveDoc(DocId::new(5)),
            Request::Shutdown,
            Request::Metrics,
            Request::ReplSubscribe {
                shard: 3,
                generation: 1 << 40,
                wal_offset: 123_456_789,
            },
        ]
    }

    #[test]
    fn every_request_round_trips() {
        for req in sample_requests() {
            round_trip_request(req);
        }
    }

    /// The server answers reads through the by-reference encoders, from
    /// `Arc`'d snapshot entries it never copies into a `Response`.
    #[test]
    fn by_reference_story_encoders_match_the_owned_responses() {
        let story = |id: u32, members: &[u32]| StorySummary {
            id: StoryId::new(id),
            source: SourceId::new(id >> 24),
            lifespan: TimeRange::new(Timestamp::from_secs(-5), Timestamp::from_secs(id as i64)),
            members: members.iter().map(|&m| SnippetId::new(m)).collect(),
        };
        let owned = vec![story(7, &[1, 2, 9]), story(1 << 24, &[]), story((1 << 24) + 3, &[4])];
        let shared: Vec<std::sync::Arc<StorySummary>> =
            owned.iter().cloned().map(std::sync::Arc::new).collect();

        let by_ref = frame(|b| encode_stories(b, shared.len(), shared.iter().map(|s| &**s)));
        assert_eq!(by_ref, frame(|b| Response::Stories(owned.clone()).encode(b)));
        assert_eq!(by_ref.len(), 4 + stories_len(&owned), "the reservation is exact");
        assert_eq!(
            Response::decode(&by_ref[4..]).unwrap(),
            Response::Stories(owned.clone())
        );
        assert_eq!(
            frame(|b| encode_stories(b, 0, &[])),
            frame(|b| Response::Stories(Vec::new()).encode(b))
        );

        let by_ref = frame(|b| encode_story(b, &shared[0]));
        assert_eq!(by_ref, frame(|b| Response::Story(owned[0].clone()).encode(b)));
        round_trip_response(Response::Story(owned[0].clone()));
    }

    #[test]
    fn every_response_round_trips() {
        round_trip_response(Response::SourceAdded(SourceId::new(3)));
        round_trip_response(Response::Ingested(StoryId::new(1 << 24)));
        round_trip_response(Response::BatchIngested(9000));
        round_trip_response(Response::Stories(vec![StorySummary {
            id: StoryId::new(42),
            source: SourceId::new(0),
            lifespan: TimeRange::new(Timestamp::from_secs(-5), Timestamp::from_secs(99)),
            members: vec![SnippetId::new(1), SnippetId::new(2)],
        }]));
        round_trip_response(Response::Removed(3));
        round_trip_response(Response::ShutdownAck);
        round_trip_response(Response::Metrics {
            text: "# HELP storypivot_ingest_total Snippets ingested.\n\
                   # TYPE storypivot_ingest_total counter\n\
                   storypivot_ingest_total 8\n"
                .into(),
        });
        round_trip_response(Response::Busy { retry_after_ms: 10 });
        round_trip_response(Response::Shed { retry_after_ms: 25 });
        round_trip_response(Response::Error {
            code: 4,
            message: "codec error: torn".into(),
        });
        round_trip_response(Response::NotLeader {
            leader: "127.0.0.1:7411".into(),
        });
        round_trip_response(Response::ReplFrame {
            generation: 7,
            next_offset: 4096,
            leader_wal_len: 8192,
            leader_ops: 12,
            records: vec![0xAB; 37],
        });
        round_trip_response(Response::ReplFrame {
            generation: 0,
            next_offset: 0,
            leader_wal_len: 0,
            leader_ops: 0,
            records: Vec::new(),
        });
        round_trip_response(Response::ReplCheckpoint {
            generation: 2,
            checkpoint: b"SPVC-ish bytes".to_vec(),
        });
        round_trip_response(Response::ReplCheckpoint {
            generation: 0,
            checkpoint: Vec::new(),
        });
    }

    #[test]
    fn not_leader_surfaces_as_a_typed_error() {
        let resp = Response::NotLeader {
            leader: "10.0.0.1:7411".into(),
        };
        match resp.into_result() {
            Err(Error::NotLeader { leader_addr }) => assert_eq!(leader_addr, "10.0.0.1:7411"),
            other => panic!("expected NotLeader, got {other:?}"),
        }
    }

    #[test]
    fn garbage_opcodes_are_codec_errors() {
        assert!(matches!(Request::decode(&[0x7F]), Err(Error::Codec(_))));
        assert!(matches!(Response::decode(&[0x01]), Err(Error::Codec(_))));
        assert!(matches!(Request::decode(&[]), Err(Error::Codec(_))));
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let mut framed = Vec::new();
        framed.extend_from_slice(&u32::MAX.to_le_bytes());
        framed.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut &framed[..]).unwrap_err();
        assert!(err.to_string().contains("oversized"), "{err}");
    }

    #[test]
    fn torn_frames_are_codec_errors_clean_eof_is_none() {
        // Clean EOF at a boundary.
        assert_eq!(read_frame(&mut &[][..]).unwrap(), None);
        // EOF inside the length prefix.
        let err = read_frame(&mut &[1u8, 0][..]).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        // EOF inside the body.
        let full = frame(|b| Request::Metrics.encode(b));
        let err = read_frame(&mut &full[..full.len() - 1][..]).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        // Zero-length frame.
        let err = read_frame(&mut &[0u8, 0, 0, 0][..]).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
    }

    #[test]
    fn truncated_metrics_reply_is_codec_error() {
        let mut payload = Vec::new();
        payload.put_u8(OP_METRICS_REPLY);
        payload.put_u32_le(1000);
        payload.put_slice(b"short");
        assert!(matches!(Response::decode(&payload), Err(Error::Codec(_))));
    }

    #[test]
    fn absurd_batch_count_rejected_before_allocation() {
        let mut payload = Vec::new();
        payload.put_u8(OP_INGEST_BATCH);
        payload.put_u32_le(u32::MAX);
        assert!(matches!(Request::decode_borrowed(&payload), Err(Error::Codec(_))));
    }

    #[test]
    fn borrowed_batch_exposes_routing_headers() {
        let batch = vec![sample_snippet(1), sample_snippet(2), sample_snippet(3)];
        let mut payload = Vec::new();
        Request::IngestBatch(batch.clone()).encode(&mut payload);
        match Request::decode_borrowed(&payload).unwrap() {
            RequestRef::IngestBatch(b) => {
                assert_eq!(b.len(), 3);
                let headers: Vec<_> = b.iter().map(|s| (s.id, s.source)).collect();
                assert_eq!(
                    headers,
                    batch.iter().map(|s| (s.id, s.source)).collect::<Vec<_>>()
                );
                for (r, owned) in b.iter().zip(&batch) {
                    assert_eq!(&r.to_owned(), owned);
                }
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    /// The encoder is the reference: nothing shorter than what it
    /// wrote, and nothing longer, is a request.
    #[test]
    fn strict_prefixes_and_trailing_bytes_of_a_request_are_rejected() {
        for req in sample_requests() {
            let mut payload = Vec::new();
            req.encode(&mut payload);
            for cut in 0..payload.len() {
                assert!(
                    Request::decode_borrowed(&payload[..cut]).is_err(),
                    "prefix {cut} of {req:?} accepted"
                );
            }
            payload.push(0xEE);
            assert!(Request::decode_borrowed(&payload).is_err(), "{req:?} + 1 byte accepted");
        }
    }

    #[test]
    fn frame_ready_tracks_partial_frames() {
        let full = frame(|b| Request::Metrics.encode(b));
        for cut in 0..full.len() {
            assert_eq!(frame_ready(&full[..cut]).unwrap(), None, "cut {cut}");
        }
        assert_eq!(frame_ready(&full).unwrap(), Some(full.len()));
        // Pipelined second frame does not confuse the boundary.
        let mut two = full.clone();
        two.extend_from_slice(&full);
        assert_eq!(frame_ready(&two).unwrap(), Some(full.len()));
        // Hostile prefixes rejected as soon as the 4 length bytes land.
        assert!(frame_ready(&[0, 0, 0, 0]).is_err());
        assert!(frame_ready(&u32::MAX.to_le_bytes()).is_err());
    }

    #[test]
    fn frame_into_reuses_a_buffer_without_allocating_beyond_capacity() {
        let mut buf = Vec::with_capacity(256);
        frame_into(&mut buf, |b| Response::Ingested(StoryId::new(9)).encode(b));
        let first = buf.clone();
        frame_into(&mut buf, |b| Response::Ingested(StoryId::new(9)).encode(b));
        assert_eq!(buf, first);
        assert_eq!(buf, frame(|b| Response::Ingested(StoryId::new(9)).encode(b)));
    }

    #[test]
    fn frame_onto_appends_frames_that_peel_back_in_order() {
        let first = frame(|b| Response::Ingested(StoryId::new(9)).encode(b));
        let second = frame(|b| Response::Removed(3).encode(b));
        let mut buf = Vec::new();
        frame_onto(&mut buf, |b| Response::Ingested(StoryId::new(9)).encode(b));
        frame_onto(&mut buf, |b| Response::Removed(3).encode(b));
        assert_eq!(frame_ready(&buf).unwrap(), Some(first.len()));
        assert_eq!(buf, [first, second].concat());
    }
}
