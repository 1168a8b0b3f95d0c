//! A blocking client for the pivotd wire protocol.

use std::io::{BufReader, BufWriter, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use storypivot_substrate::rng::splitmix64;
use storypivot_types::{DocId, Error, Result, Snippet, SourceId, SourceKind, StoryId};

use crate::proto::{frame, read_frame, Request, Response, StorySummary};
use crate::stats::ServeStats;

/// The outcome of a single-snippet ingest: a story assignment, a BUSY
/// push-back from a full shard queue, or a SHED drop from a write that
/// sat in queue past its deadline budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestReply {
    /// The snippet joined this per-source story.
    Assigned(StoryId),
    /// The shard queue was full; retry after the hinted backoff.
    Busy {
        /// Suggested backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// The write was admitted but expired in queue and was dropped
    /// unapplied; retrying starts a fresh deadline budget.
    Shed {
        /// Suggested backoff in milliseconds.
        retry_after_ms: u32,
    },
}

/// How many push-backs an [`Client::ingest_backoff`] call absorbed
/// before the snippet landed, broken down by kind so overload reports
/// can tell admission-control rejections (BUSY) apart from
/// deadline-expiry drops (SHED).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryStats {
    /// Retries caused by BUSY (queue full at admission).
    pub busy: u32,
    /// Retries caused by SHED (deadline expired in queue).
    pub shed: u32,
}

impl RetryStats {
    /// Total retries of either kind.
    pub fn total(&self) -> u32 {
        self.busy + self.shed
    }
}

/// Jittered exponential backoff for BUSY replies: the first sleep
/// honors the server's retry-after hint, every further BUSY doubles the
/// window, each sleep is drawn uniformly from the upper half of the
/// window (decorrelating synchronized clients), and `cap_ms` bounds any
/// single sleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Attempts allowed in total (the initial try plus retries);
    /// exhausting them yields [`Error::Busy`]. Values below 1 behave
    /// as 1.
    pub max_attempts: u32,
    /// Floor for the first backoff window, in milliseconds (raised to
    /// the server's hint when the hint is larger).
    pub base_ms: u64,
    /// Ceiling on any single sleep, in milliseconds.
    pub cap_ms: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            max_attempts: 8,
            base_ms: 1,
            cap_ms: 250,
        }
    }
}

/// The sleep before retry number `attempt` (1-based), in milliseconds.
/// Pure so callers and tests can reason about bounds; `jitter_state`
/// threads the deterministic jitter stream.
///
/// Hostile hints are harmless by construction: the result is clamped to
/// `[1, cap_ms.max(1)]`, so a huge `retry-after` cannot overflow the
/// exponential window (the shift is bounded and the multiply saturates)
/// and a zero hint cannot produce a zero-sleep spin loop.
fn backoff_delay_ms(
    policy: BackoffPolicy,
    hint_ms: u32,
    attempt: u32,
    jitter_state: &mut u64,
) -> u64 {
    let hint = hint_ms as u64;
    let cap = policy.cap_ms.max(1);
    let window = policy
        .base_ms
        .max(hint)
        .max(1)
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
        .min(cap);
    let low = window / 2;
    let jittered = low + splitmix64(jitter_state) % (window - low + 1);
    // Never undercut the server's hint (unless the cap itself does),
    // and never return zero — a 0 ms "sleep" would let a zero hint turn
    // the retry loop into a busy spin.
    jittered.max(hint.min(cap)).max(1)
}

/// One delivery from a leader's replication stream (the decoded form
/// of REPL_FRAME / REPL_CHECKPOINT).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplDelivery {
    /// Whole WAL records from the subscribed offset onward; empty when
    /// the follower is caught up.
    Frame {
        /// Leader checkpoint generation these records apply on top of.
        generation: u64,
        /// Leader WAL offset just past the shipped records.
        next_offset: u64,
        /// The leader's total WAL length (drives the byte-lag gauge).
        leader_wal_len: u64,
        /// Ops the leader has applied since its generation.
        leader_ops: u64,
        /// Concatenated WAL records, leader framing intact.
        records: Vec<u8>,
    },
    /// The follower's generation is stale: bootstrap from these
    /// verbatim checkpoint bytes (empty = fresh engine) and resubscribe
    /// from offset zero.
    Checkpoint {
        /// The leader's newest checkpoint generation.
        generation: u64,
        /// Raw checkpoint file bytes, shipped unmodified.
        checkpoint: Vec<u8>,
    },
}

/// One connection to a pivotd server. Requests are strictly
/// request/response over the connection, so a `Client` is `!Sync` by
/// design — open one per thread.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Bound every socket read and write; `None` restores blocking
    /// forever. Replica pullers use this so a dead leader surfaces as
    /// an `Io` error instead of a wedged thread.
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.writer.get_ref().set_write_timeout(timeout)?;
        Ok(())
    }

    /// Send one request and wait for its response frame.
    pub fn request(&mut self, req: &Request) -> Result<Response> {
        self.writer.write_all(&frame(|b| req.encode(b)))?;
        self.writer.flush()?;
        match read_frame(&mut self.reader)? {
            Some(payload) => Response::decode(&payload),
            None => Err(Error::Io("server closed the connection".into())),
        }
    }

    /// Queue one request without waiting for its response (pipelining).
    /// Frames accumulate in the write buffer until [`Client::flush`];
    /// responses arrive in request order via [`Client::recv`].
    pub fn send(&mut self, req: &Request) -> Result<()> {
        self.writer.write_all(&frame(|b| req.encode(b)))?;
        Ok(())
    }

    /// Push every queued frame onto the wire.
    pub fn flush(&mut self) -> Result<()> {
        self.writer.flush()?;
        Ok(())
    }

    /// Read the next response frame. Responses are strictly in request
    /// order — the server re-sequences pipelined completions — so the
    /// n-th `recv` answers the n-th `send`.
    /// NOT_LEADER redirects surface as [`Error::NotLeader`] (carrying
    /// the leader's address) rather than a raw response, here and in
    /// [`Client::pipelined`], so write loops pointed at a replica fail
    /// with something actionable.
    pub fn recv(&mut self) -> Result<Response> {
        match read_frame(&mut self.reader)? {
            Some(payload) => match Response::decode(&payload)? {
                Response::NotLeader { leader } => Err(Error::NotLeader {
                    leader_addr: leader,
                }),
                resp => Ok(resp),
            },
            None => Err(Error::Io("server closed the connection".into())),
        }
    }

    /// Send a whole window of requests back-to-back, then collect every
    /// response in order: one round trip instead of `reqs.len()`.
    pub fn pipelined(&mut self, reqs: &[Request]) -> Result<Vec<Response>> {
        for req in reqs {
            self.send(req)?;
        }
        self.flush()?;
        reqs.iter().map(|_| self.recv()).collect()
    }

    /// Send a request and fail on an error response.
    fn request_ok(&mut self, req: &Request) -> Result<Response> {
        self.request(req)?.into_result()
    }

    /// Register a source; the server allocates and returns its id.
    pub fn add_source(&mut self, name: &str, kind: SourceKind, lag: i64) -> Result<SourceId> {
        match self.request_ok(&Request::AddSource {
            name: name.to_string(),
            kind,
            lag,
        })? {
            Response::SourceAdded(id) => Ok(id),
            other => Err(unexpected("SourceAdded", &other)),
        }
    }

    /// Ingest one snippet, surfacing BUSY and SHED to the caller.
    pub fn ingest(&mut self, snippet: &Snippet) -> Result<IngestReply> {
        match self.request_ok(&Request::IngestSnippet(snippet.clone()))? {
            Response::Ingested(story) => Ok(IngestReply::Assigned(story)),
            Response::Busy { retry_after_ms } => Ok(IngestReply::Busy { retry_after_ms }),
            Response::Shed { retry_after_ms } => Ok(IngestReply::Shed { retry_after_ms }),
            other => Err(unexpected("Ingested/Busy/Shed", &other)),
        }
    }

    /// Ingest one snippet with jittered exponential backoff on BUSY and
    /// SHED. Returns the story id and the per-kind retry counts; once
    /// `policy.max_attempts` tries all came back pushed-back the typed
    /// [`Error::Busy`] is returned (with the attempt count) so callers
    /// can tell saturation apart from I/O failure. Jitter is
    /// deterministic per snippet id.
    pub fn ingest_backoff(
        &mut self,
        snippet: &Snippet,
        policy: BackoffPolicy,
    ) -> Result<(StoryId, RetryStats)> {
        let mut jitter_state = 0x9E37_79B9_7F4A_7C15u64 ^ snippet.id.raw() as u64;
        let max_attempts = policy.max_attempts.max(1);
        let mut attempts = 0u32;
        let mut retries = RetryStats::default();
        loop {
            attempts += 1;
            let retry_after_ms = match self.ingest(snippet)? {
                IngestReply::Assigned(story) => return Ok((story, retries)),
                IngestReply::Busy { retry_after_ms } => {
                    retries.busy += 1;
                    retry_after_ms
                }
                IngestReply::Shed { retry_after_ms } => {
                    retries.shed += 1;
                    retry_after_ms
                }
            };
            if attempts >= max_attempts {
                return Err(Error::Busy { attempts });
            }
            let ms = backoff_delay_ms(policy, retry_after_ms, attempts, &mut jitter_state);
            std::thread::sleep(Duration::from_millis(ms));
        }
    }

    /// Ingest a batch (the server blocks on full queues instead of BUSY).
    pub fn ingest_batch(&mut self, batch: Vec<Snippet>) -> Result<u32> {
        match self.request_ok(&Request::IngestBatch(batch))? {
            Response::BatchIngested(n) => Ok(n),
            other => Err(unexpected("BatchIngested", &other)),
        }
    }

    /// The full per-source story partition, ordered by story id.
    pub fn query_stories(&mut self) -> Result<Vec<StorySummary>> {
        match self.request_ok(&Request::QueryStories)? {
            Response::Stories(stories) => Ok(stories),
            other => Err(unexpected("Stories", &other)),
        }
    }

    /// One story's summary.
    pub fn get_story(&mut self, id: StoryId) -> Result<StorySummary> {
        match self.request_ok(&Request::GetStory(id))? {
            Response::Story(story) => Ok(story),
            other => Err(unexpected("Story", &other)),
        }
    }

    /// Remove a document everywhere; returns how many snippets left.
    pub fn remove_doc(&mut self, doc: DocId) -> Result<u32> {
        match self.request_ok(&Request::RemoveDoc(doc))? {
            Response::Removed(n) => Ok(n),
            other => Err(unexpected("Removed", &other)),
        }
    }

    /// The merged Prometheus-style metrics exposition across all
    /// shards (counters summed, histograms merged bucket-wise).
    pub fn metrics(&mut self) -> Result<String> {
        match self.request_ok(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Per-shard serving statistics.
    pub fn stats(&mut self) -> Result<ServeStats> {
        match self.request_ok(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Ask the server to drain, checkpoint, and stop. The ack arrives
    /// only after every shard's state is durable.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.request_ok(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(unexpected("ShutdownAck", &other)),
        }
    }

    /// One replication poll: ask the leader for shard `shard`'s WAL
    /// records past `wal_offset` on `generation`. Yields either a
    /// frame of records or a checkpoint to re-bootstrap from; sending
    /// this to a replica yields [`Error::NotLeader`].
    pub fn repl_subscribe(
        &mut self,
        shard: u32,
        generation: u64,
        wal_offset: u64,
    ) -> Result<ReplDelivery> {
        match self.request_ok(&Request::ReplSubscribe {
            shard,
            generation,
            wal_offset,
        })? {
            Response::ReplFrame {
                generation,
                next_offset,
                leader_wal_len,
                leader_ops,
                records,
            } => Ok(ReplDelivery::Frame {
                generation,
                next_offset,
                leader_wal_len,
                leader_ops,
                records,
            }),
            Response::ReplCheckpoint {
                generation,
                checkpoint,
            } => Ok(ReplDelivery::Checkpoint {
                generation,
                checkpoint,
            }),
            other => Err(unexpected("ReplFrame or ReplCheckpoint", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> Error {
    Error::Codec(format!("expected a {wanted} response, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_honors_hint_grows_and_caps() {
        let policy = BackoffPolicy {
            max_attempts: 10,
            base_ms: 1,
            cap_ms: 200,
        };
        let mut state = 42u64;
        for attempt in 1..=12u32 {
            let d = backoff_delay_ms(policy, 10, attempt, &mut state);
            assert!(d >= 10, "attempt {attempt}: {d} ms undercuts the hint");
            assert!(d <= 200, "attempt {attempt}: {d} ms exceeds the cap");
            // The window for retry k is hint * 2^(k-1), capped.
            let window = (10u64 << (attempt - 1).min(16)).min(200);
            assert!(d <= window, "attempt {attempt}: {d} ms outside window {window}");
        }
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_spread() {
        let policy = BackoffPolicy::default();
        let run = |seed: u64| {
            let mut state = seed;
            (1..=6u32)
                .map(|a| backoff_delay_ms(policy, 8, a, &mut state))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        // Different jitter streams must not march in lockstep.
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn backoff_tolerates_degenerate_policies() {
        let mut state = 1u64;
        // Zero everything: still returns a sane (>= 0, <= 1ms) delay.
        let policy = BackoffPolicy {
            max_attempts: 0,
            base_ms: 0,
            cap_ms: 0,
        };
        let d = backoff_delay_ms(policy, 0, 1, &mut state);
        assert_eq!(d, 1);
        // A hint above the cap is clamped to the cap.
        let policy = BackoffPolicy {
            max_attempts: 3,
            base_ms: 1,
            cap_ms: 5,
        };
        let d = backoff_delay_ms(policy, 1000, 1, &mut state);
        assert_eq!(d, 5);
    }

    #[test]
    fn hostile_hints_cannot_overflow_or_spin() {
        let policy = BackoffPolicy::default();
        let mut state = 3u64;
        // A u32::MAX retry-after hint is clamped to the cap at every
        // attempt — no overflow, no multi-hour sleep.
        for attempt in [1u32, 2, 17, u32::MAX] {
            let d = backoff_delay_ms(policy, u32::MAX, attempt, &mut state);
            assert_eq!(d, policy.cap_ms, "attempt {attempt}");
        }
        // A zero hint never yields a zero (spin-loop) delay.
        for attempt in [1u32, 2, 3, u32::MAX] {
            let d = backoff_delay_ms(policy, 0, attempt, &mut state);
            assert!((1..=policy.cap_ms).contains(&d), "attempt {attempt}: {d}");
        }
        // Even an all-zero policy paces retries at >= 1 ms.
        let zero = BackoffPolicy {
            max_attempts: 1,
            base_ms: 0,
            cap_ms: 0,
        };
        for _ in 0..32 {
            assert_eq!(backoff_delay_ms(zero, 0, 1, &mut state), 1);
        }
    }
}
