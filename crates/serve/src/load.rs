//! The load generator: replay a [`storypivot_gen`] corpus against a
//! running server and measure throughput and latency.
//!
//! Snippets are partitioned across M connections *by source* (source id
//! mod M), so each source's stream stays on one connection and arrives
//! at its shard in delivery order — the same ordering guarantee the
//! in-process pipeline has. Each connection paces itself toward the
//! target aggregate rate and absorbs BUSY replies with the client's
//! jittered exponential backoff (seeded per snippet, honoring the
//! server's retry-after hint).

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use storypivot_gen::scenario::{ScenarioOp, Script};
use storypivot_gen::Corpus;
use storypivot_substrate::timing::Histogram;
use storypivot_types::{
    DocId, EntityId, Error, Result, Snippet, SnippetId, Source, SourceKind, StoryId, TermId,
    Timestamp,
};

use crate::client::{BackoffPolicy, Client, RetryStats};
use crate::proto::{encode_ingest, frame, frame_len, Request};

/// Load-generation options.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Concurrent connections (sources are split across them).
    pub connections: usize,
    /// Target aggregate ingest rate in events/second (0 = as fast as
    /// possible).
    pub rate: u64,
    /// How many BUSY replies to absorb per snippet before giving up.
    pub max_retries: u32,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            connections: 4,
            rate: 0,
            max_retries: 100,
        }
    }
}

/// What a replay measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Snippets successfully ingested.
    pub events: u64,
    /// BUSY replies absorbed (each one cost a retry round-trip).
    pub busy_retries: u64,
    /// SHED replies absorbed: ingests the server admitted but dropped
    /// past their deadline budget. Counted apart from BUSY because they
    /// cost the server queue residency, not just an admission check.
    pub shed_retries: u64,
    /// Typed rejections absorbed during a scenario replay (e.g. an
    /// injected journal fault failing the append). The server applies
    /// nothing on a rejection — append-before-apply — so the replay
    /// retries the snippet; always zero for [`replay`], which treats
    /// any rejection as fatal.
    pub rejected_retries: u64,
    /// Wall-clock time of the replay.
    pub wall: Duration,
    /// Per-request round-trip latency (nanoseconds).
    pub latency: Histogram,
}

impl LoadReport {
    /// Achieved throughput in events/second.
    pub fn throughput(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.events as f64 / self.wall.as_secs_f64()
    }

    /// Median round-trip latency in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.latency.percentile(0.50) as f64 / 1e3
    }

    /// 95th-percentile round-trip latency in microseconds.
    pub fn p95_us(&self) -> f64 {
        self.latency.percentile(0.95) as f64 / 1e3
    }

    /// 99th-percentile round-trip latency in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.latency.percentile(0.99) as f64 / 1e3
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} events in {:.2}s → {:.0} ev/s; rtt p50/p95/p99 {:.1}/{:.1}/{:.1} µs; \
             {} busy retries; {} shed retries; {} rejected retries",
            self.events,
            self.wall.as_secs_f64(),
            self.throughput(),
            self.p50_us(),
            self.p95_us(),
            self.p99_us(),
            self.busy_retries,
            self.shed_retries,
            self.rejected_retries,
        )
    }

    /// A JSON object (same shape as the bench harness artifacts).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"events\": {},\n",
                "  \"busy_retries\": {},\n",
                "  \"shed_retries\": {},\n",
                "  \"rejected_retries\": {},\n",
                "  \"wall_secs\": {:.6},\n",
                "  \"throughput_ev_per_s\": {:.2},\n",
                "  \"rtt_p50_us\": {:.2},\n",
                "  \"rtt_p95_us\": {:.2},\n",
                "  \"rtt_p99_us\": {:.2}\n",
                "}}"
            ),
            self.events,
            self.busy_retries,
            self.shed_retries,
            self.rejected_retries,
            self.wall.as_secs_f64(),
            self.throughput(),
            self.p50_us(),
            self.p95_us(),
            self.p99_us(),
        )
    }
}

/// Register the corpus's sources (connection 0) and replay its snippet
/// stream over `connections` paced connections.
///
/// The server allocates source ids sequentially from zero against a
/// fresh engine, which matches the corpus's own numbering; a mismatch
/// (server not fresh) is an error. Any rejection other than BUSY / SHED
/// is fatal.
pub fn replay<A: ToSocketAddrs>(addr: A, corpus: &Corpus, opts: &LoadOptions) -> Result<LoadReport> {
    let stream =
        Segment { rate: opts.rate, ingests: corpus.snippets.iter().collect(), ..Segment::default() };
    run_plan(addr, &Plan { sources: &corpus.sources, segments: vec![stream], rejected_retries: 0 }, opts)
}

// ---- chaos scenario replay -------------------------------------------

/// One stretch of a replay. Control ops run on lane 0 with barriers
/// around them so no lane ingests a snippet of a source that is not
/// registered yet, and no document is retracted before every lane has
/// finished the segment's ingests.
#[derive(Default)]
struct Segment<'a> {
    rate: u64,
    gap_ms: u64,
    adds: Vec<&'a Source>,
    ingests: Vec<&'a Snippet>,
    removes: Vec<DocId>,
}

/// What the lanes replay: the sources registered before anything else,
/// the segments in order, and how many typed rejections of one snippet a
/// lane retries before it fails.
struct Plan<'a> {
    sources: &'a [Source],
    segments: Vec<Segment<'a>>,
    rejected_retries: u32,
}

/// What one lane measured.
#[derive(Default)]
struct LaneTally {
    events: u64,
    retries: RetryStats,
    rejected: u64,
    latency: Histogram,
}

/// Replay a compiled chaos [`Script`] against a running server.
///
/// Like [`replay`] — which is the one-segment case with no control ops —
/// snippets are partitioned across `opts.connections` lanes by source
/// id, so each source's stream stays in order. The lanes advance segment
/// by segment behind barriers: lane 0 plays the segment's mid-stream
/// ADD_SOURCE ops (and, after everyone's ingests, its REMOVE_DOC
/// retractions); every lane observes the segment's dormancy gap and
/// paces toward its share of the segment's rate.
///
/// A typed rejection (a chaos server failing the journal append, say)
/// applied nothing — append-before-apply — so a straight retry is safe:
/// each snippet gets up to 50 of them, bounded so that a dead server
/// still fails the lane instead of spinning.
pub fn replay_script<A: ToSocketAddrs>(
    addr: A,
    script: &Script,
    opts: &LoadOptions,
) -> Result<LoadReport> {
    let segments = script
        .segments
        .iter()
        .map(|seg| {
            let mut plan = Segment { rate: seg.rate, gap_ms: seg.gap_ms, ..Segment::default() };
            for op in &seg.ops {
                match op {
                    ScenarioOp::AddSource(s) => plan.adds.push(s),
                    ScenarioOp::Ingest(s) => plan.ingests.push(s),
                    ScenarioOp::RemoveDoc(d) => plan.removes.push(*d),
                }
            }
            plan
        })
        .collect();
    run_plan(addr, &Plan { sources: &script.sources, segments, rejected_retries: 50 }, opts)
}

/// Register `source` and insist on the id the replay numbered it with.
fn register(client: &mut Client, source: &Source) -> Result<()> {
    let got = client.add_source(&source.name, source.kind, source.typical_lag)?;
    if got != source.id {
        return Err(Error::InvalidConfig(format!(
            "server allocated source id {got} where the replay expects {} — \
             is the server fresh?",
            source.id
        )));
    }
    Ok(())
}

fn run_plan<A: ToSocketAddrs>(addr: A, plan: &Plan, opts: &LoadOptions) -> Result<LoadReport> {
    let lanes = opts.connections;
    if lanes == 0 {
        return Err(Error::InvalidConfig("loadgen: connections must be >= 1".into()));
    }
    let addr: SocketAddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| Error::InvalidConfig("loadgen: address resolved to nothing".into()))?;

    let mut setup = Client::connect(addr)?;
    for source in plan.sources {
        register(&mut setup, source)?;
    }

    // BUSY handling: jittered exponential backoff honoring the
    // server's retry-after hint, with a typed error on exhaustion.
    let backoff = BackoffPolicy {
        max_attempts: opts.max_retries.saturating_add(1),
        ..BackoffPolicy::default()
    };
    let gate = Barrier::new(lanes);
    let start = Instant::now();
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let gate = &gate;
                scope.spawn(move || run_lane(addr, plan, lane, lanes, gate, backoff))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut report = LoadReport {
        events: 0,
        busy_retries: 0,
        shed_retries: 0,
        rejected_retries: 0,
        wall: start.elapsed(),
        latency: Histogram::new(),
    };
    let mut failure = None;
    for lane in joined {
        match lane {
            Ok(Ok(tally)) => {
                report.events += tally.events;
                report.busy_retries += tally.retries.busy as u64;
                report.shed_retries += tally.retries.shed as u64;
                report.rejected_retries += tally.rejected;
                report.latency.merge(&tally.latency);
            }
            Ok(Err(e)) => failure = Some(e),
            Err(_) => failure = Some(Error::Io("loadgen connection thread panicked".into())),
        }
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

/// One lane of [`run_plan`]: its own connection, every `lanes`-th
/// source. A lane that fails still meets the others at every gate, doing
/// nothing in between, so one error ends the replay instead of hanging
/// it.
fn run_lane(
    addr: SocketAddr,
    plan: &Plan,
    lane: usize,
    lanes: usize,
    gate: &Barrier,
    backoff: BackoffPolicy,
) -> Result<LaneTally> {
    let mut tally = LaneTally::default();
    let mut client = Client::connect(addr);
    for seg in &plan.segments {
        gate.wait();
        client = client.and_then(|mut client| {
            if seg.gap_ms > 0 {
                std::thread::sleep(Duration::from_millis(seg.gap_ms));
            }
            // Mid-stream registrations land before any lane may ingest
            // the new sources' snippets.
            if lane == 0 {
                for source in &seg.adds {
                    register(&mut client, source)?;
                }
            }
            Ok(client)
        });
        gate.wait();
        client = client.and_then(|mut client| {
            let per_lane_rate = seg.rate as f64 / lanes as f64;
            let seg_start = Instant::now();
            let mine = seg.ingests.iter().filter(|s| s.source.raw() as usize % lanes == lane);
            for (i, snippet) in mine.enumerate() {
                if per_lane_rate > 0.0 {
                    // Pace against the schedule, not the previous send:
                    // event i is due at i / rate seconds.
                    let due = Duration::from_secs_f64(i as f64 / per_lane_rate);
                    let elapsed = seg_start.elapsed();
                    if due > elapsed {
                        std::thread::sleep(due - elapsed);
                    }
                }
                let t = Instant::now();
                let mut rejections = 0u32;
                let r = loop {
                    match client.ingest_backoff(snippet, backoff) {
                        Ok((_, r)) => break r,
                        Err(_) if rejections < plan.rejected_retries => rejections += 1,
                        Err(e) => return Err(e),
                    }
                };
                tally.rejected += rejections as u64;
                tally.retries.busy += r.busy;
                tally.retries.shed += r.shed;
                tally.latency.record(t.elapsed().as_nanos() as u64);
                tally.events += 1;
            }
            Ok(client)
        });
        gate.wait();
        // Retractions only after every lane's ingests landed.
        client = client.and_then(|mut client| {
            if lane == 0 {
                for doc in &seg.removes {
                    client.remove_doc(*doc)?;
                }
            }
            Ok(client)
        });
    }
    client.map(|_| tally)
}

// ---- read fan-out ----------------------------------------------------

/// Options for the read fan-out bench: round-robin QUERY_STORIES
/// across a leader and its follower replicas.
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Total QUERY_STORIES round trips to issue (split across threads).
    pub requests: u64,
    /// Concurrent reader threads; each holds one connection per target.
    pub threads: usize,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            requests: 2_000,
            threads: 4,
        }
    }
}

/// Per-target slice of a [`QueryReport`].
#[derive(Debug, Clone)]
pub struct TargetReport {
    /// The target's address, as given.
    pub addr: String,
    /// Round trips this target answered.
    pub requests: u64,
    /// Round-trip latency against this target (nanoseconds).
    pub latency: Histogram,
}

/// What a read fan-out run measured.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// One entry per target, in the order the targets were given.
    pub targets: Vec<TargetReport>,
    /// Total round trips across all targets.
    pub requests: u64,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
}

impl QueryReport {
    /// Aggregate achieved throughput in queries/second.
    pub fn qps(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.requests as f64 / self.wall.as_secs_f64()
    }

    /// Human-readable summary: one aggregate line plus one per target.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{} queries over {} targets in {:.2}s → {:.0} q/s",
            self.requests,
            self.targets.len(),
            self.wall.as_secs_f64(),
            self.qps(),
        );
        for t in &self.targets {
            let _ = write!(
                out,
                "\n  {}: {} reqs; rtt p50/p95/p99 {:.1}/{:.1}/{:.1} µs",
                t.addr,
                t.requests,
                t.latency.percentile(0.50) as f64 / 1e3,
                t.latency.percentile(0.95) as f64 / 1e3,
                t.latency.percentile(0.99) as f64 / 1e3,
            );
        }
        out
    }

    /// A JSON object (same shape as the bench harness artifacts).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            concat!(
                "{{\n",
                "  \"requests\": {},\n",
                "  \"wall_secs\": {:.6},\n",
                "  \"qps\": {:.2},\n",
                "  \"targets\": [\n",
            ),
            self.requests,
            self.wall.as_secs_f64(),
            self.qps(),
        );
        for (i, t) in self.targets.iter().enumerate() {
            let _ = write!(
                out,
                concat!(
                    "    {{\"addr\": \"{}\", \"requests\": {}, ",
                    "\"rtt_p50_us\": {:.2}, \"rtt_p95_us\": {:.2}, ",
                    "\"rtt_p99_us\": {:.2}}}{}\n",
                ),
                t.addr,
                t.requests,
                t.latency.percentile(0.50) as f64 / 1e3,
                t.latency.percentile(0.95) as f64 / 1e3,
                t.latency.percentile(0.99) as f64 / 1e3,
                if i + 1 == self.targets.len() { "" } else { "," },
            );
        }
        out.push_str("  ]\n}");
        out
    }
}

/// Issue `opts.requests` QUERY_STORIES round trips round-robined over
/// `targets` (typically the leader plus its replicas), from
/// `opts.threads` concurrent readers, and report aggregate throughput
/// plus per-target round-trip latency.
///
/// Each thread opens its own connection to every target and starts its
/// rotation at a different offset, so the load lands evenly even when
/// the request count doesn't divide cleanly.
pub fn query_fanout(targets: &[String], opts: &QueryOptions) -> Result<QueryReport> {
    if targets.is_empty() || opts.threads == 0 {
        return Err(Error::InvalidConfig(
            "query fan-out: need at least one target and one thread".into(),
        ));
    }
    let start = Instant::now();
    let mut handles = Vec::with_capacity(opts.threads);
    for t in 0..opts.threads {
        let share =
            opts.requests / opts.threads as u64 + u64::from((t as u64) < opts.requests % opts.threads as u64);
        let targets: Vec<String> = targets.to_vec();
        handles.push(std::thread::spawn(move || -> Result<Vec<(u64, Histogram)>> {
            let mut conns = Vec::with_capacity(targets.len());
            for addr in &targets {
                conns.push(Client::connect(addr.as_str())?);
            }
            let mut per_target: Vec<(u64, Histogram)> =
                targets.iter().map(|_| (0, Histogram::new())).collect();
            for i in 0..share {
                let which = (t as u64 + i) as usize % conns.len();
                let at = Instant::now();
                conns[which].query_stories()?;
                per_target[which].1.record(at.elapsed().as_nanos() as u64);
                per_target[which].0 += 1;
            }
            Ok(per_target)
        }));
    }

    let mut report = QueryReport {
        targets: targets
            .iter()
            .map(|addr| TargetReport {
                addr: addr.clone(),
                requests: 0,
                latency: Histogram::new(),
            })
            .collect(),
        requests: 0,
        wall: Duration::ZERO,
    };
    let mut failure = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok(per_target)) => {
                for (slot, (requests, hist)) in report.targets.iter_mut().zip(per_target) {
                    slot.requests += requests;
                    slot.latency.merge(&hist);
                    report.requests += requests;
                }
            }
            Ok(Err(e)) => failure = Some(e),
            Err(_) => failure = Some(Error::Io("query fan-out reader thread panicked".into())),
        }
    }
    report.wall = start.elapsed();
    match failure {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

// ---- connection storm ------------------------------------------------

/// Options for the many-connection trickle mode: hold `connections`
/// open sockets and send each one a small request every `interval`,
/// for `rounds` rounds — the workload shape the multiplexed serving
/// runtime exists for (thread-per-connection dies here first).
#[derive(Debug, Clone)]
pub struct StormOptions {
    /// Sockets to hold open for the whole run.
    pub connections: usize,
    /// Client-side driver threads the sockets are split across.
    pub drivers: usize,
    /// Trickle rounds: every round sends one request per connection.
    pub rounds: usize,
    /// Pacing between rounds (each connection sees one request per
    /// interval). `ZERO` trickles as fast as the drivers can.
    pub interval: Duration,
}

impl Default for StormOptions {
    fn default() -> Self {
        StormOptions {
            connections: 1000,
            drivers: 8,
            rounds: 10,
            interval: Duration::from_millis(100),
        }
    }
}

/// What a connection storm measured.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// Connections successfully opened and held.
    pub connections: usize,
    /// Requests completed (round trips).
    pub requests: u64,
    /// Wall-clock time from first connect to last response.
    pub wall: Duration,
    /// Time to open every connection.
    pub connect_wall: Duration,
    /// Per-request round-trip latency (nanoseconds).
    pub latency: Histogram,
    /// The GET_STORY round trips' share of `latency`.
    pub reads: Histogram,
    /// The single-snippet INGEST round trips' share of `latency`.
    pub writes: Histogram,
}

impl StormReport {
    /// The overall, read and write round-trip histograms, labeled.
    fn histograms(&self) -> [(&'static str, &Histogram); 3] {
        [("rtt", &self.latency), ("read", &self.reads), ("write", &self.writes)]
    }

    /// One-line human-readable summary: every round trip, then reads
    /// and writes apart.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{} conns (opened in {:.2}s), {} reqs in {:.2}s;",
            self.connections,
            self.connect_wall.as_secs_f64(),
            self.requests,
            self.wall.as_secs_f64(),
        );
        for (name, h) in self.histograms() {
            let [p50, p95, p99] = [0.50, 0.95, 0.99].map(|q| h.percentile(q) as f64 / 1e3);
            let _ = write!(out, " {name} p50/p95/p99 {p50:.1}/{p95:.1}/{p99:.1} µs");
        }
        out
    }

    /// A JSON object (same shape as the bench harness artifacts).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{{\n  \"connections\": {},\n  \"requests\": {},\n  \"wall_secs\": {:.6},\n  \
             \"connect_wall_secs\": {:.6}",
            self.connections,
            self.requests,
            self.wall.as_secs_f64(),
            self.connect_wall.as_secs_f64(),
        );
        for (name, h) in self.histograms() {
            for (q, label) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
                let us = h.percentile(q) as f64 / 1e3;
                let _ = write!(out, ",\n  \"{name}_{label}_us\": {us:.2}");
            }
        }
        out.push_str("\n}");
        out
    }
}

/// One unbuffered storm lane connection: raw `TcpStream` (no
/// `BufReader`/`BufWriter`), so client-side memory per connection is
/// just the socket — the measurement isolates *server-side* per-
/// connection cost.
fn storm_round_trip(
    stream: &mut TcpStream,
    request: &[u8],
    scratch: &mut Vec<u8>,
) -> Result<()> {
    stream.write_all(request)?;
    let mut head = [0u8; 4];
    stream.read_exact(&mut head)?;
    let len = frame_len(head)?;
    scratch.resize(len as usize, 0);
    stream.read_exact(scratch)?;
    Ok(())
}

/// Open `opts.connections` sockets and trickle small requests over all
/// of them. The storm registers one source per driver thread (at least
/// two) first; then each connection alternates, round by round, a
/// GET_STORY on a story id that cannot exist (answered from the read
/// snapshot with the typed unknown-story error) with a single-snippet
/// INGEST whose snippet id is unique per (round, connection), so the
/// I/O workers apply writes while they serve every other connection.
/// A connection's successive writes rotate over the sources, so every
/// shard of a server with as many shards as sources takes writes. Any
/// reply counts as a round trip; reads and writes are also timed apart.
pub fn conn_storm<A: ToSocketAddrs>(addr: A, opts: &StormOptions) -> Result<StormReport> {
    if opts.connections == 0 || opts.drivers == 0 {
        return Err(Error::InvalidConfig(
            "storm: connections and drivers must be >= 1".into(),
        ));
    }
    let addr: SocketAddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| Error::InvalidConfig("storm: address resolved to nothing".into()))?;
    let drivers = opts.drivers.min(opts.connections);
    let mut client = Client::connect(addr)?;
    let sources = (0..drivers.max(2))
        .map(|i| client.add_source(&format!("storm-{i}"), SourceKind::Wire, 0))
        .collect::<Result<Vec<_>>>()?;
    let get_story = frame(|b| Request::GetStory(StoryId::new(u32::MAX)).encode(b));
    let connections = opts.connections;
    let is_write = |round: usize, lane: usize| !(round + lane).is_multiple_of(2);
    // Connection `lane`'s request in `round`: a write on every other
    // one, each to the next source in turn.
    let request = move |round: usize, lane: usize| {
        if !is_write(round, lane) {
            return get_story.clone();
        }
        let id = (round * connections + lane) as u32;
        let source = sources[(lane + round / 2) % sources.len()];
        let snippet = Snippet::builder(SnippetId::new(id), source, Timestamp::from_secs(id.into()))
            .doc(DocId::new(id))
            .entity(EntityId::new(id % 16), 1.0)
            .term(TermId::new(id % 8), 1.0)
            .build();
        frame(|b| encode_ingest(b, &snippet))
    };

    let start = Instant::now();
    let mut handles = Vec::with_capacity(drivers);
    let mut first_lane = 0;
    for d in 0..drivers {
        // Spread the remainder so lane sizes differ by at most one.
        let share = opts.connections / drivers + usize::from(d < opts.connections % drivers);
        let lanes = first_lane..first_lane + share;
        first_lane += share;
        let request = request.clone();
        let rounds = opts.rounds;
        let interval = opts.interval;
        handles.push(std::thread::spawn(
            move || -> Result<(usize, Duration, [Histogram; 2])> {
                let mut conns = Vec::with_capacity(share);
                for i in 0..share {
                    let stream = TcpStream::connect(addr)?;
                    stream.set_nodelay(true)?;
                    conns.push(stream);
                    // Stagger connects so the listener backlog never
                    // overflows into SYN-retry stalls.
                    if i % 64 == 63 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                let connect_wall = start.elapsed();
                // Reads, then writes.
                let mut hists = [Histogram::new(), Histogram::new()];
                let mut scratch = Vec::with_capacity(256);
                let trickle_start = Instant::now();
                for round in 0..rounds {
                    if !interval.is_zero() {
                        let due = interval * round as u32;
                        let elapsed = trickle_start.elapsed();
                        if due > elapsed {
                            std::thread::sleep(due - elapsed);
                        }
                    }
                    for (stream, lane) in conns.iter_mut().zip(lanes.clone()) {
                        let request = request(round, lane);
                        let t = Instant::now();
                        storm_round_trip(stream, &request, &mut scratch)?;
                        let elapsed = t.elapsed().as_nanos() as u64;
                        hists[usize::from(is_write(round, lane))].record(elapsed);
                    }
                }
                Ok((conns.len(), connect_wall, hists))
            },
        ));
    }

    let mut report = StormReport {
        connections: 0,
        requests: 0,
        wall: Duration::ZERO,
        connect_wall: Duration::ZERO,
        latency: Histogram::new(),
        reads: Histogram::new(),
        writes: Histogram::new(),
    };
    let mut failure = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok((conns, connect_wall, [reads, writes]))) => {
                report.connections += conns;
                report.requests += reads.count() + writes.count();
                report.connect_wall = report.connect_wall.max(connect_wall);
                report.latency.merge(&reads);
                report.latency.merge(&writes);
                report.reads.merge(&reads);
                report.writes.merge(&writes);
            }
            Ok(Err(e)) => failure = Some(e),
            Err(_) => failure = Some(Error::Io("storm driver thread panicked".into())),
        }
    }
    report.wall = start.elapsed();
    match failure {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_and_summary_are_well_formed() {
        let mut latency = Histogram::new();
        for v in [1_000u64, 2_000, 50_000] {
            latency.record(v);
        }
        let r = LoadReport {
            events: 3,
            busy_retries: 1,
            shed_retries: 2,
            rejected_retries: 4,
            wall: Duration::from_millis(30),
            latency,
        };
        assert!(r.throughput() > 99.0 && r.throughput() < 101.0);
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"events\": 3"));
        assert!(json.contains("\"busy_retries\": 1"));
        assert!(json.contains("\"shed_retries\": 2"));
        assert!(json.contains("\"rejected_retries\": 4"));
        assert!(r.summary().contains("3 events"));
        assert!(r.summary().contains("2 shed retries"));
        assert!(r.summary().contains("4 rejected retries"));
    }

    #[test]
    fn a_failing_lane_fails_the_replay_without_hanging_it() {
        use crate::server::{serve, ServerConfig};
        // A 1-deep queue drained at 5 ms/job and no BUSY retries: some
        // lane gives up while the others still have gates to meet.
        let cfg = ServerConfig {
            shards: 1,
            queue_depth: 1,
            worker_delay: Duration::from_millis(5),
            ..ServerConfig::default()
        };
        let handle = serve("127.0.0.1:0", cfg).unwrap();
        let corpus = storypivot_gen::CorpusBuilder::new(
            storypivot_gen::GenConfig::default().with_seed(3).with_sources(3).with_target_snippets(60),
        )
        .build();
        let opts = LoadOptions { connections: 3, max_retries: 0, ..LoadOptions::default() };
        assert!(replay(handle.addr(), &corpus, &opts).is_err());
        Client::connect(handle.addr()).unwrap().shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn a_storm_writes_one_snippet_per_other_round_trip() {
        use crate::server::{serve, ServerConfig};
        let handle = serve("127.0.0.1:0", ServerConfig { shards: 2, ..ServerConfig::default() }).unwrap();
        let opts = StormOptions { connections: 7, drivers: 2, rounds: 4, interval: Duration::ZERO };
        let report = conn_storm(handle.addr(), &opts).unwrap();
        assert_eq!((report.connections, report.requests), (7, 28));
        assert_eq!((report.reads.count(), report.writes.count()), (14, 14));
        let mut client = Client::connect(handle.addr()).unwrap();
        let mut per_source = [0usize; 2];
        for story in client.query_stories().unwrap() {
            per_source[story.source.raw() as usize] += story.members.len();
        }
        assert_eq!(
            per_source.iter().sum::<usize>(),
            14,
            "every (round, connection) with an odd sum ingests a distinct snippet"
        );
        assert!(per_source.iter().all(|&n| n > 0), "both shards take writes: {per_source:?}");
        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn query_report_json_lists_every_target() {
        let mut latency = Histogram::new();
        latency.record(10_000);
        let r = QueryReport {
            targets: vec![
                TargetReport {
                    addr: "127.0.0.1:7411".into(),
                    requests: 2,
                    latency: latency.clone(),
                },
                TargetReport {
                    addr: "127.0.0.1:7412".into(),
                    requests: 1,
                    latency,
                },
            ],
            requests: 3,
            wall: Duration::from_millis(30),
        };
        assert!(r.qps() > 99.0 && r.qps() < 101.0);
        let json = r.to_json();
        assert!(json.contains("\"requests\": 3"));
        assert!(json.contains("127.0.0.1:7412"));
        // Exactly one separating comma between the two target objects.
        assert_eq!(json.matches("},\n").count(), 1);
        assert!(r.summary().contains("2 targets"));
    }

    #[test]
    fn query_fanout_rejects_empty_inputs() {
        assert!(query_fanout(&[], &QueryOptions::default()).is_err());
        let opts = QueryOptions {
            threads: 0,
            ..QueryOptions::default()
        };
        assert!(query_fanout(&["127.0.0.1:1".into()], &opts).is_err());
    }
}
