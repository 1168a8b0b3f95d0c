//! The served target: the script's wire ops sent by `Client` to a
//! server — an in-process `serve()`, or the `pivotd` binary where a
//! lifecycle op needs a process — and the lifecycle ops the server
//! draws from its own stream: a graceful restart, a `kill -9` and
//! recovery, and a follower's bootstrap, catch-up and `kill -9`.
//!
//! Besides the step checks every target gets (QUERY_STORIES equals the
//! oracle's partition after every step; each INGEST reply names the
//! oracle's story), a served target checks what a server alone can get
//! wrong: a story that left the partition is gone from GET_STORY; the
//! shutdown checkpoints restore the oracle's partition; METRICS counts
//! one ingest per acked ingest and one publish per epoch, each patching
//! about one story; a periodic checkpoint bounds the journal; a server
//! grants the next source id, after a crash too; and a follower that
//! caught up serves the oracle's partition, reports zero lag on every
//! shard and redirects writes to its leader.

use std::net::SocketAddr;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use storypivot_core::checkpoint;
use storypivot_core::config::PivotConfig;
use storypivot_core::StoryPivot;
use storypivot_serve::client::{BackoffPolicy, Client};
use storypivot_serve::proto::{Request, Response, StorySummary};
use storypivot_serve::server::{serve, ServerConfig, ServerHandle};
use storypivot_substrate::fault::FaultPlan;
use storypivot_substrate::rng::{RngExt, StdRng};
use storypivot_types::{DocId, Error, Snippet, SnippetId, Source, SourceId, SourceKind, Timestamp};

use super::{ok, Partition, Reply, Tally, Target};

/// A directory under the system temp dir, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("storypivot-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Deref for Scratch {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A `pivotd` process. It is killed and reaped when dropped, so a
/// failed assertion leaves no daemon running.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Start the `pivotd` binary `bin` with `args` (and `faults` as its
    /// `STORYPIVOT_FAULTS`) and wait for its port file.
    pub fn spawn(bin: &str, args: &[String], faults: Option<&str>, port_file: &Path) -> Daemon {
        let _ = std::fs::remove_file(port_file);
        let mut command = Command::new(bin);
        command
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(port_file)
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        match faults {
            Some(plan) => command.env("STORYPIVOT_FAULTS", plan),
            None => command.env_remove("STORYPIVOT_FAULTS"),
        };
        let mut daemon = Daemon {
            child: command.spawn().expect("spawn pivotd"),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let port = std::fs::read_to_string(port_file).ok().and_then(|raw| raw.trim().parse().ok());
            if let Some(port) = port {
                daemon.addr.set_port(port);
                return daemon;
            }
            assert!(Instant::now() < deadline, "pivotd did not write its port file");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// SIGKILL: no drain, no checkpoint, no flush.
    pub fn kill(mut self) {
        self.child.kill().unwrap();
        self.child.wait().unwrap();
    }

    /// Wait for a daemon that was sent SHUTDOWN; it must exit 0.
    pub fn exits_cleanly(mut self, at: &str) {
        let status = self.child.wait().unwrap();
        assert!(status.success(), "{at}: pivotd exited with {status}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A served partition in the oracle's shape.
pub fn partition_of_summaries(summaries: &[StorySummary]) -> Partition {
    let mut partition: Partition = summaries.iter().map(|s| (s.id, s.members.clone())).collect();
    partition.sort();
    partition
}

/// The value of series `name` (labels included) in an exposition.
pub fn exposition_value(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Bytes in shard `shard`'s journal (every append reaches the file
/// before its ack, whatever the fsync policy).
pub fn journal_len(wal_dir: &Path, shard: usize) -> u64 {
    std::fs::metadata(wal_dir.join(format!("shard{shard}.wal"))).unwrap().len()
}

/// A lifecycle op of a served target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// SHUTDOWN, then a new server on the same directories.
    Restart,
    /// `kill -9` of the `pivotd` leader, then a new one on its directories.
    Kill,
    /// Start the follower unless it runs, and wait until it caught up.
    Follow,
    /// `Follow`, then `kill -9` of the follower; the next `Follow`
    /// restarts it on its directories.
    KillFollower,
}

impl Lifecycle {
    pub fn name(self) -> &'static str {
        match self {
            Lifecycle::Restart => "graceful restart",
            Lifecycle::Kill => "kill -9 and recovery",
            Lifecycle::Follow => "follower catch-up",
            Lifecycle::KillFollower => "follower kill -9",
        }
    }
}

/// The server a served slice runs, and the lifecycle ops it draws.
#[derive(Debug, Clone, Copy)]
pub struct Deployment {
    pub shards: usize,
    /// The `pivotd` binary, when the leader runs as a process; an
    /// in-process `serve()` otherwise.
    pub leader: Option<&'static str>,
    /// The `pivotd` binary a follower of the leader runs as, if any. It
    /// follows the leader's first address, so it goes with no leader
    /// lifecycle ops.
    pub follower: Option<&'static str>,
    pub fsync: &'static str,
    pub checkpoint_every_bytes: u64,
    /// A fault plan for the leader's first life; restarts run clean.
    pub faults: Option<&'static str>,
    pub lifecycle: &'static [Lifecycle],
}

impl Default for Deployment {
    fn default() -> Deployment {
        Deployment {
            shards: 1,
            leader: None,
            follower: None,
            fsync: "never",
            checkpoint_every_bytes: ServerConfig::default().checkpoint_every_bytes,
            faults: None,
            lifecycle: &[Lifecycle::Restart],
        }
    }
}

impl Deployment {
    /// `pivotd` has no engine-config flags: a deployment that runs it
    /// runs the default config, whatever the case drew.
    pub fn pins_config(&self) -> bool {
        self.leader.is_some() || self.follower.is_some()
    }
}

/// What served targets did, summed over a slice's cases: each case's
/// target carries them on.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub batches: usize,
    pub restarts: usize,
    /// `kill -9` recoveries, and those that found a checkpoint
    /// generation on disk.
    pub crashes: [usize; 2],
    pub sources_after_crash: usize,
    /// Stories that left the served partition (merged away or emptied).
    pub vanished: usize,
    /// Requests an injected fault rejected.
    pub rejected: usize,
    pub follower_syncs: usize,
    pub follower_kills: usize,
    /// Shards held to the patched-per-publish band at a case's end.
    pub banded: usize,
}

/// How often a lifecycle op follows a step.
const LIFECYCLE_RATE: f64 = 0.025;

enum Leader {
    InProcess(ServerHandle),
    Process(Daemon),
}

pub struct Served {
    plan: Deployment,
    /// The in-process server's config; its directories and engine
    /// config are the `pivotd` process's too.
    config: ServerConfig,
    dir: Scratch,
    leader: Option<Leader>,
    addr: SocketAddr,
    client: Client,
    follower: Option<Daemon>,
    /// The target's own stream: lifecycle ops, and whether a wave goes
    /// as one INGEST_BATCH.
    side: StdRng,
    crashed: bool,
    /// Whether the leader's current life runs under the fault plan.
    faulted: bool,
    /// The partition QUERY_STORIES last answered.
    served: Partition,
    /// Ingests acked since the leader last started.
    acked: u64,
    /// Per shard, publishes and stories patched, summed over the
    /// leader's lives that METRICS saw to their end.
    published: Vec<[u64; 2]>,
    /// The id the server must grant the next source while no fault plan
    /// runs: one past the last it granted.
    next_source: SourceId,
    counts: Counts,
}

impl Served {
    /// Start `plan` on `pivot`; `counts` are the slice's so far.
    pub fn start(plan: Deployment, pivot: &PivotConfig, seed: u64, counts: Counts) -> Served {
        let dir = Scratch::new("served");
        let config = ServerConfig {
            shards: plan.shards,
            pivot: pivot.clone(),
            wal_dir: Some(dir.join("wal")),
            checkpoint_dir: Some(dir.join("ckpt")),
            fsync: plan.fsync.parse().expect("an fsync policy"),
            checkpoint_every_bytes: plan.checkpoint_every_bytes,
            ..ServerConfig::default()
        };
        let leader = launch(&plan, &config, &dir, plan.faults);
        let addr = leader.addr();
        Served {
            plan,
            config,
            dir,
            leader: Some(leader),
            addr,
            client: Client::connect(addr).unwrap(),
            follower: None,
            side: StdRng::seed_from_u64(seed ^ 0x5e7e_d5e7_ed5e_7ed5),
            crashed: false,
            faulted: plan.faults.is_some(),
            served: Partition::new(),
            acked: 0,
            published: vec![[0; 2]; plan.shards],
            next_source: SourceId::new(0),
            counts,
        }
    }

    /// Send until no injected fault rejects; any other error fails the
    /// step. Also says whether a fault rejected an attempt.
    fn retry<R>(&mut self, at: &str, mut send: impl FnMut(&mut Client) -> Result<R, Error>) -> (R, bool) {
        let mut rejected = false;
        loop {
            match send(&mut self.client) {
                Ok(r) => return (r, rejected),
                Err(e) if self.faulted && e.to_string().contains("injected fault") => {
                    rejected = true;
                    self.counts.rejected += 1;
                    assert!(self.counts.rejected < 10_000, "{at}: the request never landed: {e}");
                }
                Err(e) => panic!("{at}: {e}"),
            }
        }
    }

    /// Stop the leader gracefully: the SHUTDOWN ack means drained and
    /// checkpointed. An in-process server is not joined: its I/O threads
    /// linger a fixed 120 ms for late clients, and there are none.
    fn shutdown(&mut self, at: &str) {
        ok(at, self.client.shutdown());
        match self.leader.take() {
            Some(Leader::InProcess(_)) => {}
            Some(Leader::Process(daemon)) => daemon.exits_cleanly(at),
            None => unreachable!("a leader runs between lifecycle ops"),
        }
    }

    /// A new leader on the same directories, with no fault plan.
    fn relaunch(&mut self) {
        let leader = launch(&self.plan, &self.config, &self.dir, None);
        self.addr = leader.addr();
        self.leader = Some(leader);
        self.client = Client::connect(self.addr).unwrap();
        self.faulted = false;
        self.acked = 0;
    }

    /// Everything METRICS must say of the leader's life, which ends here.
    fn check_metrics(&mut self, at: &str) {
        let text = ok(at, self.client.metrics());
        let series = |name: &str, shard: usize| {
            exposition_value(&text, &format!("{name}{{shard=\"{shard}\"}}"))
                .unwrap_or_else(|| panic!("{at}: no {name} of shard {shard}"))
        };
        let shards = self.plan.shards;
        assert!(!text.contains(&format!("{{shard=\"{shards}\"}}")), "{at}: {shards} shards serve");
        let ingests: u64 = (0..shards).map(|s| series("storypivot_shard_ingest_latency_ns_count", s)).sum();
        assert_eq!(ingests, self.acked, "{at}: one ingest clock reading per acked ingest");
        for shard in 0..shards {
            let publishes = series("storypivot_shard_snapshot_publish_duration_ns_count", shard);
            assert_eq!(publishes, series("storypivot_shard_snapshot_epoch", shard), "{at}: shard {shard}");
            let patched = series("storypivot_shard_snapshot_stories_patched_total", shard);
            let sum = &mut self.published[shard];
            *sum = [sum[0] + publishes, sum[1] + patched];
        }
    }

    /// One publish per op patches a story or two, not the hundreds a
    /// rebuild per publish would touch: checked on every shard with 64
    /// publishes or more over the case.
    fn check_band(&mut self, at: &str) {
        for (shard, &[publishes, patched]) in self.published.iter().enumerate() {
            if publishes >= 64 {
                assert!(
                    patched >= publishes / 2 && patched < 3 * publishes,
                    "{at}: shard {shard} patched {patched} stories in {publishes} publishes"
                );
                self.counts.banded += 1;
            }
        }
    }

    /// SHUTDOWN, the checkpoints it left, and a new server on them.
    fn restart(&mut self, at: &str, oracle: &StoryPivot) {
        self.check_metrics(at);
        self.shutdown(at);
        // The drain saved every shard as the last op left it.
        let mut restored = Partition::new();
        for shard in 0..self.plan.shards {
            let loaded = checkpoint::load_newest(&self.dir.join("ckpt"), shard, self.config.pivot.clone());
            let (engine, generation) =
                ok(at, loaded).unwrap_or_else(|| panic!("{at}: shutdown left no checkpoint of shard {shard}"));
            assert!(generation >= 1, "{at}: the shutdown checkpoint of shard {shard} has no generation");
            restored.extend(engine.story_partition());
        }
        restored.sort();
        assert_eq!(restored, oracle.story_partition(), "{at}: what the shutdown checkpoints restore");
        self.relaunch();
        self.counts.restarts += 1;
    }

    fn kill(&mut self, at: &str) {
        let Some(Leader::Process(daemon)) = self.leader.take() else {
            panic!("{at}: only a pivotd leader can be killed")
        };
        // Periodic checkpoints keep every journal short.
        let generations = std::fs::read_dir(self.dir.join("ckpt"))
            .map_or(0, |dir| dir.flatten().filter(|e| e.path().extension() == Some("spvc".as_ref())).count());
        if self.plan.checkpoint_every_bytes < 16 * 1024 {
            for shard in 0..self.plan.shards {
                let bytes = journal_len(&self.dir.join("wal"), shard);
                assert!(bytes < 64 * 1024, "{at}: shard {shard}'s journal grew to {bytes} bytes");
            }
        }
        daemon.kill();
        self.relaunch();
        self.crashed = true;
        self.counts.crashes[0] += 1;
        self.counts.crashes[1] += usize::from(generations > 0);
    }

    /// Start the follower unless it runs; wait until it serves the
    /// oracle's partition and reports zero lag, a restarted follower too
    /// (recovery counts the journal it replayed); it redirects writes.
    fn follow(&mut self, at: &str, oracle: &StoryPivot) {
        let bin = self.plan.follower.expect("a deployment with a follower");
        let (shards, dir, leader) = (self.plan.shards, &self.dir, self.addr.to_string());
        let follower = self.follower.get_or_insert_with(|| {
            let args = [
                "--leader".into(),
                leader.clone(),
                "--shards".into(),
                shards.to_string(),
                "--wal-dir".into(),
                dir.join("follower-wal").display().to_string(),
                "--checkpoint-dir".into(),
                dir.join("follower-ckpt").display().to_string(),
            ];
            Daemon::spawn(bin, &args, None, &dir.join("follower-port"))
        });
        let mut client = ok(at, Client::connect(follower.addr));
        let want = oracle.story_partition();
        let lag = |shard: usize| format!("storypivot_replica_lag_ops{{shard=\"{shard}\"}}");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let caught_up = partition_of_summaries(&ok(at, client.query_stories())) == want && {
                let text = ok(at, client.metrics());
                (0..shards).all(|shard| exposition_value(&text, &lag(shard)) == Some(0))
            };
            if caught_up {
                break;
            }
            assert!(Instant::now() < deadline, "{at}: the follower never caught up with the oracle");
            std::thread::sleep(Duration::from_millis(10));
        }
        let summaries = ok(at, client.query_stories());
        assert_eq!(summaries, ok(at, self.client.query_stories()), "{at}: follower and leader summaries");
        let probe = Snippet::builder(SnippetId::new(u32::MAX), SourceId::new(0), Timestamp::EPOCH).build();
        let redirected = [
            ("INGEST", client.ingest(&probe).map(|_| ())),
            ("ADD_SOURCE", client.add_source("redirected", SourceKind::Wire, 0).map(|_| ())),
        ];
        for (request, reply) in redirected {
            match reply {
                Err(Error::NotLeader { leader_addr }) => {
                    assert_eq!(leader_addr, leader, "{at}: a {request} redirect must name the leader")
                }
                other => panic!("{at}: the follower must redirect {request}, answered {other:?}"),
            }
        }
        self.counts.follower_syncs += 1;
    }
}

/// Start the leader `plan` describes.
fn launch(plan: &Deployment, config: &ServerConfig, dir: &Path, faults: Option<&str>) -> Leader {
    match plan.leader {
        None => {
            let faults = faults.map(|plan| FaultPlan::parse(plan).expect("a fault plan"));
            Leader::InProcess(serve("127.0.0.1:0", ServerConfig { faults, ..config.clone() }).unwrap())
        }
        Some(bin) => {
            let path = |p: &Option<PathBuf>| p.as_ref().expect("served state is durable").display().to_string();
            let args = [
                "--shards".into(),
                plan.shards.to_string(),
                "--fsync".into(),
                plan.fsync.into(),
                "--checkpoint-every-bytes".into(),
                plan.checkpoint_every_bytes.to_string(),
                "--wal-dir".into(),
                path(&config.wal_dir),
                "--checkpoint-dir".into(),
                path(&config.checkpoint_dir),
            ];
            Leader::Process(Daemon::spawn(bin, &args, faults, &dir.join("port")))
        }
    }
}

impl Leader {
    fn addr(&self) -> SocketAddr {
        match self {
            Leader::InProcess(handle) => handle.addr(),
            Leader::Process(daemon) => daemon.addr,
        }
    }
}

impl Target for Served {
    fn engine(&mut self) -> Option<&mut StoryPivot> {
        None
    }

    fn add_source(&mut self, at: &str, source: &Source) -> SourceId {
        let (id, _) = self.retry(at, |c| c.add_source(&source.name, source.kind, source.typical_lag));
        // A rejected registration burns an id; a recovered server grants
        // one past the last it recovered.
        if self.faulted {
            assert!(id >= self.next_source, "{at}: granted {id}, below {}", self.next_source);
        } else {
            assert_eq!(id, self.next_source, "{at}: the server must grant the next source id");
        }
        self.next_source = SourceId::new(id.raw() + 1);
        self.counts.sources_after_crash += usize::from(self.crashed);
        id
    }

    fn ingest(&mut self, at: &str, wave: &[Snippet]) -> Vec<Reply> {
        // A wave goes as one INGEST_BATCH now and then — never under a
        // fault plan, where a rejected batch may have landed in part.
        if !wave.is_empty() && !self.faulted && self.side.random_bool(0.3) {
            let (n, _) = self.retry(at, |c| c.ingest_batch(wave.to_vec()));
            assert_eq!(n as usize, wave.len(), "{at}: snippets INGEST_BATCH ingested");
            self.acked += u64::from(n);
            self.counts.batches += 1;
            return wave.iter().map(|_| Reply::Batched).collect();
        }
        let mut replies = Vec::with_capacity(wave.len());
        for s in wave {
            let ((story, _), _) = self.retry(at, |c| c.ingest_backoff(s, BackoffPolicy::default()));
            self.acked += 1;
            replies.push(Reply::Story(story));
        }
        replies
    }

    fn remove_doc(&mut self, at: &str, doc: DocId) -> Option<usize> {
        let (removed, rejected) = self.retry(at, |c| c.remove_doc(doc));
        // Under a fault plan a rejected attempt may have removed part.
        (!rejected).then_some(removed as usize)
    }

    /// QUERY_STORIES. GET_STORY agrees on a story of it, and a story gone
    /// since the last answer (merged away, emptied by a removal) is gone
    /// from GET_STORY too.
    fn partition(&mut self, at: &str) -> Partition {
        let partition = partition_of_summaries(&ok(at, self.client.query_stories()));
        if let Some((id, members)) = partition.get(self.acked as usize % partition.len().max(1)) {
            assert_eq!(&ok(at, self.client.get_story(*id)).members, members, "{at}: GET_STORY of {id}");
        }
        let last = std::mem::replace(&mut self.served, partition.clone());
        for (id, _) in last.iter().filter(|(id, _)| partition.binary_search_by_key(id, |(p, _)| *p).is_err()) {
            let reply = ok(at, self.client.request(&Request::GetStory(*id)));
            assert_eq!(reply, Response::from_error(&Error::UnknownStory(*id)), "{at}: GET_STORY of gone {id}");
            self.counts.vanished += 1;
        }
        partition
    }

    fn lifecycle(&mut self) -> Option<Lifecycle> {
        let ops = self.plan.lifecycle;
        if ops.is_empty() || !self.side.random_bool(LIFECYCLE_RATE) {
            return None;
        }
        Some(ops[self.side.random_range(0..ops.len())])
    }

    fn run_lifecycle(&mut self, at: &str, op: Lifecycle, oracle: &StoryPivot) {
        match op {
            Lifecycle::Restart => self.restart(at, oracle),
            Lifecycle::Kill => self.kill(at),
            Lifecycle::Follow => self.follow(at, oracle),
            Lifecycle::KillFollower => {
                self.follow(at, oracle);
                self.follower.take().expect("following").kill();
                self.counts.follower_kills += 1;
            }
        }
    }

    fn finish(&mut self, at: &str, oracle: &StoryPivot, tally: &mut Tally) {
        if self.plan.follower.is_some() {
            self.follow(at, oracle);
            let follower = self.follower.take().expect("following");
            ok(at, ok(at, Client::connect(follower.addr)).shutdown());
            follower.exits_cleanly(at);
        }
        self.check_metrics(at);
        self.check_band(at);
        // Under the plan a drain's checkpoint may fail: a faulted
        // `pivotd` ends its life by `kill -9`, and comes back whole.
        if self.faulted && self.plan.leader.is_some() {
            self.kill(at);
            assert_eq!(self.partition(at), oracle.story_partition(), "{at}: the recovered partition");
        }
        self.shutdown(at);
        tally.served = self.counts;
    }
}
