//! End-to-end replication: slices of the differential driver
//! (`lockstep`) through an in-process leader and a `pivotd --leader`
//! follower. The follower bootstraps from a leader that already has
//! state, tails its WAL and, once caught up, serves exactly the oracle
//! engine's partition, reports zero replication lag on every shard, and
//! redirects INGEST and ADD_SOURCE with a NOT_LEADER naming the leader —
//! also after a `kill -9` mid-tail and a restart on its directories.

#[path = "../../../tests/lockstep/mod.rs"]
mod lockstep;

use lockstep::{Deployment, Lifecycle, Via};

fn followed(lifecycle: &'static [Lifecycle]) -> Via {
    Via::Served(Deployment {
        shards: 2,
        follower: Some(env!("CARGO_BIN_EXE_pivotd")),
        lifecycle,
        ..Deployment::default()
    })
}

#[test]
fn replica_converges_redirects_writes_and_reports_lag() {
    let via = followed(&[Lifecycle::Follow]);
    let Some(tally) = lockstep::slice_via(via, "followed", 1, |_| true) else { return };
    // A replicated removal shrinks (or drops) stories on the follower too.
    assert!(tally.served.follower_syncs > 2 && tally.docs_removed > 0, "{tally:?}");
}

#[test]
fn replica_killed_mid_tail_converges_after_restart() {
    let via = followed(&[Lifecycle::Follow, Lifecycle::KillFollower]);
    let Some(tally) = lockstep::slice_via(via, "follower kill", 1, |_| true) else { return };
    assert!(tally.served.follower_kills > 0, "the follower must be killed mid-tail: {tally:?}");
}
