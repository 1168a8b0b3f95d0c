//! Crash-equivalence under deterministic disk-fault injection: slices
//! of the differential driver (`lockstep`) against servers whose
//! `substrate::fault` plan tears WAL appends and fails checkpoint
//! writes. Every request a fault rejects is retried; a rejected
//! mutation must have left no trace, so after every step the served
//! partition equals the uninterrupted oracle engine's, and every
//! acknowledged one must survive SIGKILL. The plans fire the same way
//! under `cargo test` and `cargo test --release`.

#[path = "../../../tests/lockstep/mod.rs"]
mod lockstep;

use lockstep::{Deployment, Lifecycle, Via};

/// In process, on the drawn config: rejected writes leave no trace
/// (append-before-apply), and a rejected registration still burns a
/// source id, so the script goes on with the ids the server granted.
#[test]
fn injected_wal_faults_reject_cleanly_and_retries_converge() {
    let faulted = Via::Served(Deployment {
        shards: 2,
        fsync: "always",
        faults: Some("seed=5,wal_enospc=120,wal_short=80"),
        ..Deployment::default()
    });
    let Some(tally) = lockstep::slice_via(faulted, "wal faults", 1, |c| c.sources >= 4) else { return };
    assert!(tally.served.rejected > 0 && tally.remapped > 0, "the plan must fire: {tally:?}");
}

/// A `pivotd` that runs under torn appends and failed periodic
/// checkpoints, SIGKILLed and restarted clean: replay of the journal
/// (torn appends repaired in place, rejected ones absent) rebuilds the
/// acknowledged partition.
#[test]
fn sigkill_under_fault_plan_recovers_the_exact_partition() {
    let faulted = Via::Served(Deployment {
        shards: 2,
        leader: Some(env!("CARGO_BIN_EXE_pivotd")),
        fsync: "always",
        checkpoint_every_bytes: 4096,
        faults: Some("seed=9,wal_enospc=60,wal_short=60,checkpoint=250"),
        lifecycle: &[Lifecycle::Kill],
        ..Deployment::default()
    });
    let Some(tally) = lockstep::slice_via(faulted, "sigkill faults", 1, |_| true) else { return };
    let served = &tally.served;
    assert!(served.rejected > 0 && served.crashes[0] > 0, "{tally:?}");
}
