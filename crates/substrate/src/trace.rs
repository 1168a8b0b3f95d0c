//! A fixed-capacity ring buffer of recent engine events.
//!
//! When a shard worker panics, supervision rebuilds the shard from its
//! checkpoint and journal — which repairs the state but destroys the
//! evidence: the sequence of operations that led up to the poison op is
//! gone. [`TraceRing`] keeps that evidence cheaply. Each shard owns one
//! ring (single-threaded, no locking), pushes a short line per engine
//! event (ingest, align, checkpoint, restart…), and the supervisor
//! dumps the ring — newest events last — before rebuilding, turning a
//! silent two-strike quarantine into a diagnosable artifact.
//!
//! The ring is bounded: pushing beyond capacity evicts the oldest
//! event, and a monotonically increasing sequence number makes the
//! eviction visible in the dump (`seq` gaps at the top mean history was
//! truncated). A push into a full ring writes its detail into the
//! evicted event's buffer, so a ring that has filled once stops
//! allocating.

use std::collections::VecDeque;
use std::fmt::{Display, Write};

/// One traced engine event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic sequence number (0-based, never reused).
    pub seq: u64,
    /// Static event kind label, e.g. `"ingest"` or `"rebuild"`.
    pub label: &'static str,
    /// Free-form detail (ids, sizes, outcomes).
    pub detail: String,
}

/// A bounded ring of [`TraceEvent`]s; see the module docs.
#[derive(Debug, Clone)]
pub struct TraceRing {
    capacity: usize,
    next_seq: u64,
    events: VecDeque<TraceEvent>,
}

impl TraceRing {
    /// A ring holding at most `capacity` events (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            capacity,
            next_seq: 0,
            events: VecDeque::with_capacity(capacity),
        }
    }

    /// Append one event, evicting the oldest when full, and return its
    /// sequence number. `detail` is formatted straight into the event's
    /// buffer — the evicted event's, once the ring is full — so callers
    /// pass `format_args!` rather than a `String`.
    pub fn push(&mut self, label: &'static str, detail: impl Display) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut buf = if self.events.len() == self.capacity {
            self.events
                .pop_front()
                .expect("a full ring has an oldest event")
                .detail
        } else {
            String::new()
        };
        buf.clear();
        write!(buf, "{detail}").expect("formatting into a String cannot fail");
        self.events.push_back(TraceEvent {
            seq,
            label,
            detail: buf,
        });
        seq
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The retention capacity this ring was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever pushed (retained + evicted).
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Drop every retained event (sequence numbers keep counting).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Render the retained events as one line each, oldest first:
    /// `#<seq> <label> <detail>`. A truncation header records how many
    /// older events were evicted.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let evicted = self.next_seq - self.events.len() as u64;
        if evicted > 0 {
            out.push_str(&format!("... {evicted} earlier events evicted ...\n"));
        }
        for e in &self.events {
            out.push_str(&format!("#{:06} {} {}\n", e.seq, e.label, e.detail));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_retains_in_order_up_to_capacity() {
        let mut ring = TraceRing::new(3);
        assert!(ring.is_empty());
        for i in 0..3u64 {
            assert_eq!(ring.push("ev", format!("n={i}")), i);
        }
        assert_eq!(ring.len(), 3);
        let seqs: Vec<u64> = ring.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn overflow_evicts_oldest_and_keeps_sequence() {
        let mut ring = TraceRing::new(2);
        for i in 0..5u64 {
            ring.push("ev", i.to_string());
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.total_pushed(), 5);
        let seqs: Vec<u64> = ring.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        let dump = ring.render();
        assert!(dump.starts_with("... 3 earlier events evicted ..."));
        assert!(dump.contains("#000003 ev 3"));
        assert!(dump.contains("#000004 ev 4"));
    }

    #[test]
    fn a_full_ring_writes_into_the_evicted_buffers() {
        let mut ring = TraceRing::new(3);
        for i in 0..3u64 {
            ring.push("op", format_args!("fp={i:#018x}"));
        }
        let buffers = |ring: &TraceRing| -> Vec<*const u8> {
            let mut ptrs: Vec<*const u8> = ring.iter().map(|e| e.detail.as_ptr()).collect();
            ptrs.sort_unstable();
            ptrs
        };
        let filled = buffers(&ring);
        for i in 3..50u64 {
            ring.push("op", format_args!("fp={i:#018x}"));
            assert_eq!(buffers(&ring), filled, "push {i} allocated");
        }
        let details: Vec<&str> = ring.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(
            details,
            [
                "fp=0x000000000000002f",
                "fp=0x0000000000000030",
                "fp=0x0000000000000031"
            ]
        );
        assert!(ring
            .render()
            .ends_with("#000049 op fp=0x0000000000000031\n"));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut ring = TraceRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push("a", "");
        ring.push("b", "");
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.iter().next().unwrap().label, "b");
    }

    #[test]
    fn clear_keeps_counting() {
        let mut ring = TraceRing::new(4);
        ring.push("a", "");
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.push("b", ""), 1);
        assert_eq!(ring.total_pushed(), 2);
    }
}
