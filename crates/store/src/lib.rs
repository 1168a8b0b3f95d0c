//! Event storage for StoryPivot.
//!
//! Repositories like GDELT and EventRegistry deliver extracted event
//! tuples continuously (paper §1); StoryPivot needs to retrieve them by
//! source and time window (story identification, §2.2) and by document
//! (the demo's add/remove interaction, §4.2.1). This crate is that
//! storage layer. It indexes no entities: alignment builds its entity →
//! story index on every pass, and refinement its entity → snippet
//! postings on every sweep, each from the lists it works on
//! (`storypivot_core::align`, `storypivot_core::refine`).
//!
//! * [`EventStore`] — the canonical snippet repository with per-source
//!   temporal indexes and a document index; supports out-of-order
//!   insertion and removal.
//! * [`window`] — the per-source sliding-window index: a sorted array
//!   of compact entries, so a window is a borrowed slice.
//! * [`codec`] — a hand-rolled length-prefixed binary codec (on
//!   `storypivot_substrate::buf`) for snippets, sources and whole-store
//!   images.
//!
//! Durability is not this crate's job: the journal is
//! `storypivot_substrate::wal` and the on-disk image is
//! `storypivot_core::checkpoint`, which embeds it in place
//! ([`codec::encode_store_into`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod event_store;
pub mod window;

pub use event_store::{EventStore, StoreStats};
pub use window::{WindowEntry, WindowIndex};
