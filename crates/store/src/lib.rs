//! Event storage for StoryPivot.
//!
//! Repositories like GDELT and EventRegistry deliver extracted event
//! tuples continuously (paper §1); StoryPivot needs to retrieve them by
//! source and time window (story identification, §2.2), by shared entity
//! (candidate generation for alignment, §2.3), and by document (the
//! demo's add/remove interaction, §4.2.1). This crate is that storage
//! layer:
//!
//! * [`EventStore`] — the canonical snippet repository with per-source
//!   temporal indexes, an entity inverted index, and a document index;
//!   supports out-of-order insertion and removal.
//! * [`window`] — the per-source sliding-window index.
//! * [`inverted`] — a generic inverted index with overlap-counted
//!   candidate retrieval.
//! * [`codec`] — a hand-rolled length-prefixed binary codec (on
//!   `storypivot_substrate::buf`) for snippets, sources and whole-store
//!   images.
//!
//! Durability is not this crate's job: the journal is
//! `storypivot_substrate::wal` and the on-disk image is
//! `storypivot_core::checkpoint`, which embeds [`codec::encode_store`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod event_store;
pub mod inverted;
pub mod window;

pub use event_store::{EventStore, StoreStats};
pub use inverted::InvertedIndex;
pub use window::WindowIndex;
