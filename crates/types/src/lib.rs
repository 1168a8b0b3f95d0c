//! Common data model for StoryPivot.
//!
//! This crate defines the vocabulary shared by every other StoryPivot crate:
//! identifiers, timestamps, information [`Snippet`]s, per-source
//! [`Story`]s, cross-source [`GlobalStory`]s, and [`Source`] metadata.
//!
//! The model follows the paper (SIGMOD'15, §2.1): an *information snippet*
//! is the elemental unit of information, extracted from a document. Every
//! snippet carries
//!
//! * a **timestamp** recording when the described real-world event occurred,
//! * a **data source** it originates from, and
//! * a **content**: the entities involved, weighted description terms, an
//!   event type, and a pointer back to the originating document.
//!
//! The canonical example tuple from the paper is
//! `<New York Times, Accident, {Ukraine, Malaysian Airlines}, "Plane Crash",
//! 07/17/2014>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod event_type;
pub mod ids;
pub mod kernel;
pub mod mem;
pub mod snippet;
pub mod source;
pub mod sparse;
pub mod story;
pub mod time;

pub use error::{Error, Result};
pub use event_type::EventType;
pub use ids::{DocId, EntityId, GlobalStoryId, SnippetId, SourceId, StoryId, TermId};
pub use snippet::{Snippet, SnippetBuilder, SnippetContent};
pub use sparse::SparseVec;
pub use source::{Source, SourceKind};
pub use story::{GlobalStory, SnippetRole, Story};
pub use time::{TimeRange, Timestamp, DAY, HOUR, MINUTE};
