//! Dictionary-based named entity recognition.
//!
//! The OpenCalais stand-in for entity annotations: a gazetteer maps
//! canonical entities (with aliases) to [`EntityId`]s and recognizes
//! their mentions in tokenized text. Matching happens over *normalized
//! token sequences*, so token boundaries are respected by construction
//! ("Ukraine" never matches inside "Ukrainian") and casing/possessives
//! are already handled by the tokenizer.

use std::collections::HashMap;

use storypivot_types::EntityId;

use crate::ahocorasick::{AhoCorasick, AhoCorasickBuilder};
use crate::tokenize::Token;

/// Separator byte between tokens in the match buffer. Never appears in
/// normalized tokens (it is a control character).
const SEP: u8 = 0x1f;

/// An entity mention found in a token stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecognizedEntity {
    /// The recognized entity.
    pub entity: EntityId,
    /// Index of the first covered token.
    pub token_start: usize,
    /// Index one past the last covered token.
    pub token_end: usize,
}

/// Builder for [`Gazetteer`].
#[derive(Debug, Default)]
pub struct GazetteerBuilder {
    /// (normalized alias token sequence, entity) pairs.
    aliases: Vec<(Vec<String>, EntityId)>,
    canonical: HashMap<EntityId, String>,
}

impl GazetteerBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an entity under its canonical name plus aliases.
    ///
    /// Alias strings are tokenized with the same tokenizer used on
    /// documents, so "Malaysia Airlines", "MALAYSIA airlines" and
    /// "malaysia airlines" are the same alias.
    pub fn add_entity(&mut self, id: EntityId, canonical: &str, aliases: &[&str]) -> &mut Self {
        self.canonical.insert(id, canonical.to_string());
        let mut names = vec![canonical];
        names.extend_from_slice(aliases);
        for name in names {
            let toks: Vec<String> = crate::tokenize::tokenize(name)
                .into_iter()
                .map(|t| t.norm)
                .collect();
            if !toks.is_empty() {
                self.aliases.push((toks, id));
            }
        }
        self
    }

    /// Compile the gazetteer.
    pub fn build(&self) -> Gazetteer {
        let mut ac = AhoCorasickBuilder::new();
        let mut pattern_entities = Vec::with_capacity(self.aliases.len());
        for (toks, id) in &self.aliases {
            let mut pat = Vec::new();
            for (i, t) in toks.iter().enumerate() {
                if i > 0 {
                    pat.push(SEP);
                }
                pat.extend_from_slice(t.as_bytes());
            }
            // Anchor with separators so aliases match whole tokens only.
            let mut anchored = vec![SEP];
            anchored.extend_from_slice(&pat);
            anchored.push(SEP);
            ac.add_pattern(&anchored);
            pattern_entities.push(*id);
        }
        Gazetteer {
            automaton: ac.build(),
            pattern_entities,
            canonical: self.canonical.clone(),
        }
    }
}

/// Compiled entity recognizer.
///
/// ```
/// use storypivot_text::{GazetteerBuilder, tokenize};
/// use storypivot_types::EntityId;
/// let mut b = GazetteerBuilder::new();
/// b.add_entity(EntityId::new(0), "Ukraine", &["UKR"]);
/// b.add_entity(EntityId::new(1), "United Nations", &["UN", "U.N."]);
/// let g = b.build();
/// let toks = tokenize("Ukraine asked the U.N. for help");
/// let found = g.recognize(&toks);
/// assert_eq!(found.len(), 2);
/// assert_eq!(found[0].entity, EntityId::new(0));
/// assert_eq!(found[1].entity, EntityId::new(1));
/// ```
#[derive(Debug, Clone)]
pub struct Gazetteer {
    automaton: AhoCorasick,
    pattern_entities: Vec<EntityId>,
    canonical: HashMap<EntityId, String>,
}

impl Gazetteer {
    /// Number of alias patterns compiled in.
    pub fn alias_count(&self) -> usize {
        self.pattern_entities.len()
    }

    /// Canonical display name of an entity, if registered.
    pub fn canonical_name(&self, id: EntityId) -> Option<&str> {
        self.canonical.get(&id).map(String::as_str)
    }

    /// Recognize entity mentions in a token stream (leftmost-longest,
    /// non-overlapping).
    pub fn recognize(&self, tokens: &[Token]) -> Vec<RecognizedEntity> {
        if tokens.is_empty() || self.pattern_entities.is_empty() {
            return Vec::new();
        }
        // Build the separator-delimited buffer and remember where each
        // token starts inside it.
        let mut buf = Vec::with_capacity(tokens.len() * 8);
        let mut token_byte_start = Vec::with_capacity(tokens.len());
        buf.push(SEP);
        for t in tokens {
            token_byte_start.push(buf.len());
            buf.extend_from_slice(t.norm.as_bytes());
            buf.push(SEP);
        }

        // Each anchored pattern includes the separators on both sides, so
        // adjacent mentions *share* a separator byte. Leftmost-longest
        // selection therefore runs on the inner spans (separators
        // stripped), where adjacency is legal but overlap is not.
        let mut best_at: HashMap<usize, (usize, usize)> = HashMap::new(); // inner_start -> (inner_end, pattern)
        for m in self.automaton.find_all(&buf) {
            let (inner_start, inner_end) = (m.start + 1, m.end - 1);
            best_at
                .entry(inner_start)
                .and_modify(|cur| {
                    if inner_end > cur.0 {
                        *cur = (inner_end, m.pattern);
                    }
                })
                .or_insert((inner_end, m.pattern));
        }
        let mut starts: Vec<usize> = best_at.keys().copied().collect();
        starts.sort_unstable();

        let mut out = Vec::new();
        let mut cursor = 0usize;
        for s in starts {
            let (e, pattern) = best_at[&s];
            if s < cursor {
                continue;
            }
            cursor = e;
            let token_start = token_byte_start
                .binary_search(&s)
                .expect("match is token-aligned");
            let token_end = match token_byte_start.binary_search(&e) {
                Ok(i) => i,  // next token starts exactly at the end
                Err(i) => i, // end falls at the last covered token's tail
            };
            out.push(RecognizedEntity {
                entity: self.pattern_entities[pattern],
                token_start,
                token_end,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokenize;

    fn sample() -> Gazetteer {
        let mut b = GazetteerBuilder::new();
        b.add_entity(EntityId::new(0), "Ukraine", &["UKR"]);
        b.add_entity(EntityId::new(1), "Russia", &["RUS", "Russian Federation"]);
        b.add_entity(EntityId::new(2), "Malaysia Airlines", &["MAL", "Malaysia Airlines Flight 17", "MH17"]);
        b.add_entity(EntityId::new(3), "United Nations", &["UN", "U.N."]);
        b.build()
    }

    #[test]
    fn single_token_entities() {
        let g = sample();
        let toks = tokenize("Ukraine and Russia traded accusations");
        let found = g.recognize(&toks);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].entity, EntityId::new(0));
        assert_eq!((found[0].token_start, found[0].token_end), (0, 1));
        assert_eq!(found[1].entity, EntityId::new(1));
        assert_eq!((found[1].token_start, found[1].token_end), (2, 3));
    }

    #[test]
    fn multi_token_alias_prefers_longest() {
        let g = sample();
        let toks = tokenize("Malaysia Airlines Flight 17 was shot down");
        let found = g.recognize(&toks);
        // The 4-token alias wins over the 2-token canonical name.
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].entity, EntityId::new(2));
        assert_eq!((found[0].token_start, found[0].token_end), (0, 4));
    }

    #[test]
    fn no_substring_matches_inside_tokens() {
        let g = sample();
        // "Ukrainian" must not trigger "Ukraine"; "UNESCO" must not
        // trigger "UN".
        let toks = tokenize("Ukrainian UNESCO delegates");
        assert!(g.recognize(&toks).is_empty());
    }

    #[test]
    fn dotted_abbreviation_matches() {
        let g = sample();
        let toks = tokenize("Ukraine asked the U.N. aviation authority");
        let found = g.recognize(&toks);
        assert_eq!(found.len(), 2);
        assert_eq!(found[1].entity, EntityId::new(3));
    }

    #[test]
    fn case_insensitive_matching() {
        let g = sample();
        let toks = tokenize("UKRAINE ukraine UkRaInE");
        assert_eq!(g.recognize(&toks).len(), 3);
    }

    #[test]
    fn mentions_at_text_boundaries() {
        let g = sample();
        let toks = tokenize("Russia");
        let found = g.recognize(&toks);
        assert_eq!(found.len(), 1);
        let toks = tokenize("sanctions against Russia");
        let found = g.recognize(&toks);
        assert_eq!(found.len(), 1);
        assert_eq!((found[0].token_start, found[0].token_end), (2, 3));
    }

    #[test]
    fn empty_inputs() {
        let g = sample();
        assert!(g.recognize(&[]).is_empty());
        let empty = GazetteerBuilder::new().build();
        assert!(empty.recognize(&tokenize("Ukraine")).is_empty());
    }

    #[test]
    fn canonical_names_resolve() {
        let g = sample();
        assert_eq!(g.canonical_name(EntityId::new(2)), Some("Malaysia Airlines"));
        assert_eq!(g.canonical_name(EntityId::new(99)), None);
        assert!(g.alias_count() >= 9);
    }

    #[test]
    fn repeated_mentions_all_found() {
        let g = sample();
        let toks = tokenize("Ukraine, Ukraine, and again Ukraine");
        assert_eq!(g.recognize(&toks).len(), 3);
    }
}
