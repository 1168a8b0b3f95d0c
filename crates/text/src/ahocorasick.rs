//! Aho–Corasick multi-pattern string matching.
//!
//! The gazetteer must locate thousands of entity aliases in every
//! document; scanning once with an Aho–Corasick automaton is `O(text +
//! matches)` regardless of dictionary size, where naive per-alias search
//! would be `O(text × aliases)`. Built from scratch: byte-level trie,
//! BFS failure links, merged output sets.

use std::collections::{HashMap, VecDeque};

/// A match produced by [`AhoCorasick::find_all`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Index of the matched pattern (insertion order in the builder).
    pub pattern: usize,
    /// Byte offset of the match start in the haystack.
    pub start: usize,
    /// Byte offset one past the match end.
    pub end: usize,
}

#[derive(Debug, Clone, Default)]
struct Node {
    children: HashMap<u8, u32>,
    fail: u32,
    /// Patterns ending at this node (own + inherited via failure links).
    outputs: Vec<u32>,
}

/// Builder for [`AhoCorasick`].
#[derive(Debug, Default)]
pub struct AhoCorasickBuilder {
    patterns: Vec<Vec<u8>>,
}

impl AhoCorasickBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one pattern; returns its index. Empty patterns are accepted
    /// but never match.
    pub fn add_pattern<P: AsRef<[u8]>>(&mut self, pattern: P) -> usize {
        self.patterns.push(pattern.as_ref().to_vec());
        self.patterns.len() - 1
    }

    /// Add many patterns.
    pub fn add_patterns<I, P>(&mut self, patterns: I) -> &mut Self
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        for p in patterns {
            self.add_pattern(p);
        }
        self
    }

    /// Construct the automaton.
    pub fn build(&self) -> AhoCorasick {
        let mut nodes = vec![Node::default()]; // root = 0

        // Phase 1: trie.
        for (idx, pat) in self.patterns.iter().enumerate() {
            if pat.is_empty() {
                continue;
            }
            let mut cur = 0u32;
            for &b in pat {
                let next = match nodes[cur as usize].children.get(&b) {
                    Some(&n) => n,
                    None => {
                        let n = nodes.len() as u32;
                        nodes.push(Node::default());
                        nodes[cur as usize].children.insert(b, n);
                        n
                    }
                };
                cur = next;
            }
            nodes[cur as usize].outputs.push(idx as u32);
        }

        // Phase 2: failure links via BFS; merge output sets down the links.
        let mut queue = VecDeque::new();
        let root_children: Vec<u32> = nodes[0].children.values().copied().collect();
        for child in root_children {
            nodes[child as usize].fail = 0;
            queue.push_back(child);
        }
        while let Some(u) = queue.pop_front() {
            let transitions: Vec<(u8, u32)> =
                nodes[u as usize].children.iter().map(|(&b, &n)| (b, n)).collect();
            for (b, v) in transitions {
                // Walk failure links of u until a node with a b-child.
                let mut f = nodes[u as usize].fail;
                let fail_target = loop {
                    if let Some(&n) = nodes[f as usize].children.get(&b) {
                        if n != v {
                            break n;
                        }
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = nodes[f as usize].fail;
                };
                nodes[v as usize].fail = fail_target;
                let inherited = nodes[fail_target as usize].outputs.clone();
                nodes[v as usize].outputs.extend(inherited);
                queue.push_back(v);
            }
        }

        AhoCorasick {
            nodes,
            pattern_lens: self.patterns.iter().map(Vec::len).collect(),
        }
    }
}

/// A compiled Aho–Corasick automaton.
///
/// ```
/// use storypivot_text::AhoCorasickBuilder;
/// let mut b = AhoCorasickBuilder::new();
/// b.add_patterns(["he", "she", "his", "hers"]);
/// let ac = b.build();
/// let matches = ac.find_all(b"ushers");
/// // "she" at 1..4, "he" at 2..4, "hers" at 2..6
/// assert_eq!(matches.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    nodes: Vec<Node>,
    pattern_lens: Vec<usize>,
}

impl AhoCorasick {
    /// Number of patterns the automaton was built from.
    pub fn pattern_count(&self) -> usize {
        self.pattern_lens.len()
    }

    /// Advance from `state` on byte `b`, following failure links.
    #[inline]
    fn step(&self, mut state: u32, b: u8) -> u32 {
        loop {
            if let Some(&next) = self.nodes[state as usize].children.get(&b) {
                return next;
            }
            if state == 0 {
                return 0;
            }
            state = self.nodes[state as usize].fail;
        }
    }

    /// Find **all** (possibly overlapping) pattern occurrences.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut matches = Vec::new();
        let mut state = 0u32;
        for (i, &b) in haystack.iter().enumerate() {
            state = self.step(state, b);
            for &pat in &self.nodes[state as usize].outputs {
                let len = self.pattern_lens[pat as usize];
                matches.push(Match {
                    pattern: pat as usize,
                    start: i + 1 - len,
                    end: i + 1,
                });
            }
        }
        matches
    }

    /// Find the leftmost-longest non-overlapping matches: at each
    /// position prefer the longest match starting there, then continue
    /// after its end. This is the semantics the gazetteer wants so that
    /// "United Nations" wins over "United".
    pub fn find_leftmost_longest(&self, haystack: &[u8]) -> Vec<Match> {
        let all = self.find_all(haystack);
        if all.is_empty() {
            return all;
        }
        // Group by start, keep the longest per start.
        let mut best_at: HashMap<usize, Match> = HashMap::new();
        for m in all {
            best_at
                .entry(m.start)
                .and_modify(|cur| {
                    if m.end > cur.end {
                        *cur = m;
                    }
                })
                .or_insert(m);
        }
        let mut starts: Vec<usize> = best_at.keys().copied().collect();
        starts.sort_unstable();
        let mut out = Vec::new();
        let mut cursor = 0usize;
        for s in starts {
            let m = best_at[&s];
            if m.start >= cursor {
                cursor = m.end;
                out.push(m);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(patterns: &[&str]) -> AhoCorasick {
        let mut b = AhoCorasickBuilder::new();
        b.add_patterns(patterns);
        b.build()
    }

    /// Brute-force oracle: find all occurrences of every pattern.
    fn naive_find_all(patterns: &[&str], haystack: &str) -> Vec<Match> {
        let hay = haystack.as_bytes();
        let mut out = Vec::new();
        for (pi, p) in patterns.iter().enumerate() {
            let pb = p.as_bytes();
            if pb.is_empty() || pb.len() > hay.len() {
                continue;
            }
            for start in 0..=hay.len().saturating_sub(pb.len()) {
                if &hay[start..start + pb.len()] == pb {
                    out.push(Match {
                        pattern: pi,
                        start,
                        end: start + pb.len(),
                    });
                }
            }
        }
        out.sort_by_key(|m| (m.end, m.start, m.pattern));
        out
    }

    #[test]
    fn classic_ushers_example() {
        let patterns = ["he", "she", "his", "hers"];
        let ac = build(&patterns);
        let mut got = ac.find_all(b"ushers");
        got.sort_by_key(|m| (m.end, m.start, m.pattern));
        assert_eq!(got, naive_find_all(&patterns, "ushers"));
    }

    #[test]
    fn matches_agree_with_naive_oracle() {
        let patterns = ["a", "ab", "bab", "bc", "bca", "c", "caa"];
        let ac = build(&patterns);
        for hay in ["abccab", "bcaabab", "", "zzz", "aaaa", "cabcabca"] {
            let mut got = ac.find_all(hay.as_bytes());
            got.sort_by_key(|m| (m.end, m.start, m.pattern));
            assert_eq!(got, naive_find_all(&patterns, hay), "haystack {hay:?}");
        }
    }

    #[test]
    fn leftmost_longest_prefers_long_entity() {
        let patterns = ["united", "united nations", "nations"];
        let ac = build(&patterns);
        let got = ac.find_leftmost_longest(b"the united nations met");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].pattern, 1);
        assert_eq!(&b"the united nations met"[got[0].start..got[0].end], b"united nations");
    }

    #[test]
    fn leftmost_longest_non_overlapping() {
        let patterns = ["ab", "bc"];
        let ac = build(&patterns);
        let got = ac.find_leftmost_longest(b"abc");
        // "ab" wins at 0; "bc" overlaps and is dropped.
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].pattern, 0);
    }

    #[test]
    fn duplicate_patterns_both_report() {
        let patterns = ["x", "x"];
        let ac = build(&patterns);
        let got = ac.find_all(b"x");
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn empty_pattern_never_matches() {
        let patterns = ["", "a"];
        let ac = build(&patterns);
        let got = ac.find_all(b"aa");
        assert!(got.iter().all(|m| m.pattern == 1));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn no_patterns_no_matches() {
        let ac = AhoCorasickBuilder::new().build();
        assert!(ac.find_all(b"anything").is_empty());
        assert_eq!(ac.pattern_count(), 0);
    }

    #[test]
    fn overlapping_suffix_patterns() {
        let patterns = ["ukraine", "kraine", "raine"];
        let ac = build(&patterns);
        let got = ac.find_all(b"ukraine");
        assert_eq!(got.len(), 3);
        let mut pats: Vec<usize> = got.iter().map(|m| m.pattern).collect();
        pats.sort_unstable();
        assert_eq!(pats, vec![0, 1, 2]);
    }

    #[test]
    fn randomized_against_oracle() {
        // Deterministic pseudo-random strings over a tiny alphabet to
        // stress failure links.
        let patterns = ["aa", "aba", "bb", "abab", "baa", "b"];
        let ac = build(&patterns);
        let mut seed = 0x9e3779b97f4a7c15u64;
        for _ in 0..50 {
            let mut hay = String::new();
            for _ in 0..40 {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                hay.push(if (seed >> 33) & 1 == 0 { 'a' } else { 'b' });
            }
            let mut got = ac.find_all(hay.as_bytes());
            got.sort_by_key(|m| (m.end, m.start, m.pattern));
            assert_eq!(got, naive_find_all(&patterns, &hay), "haystack {hay}");
        }
    }
}
