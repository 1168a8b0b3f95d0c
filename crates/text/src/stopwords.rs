//! English stopword filtering.
//!
//! Description terms like "the" or "said" carry no story-discriminating
//! signal; they are removed before TF-IDF weighting. The list is a
//! compact news-oriented superset of the classic SMART stopwords.

/// Sorted list of stopwords (normalized forms, see
/// [`crate::tokenize::tokenize`]). Kept sorted so membership is a binary
/// search over static data — no allocation, no lazy hashing.
static STOPWORDS: &[&str] = &[
    "a", "about", "above", "after", "again", "against", "ago", "all", "also", "am", "among", "an",
    "and", "any", "are", "as", "at", "back", "be", "because", "been", "before", "being", "below",
    "between", "both", "but", "by", "came", "can", "cannot", "come", "could", "day", "days", "did",
    "do", "does", "doing", "down", "during", "each", "early", "even", "every", "few", "first",
    "for", "from", "further", "get", "go", "going", "got", "had", "has", "have", "having", "he",
    "her", "here", "hers", "herself", "him", "himself", "his", "how", "however", "i", "if", "in",
    "into", "is", "it", "its", "itself", "just", "last", "late", "later", "latest", "less", "like",
    "made", "make", "many", "may", "me", "might", "monday", "more", "most", "mr", "mrs", "ms",
    "much", "must", "my", "myself", "near", "new", "news", "next", "no", "nor", "not", "now", "of",
    "off", "officials", "on", "once", "one", "only", "or", "other", "our", "ours", "ourselves",
    "out", "over", "own", "part", "per", "put", "said", "same", "say", "says", "see", "she",
    "should", "since", "so", "some", "still", "such", "take", "than", "that", "the", "their",
    "theirs", "them", "themselves", "then", "there", "these", "they", "this", "those", "three",
    "through", "time", "times", "to", "today", "told", "too", "two", "under", "until", "up",
    "upon", "us", "use", "used", "very", "was", "way", "we", "week", "weeks", "were", "what",
    "when", "where", "which", "while", "who", "whom", "why", "will", "with", "within", "without",
    "would", "year", "years", "yesterday", "yet", "you", "your", "yours", "yourself",
];

/// Whether `word` (already normalized/lowercased) is a stopword.
///
/// ```
/// use storypivot_text::is_stopword;
/// assert!(is_stopword("the"));
/// assert!(!is_stopword("crash"));
/// ```
pub fn is_stopword(word: &str) -> bool {
    STOPWORDS.binary_search(&word).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_is_sorted_and_deduplicated() {
        for w in STOPWORDS.windows(2) {
            assert!(w[0] < w[1], "{:?} must sort before {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn common_words_are_stopwords() {
        for w in ["the", "and", "of", "said", "a", "yourself"] {
            assert!(is_stopword(w), "{w} should be a stopword");
        }
    }

    #[test]
    fn content_words_are_not() {
        for w in ["crash", "plane", "ukraine", "missile", "sanctions", "investigation"] {
            assert!(!is_stopword(w), "{w} should not be a stopword");
        }
    }

    #[test]
    fn lookup_is_exact_not_prefix() {
        assert!(is_stopword("a"));
        assert!(!is_stopword("ab"));
        assert!(!is_stopword(""));
    }
}
