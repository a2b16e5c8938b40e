//! Word lexicon: surface form → part-of-speech, used by the lattice
//! tokenizer (segmentation dictionary) and the lexicon PoS tagger.

use std::collections::HashMap;
use std::sync::OnceLock;

use pae_fst::Fst;

use crate::pos::PosTag;

/// A dictionary of known surface forms with their preferred PoS tag.
///
/// For unsegmented languages the lexicon doubles as the segmentation
/// dictionary: the [`crate::tokenize::LatticeTokenizer`] matches the
/// longest lexicon entry at each position via
/// [`Lexicon::longest_match_at`] — a single double-array trie descent,
/// not a per-prefix-length hash probe.
///
/// Two representations share one API:
///
/// * **Building** — a `HashMap` that absorbs [`Lexicon::insert`] calls
///   (the synthesizer's word factory inserts thousands of words one at
///   a time), plus a lazily compiled [`Fst`] used for matching. Any
///   insert invalidates the compiled automaton; it is rebuilt on the
///   next match. Call [`Lexicon::compiled`] once before cloning into
///   tokenizers so the clones share the automaton instead of each
///   recompiling it.
/// * **Frozen** — only the automaton, typically borrowing a loaded
///   bundle's bytes ([`Lexicon::from_fst`]): zero entries are
///   materialized at load time.
///
/// # Invariant
///
/// `max_chars()` is always the character length of the longest entry
/// *currently in* the lexicon — it is derived from the live entry set
/// (or the frozen automaton's header), never accumulated across
/// inserts, so replacing an entry or re-inserting duplicates can not
/// leave a stale bound.
#[derive(Debug, Clone)]
pub struct Lexicon {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    Building {
        entries: HashMap<String, PosTag>,
        /// Compiled on first match after any insert; cleared by inserts.
        compiled: OnceLock<Fst>,
    },
    Frozen {
        fst: Fst,
    },
}

/// Decodes a stored automaton value back into a tag; `None` for values
/// outside the tag inventory (possible only with a corrupt arena).
fn tag_of_value(v: u32) -> Option<PosTag> {
    PosTag::ALL.get(v as usize).copied()
}

impl Default for Lexicon {
    fn default() -> Self {
        Self::new()
    }
}

impl Lexicon {
    /// Creates an empty lexicon.
    pub fn new() -> Self {
        Lexicon {
            repr: Repr::Building {
                entries: HashMap::new(),
                compiled: OnceLock::new(),
            },
        }
    }

    /// Builds a lexicon from `(word, tag)` pairs. Later duplicates win.
    pub fn from_entries<I, S>(entries: I) -> Self
    where
        I: IntoIterator<Item = (S, PosTag)>,
        S: Into<String>,
    {
        let mut lex = Lexicon::new();
        for (w, t) in entries {
            lex.insert(w, t);
        }
        lex
    }

    /// Wraps a compiled automaton (word → tag index, meta = max chars)
    /// as a frozen lexicon without materializing any entries.
    pub fn from_fst(fst: Fst) -> Self {
        Lexicon {
            repr: Repr::Frozen { fst },
        }
    }

    /// Inserts or replaces an entry.
    ///
    /// A frozen lexicon thaws back into building form first (cold
    /// path); a building lexicon just drops its compiled automaton.
    pub fn insert(&mut self, word: impl Into<String>, tag: PosTag) {
        let word = word.into();
        match &mut self.repr {
            Repr::Building { entries, compiled } => {
                entries.insert(word, tag);
                *compiled = OnceLock::new();
            }
            Repr::Frozen { fst } => {
                let mut entries: HashMap<String, PosTag> = fst
                    .iter()
                    .filter_map(|(k, v)| Some((String::from_utf8(k).ok()?, tag_of_value(v)?)))
                    .collect();
                entries.insert(word, tag);
                self.repr = Repr::Building {
                    entries,
                    compiled: OnceLock::new(),
                };
            }
        }
    }

    /// Looks up the tag for `word`.
    pub fn tag_of(&self, word: &str) -> Option<PosTag> {
        match &self.repr {
            Repr::Building { entries, .. } => entries.get(word).copied(),
            Repr::Frozen { fst } => fst.get(word.as_bytes()).and_then(tag_of_value),
        }
    }

    /// True when `word` is a known entry.
    pub fn contains(&self, word: &str) -> bool {
        self.tag_of(word).is_some()
    }

    /// Longest entry matching a prefix of `text[byte_pos..]`, found in
    /// one automaton walk: returns `(match_len_bytes, tag)`.
    ///
    /// Matched entries are complete UTF-8 strings, so `byte_pos +
    /// match_len_bytes` always lands on a character boundary of `text`
    /// when `byte_pos` does.
    pub fn longest_match_at(&self, text: &str, byte_pos: usize) -> Option<(usize, PosTag)> {
        let (len, v) = self
            .compiled()
            .longest_match_at(text.as_bytes(), byte_pos)?;
        Some((len, tag_of_value(v)?))
    }

    /// Longest entry length in characters (0 for an empty lexicon).
    ///
    /// Derived from the current entry set / automaton header, so it is
    /// exact even after replacements (see the type-level invariant).
    pub fn max_chars(&self) -> usize {
        match &self.repr {
            Repr::Building { entries, .. } => {
                entries.keys().map(|w| w.chars().count()).max().unwrap_or(0)
            }
            Repr::Frozen { fst } => fst.meta() as usize,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Building { entries, .. } => entries.len(),
            Repr::Frozen { fst } => fst.n_keys(),
        }
    }

    /// True when the lexicon has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all `(word, tag)` entries.
    ///
    /// Building lexicons yield in unspecified order; frozen ones in
    /// sorted byte order. (Owned items: a frozen lexicon reconstructs
    /// words from the automaton.)
    pub fn iter(&self) -> Box<dyn Iterator<Item = (String, PosTag)> + '_> {
        match &self.repr {
            Repr::Building { entries, .. } => {
                Box::new(entries.iter().map(|(w, &t)| (w.clone(), t)))
            }
            Repr::Frozen { fst } => Box::new(
                fst.iter()
                    .filter_map(|(k, v)| Some((String::from_utf8(k).ok()?, tag_of_value(v)?))),
            ),
        }
    }

    /// Merges `other` into `self`; entries of `other` win on conflict.
    pub fn merge(&mut self, other: &Lexicon) {
        for (w, t) in other.iter() {
            self.insert(w, t);
        }
    }

    /// The compiled matching automaton: word → tag index, header meta
    /// = max entry length in characters.
    ///
    /// Frozen lexicons return their arena as-is. Building lexicons
    /// compile on first call after an insert and cache the result;
    /// clones made *after* this call share the compiled automaton.
    pub fn compiled(&self) -> &Fst {
        match &self.repr {
            Repr::Frozen { fst } => fst,
            Repr::Building { entries, compiled } => compiled.get_or_init(|| {
                let mut pairs: Vec<(&str, u32)> = entries
                    .iter()
                    .map(|(w, &t)| (w.as_str(), t.index() as u32))
                    .collect();
                pairs.sort_unstable_by(|a, b| a.0.as_bytes().cmp(b.0.as_bytes()));
                let max_chars = entries.keys().map(|w| w.chars().count()).max().unwrap_or(0) as u64;
                let pairs: Vec<(&[u8], u32)> =
                    pairs.into_iter().map(|(w, v)| (w.as_bytes(), v)).collect();
                Fst::build(&pairs, max_chars).expect("sorted unique entries always build")
            }),
        }
    }

    /// Entries as a sorted vector — the canonical form used for
    /// equality and bundle encoding.
    fn sorted_entries(&self) -> Vec<(String, PosTag)> {
        let mut v: Vec<(String, PosTag)> = self.iter().collect();
        v.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

impl PartialEq for Lexicon {
    /// Semantic equality over the entry set, regardless of
    /// representation: a frozen lexicon equals the building lexicon it
    /// was compiled from.
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Building { entries: a, .. }, Repr::Building { entries: b, .. }) => a == b,
            (Repr::Frozen { fst: a }, Repr::Frozen { fst: b }) if a == b => true,
            _ => self.sorted_entries() == other.sorted_entries(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut lex = Lexicon::new();
        lex.insert("kg", PosTag::Unit);
        lex.insert("red", PosTag::Adj);
        assert_eq!(lex.tag_of("kg"), Some(PosTag::Unit));
        assert_eq!(lex.tag_of("blue"), None);
        assert!(lex.contains("red"));
        assert_eq!(lex.len(), 2);
    }

    #[test]
    fn max_chars_tracks_longest_entry() {
        let mut lex = Lexicon::new();
        assert_eq!(lex.max_chars(), 0);
        lex.insert("ab", PosTag::Noun);
        lex.insert("abcde", PosTag::Noun);
        lex.insert("x", PosTag::Noun);
        assert_eq!(lex.max_chars(), 5);
    }

    /// The invariant: `max_chars` is the max over the *current* entry
    /// set — replacement and duplicate inserts cannot leave it stale.
    #[test]
    fn max_chars_is_exact_after_replacement_and_duplicates() {
        let mut lex = Lexicon::new();
        lex.insert("abcde", PosTag::Noun);
        lex.insert("abcde", PosTag::Unit); // replace tag, same word
        lex.insert("ab", PosTag::Noun);
        assert_eq!(lex.max_chars(), 5);
        assert_eq!(lex.len(), 2);
        assert_eq!(lex.tag_of("abcde"), Some(PosTag::Unit));
        // Frozen form carries the same bound in its header.
        let frozen = Lexicon::from_fst(lex.compiled().clone());
        assert_eq!(frozen.max_chars(), 5);
    }

    /// `max_chars` counts characters, not bytes, in both reprs.
    #[test]
    fn max_chars_is_in_characters_not_bytes() {
        let lex = Lexicon::from_entries([("ようこそ", PosTag::Other)]);
        assert_eq!(lex.max_chars(), 4);
        let frozen = Lexicon::from_fst(lex.compiled().clone());
        assert_eq!(frozen.max_chars(), 4);
    }

    #[test]
    fn later_duplicates_win() {
        let lex = Lexicon::from_entries([("kg", PosTag::Noun), ("kg", PosTag::Unit)]);
        assert_eq!(lex.tag_of("kg"), Some(PosTag::Unit));
        assert_eq!(lex.len(), 1);
    }

    /// The compiled automaton must agree with the documented
    /// "later duplicates win" semantics.
    #[test]
    fn later_duplicates_win_through_the_fst_path() {
        let lex = Lexicon::from_entries([("kg", PosTag::Noun), ("kg", PosTag::Unit)]);
        assert_eq!(lex.longest_match_at("kg", 0), Some((2, PosTag::Unit)));
        let frozen = Lexicon::from_fst(lex.compiled().clone());
        assert_eq!(frozen.tag_of("kg"), Some(PosTag::Unit));
        assert_eq!(frozen.len(), 1);
    }

    #[test]
    fn merge_prefers_other() {
        let mut a = Lexicon::from_entries([("kg", PosTag::Noun)]);
        let b = Lexicon::from_entries([("kg", PosTag::Unit), ("cm", PosTag::Unit)]);
        a.merge(&b);
        assert_eq!(a.tag_of("kg"), Some(PosTag::Unit));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn longest_match_at_walks_once() {
        let lex = Lexicon::from_entries([
            ("aka", PosTag::Adj),
            ("akane", PosTag::Noun),
            ("kg", PosTag::Unit),
        ]);
        assert_eq!(lex.longest_match_at("akane", 0), Some((5, PosTag::Noun)));
        assert_eq!(lex.longest_match_at("akakg", 0), Some((3, PosTag::Adj)));
        assert_eq!(lex.longest_match_at("akakg", 3), Some((2, PosTag::Unit)));
        assert_eq!(lex.longest_match_at("zzz", 0), None);
        assert_eq!(lex.longest_match_at("akane", 99), None);
    }

    #[test]
    fn frozen_round_trip_is_equal_and_equivalent() {
        let building = Lexicon::from_entries([
            ("aka", PosTag::Adj),
            ("kaban", PosTag::Noun),
            ("kg", PosTag::Unit),
        ]);
        let frozen = Lexicon::from_fst(building.compiled().clone());
        assert_eq!(building, frozen);
        assert_eq!(frozen.len(), 3);
        assert_eq!(frozen.max_chars(), 5);
        assert_eq!(frozen.tag_of("kaban"), Some(PosTag::Noun));
        assert_eq!(frozen.tag_of("kab"), None);
        assert_eq!(
            frozen.longest_match_at("akakaban", 3),
            Some((5, PosTag::Noun))
        );
        // Thaw path: inserting into a frozen lexicon keeps all entries.
        let mut thawed = frozen.clone();
        thawed.insert("cm", PosTag::Unit);
        assert_eq!(thawed.len(), 4);
        assert_eq!(thawed.tag_of("aka"), Some(PosTag::Adj));
        assert_eq!(thawed.tag_of("cm"), Some(PosTag::Unit));
    }

    #[test]
    fn insert_invalidates_compiled_automaton() {
        let mut lex = Lexicon::from_entries([("aka", PosTag::Adj)]);
        assert_eq!(lex.longest_match_at("akane", 0), Some((3, PosTag::Adj)));
        lex.insert("akane", PosTag::Noun);
        assert_eq!(lex.longest_match_at("akane", 0), Some((5, PosTag::Noun)));
    }

    #[test]
    fn multibyte_entries_match_on_byte_offsets() {
        let lex = Lexicon::from_entries([("重さ", PosTag::Noun), ("重", PosTag::Other)]);
        let text = "重さは";
        assert_eq!(
            lex.longest_match_at(text, 0),
            Some(("重さ".len(), PosTag::Noun))
        );
    }
}
