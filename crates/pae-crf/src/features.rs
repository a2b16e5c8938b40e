//! Feature templates and interning.
//!
//! The templates follow the paper's §VI-D exactly: *"for a given
//! token/word in position t (w\[t\]) we generate the following features:
//! the word w\[t\], the words in a window of size K around w\[t\], the
//! part-of-speech (pos) tags of such words, the concatenation of the pos
//! of those words, and the sentence number."*
//!
//! Extraction is string-free on the hot path: template prefixes
//! (`"w[-2]="`, `"p[1]="`, …) are pre-rendered at extractor
//! construction and feature strings are assembled in a caller-provided
//! [`ExtractScratch`] buffer, so encoding a token performs no heap
//! allocation beyond interning genuinely new features.

use std::collections::HashMap;
use std::fmt::Write as _;

use pae_fst::Fst;

use crate::data::FeatId;

/// Feature-string index: grow-only interner during training, or a
/// read-only double-array automaton when rehydrated from a frozen
/// bundle.
///
/// During training, unseen feature strings are assigned fresh ids; at
/// decode time the index is frozen and unseen features are skipped
/// (they carry zero weight anyway). The interned form's reverse table
/// ([`name_of`]) doubles string storage but lets callers rebuild
/// sub-indices without re-extracting (see `pae-core`'s cross-cycle
/// training cache).
///
/// The frozen form ([`from_fst`]) answers [`get`] straight off a
/// `name → id` automaton — typically borrowing a loaded bundle's
/// bytes, so no per-feature strings or hash table are ever built.
/// [`intern`] and [`name_of`] are training/debug operations and panic
/// on a frozen index.
///
/// [`name_of`]: FeatureIndex::name_of
/// [`from_fst`]: FeatureIndex::from_fst
/// [`get`]: FeatureIndex::get
/// [`intern`]: FeatureIndex::intern
#[derive(Debug, Clone)]
pub struct FeatureIndex {
    repr: IndexRepr,
}

#[derive(Debug, Clone)]
enum IndexRepr {
    Interned {
        map: HashMap<String, FeatId>,
        names: Vec<String>,
    },
    Frozen {
        fst: Fst,
    },
}

impl Default for FeatureIndex {
    fn default() -> Self {
        FeatureIndex {
            repr: IndexRepr::Interned {
                map: HashMap::new(),
                names: Vec::new(),
            },
        }
    }
}

impl FeatureIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an index by interning `names` in order (ids `0..n`).
    pub fn from_names<'a, I: IntoIterator<Item = &'a str>>(names: I) -> Self {
        let mut idx = Self::new();
        for n in names {
            idx.intern(n);
        }
        idx
    }

    /// Wraps a compiled `name → id` automaton as a frozen, read-only
    /// index. Ids must be dense (`0..n_keys`), as produced by
    /// serializing an interned index.
    pub fn from_fst(fst: Fst) -> Self {
        FeatureIndex {
            repr: IndexRepr::Frozen { fst },
        }
    }

    /// Interns `feature`, assigning a fresh id when unseen.
    ///
    /// # Panics
    /// On a frozen index — interning is a training-time operation.
    pub fn intern(&mut self, feature: &str) -> FeatId {
        match &mut self.repr {
            IndexRepr::Interned { map, names } => {
                if let Some(&id) = map.get(feature) {
                    return id;
                }
                let id = map.len() as FeatId;
                map.insert(feature.to_owned(), id);
                names.push(feature.to_owned());
                id
            }
            IndexRepr::Frozen { .. } => {
                panic!("cannot intern into a frozen feature index (training-time only)")
            }
        }
    }

    /// Looks up `feature` without interning.
    pub fn get(&self, feature: &str) -> Option<FeatId> {
        match &self.repr {
            IndexRepr::Interned { map, .. } => map.get(feature).copied(),
            IndexRepr::Frozen { fst } => fst.get(feature.as_bytes()).map(|v| v as FeatId),
        }
    }

    /// The feature string that was assigned `id`.
    ///
    /// # Panics
    /// When `id` was never assigned, or on a frozen index (the reverse
    /// table is a training/debug facility and is not materialized when
    /// loading from a bundle).
    pub fn name_of(&self, id: FeatId) -> &str {
        match &self.repr {
            IndexRepr::Interned { names, .. } => &names[id as usize],
            IndexRepr::Frozen { .. } => {
                panic!("frozen feature index has no reverse table (training-time only)")
            }
        }
    }

    /// Number of distinct features.
    pub fn len(&self) -> usize {
        match &self.repr {
            IndexRepr::Interned { map, .. } => map.len(),
            IndexRepr::Frozen { fst } => fst.n_keys(),
        }
    }

    /// True when no feature has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Template configuration.
#[derive(Debug, Clone)]
pub struct FeatureTemplates {
    /// Window radius K (the paper's window of size K; default 2).
    pub window: usize,
    /// Cap for the sentence-number feature: sentences beyond the cap
    /// share one bucket (titles vs early vs late description text).
    pub max_sentence_bucket: usize,
}

impl Default for FeatureTemplates {
    fn default() -> Self {
        FeatureTemplates {
            window: 2,
            max_sentence_bucket: 8,
        }
    }
}

/// Pre-rendered template prefixes for one window radius, so the hot
/// path never formats offsets.
#[derive(Debug, Clone, Default)]
struct TemplatePrefixes {
    window: usize,
    /// `"w[d]="` for `d` in `-k..=k`, indexed by `d + k`.
    word: Vec<String>,
    /// `"p[d]="` for `d` in `-k..=k`, indexed by `d + k`.
    pos: Vec<String>,
}

impl TemplatePrefixes {
    fn build(window: usize) -> Self {
        let k = window as isize;
        TemplatePrefixes {
            window,
            word: (-k..=k).map(|d| format!("w[{d}]=")).collect(),
            pos: (-k..=k).map(|d| format!("p[{d}]=")).collect(),
        }
    }
}

/// Reusable string buffers for feature assembly. One per encoding
/// thread; contents are scratch — callers never read them directly.
#[derive(Debug, Clone, Default)]
pub struct ExtractScratch {
    feat: String,
    pseq: String,
}

/// Generates feature strings for every position of a sentence.
///
/// `words` and `pos` are parallel; `sentence_number` is the index of the
/// sentence within its document.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    /// Template configuration.
    pub templates: FeatureTemplates,
    prefixes: TemplatePrefixes,
}

impl Default for FeatureExtractor {
    fn default() -> Self {
        Self::new(FeatureTemplates::default())
    }
}

impl FeatureExtractor {
    /// Extractor with the given templates.
    pub fn new(templates: FeatureTemplates) -> Self {
        let prefixes = TemplatePrefixes::build(templates.window);
        FeatureExtractor {
            templates,
            prefixes,
        }
    }

    /// Visits each feature string of position `t`, in template order,
    /// assembling them in `scratch` (no allocation on the happy path).
    fn each_feature(
        &self,
        words: &[&str],
        pos: &[&str],
        sentence_number: usize,
        t: usize,
        scratch: &mut ExtractScratch,
        mut visit: impl FnMut(&str),
    ) {
        debug_assert_eq!(words.len(), pos.len());
        // `templates` is a public field, so it can drift from the
        // prefixes built at construction; rebuild locally if so (cold
        // path — none of the pipeline mutates templates in place).
        let rebuilt;
        let pre = if self.prefixes.window == self.templates.window {
            &self.prefixes
        } else {
            rebuilt = TemplatePrefixes::build(self.templates.window);
            &rebuilt
        };
        let k = self.templates.window as isize;
        let n = words.len() as isize;
        let ti = t as isize;

        visit("bias");
        // Word and window words.
        for d in -k..=k {
            let idx = ti + d;
            let w = if idx < 0 {
                "<s>"
            } else if idx >= n {
                "</s>"
            } else {
                words[idx as usize]
            };
            scratch.feat.clear();
            scratch.feat.push_str(&pre.word[(d + k) as usize]);
            scratch.feat.push_str(w);
            visit(&scratch.feat);
        }
        // PoS of the window words.
        scratch.pseq.clear();
        for d in -k..=k {
            let idx = ti + d;
            let p = if idx < 0 {
                "BOS"
            } else if idx >= n {
                "EOS"
            } else {
                pos[idx as usize]
            };
            scratch.feat.clear();
            scratch.feat.push_str(&pre.pos[(d + k) as usize]);
            scratch.feat.push_str(p);
            visit(&scratch.feat);
            if !scratch.pseq.is_empty() {
                scratch.pseq.push('|');
            }
            scratch.pseq.push_str(p);
        }
        // Concatenation of the window PoS tags.
        scratch.feat.clear();
        scratch.feat.push_str("pseq=");
        scratch.feat.push_str(&scratch.pseq);
        visit(&scratch.feat);
        // Sentence number (bucketed).
        let bucket = sentence_number.min(self.templates.max_sentence_bucket);
        scratch.feat.clear();
        let _ = write!(scratch.feat, "sent={bucket}");
        visit(&scratch.feat);
    }

    /// Produces the feature strings for position `t` (allocating; the
    /// encode paths below are the allocation-free consumers).
    pub fn features_at(
        &self,
        words: &[&str],
        pos: &[&str],
        sentence_number: usize,
        t: usize,
    ) -> Vec<String> {
        let k = self.templates.window;
        let mut feats = Vec::with_capacity((4 * k + 2) + 3);
        let mut scratch = ExtractScratch::default();
        self.each_feature(words, pos, sentence_number, t, &mut scratch, |f| {
            feats.push(f.to_owned())
        });
        feats
    }

    /// Encodes a full sentence, interning new features.
    pub fn encode_train(
        &self,
        words: &[&str],
        pos: &[&str],
        sentence_number: usize,
        index: &mut FeatureIndex,
    ) -> Vec<Vec<FeatId>> {
        let mut out = Vec::new();
        let mut scratch = ExtractScratch::default();
        self.encode_train_into(words, pos, sentence_number, index, &mut scratch, &mut out);
        out
    }

    /// [`encode_train`](Self::encode_train) into reusable buffers: the
    /// inner id vectors of `out` keep their capacity across sentences.
    pub fn encode_train_into(
        &self,
        words: &[&str],
        pos: &[&str],
        sentence_number: usize,
        index: &mut FeatureIndex,
        scratch: &mut ExtractScratch,
        out: &mut Vec<Vec<FeatId>>,
    ) {
        out.resize_with(words.len(), Vec::new);
        for t in 0..words.len() {
            let (head, tail) = out.split_at_mut(t);
            let _ = head;
            let ids = &mut tail[0];
            ids.clear();
            self.each_feature(words, pos, sentence_number, t, scratch, |f| {
                ids.push(index.intern(f))
            });
        }
    }

    /// Encodes a sentence against a frozen index (unseen features skipped).
    pub fn encode(
        &self,
        words: &[&str],
        pos: &[&str],
        sentence_number: usize,
        index: &FeatureIndex,
    ) -> Vec<Vec<FeatId>> {
        let mut out = Vec::new();
        let mut scratch = ExtractScratch::default();
        self.encode_into(words, pos, sentence_number, index, &mut scratch, &mut out);
        out
    }

    /// [`encode`](Self::encode) into reusable buffers.
    pub fn encode_into(
        &self,
        words: &[&str],
        pos: &[&str],
        sentence_number: usize,
        index: &FeatureIndex,
        scratch: &mut ExtractScratch,
        out: &mut Vec<Vec<FeatId>>,
    ) {
        out.resize_with(words.len(), Vec::new);
        for t in 0..words.len() {
            let (_, tail) = out.split_at_mut(t);
            let ids = &mut tail[0];
            ids.clear();
            self.each_feature(words, pos, sentence_number, t, scratch, |f| {
                if let Some(id) = index.get(f) {
                    ids.push(id);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_assigns_dense_ids() {
        let mut idx = FeatureIndex::new();
        assert_eq!(idx.intern("a"), 0);
        assert_eq!(idx.intern("b"), 1);
        assert_eq!(idx.intern("a"), 0);
        assert_eq!(idx.get("b"), Some(1));
        assert_eq!(idx.get("c"), None);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.name_of(0), "a");
        assert_eq!(idx.name_of(1), "b");
    }

    #[test]
    fn from_names_reproduces_interning_order() {
        let mut a = FeatureIndex::new();
        for f in ["x", "y", "z"] {
            a.intern(f);
        }
        let b = FeatureIndex::from_names(["x", "y", "z"]);
        assert_eq!(b.len(), 3);
        for f in ["x", "y", "z"] {
            assert_eq!(a.get(f), b.get(f));
        }
    }

    #[test]
    fn templates_cover_paper_features() {
        let ex = FeatureExtractor::default();
        let words = ["weight", ":", "2", "kg"];
        let pos = ["NN", "SYM", "CD", "UNIT"];
        let feats = ex.features_at(&words, &pos, 0, 2);
        // Current word.
        assert!(feats.contains(&"w[0]=2".to_owned()));
        // Window words incl. boundaries.
        assert!(feats.contains(&"w[-2]=weight".to_owned()));
        assert!(feats.contains(&"w[2]=</s>".to_owned()));
        // PoS tags and their concatenation.
        assert!(feats.contains(&"p[1]=UNIT".to_owned()));
        assert!(feats.contains(&"pseq=NN|SYM|CD|UNIT|EOS".to_owned()));
        // Sentence number.
        assert!(feats.contains(&"sent=0".to_owned()));
    }

    #[test]
    fn sentence_bucket_caps() {
        let ex = FeatureExtractor::default();
        let feats = ex.features_at(&["x"], &["NN"], 99, 0);
        assert!(feats.contains(&"sent=8".to_owned()));
    }

    #[test]
    fn encode_roundtrip_and_frozen_decode() {
        let ex = FeatureExtractor::default();
        let words = ["red", "bag"];
        let pos = ["JJ", "NN"];
        let mut idx = FeatureIndex::new();
        let enc = ex.encode_train(&words, &pos, 0, &mut idx);
        assert_eq!(enc.len(), 2);
        assert!(!enc[0].is_empty());

        // Decoding the same sentence against the frozen index must
        // produce identical ids.
        let dec = ex.encode(&words, &pos, 0, &idx);
        assert_eq!(enc, dec);

        // An unseen sentence loses only its unseen features.
        let dec2 = ex.encode(&["blue", "bag"], &pos, 0, &idx);
        assert!(dec2[0].len() < enc[0].len());
        assert!(!dec2[0].is_empty(), "shared window features survive");
    }

    #[test]
    fn buffered_encoding_matches_fresh_encoding() {
        let ex = FeatureExtractor::default();
        let sentences: Vec<(Vec<&str>, Vec<&str>)> = vec![
            (vec!["deep", "red", "bag"], vec!["JJ", "JJ", "NN"]),
            (vec!["bag"], vec!["NN"]),
            (
                vec!["weight", ":", "2", "kg"],
                vec!["NN", "SYM", "CD", "NN"],
            ),
        ];
        let mut fresh_idx = FeatureIndex::new();
        let fresh: Vec<_> = sentences
            .iter()
            .enumerate()
            .map(|(i, (w, p))| ex.encode_train(w, p, i, &mut fresh_idx))
            .collect();

        // Same sentences through the reusable-buffer path, deliberately
        // reusing one scratch and one output across all of them.
        let mut idx = FeatureIndex::new();
        let mut scratch = ExtractScratch::default();
        let mut out = Vec::new();
        for (i, (w, p)) in sentences.iter().enumerate() {
            ex.encode_train_into(w, p, i, &mut idx, &mut scratch, &mut out);
            assert_eq!(out, fresh[i], "sentence {i}");
        }
        assert_eq!(idx.len(), fresh_idx.len());
    }

    #[test]
    fn stale_prefixes_rebuild_on_template_drift() {
        // Mutating the public field after construction must not produce
        // wrong features — the extractor detects the drift.
        let mut ex = FeatureExtractor::default();
        ex.templates.window = 1;
        let feats = ex.features_at(&["a", "b"], &["X", "Y"], 0, 0);
        assert!(feats.contains(&"w[-1]=<s>".to_owned()));
        assert!(feats.contains(&"w[1]=b".to_owned()));
        assert!(!feats.iter().any(|f| f.starts_with("w[2]=")));
        assert!(feats.contains(&"pseq=BOS|X|Y".to_owned()));
    }

    #[test]
    fn window_zero_still_has_word_and_pos() {
        let ex = FeatureExtractor::new(FeatureTemplates {
            window: 0,
            max_sentence_bucket: 4,
        });
        let feats = ex.features_at(&["x"], &["NN"], 1, 0);
        assert!(feats.contains(&"w[0]=x".to_owned()));
        assert!(feats.contains(&"p[0]=NN".to_owned()));
        assert!(feats.contains(&"pseq=NN".to_owned()));
    }
}
