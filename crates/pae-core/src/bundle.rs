//! Versioned on-disk form of a [`FrozenModel`]: one self-describing,
//! byte-deterministic artifact, and the only way a serving
//! [`FrozenExtractor`] is built.
//!
//! Schema v3 layout (all integers little-endian):
//!
//! ```text
//! magic "PAEB" | schema_version u32 (=3) | content_hash u64 | n_sections u32
//! [ id u32 | reserved u32 | payload offset u64 | len u64 | fnv1a_words(section) u64 ] * 7
//! pad to 8-byte boundary
//! payload: sections at 8-byte-aligned offsets, zero-padded between
//! ```
//!
//! The string dictionaries — segmentation/PoS lexicon, CRF feature
//! vocabulary, veto blocklist — are stored as flat [`pae_fst`]
//! double-array arenas. [`LoadedBundle::from_shared`] validates the
//! header, the section table, and every per-section hash (word-folded
//! FNV-1a, [`fnv1a_words`]), but decodes nothing;
//! [`LoadedBundle::extractor`] then *borrows* the arenas straight out
//! of the loaded bytes (`Arc<[u8]>` sub-ranges), so cold-start cost is
//! hash + offset validation plus one bulk copy of the numeric CRF
//! parameters — no per-string allocation, no hash-map interning.
//! `content_hash` is FNV-1a over the section table (whose entries embed
//! the per-section hashes), making it a cheap transitive identity for
//! the whole payload.
//!
//! The hashes catch accidental corruption, not a crafted bundle: anyone
//! can recompute them. Readers therefore also validate every section's
//! internal structure (strict: trailing bytes are an error), including
//! the values a loaded automaton can yield — a bad bundle is always a
//! typed [`BundleError`], never a panic at load or serve time.
//!
//! Section inventory (ids are stable; adding a section bumps the
//! schema version): 1 meta, 2 attrs, 3 lexicon, 4 tagger, 5 veto
//! blocklist, 6 semantic freeze, 7 reference stats. The last holds the
//! freeze-time [`ReferenceStats`] the serving quality monitor scores
//! live traffic against; its body starts with a presence flag (like
//! the semantic section), so a model without reference stats still
//! encodes deterministically and loads in "no-reference" mode.

use std::path::Path;
use std::sync::Arc;

use pae_fst::Fst;
use pae_synth::Language;
use pae_text::{Lexicon, LexiconPosTagger, SentenceSplitter};

use crate::cleaning::SemanticFreeze;
use crate::frozen::{
    blocklist_key, ConfigEcho, ExtractBackend, FrozenExtractor, FrozenModel, FrozenTagger,
};
use crate::quality::{AttrReference, BackendReference, ReferenceStats, CONF_BUCKETS, LEN_BUCKETS};
use crate::tagger::TrainedTagger;
use crate::trainset::LabelSpace;

/// Leading magic bytes of every bundle.
pub const BUNDLE_MAGIC: [u8; 4] = *b"PAEB";
/// The bundle schema version this build reads and writes.
pub const BUNDLE_SCHEMA_VERSION: u32 = 3;

/// Fixed header size: magic | version | content hash | section count.
const HEADER_BYTES: usize = 20;
/// Section-table entry: id u32 | reserved u32 | offset u64 | len u64 | hash u64.
const ENTRY_BYTES: usize = 32;

const SEC_META: u32 = 1;
const SEC_ATTRS: u32 = 2;
const SEC_LEXICON: u32 = 3;
const SEC_TAGGER: u32 = 4;
const SEC_VETO: u32 = 5;
const SEC_SEMANTIC: u32 = 6;
const SEC_REFERENCE: u32 = 7;
/// The section inventory, in table order.
const SECTION_IDS: [u32; 7] = [
    SEC_META,
    SEC_ATTRS,
    SEC_LEXICON,
    SEC_TAGGER,
    SEC_VETO,
    SEC_SEMANTIC,
    SEC_REFERENCE,
];
/// First payload byte: header + table, rounded up to 8.
const PAYLOAD_START: usize = (HEADER_BYTES + SECTION_IDS.len() * ENTRY_BYTES + 7) & !7;

/// Largest CRF feature-window radius a bundle may declare. The
/// extractor pre-renders `2·window + 1` template prefixes, so an
/// unbounded (crafted) radius would be an allocation bomb at load;
/// trained models use 2.
const MAX_CRF_WINDOW: usize = 64;

/// Why a bundle could not be read (or written).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BundleError {
    /// The file does not start with [`BUNDLE_MAGIC`].
    BadMagic,
    /// The schema version is not [`BUNDLE_SCHEMA_VERSION`].
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// A region does not hash to its declared hash (the section table
    /// or a section).
    HashMismatch {
        /// Hash recorded in the header or section table.
        expected: u64,
        /// Hash of the actual bytes.
        actual: u64,
    },
    /// The document ends before a declared structure is complete.
    Truncated(String),
    /// A structurally invalid document (bad section table, invalid
    /// enum tag, non-UTF-8 string, trailing bytes, …).
    Malformed(String),
    /// Filesystem error (includes the overwrite refusal from
    /// [`pae_obs::reserve_output`]).
    Io(String),
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::BadMagic => write!(f, "not a PAE bundle (bad magic)"),
            BundleError::UnsupportedVersion { found } => write!(
                f,
                "unsupported bundle schema version {found} (this build reads \
                 version {BUNDLE_SCHEMA_VERSION})"
            ),
            BundleError::HashMismatch { expected, actual } => write!(
                f,
                "bundle content hash mismatch: declared {expected:016x}, \
                 bytes hash to {actual:016x}"
            ),
            BundleError::Truncated(what) => write!(f, "truncated bundle: {what}"),
            BundleError::Malformed(what) => write!(f, "malformed bundle: {what}"),
            BundleError::Io(e) => write!(f, "bundle I/O error: {e}"),
        }
    }
}

impl std::error::Error for BundleError {}

/// FNV-1a 64-bit over `bytes` (the bundle's content hash).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit with an 8-byte input unit: same offset basis, prime,
/// and xor-multiply mixing, but folding one little-endian u64 word per
/// step (tail zero-padded). The bundle's **section** hashes use this
/// variant — the byte-at-a-time loop is a serial multiply per byte
/// (≈1 ns/byte), which made the load-time integrity pass the dominant
/// cold-start cost; folding words cuts the dependency chain 8× so
/// validation runs at memory speed. Bit-flip detection is unchanged:
/// any corrupted byte lands in some word and perturbs every later
/// state. Inputs differing only in trailing zero bytes can collide
/// (the tail is zero-padded), which is fine for section hashing: the
/// section *length* is committed separately in the table entry, so the
/// `(len, hash)` pair still pins the content. (The *table* hash keeps
/// plain [`fnv1a`]: the table is 224 bytes.)
pub fn fnv1a_words(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        h ^= u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Primitive writers.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    put_u64(out, vs.len() as u64);
    for &v in vs {
        put_f32(out, v);
    }
}

fn put_u64s(out: &mut Vec<u8>, vs: &[u64]) {
    put_u64(out, vs.len() as u64);
    for &v in vs {
        put_u64(out, v);
    }
}

/// Zero-pads `out` to the next 8-byte boundary.
fn pad8(out: &mut Vec<u8>) {
    while !out.len().is_multiple_of(8) {
        out.push(0);
    }
}

// ---------------------------------------------------------------------
// Primitive reader with strict bounds checking.

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], BundleError> {
        if n > self.remaining() {
            return Err(BundleError::Truncated(format!(
                "{what}: need {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, BundleError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, BundleError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, BundleError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// A declared element count, sanity-bounded by the remaining bytes
    /// (each element occupies at least `min_elem_bytes`), so a corrupt
    /// length can never drive an allocation beyond the document size.
    fn len(&mut self, min_elem_bytes: usize, what: &str) -> Result<usize, BundleError> {
        let n = self.u64(what)?;
        let cap = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if n > cap {
            return Err(BundleError::Truncated(format!(
                "{what}: declared {n} elements, space for at most {cap}"
            )));
        }
        Ok(n as usize)
    }

    fn f32(&mut self, what: &str) -> Result<f32, BundleError> {
        Ok(f32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn f32s(&mut self, what: &str) -> Result<Vec<f32>, BundleError> {
        let n = self.len(4, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f32(what)?);
        }
        Ok(out)
    }

    fn u64s(&mut self, what: &str) -> Result<Vec<u64>, BundleError> {
        let n = self.len(8, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64(what)?);
        }
        Ok(out)
    }

    fn string(&mut self, what: &str) -> Result<String, BundleError> {
        let n = self.len(1, what)?;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| BundleError::Malformed(format!("{what}: invalid UTF-8")))
    }

    fn finish(&self, what: &str) -> Result<(), BundleError> {
        if self.remaining() != 0 {
            return Err(BundleError::Malformed(format!(
                "{what}: {} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Bounded cursor over a loaded bundle's shared bytes: like [`Reader`],
/// but able to carve [`Fst`] sub-ranges that keep the whole buffer
/// alive via its `Arc` instead of copying the arena.
struct ArcReader<'a> {
    bytes: &'a Arc<[u8]>,
    pos: usize,
    end: usize,
}

impl<'a> ArcReader<'a> {
    fn new(bytes: &'a Arc<[u8]>, start: usize, len: usize) -> Self {
        ArcReader {
            bytes,
            pos: start,
            end: start + len,
        }
    }

    fn remaining(&self) -> usize {
        self.end - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], BundleError> {
        if n > self.remaining() {
            return Err(BundleError::Truncated(format!(
                "{what}: need {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u64(&mut self, what: &str) -> Result<u64, BundleError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Bulk-decodes a length-prefixed `f64` array (the hot path when
    /// loading CRF parameters: one bounds check, then `chunks_exact`).
    fn f64s(&mut self, what: &str) -> Result<Vec<f64>, BundleError> {
        let n = self.u64(what)? as usize;
        let need = n
            .checked_mul(8)
            .ok_or_else(|| BundleError::Malformed(format!("{what}: element count overflows")))?;
        let raw = self.take(need, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads a length-prefixed FST arena as a zero-copy sub-range of
    /// the shared buffer. Strict: the declared length must equal the
    /// arena's own header-derived size.
    fn carve_fst(&mut self, what: &str) -> Result<Fst, BundleError> {
        let len = self.u64(what)? as usize;
        if len > self.remaining() {
            return Err(BundleError::Truncated(format!(
                "{what}: arena of {len} bytes, {} left",
                self.remaining()
            )));
        }
        let fst = Fst::from_shared(Arc::clone(self.bytes), self.pos, len)
            .map_err(|e| BundleError::Malformed(format!("{what}: {e}")))?;
        if fst.view().arena_len() != len {
            return Err(BundleError::Malformed(format!(
                "{what}: {} trailing bytes after arena",
                len - fst.view().arena_len()
            )));
        }
        self.pos += len;
        Ok(fst)
    }

    /// Consumes zero padding up to the next 8-byte boundary (positions
    /// are absolute and every section starts 8-aligned).
    fn skip_padding(&mut self, what: &str) -> Result<(), BundleError> {
        let misalign = self.pos % 8;
        if misalign == 0 {
            return Ok(());
        }
        let pad = self.take(8 - misalign, what)?;
        if pad.iter().any(|&b| b != 0) {
            return Err(BundleError::Malformed(format!("{what}: nonzero padding")));
        }
        Ok(())
    }

    fn finish(&self, what: &str) -> Result<(), BundleError> {
        if self.remaining() != 0 {
            return Err(BundleError::Malformed(format!(
                "{what}: {} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Section codecs.

fn language_tag(l: Language) -> u8 {
    match l {
        Language::Agglut => 0,
        Language::SpaceDelim => 1,
    }
}

fn language_from(tag: u8) -> Result<Language, BundleError> {
    match tag {
        0 => Ok(Language::Agglut),
        1 => Ok(Language::SpaceDelim),
        other => Err(BundleError::Malformed(format!(
            "unknown language tag {other}"
        ))),
    }
}

fn encode_meta(m: &FrozenModel) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(language_tag(m.language));
    out.push(u8::from(m.use_veto));
    put_u64(&mut out, m.max_value_chars as u64);
    put_u64(&mut out, m.config.iterations as u64);
    put_u64(&mut out, m.config.seed);
    put_str(&mut out, &m.config.tagger);
    out
}

fn decode_meta(buf: &[u8]) -> Result<(Language, bool, usize, ConfigEcho), BundleError> {
    let mut r = Reader::new(buf);
    let language = language_from(r.u8("language tag")?)?;
    let use_veto = match r.u8("use_veto flag")? {
        0 => false,
        1 => true,
        other => {
            return Err(BundleError::Malformed(format!(
                "invalid use_veto flag {other}"
            )))
        }
    };
    let max_value_chars = r.u64("max_value_chars")? as usize;
    let iterations = r.u64("iterations")? as usize;
    let seed = r.u64("seed")?;
    let tagger = r.string("tagger name")?;
    r.finish("meta section")?;
    Ok((
        language,
        use_veto,
        max_value_chars,
        ConfigEcho {
            iterations,
            seed,
            tagger,
        },
    ))
}

fn encode_attrs(m: &FrozenModel) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, m.attrs.len() as u64);
    for a in &m.attrs {
        put_str(&mut out, a);
    }
    out
}

fn decode_attrs(buf: &[u8]) -> Result<Vec<String>, BundleError> {
    let mut r = Reader::new(buf);
    let n_attrs = r.len(8, "attr count")?;
    let mut attrs = Vec::with_capacity(n_attrs);
    for _ in 0..n_attrs {
        attrs.push(r.string("attr name")?);
    }
    r.finish("attrs section")?;
    Ok(attrs)
}

fn encode_semantic(m: &FrozenModel) -> Vec<u8> {
    let mut out = Vec::new();
    let Some(s) = &m.semantic else {
        out.push(0);
        return out;
    };
    out.push(1);
    put_u64(&mut out, s.dim as u64);
    put_f32(&mut out, s.keep_threshold);
    put_f32s(&mut out, &s.mean);
    put_u64(&mut out, s.vectors.len() as u64);
    for (word, vec) in &s.vectors {
        put_str(&mut out, word);
        put_f32s(&mut out, vec);
    }
    put_u64(&mut out, s.cores.len() as u64);
    for (attr, members) in &s.cores {
        put_str(&mut out, attr);
        put_u64(&mut out, members.len() as u64);
        for mem in members {
            put_str(&mut out, mem);
        }
    }
    out
}

fn decode_semantic_section(buf: &[u8]) -> Result<Option<SemanticFreeze>, BundleError> {
    let mut r = Reader::new(buf);
    let semantic = match r.u8("semantic presence flag")? {
        0 => None,
        1 => {
            let dim = r.u64("semantic dim")? as usize;
            let keep_threshold = r.f32("keep threshold")?;
            let mean = r.f32s("semantic mean")?;
            if mean.len() != dim {
                return Err(BundleError::Malformed(format!(
                    "semantic mean has {} entries, dim is {dim}",
                    mean.len()
                )));
            }
            let n_vecs = r.len(12, "vector count")?;
            let mut vectors = Vec::with_capacity(n_vecs);
            for _ in 0..n_vecs {
                let word = r.string("vector word")?;
                let vec = r.f32s("vector values")?;
                if vec.len() != dim {
                    return Err(BundleError::Malformed(format!(
                        "vector for {word:?} has {} entries, dim is {dim}",
                        vec.len()
                    )));
                }
                vectors.push((word, vec));
            }
            let n_cores = r.len(16, "core count")?;
            let mut cores = Vec::with_capacity(n_cores);
            for _ in 0..n_cores {
                let attr = r.string("core attr")?;
                let n_members = r.len(8, "core member count")?;
                let mut members = Vec::with_capacity(n_members);
                for _ in 0..n_members {
                    members.push(r.string("core member")?);
                }
                cores.push((attr, members));
            }
            Some(SemanticFreeze {
                dim,
                mean,
                vectors,
                cores,
                keep_threshold,
            })
        }
        other => {
            return Err(BundleError::Malformed(format!(
                "invalid semantic presence flag {other}"
            )))
        }
    };
    r.finish("semantic section")?;
    Ok(semantic)
}

/// Reference-stats section (id 7): a presence flag, then the
/// freeze-time corpus counters. Integer-only, so encoding is trivially
/// byte-deterministic; per-attribute rates are derived at read time
/// from `triples` and `pages`, never stored as floats.
fn encode_reference(m: &FrozenModel) -> Vec<u8> {
    let mut out = Vec::new();
    let Some(r) = &m.reference else {
        out.push(0);
        return out;
    };
    out.push(1);
    put_u64(&mut out, r.pages);
    put_u64(&mut out, r.empty_pages);
    put_u64(&mut out, r.total_triples);
    put_u64(&mut out, r.tokens);
    put_u64(&mut out, r.oov_tokens);
    put_u64(&mut out, r.backends.len() as u64);
    for b in &r.backends {
        put_str(&mut out, &b.backend);
        put_u64s(&mut out, &b.confidence);
    }
    put_u64(&mut out, r.attrs.len() as u64);
    for a in &r.attrs {
        put_str(&mut out, &a.attribute);
        put_u64(&mut out, a.triples);
        put_u64(&mut out, a.top_values.len() as u64);
        for (value, count) in &a.top_values {
            put_str(&mut out, value);
            put_u64(&mut out, *count);
        }
        put_u64s(&mut out, &a.value_len);
    }
    out
}

fn decode_reference_section(buf: &[u8]) -> Result<Option<ReferenceStats>, BundleError> {
    let mut r = Reader::new(buf);
    let stats = match r.u8("reference presence flag")? {
        0 => None,
        1 => {
            let pages = r.u64("reference pages")?;
            let empty_pages = r.u64("reference empty pages")?;
            let total_triples = r.u64("reference triple count")?;
            let tokens = r.u64("reference token count")?;
            let oov_tokens = r.u64("reference oov count")?;
            let n_backends = r.len(16, "reference backend count")?;
            let mut backends = Vec::with_capacity(n_backends);
            for _ in 0..n_backends {
                let backend = r.string("reference backend name")?;
                let confidence = r.u64s("confidence histogram")?;
                if confidence.len() != CONF_BUCKETS {
                    return Err(BundleError::Malformed(format!(
                        "confidence histogram for {backend:?} has {} buckets, \
                         expected {CONF_BUCKETS}",
                        confidence.len()
                    )));
                }
                backends.push(BackendReference {
                    backend,
                    confidence,
                });
            }
            let n_attrs = r.len(24, "reference attr count")?;
            let mut attrs = Vec::with_capacity(n_attrs);
            for _ in 0..n_attrs {
                let attribute = r.string("reference attr name")?;
                let triples = r.u64("reference attr triples")?;
                let n_top = r.len(16, "reference top-value count")?;
                let mut top_values = Vec::with_capacity(n_top);
                for _ in 0..n_top {
                    let value = r.string("reference top value")?;
                    let count = r.u64("reference top count")?;
                    top_values.push((value, count));
                }
                let value_len = r.u64s("value-length histogram")?;
                if value_len.len() != LEN_BUCKETS {
                    return Err(BundleError::Malformed(format!(
                        "value-length histogram for {attribute:?} has {} buckets, \
                         expected {LEN_BUCKETS}",
                        value_len.len()
                    )));
                }
                attrs.push(AttrReference {
                    attribute,
                    triples,
                    top_values,
                    value_len,
                });
            }
            Some(ReferenceStats {
                pages,
                empty_pages,
                total_triples,
                tokens,
                oov_tokens,
                backends,
                attrs,
            })
        }
        other => {
            return Err(BundleError::Malformed(format!(
                "invalid reference presence flag {other}"
            )))
        }
    };
    r.finish("reference section")?;
    Ok(stats)
}

// ---------------------------------------------------------------------
// Arena-backed section codecs (flat automata, 8-aligned records).

fn encode_lexicon(m: &FrozenModel) -> Vec<u8> {
    m.lexicon.compiled().as_bytes().to_vec()
}

/// One tagger record, all fields u64-aligned:
///
/// ```text
/// kind u64 (0 crf | 1 rnn | 2 ensemble)
/// crf:      n_labels u64 | window u64 | sentence_bucket u64
///           | params_len u64 | f64 * params_len
///           | arena_len u64 | feature-name FST arena | pad8
/// rnn:      len u64 | bytes | pad8
/// ensemble: crf record | rnn record
/// ```
fn encode_tagger_into(out: &mut Vec<u8>, t: &FrozenTagger) {
    debug_assert_eq!(out.len() % 8, 0, "tagger records start 8-aligned");
    match t {
        FrozenTagger::Crf {
            n_labels,
            params,
            feature_names,
            window,
            max_sentence_bucket,
        } => {
            put_u64(out, 0);
            put_u64(out, *n_labels as u64);
            put_u64(out, *window as u64);
            put_u64(out, *max_sentence_bucket as u64);
            put_u64(out, params.len() as u64);
            for &p in params {
                out.extend_from_slice(&p.to_le_bytes());
            }
            // Feature name → interned id, keyed by name bytes. The
            // interner guarantees unique names, so the build cannot
            // fail on duplicates.
            let mut pairs: Vec<(&[u8], u32)> = feature_names
                .iter()
                .enumerate()
                .map(|(id, name)| (name.as_bytes(), id as u32))
                .collect();
            pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
            let arena = pae_fst::build_fst(&pairs, 0).expect("unique feature names build");
            put_u64(out, arena.len() as u64);
            out.extend_from_slice(&arena);
            pad8(out);
        }
        FrozenTagger::Rnn { bytes } => {
            put_u64(out, 1);
            put_u64(out, bytes.len() as u64);
            out.extend_from_slice(bytes);
            pad8(out);
        }
        FrozenTagger::Ensemble { crf, rnn } => {
            put_u64(out, 2);
            encode_tagger_into(out, crf);
            encode_tagger_into(out, rnn);
        }
    }
}

fn encode_veto(m: &FrozenModel) -> Vec<u8> {
    // Composite keys sort bytewise, which is NOT the (attr, value) pair
    // order when one attr is a strict prefix of another (0xFF compares
    // above every UTF-8 byte), so sort the keys themselves.
    let mut keys: Vec<Vec<u8>> = m
        .veto_blocklist
        .iter()
        .map(|(attr, value)| blocklist_key(attr, value))
        .collect();
    keys.sort_unstable();
    let pairs: Vec<(&[u8], u32)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k.as_slice(), i as u32))
        .collect();
    pae_fst::build_fst(&pairs, 0).expect("deduplicated blocklist keys build")
}

/// A tagger section parsed into parts that can become either a
/// serving backend (zero-copy feature automaton) or a materialized
/// [`FrozenTagger`].
enum TaggerParts {
    Crf {
        n_labels: usize,
        window: usize,
        max_sentence_bucket: usize,
        params: Vec<f64>,
        names: Fst,
    },
    Rnn {
        bytes: Vec<u8>,
    },
    Ensemble {
        crf: Box<TaggerParts>,
        rnn: Box<TaggerParts>,
    },
}

fn decode_tagger_parts(r: &mut ArcReader, depth: usize) -> Result<TaggerParts, BundleError> {
    match r.u64("tagger kind")? {
        0 => {
            let n_labels = r.u64("crf n_labels")? as usize;
            let window = r.u64("crf window")? as usize;
            let max_sentence_bucket = r.u64("crf sentence bucket")? as usize;
            let params = r.f64s("crf params")?;
            let names = r.carve_fst("crf feature automaton")?;
            r.skip_padding("crf record padding")?;
            if window > MAX_CRF_WINDOW {
                return Err(BundleError::Malformed(format!(
                    "CRF window radius {window} exceeds {MAX_CRF_WINDOW}"
                )));
            }
            // `param_len` = n_labels · (n_features + n_labels + 2),
            // checked: a crafted label count must not overflow.
            let expected = names
                .n_keys()
                .checked_add(n_labels)
                .and_then(|n| n.checked_add(2))
                .and_then(|n| n.checked_mul(n_labels));
            if expected != Some(params.len()) {
                return Err(BundleError::Malformed(format!(
                    "CRF parameter vector has {} entries, expected {n_labels} labels x \
                     ({} features + {n_labels} + 2)",
                    params.len(),
                    names.n_keys()
                )));
            }
            // Every id the automaton yields indexes a parameter row, so
            // one out of range would panic the first page that hits it.
            if let Some(id) = names.view().max_value() {
                if id as usize >= names.n_keys() {
                    return Err(BundleError::Malformed(format!(
                        "feature automaton id {id} out of range for {} features",
                        names.n_keys()
                    )));
                }
            }
            Ok(TaggerParts::Crf {
                n_labels,
                window,
                max_sentence_bucket,
                params,
                names,
            })
        }
        1 => {
            let n = r.u64("rnn byte length")? as usize;
            let bytes = r.take(n, "rnn bytes")?.to_vec();
            // Validate eagerly: a bundle must never defer a decode
            // failure to serve time.
            pae_neural::BiLstmTagger::from_bytes(&bytes)
                .map_err(|e| BundleError::Malformed(format!("rnn tagger: {e}")))?;
            r.skip_padding("rnn record padding")?;
            Ok(TaggerParts::Rnn { bytes })
        }
        2 if depth == 0 => Ok(TaggerParts::Ensemble {
            crf: Box::new(decode_tagger_parts(r, 1)?),
            rnn: Box::new(decode_tagger_parts(r, 1)?),
        }),
        2 => Err(BundleError::Malformed("nested ensemble tagger".to_owned())),
        other => Err(BundleError::Malformed(format!(
            "unknown tagger kind {other}"
        ))),
    }
}

impl TaggerParts {
    fn into_trained(self) -> Result<TrainedTagger, String> {
        match self {
            TaggerParts::Crf {
                n_labels,
                window,
                max_sentence_bucket,
                params,
                names,
            } => {
                let index = pae_crf::FeatureIndex::from_fst(names);
                Ok(TrainedTagger::Crf {
                    model: pae_crf::CrfModel {
                        n_labels,
                        n_features: index.len(),
                        params,
                    },
                    extractor: pae_crf::FeatureExtractor::new(pae_crf::FeatureTemplates {
                        window,
                        max_sentence_bucket,
                    }),
                    index,
                })
            }
            TaggerParts::Rnn { bytes } => Ok(TrainedTagger::Rnn {
                model: pae_neural::BiLstmTagger::from_bytes(&bytes)?,
            }),
            TaggerParts::Ensemble { .. } => Err("nested ensemble".to_owned()),
        }
    }

    fn into_backend(self) -> Result<ExtractBackend, String> {
        match self {
            TaggerParts::Ensemble { crf, rnn } => Ok(ExtractBackend::Ensemble(
                Box::new(crf.into_trained()?),
                Box::new(rnn.into_trained()?),
            )),
            one => Ok(ExtractBackend::One(Box::new(one.into_trained()?))),
        }
    }

    /// Materializes the in-memory form (rebuilds the id-ordered
    /// feature name table from the automaton).
    fn to_frozen(&self) -> Result<FrozenTagger, BundleError> {
        match self {
            TaggerParts::Crf {
                n_labels,
                window,
                max_sentence_bucket,
                params,
                names,
            } => {
                let n = names.n_keys();
                let mut feature_names = vec![String::new(); n];
                let mut seen = vec![false; n];
                for (key, id) in names.iter() {
                    let name = String::from_utf8(key)
                        .map_err(|_| BundleError::Malformed("non-UTF-8 feature name".to_owned()))?;
                    let id = id as usize;
                    if id >= n || seen[id] {
                        return Err(BundleError::Malformed(format!(
                            "feature automaton id {id} out of range or duplicated"
                        )));
                    }
                    feature_names[id] = name;
                    seen[id] = true;
                }
                Ok(FrozenTagger::Crf {
                    n_labels: *n_labels,
                    params: params.clone(),
                    feature_names,
                    window: *window,
                    max_sentence_bucket: *max_sentence_bucket,
                })
            }
            TaggerParts::Rnn { bytes } => Ok(FrozenTagger::Rnn {
                bytes: bytes.clone(),
            }),
            TaggerParts::Ensemble { crf, rnn } => Ok(FrozenTagger::Ensemble {
                crf: Box::new(crf.to_frozen()?),
                rnn: Box::new(rnn.to_frozen()?),
            }),
        }
    }
}

// ---------------------------------------------------------------------
// Whole-bundle encode.

/// Every section of `model`'s bundle, in table order.
fn sections(model: &FrozenModel) -> [(u32, Vec<u8>); 7] {
    let mut tagger = Vec::new();
    encode_tagger_into(&mut tagger, &model.tagger);
    [
        (SEC_META, encode_meta(model)),
        (SEC_ATTRS, encode_attrs(model)),
        (SEC_LEXICON, encode_lexicon(model)),
        (SEC_TAGGER, tagger),
        (SEC_VETO, encode_veto(model)),
        (SEC_SEMANTIC, encode_semantic(model)),
        (SEC_REFERENCE, encode_reference(model)),
    ]
}

/// Lays encoded sections out as a bundle: header, hashed table,
/// 8-aligned payload.
fn assemble(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut payload = Vec::new();
    let mut table_bytes = Vec::with_capacity(sections.len() * ENTRY_BYTES);
    for (id, bytes) in sections {
        pad8(&mut payload);
        put_u32(&mut table_bytes, *id);
        put_u32(&mut table_bytes, 0); // reserved
        put_u64(&mut table_bytes, payload.len() as u64);
        put_u64(&mut table_bytes, bytes.len() as u64);
        put_u64(&mut table_bytes, fnv1a_words(bytes));
        payload.extend_from_slice(bytes);
    }
    let mut out = Vec::with_capacity(PAYLOAD_START + payload.len());
    out.extend_from_slice(&BUNDLE_MAGIC);
    put_u32(&mut out, BUNDLE_SCHEMA_VERSION);
    put_u64(&mut out, fnv1a(&table_bytes));
    put_u32(&mut out, sections.len() as u32);
    out.extend_from_slice(&table_bytes);
    out.resize(PAYLOAD_START, 0);
    out.extend_from_slice(&payload);
    out
}

/// Serializes a frozen model into bundle bytes. Deterministic: equal
/// models produce byte-identical bundles.
pub fn encode(model: &FrozenModel) -> Vec<u8> {
    assemble(&sections(model))
}

// ---------------------------------------------------------------------
// Zero-copy loading.

/// A validated bundle held as shared bytes.
///
/// Opening performs only header/table parsing and hash verification —
/// no section decoding. [`extractor`](Self::extractor) then assembles a
/// serving [`FrozenExtractor`] whose lexicon, CRF feature index, and
/// veto blocklist are automata *borrowing* these bytes, so the
/// dominant load costs are one word-folded hash pass over the payload
/// ([`fnv1a_words`]) and one bulk copy of the CRF parameter vector.
pub struct LoadedBundle {
    bytes: Arc<[u8]>,
    content_hash: u64,
    /// Absolute `(start, len)` per section, in [`SECTION_IDS`] order.
    sections: [(usize, usize); 7],
}

/// Validates magic and schema version; returns the reader positioned
/// at the content hash.
fn open_header(bytes: &[u8]) -> Result<Reader<'_>, BundleError> {
    let mut r = Reader::new(bytes);
    if r.take(4, "magic").map_err(|_| BundleError::BadMagic)? != BUNDLE_MAGIC {
        return Err(BundleError::BadMagic);
    }
    let version = r.u32("schema version")?;
    if version != BUNDLE_SCHEMA_VERSION {
        return Err(BundleError::UnsupportedVersion { found: version });
    }
    Ok(r)
}

impl LoadedBundle {
    /// Reads and validates a bundle file.
    pub fn open(path: &Path) -> Result<LoadedBundle, BundleError> {
        let bytes =
            std::fs::read(path).map_err(|e| BundleError::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(bytes)
    }

    /// Validates an owned byte buffer.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<LoadedBundle, BundleError> {
        Self::from_shared(Arc::from(bytes.into_boxed_slice()))
    }

    /// Validates shared bytes (the buffer is kept alive by the carved
    /// automata for as long as any extractor uses them).
    pub fn from_shared(bytes: Arc<[u8]>) -> Result<LoadedBundle, BundleError> {
        let mut r = open_header(&bytes)?;
        let declared = r.u64("content hash")?;
        let n_sections = r.u32("section count")? as usize;
        if n_sections != SECTION_IDS.len() {
            return Err(BundleError::Malformed(format!(
                "expected {} sections, header declares {n_sections}",
                SECTION_IDS.len()
            )));
        }
        let table_bytes = r.take(SECTION_IDS.len() * ENTRY_BYTES, "section table")?;
        let actual = fnv1a(table_bytes);
        if actual != declared {
            return Err(BundleError::HashMismatch {
                expected: declared,
                actual,
            });
        }
        if bytes.len() < PAYLOAD_START {
            return Err(BundleError::Truncated(format!(
                "payload starts at {PAYLOAD_START}, file has {} bytes",
                bytes.len()
            )));
        }
        let mut t = Reader::new(table_bytes);
        let mut sections = [(0usize, 0usize); 7];
        let mut cursor = 0u64;
        for (i, &want) in SECTION_IDS.iter().enumerate() {
            let id = t.u32("section id")?;
            let reserved = t.u32("section reserved")?;
            let offset = t.u64("section offset")?;
            let len = t.u64("section length")?;
            let hash = t.u64("section hash")?;
            if id != want {
                return Err(BundleError::Malformed(format!(
                    "section {i} has id {id}, expected {want}"
                )));
            }
            if reserved != 0 {
                return Err(BundleError::Malformed(format!(
                    "section {i} has nonzero reserved field {reserved}"
                )));
            }
            let aligned = cursor
                .checked_add(7)
                .ok_or_else(|| BundleError::Malformed("section extent overflows".to_owned()))?
                & !7;
            if offset != aligned {
                return Err(BundleError::Malformed(format!(
                    "section {i} starts at {offset}, expected {aligned}"
                )));
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| BundleError::Malformed("section extent overflows".to_owned()))?;
            let abs_start = PAYLOAD_START as u64 + offset;
            let abs_end = PAYLOAD_START as u64 + end;
            if abs_end > bytes.len() as u64 {
                return Err(BundleError::Truncated(format!(
                    "section {i} extends to {abs_end}, file has {} bytes",
                    bytes.len()
                )));
            }
            // Inter-section padding is zeros by construction.
            let pad = &bytes[(PAYLOAD_START as u64 + cursor) as usize..abs_start as usize];
            if pad.iter().any(|&b| b != 0) {
                return Err(BundleError::Malformed(format!(
                    "nonzero padding before section {i}"
                )));
            }
            let slice = &bytes[abs_start as usize..abs_end as usize];
            let actual = fnv1a_words(slice);
            if actual != hash {
                return Err(BundleError::HashMismatch {
                    expected: hash,
                    actual,
                });
            }
            sections[i] = (abs_start as usize, len as usize);
            cursor = end;
        }
        if PAYLOAD_START as u64 + cursor != bytes.len() as u64 {
            return Err(BundleError::Malformed(format!(
                "sections end at {}, file has {} bytes",
                PAYLOAD_START as u64 + cursor,
                bytes.len()
            )));
        }
        Ok(LoadedBundle {
            bytes,
            content_hash: declared,
            sections,
        })
    }

    /// The verified content hash the header declares.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    fn section(&self, i: usize) -> &[u8] {
        let (start, len) = self.sections[i];
        &self.bytes[start..start + len]
    }

    /// Carves a whole section as a zero-copy automaton; strict about
    /// trailing bytes.
    fn section_fst(&self, i: usize, what: &str) -> Result<Fst, BundleError> {
        let (start, len) = self.sections[i];
        let fst = Fst::from_shared(Arc::clone(&self.bytes), start, len)
            .map_err(|e| BundleError::Malformed(format!("{what}: {e}")))?;
        if fst.view().arena_len() != len {
            return Err(BundleError::Malformed(format!(
                "{what}: {} trailing bytes after arena",
                len - fst.view().arena_len()
            )));
        }
        Ok(fst)
    }

    fn tagger_parts(&self) -> Result<TaggerParts, BundleError> {
        let (start, len) = self.sections[3];
        let mut r = ArcReader::new(&self.bytes, start, len);
        let parts = decode_tagger_parts(&mut r, 0)?;
        r.finish("tagger section")?;
        Ok(parts)
    }

    /// Assembles a serving extractor: the lexicon, CRF feature index,
    /// and veto blocklist all borrow this bundle's bytes.
    pub fn extractor(&self) -> Result<FrozenExtractor, BundleError> {
        let (language, use_veto, max_value_chars, _config) = decode_meta(self.section(0))?;
        let lexicon = Lexicon::from_fst(self.section_fst(2, "lexicon automaton")?);
        Ok(FrozenExtractor {
            tokenizer: language.tokenizer(&lexicon),
            pos_tagger: LexiconPosTagger::new(lexicon),
            splitter: SentenceSplitter::new(),
            space: LabelSpace::new(decode_attrs(self.section(1))?),
            backend: self
                .tagger_parts()?
                .into_backend()
                .map_err(BundleError::Malformed)?,
            use_veto,
            max_value_chars,
            veto_blocklist: self.section_fst(4, "veto automaton")?,
            semantic: decode_semantic_section(self.section(5))?,
        })
    }

    /// Materializes the full [`FrozenModel`] (walks and validates every
    /// section).
    pub fn model(&self) -> Result<FrozenModel, BundleError> {
        let (language, use_veto, max_value_chars, config) = decode_meta(self.section(0))?;
        let attrs = decode_attrs(self.section(1))?;
        let lexicon = Lexicon::from_fst(self.section_fst(2, "lexicon automaton")?);
        let tagger = self.tagger_parts()?.to_frozen()?;
        let veto_fst = self.section_fst(4, "veto automaton")?;
        let mut veto_blocklist = Vec::with_capacity(veto_fst.n_keys());
        for (key, _) in veto_fst.iter() {
            let sep = key.iter().position(|&b| b == 0xFF).ok_or_else(|| {
                BundleError::Malformed("veto key lacks the attr/value separator".to_owned())
            })?;
            let attr = String::from_utf8(key[..sep].to_vec())
                .map_err(|_| BundleError::Malformed("non-UTF-8 veto attr".to_owned()))?;
            let value = String::from_utf8(key[sep + 1..].to_vec())
                .map_err(|_| BundleError::Malformed("non-UTF-8 veto value".to_owned()))?;
            veto_blocklist.push((attr, value));
        }
        veto_blocklist.sort();
        let semantic = decode_semantic_section(self.section(5))?;
        let reference = self.reference()?;
        Ok(FrozenModel {
            language,
            lexicon,
            attrs,
            tagger,
            use_veto,
            max_value_chars,
            veto_blocklist,
            semantic,
            reference,
            config,
        })
    }

    /// The freeze-time [`ReferenceStats`], or `Ok(None)` for a model
    /// frozen without them (the quality monitor then serves in
    /// "no-reference" mode).
    pub fn reference(&self) -> Result<Option<ReferenceStats>, BundleError> {
        decode_reference_section(self.section(6))
    }
}

// ---------------------------------------------------------------------
// Whole-bundle convenience API.

/// The content hash a bundle's header declares (validating magic and
/// version first). Cheap: does not decode or re-hash anything.
pub fn declared_hash(bytes: &[u8]) -> Result<u64, BundleError> {
    open_header(bytes)?.u64("content hash")
}

/// Writes `model` to `path`, refusing to overwrite an existing file
/// unless `force` (the same create-new semantics as the CLI's trace
/// outputs). Returns the bundle's content hash.
pub fn write_bundle(model: &FrozenModel, path: &Path, force: bool) -> Result<u64, BundleError> {
    use std::io::Write as _;
    let bytes = encode(model);
    let hash = declared_hash(&bytes)?;
    if force {
        std::fs::write(path, &bytes).map_err(|e| BundleError::Io(e.to_string()))?;
    } else {
        let mut f = pae_obs::reserve_output(path).map_err(BundleError::Io)?;
        f.write_all(&bytes)
            .and_then(|()| f.flush())
            .map_err(|e| BundleError::Io(e.to_string()))?;
    }
    Ok(hash)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::BootstrapPipeline;
    use crate::config::{PipelineConfig, TaggerKind};
    use crate::corpus::parse_corpus;
    use pae_synth::{CategoryKind, DatasetSpec};

    /// Loads `bytes` and rehydrates the whole model.
    fn load_model(bytes: &[u8]) -> Result<FrozenModel, BundleError> {
        LoadedBundle::from_bytes(bytes.to_vec())?.model()
    }

    fn frozen_model(kind: TaggerKind) -> FrozenModel {
        let dataset = DatasetSpec::new(CategoryKind::VacuumCleaner, 42)
            .products(50)
            .generate();
        let corpus = parse_corpus(&dataset);
        let mut cfg = PipelineConfig {
            iterations: 1,
            tagger: kind,
            ..Default::default()
        };
        cfg.crf.max_iters = 40;
        // Two epochs (the default) leave an ensemble's RNN arm decoding
        // nothing, which freeze refuses.
        cfg.rnn.epochs = 10;
        let outcome = BootstrapPipeline::new(cfg.clone()).run_on_corpus(&dataset, &corpus);
        FrozenModel::freeze(&dataset, &corpus, &outcome, &cfg).expect("freeze")
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let model = frozen_model(TaggerKind::Crf);
        let bytes = encode(&model);
        let restored = load_model(&bytes).expect("decode");
        assert_eq!(model, restored);
        // Re-encoding the decoded model reproduces the bytes exactly,
        // and encoding is deterministic call to call.
        assert_eq!(encode(&restored), bytes);
        assert_eq!(encode(&model), bytes);
        // The tabled content hash covers the section table.
        assert_eq!(
            declared_hash(&bytes).unwrap(),
            fnv1a(&bytes[HEADER_BYTES..HEADER_BYTES + 7 * ENTRY_BYTES])
        );
        // Freeze always embeds reference stats, and they survive the
        // round trip through the reference section.
        assert!(restored.reference.is_some());
        let loaded = LoadedBundle::from_bytes(bytes).expect("load");
        assert_eq!(loaded.reference().expect("reference"), model.reference);
    }

    #[test]
    fn corrupt_reference_section_is_a_typed_error() {
        let model = frozen_model(TaggerKind::Crf);
        let bytes = encode(&model);
        // The reference section is the last one; its presence flag is
        // the first byte after the preceding sections' payload. Flip a
        // byte inside it: the section hash must catch it.
        let mut bad = bytes.clone();
        let last = bad.len() - 3;
        bad[last] ^= 0x55;
        let err = match LoadedBundle::from_bytes(bad) {
            Ok(_) => panic!("corrupt reference section was accepted"),
            Err(e) => e,
        };
        assert!(matches!(err, BundleError::HashMismatch { .. }));
    }

    /// The word-folded section hash: sensitive to any single-byte
    /// change at any offset (aligned or tail), deterministic, and
    /// trailing-zero collisions are tolerable because the section
    /// length is committed separately in the table.
    #[test]
    fn fnv1a_words_detects_flips_at_every_offset() {
        let base: Vec<u8> = (0..37u8).collect(); // deliberately not a multiple of 8
        let reference = fnv1a_words(&base);
        assert_eq!(fnv1a_words(&base), reference);
        for i in 0..base.len() {
            let mut corrupt = base.clone();
            corrupt[i] ^= 0x01;
            assert_ne!(
                fnv1a_words(&corrupt),
                reference,
                "flip at offset {i} went undetected"
            );
        }
        // The documented tail property: trailing zeros pad into the
        // same final word — (len, hash) is the committed identity.
        assert_eq!(fnv1a_words(b"x"), fnv1a_words(b"x\0"));
        // Distinct from the byte-wise variant once a word holds more
        // than one byte (a 1-byte input degenerates to the same single
        // xor-multiply in both).
        assert_ne!(fnv1a_words(b"xy"), fnv1a(b"xy"));
    }

    #[test]
    fn ensemble_round_trips() {
        let model = frozen_model(TaggerKind::Ensemble);
        let bytes = encode(&model);
        let restored = load_model(&bytes).expect("decode");
        assert_eq!(model, restored);
        assert!(matches!(restored.tagger, FrozenTagger::Ensemble { .. }));
    }

    /// A crafted bundle can carry valid hashes (anyone can recompute
    /// FNV-1a) over a CRF record that passes every structural check but
    /// would fail at serve time: feature-automaton ids past the
    /// parameter rows (the first page hitting one panics), a window
    /// radius the extractor cannot pre-render, a label count whose
    /// parameter arithmetic overflows. Loading must reject each one.
    #[test]
    fn crafted_tagger_sections_are_rejected_at_load() {
        let model = frozen_model(TaggerKind::Crf);
        let FrozenTagger::Crf {
            n_labels,
            params,
            feature_names,
            window,
            max_sentence_bucket,
        } = &model.tagger
        else {
            panic!("expected a CRF model");
        };
        let crafted = |id_shift: u32, window: u64, n_labels: u64| {
            let mut pairs: Vec<(&[u8], u32)> = feature_names
                .iter()
                .enumerate()
                .map(|(id, name)| (name.as_bytes(), id as u32 + id_shift))
                .collect();
            pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
            let arena = pae_fst::build_fst(&pairs, 0).expect("build");
            let mut tagger = Vec::new();
            for v in [0, n_labels, window, *max_sentence_bucket as u64] {
                put_u64(&mut tagger, v);
            }
            put_u64(&mut tagger, params.len() as u64);
            for p in params {
                tagger.extend_from_slice(&p.to_le_bytes());
            }
            put_u64(&mut tagger, arena.len() as u64);
            tagger.extend_from_slice(&arena);
            pad8(&mut tagger);
            let mut sections = sections(&model);
            sections[3].1 = tagger;
            LoadedBundle::from_bytes(assemble(&sections)).expect("hashes are valid")
        };
        let (window, n_labels) = (*window as u64, *n_labels as u64);
        for (loaded, defect) in [
            (crafted(1_000_000, window, n_labels), "out of range"),
            (crafted(0, 1 << 40, n_labels), "window"),
            (crafted(0, window, u64::MAX / 2), "parameter vector"),
        ] {
            let err = match loaded.extractor() {
                Ok(_) => panic!("a crafted tagger ({defect}) was accepted"),
                Err(e) => e,
            };
            assert!(
                matches!(&err, BundleError::Malformed(m) if m.contains(defect)),
                "{err}"
            );
            assert!(matches!(loaded.model(), Err(BundleError::Malformed(_))));
        }
        // The same hand-built record with nothing crafted loads.
        assert_eq!(
            crafted(0, window, n_labels).model().expect("control loads"),
            model
        );
    }

    #[test]
    fn corruption_is_a_typed_error_never_a_panic() {
        let model = frozen_model(TaggerKind::Crf);
        let bytes = encode(&model);

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(load_model(&bad), Err(BundleError::BadMagic));

        // Wrong schema version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            load_model(&bad),
            Err(BundleError::UnsupportedVersion { found: 99 })
        ));

        // Payload corruption → the section's own hash catches it.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(matches!(
            load_model(&bad),
            Err(BundleError::HashMismatch { .. })
        ));

        // Table corruption → the header's content hash catches it.
        let mut bad = bytes.clone();
        bad[HEADER_BYTES + 8] ^= 0xff;
        assert!(matches!(
            load_model(&bad),
            Err(BundleError::HashMismatch { .. })
        ));

        // Empty input (truncations are fuzzed over the committed
        // fixture in tests/bundle_compat.rs).
        assert!(load_model(&[]).is_err());

        // Trailing garbage after the last section → the sections no
        // longer end exactly at the file's end.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(load_model(&bad).is_err());
    }

    #[test]
    fn file_round_trip_respects_overwrite_guard() {
        let model = frozen_model(TaggerKind::Crf);
        let dir = std::env::temp_dir().join(format!("pae-bundle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.paeb");
        let _ = std::fs::remove_file(&path);

        let hash = write_bundle(&model, &path, false).expect("first write");
        let restored = LoadedBundle::open(&path)
            .and_then(|b| b.model())
            .expect("read");
        assert_eq!(model, restored);
        assert_eq!(declared_hash(&std::fs::read(&path).unwrap()).unwrap(), hash);

        // Second non-forced write must refuse.
        let err = write_bundle(&model, &path, false).unwrap_err();
        assert!(matches!(&err, BundleError::Io(msg) if msg.contains("refusing to overwrite")));
        // Forced write succeeds and is byte-identical.
        let hash2 = write_bundle(&model, &path, true).expect("forced write");
        assert_eq!(hash, hash2);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
