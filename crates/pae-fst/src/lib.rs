#![warn(missing_docs)]

//! Byte-keyed minimal-FSA / double-array trie with a flat arena encoding.
//!
//! The paper's Agglut pipeline is dictionary machinery all the way down:
//! MeCab-style longest-match segmentation, the lexicon PoS tagger, the
//! attribute-alias tables of the seeding stage, and the frozen veto
//! blocklist. This crate gives all of them one substrate:
//!
//! * [`FstBuilder`] takes **sorted, unique** `(key, value)` pairs and
//!   emits a single flat `Vec<u8>` arena (little-endian, position
//!   independent, no internal pointers);
//! * [`FstView`] borrows any `&[u8]` holding such an arena and answers
//!   [`FstView::get`] and [`FstView::longest_match_at`] in one forward
//!   walk with **no allocation** — one array probe per input byte;
//! * [`Fst`] owns the arena behind an `Arc<[u8]>` so frozen models can
//!   share a loaded bundle's bytes without copying or lifetimes.
//!
//! # Arena layout (all integers little-endian)
//!
//! ```text
//! offset  size          field
//! 0       4             magic  "PFST"
//! 4       4             format version (= 1)
//! 8       4             n_states
//! 12      4             n_keys
//! 16      4             max_key_bytes (longest key, in bytes)
//! 20      4             reserved (zero)
//! 24      8             meta — caller-defined slot (e.g. lexicon max_chars)
//! 32      4·n_states    base  array (u32)
//! 32+4n   4·n_states    check array (u32)
//! 32+8n   4·n_states    value array (u32)
//! ```
//!
//! State `0` is the root. A transition from state `s` on byte `c` goes
//! to `next = base[s] + c`, and is valid iff `next < n_states` and
//! `check[next] == s`. `base[s] == 0` means "no outgoing transitions"
//! (real bases are ≥ 1, so no transition can land on the root slot).
//! `value[s] == u32::MAX` marks a non-accepting state, which is why
//! stored values must be `< u32::MAX`. Free slots carry
//! `check == u32::MAX`, an id no state can have.
//!
//! Every read is bounds-checked against the arena length, so a
//! corrupted arena can return wrong lookups but can never panic or read
//! out of bounds; bundle loading pairs each arena with an FNV-1a
//! section hash to rule the former out too.

use std::fmt;
use std::sync::Arc;

/// Leading magic bytes of a serialized arena.
pub const FST_MAGIC: [u8; 4] = *b"PFST";
/// Arena format version emitted by this crate.
pub const FST_VERSION: u32 = 1;
/// Fixed header size in bytes.
pub const FST_HEADER_BYTES: usize = 32;

/// Sentinel in the `value` array marking a non-accepting state.
const NO_VALUE: u32 = u32::MAX;
/// Sentinel in the `check` array marking a free (unclaimed) slot.
const FREE: u32 = u32::MAX;

/// Errors from building or opening an arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FstError {
    /// Input pairs were not in strictly increasing key order.
    UnsortedKeys {
        /// Index of the offending pair.
        index: usize,
    },
    /// A value was `u32::MAX`, which is reserved as the no-value marker.
    ReservedValue {
        /// Index of the offending pair.
        index: usize,
    },
    /// The arena does not start with the `PFST` magic.
    BadMagic,
    /// The arena's format version is not supported.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The arena is shorter than its header declares.
    Truncated {
        /// Bytes required by the header.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
}

impl fmt::Display for FstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FstError::UnsortedKeys { index } => {
                write!(f, "keys not in strictly increasing order at pair {index}")
            }
            FstError::ReservedValue { index } => {
                write!(f, "value u32::MAX is reserved (pair {index})")
            }
            FstError::BadMagic => write!(f, "bad arena magic (want PFST)"),
            FstError::UnsupportedVersion { found } => {
                write!(f, "unsupported arena version {found} (want {FST_VERSION})")
            }
            FstError::Truncated { expected, found } => {
                write!(
                    f,
                    "truncated arena: header declares {expected} bytes, got {found}"
                )
            }
        }
    }
}

impl std::error::Error for FstError {}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// One node of the intermediate trie built before slot assignment.
struct TrieNode {
    value: u32,
    /// Children as `(byte, node index)`, in increasing byte order.
    children: Vec<(u8, usize)>,
}

/// Builds a double-array arena from sorted `(key, value)` pairs.
///
/// Keys must be in strictly increasing byte order (duplicates are
/// rejected as unsorted); values must be `< u32::MAX`. The build is a
/// pure function of its input, so identical inputs produce
/// byte-identical arenas on every platform.
pub struct FstBuilder {
    nodes: Vec<TrieNode>,
    last_key: Vec<u8>,
    n_keys: u32,
    max_key_bytes: u32,
    meta: u64,
    error: Option<FstError>,
}

impl Default for FstBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl FstBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        FstBuilder {
            nodes: vec![TrieNode {
                value: NO_VALUE,
                children: Vec::new(),
            }],
            last_key: Vec::new(),
            n_keys: 0,
            max_key_bytes: 0,
            meta: 0,
            error: None,
        }
    }

    /// Sets the caller-defined 64-bit meta slot stored in the header.
    pub fn meta(mut self, meta: u64) -> Self {
        self.meta = meta;
        self
    }

    /// Adds the next pair. Keys must arrive in strictly increasing
    /// byte order; the error is reported by [`FstBuilder::finish`].
    pub fn insert(&mut self, key: &[u8], value: u32) {
        if self.error.is_some() {
            return;
        }
        let index = self.n_keys as usize;
        if self.n_keys > 0 && key <= self.last_key.as_slice() {
            self.error = Some(FstError::UnsortedKeys { index });
            return;
        }
        if value == NO_VALUE {
            self.error = Some(FstError::ReservedValue { index });
            return;
        }
        // Because keys are sorted, the insertion path can only extend
        // the most recently added child at every level.
        let mut cur = 0usize;
        for &b in key {
            let next = match self.nodes[cur].children.last() {
                Some(&(last_b, idx)) if last_b == b => idx,
                _ => {
                    let idx = self.nodes.len();
                    self.nodes.push(TrieNode {
                        value: NO_VALUE,
                        children: Vec::new(),
                    });
                    self.nodes[cur].children.push((b, idx));
                    idx
                }
            };
            cur = next;
        }
        self.nodes[cur].value = value;
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.n_keys += 1;
        self.max_key_bytes = self.max_key_bytes.max(key.len() as u32);
    }

    /// Assigns double-array slots and serializes the arena.
    pub fn finish(self) -> Result<Vec<u8>, FstError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        // Breadth-first slot assignment with a first-fit base search.
        let mut base: Vec<u32> = vec![0];
        let mut check: Vec<u32> = vec![FREE];
        let mut value: Vec<u32> = vec![self.nodes[0].value];
        // Lowest slot that might still be free; purely a search hint.
        let mut first_free = 1usize;

        let mut queue: std::collections::VecDeque<(usize, u32)> = std::collections::VecDeque::new();
        queue.push_back((0, 0));
        while let Some((node_idx, slot)) = queue.pop_front() {
            let children = &self.nodes[node_idx].children;
            if children.is_empty() {
                continue;
            }
            let c0 = children[0].0 as usize;
            let mut b = std::cmp::max(1, first_free.saturating_sub(c0));
            'search: loop {
                for &(c, _) in children {
                    let s = b + c as usize;
                    if s < check.len() && check[s] != FREE {
                        b += 1;
                        continue 'search;
                    }
                }
                break;
            }
            // Claim the slots, growing the arrays as needed.
            let max_slot = b + children[children.len() - 1].0 as usize;
            if max_slot >= check.len() {
                base.resize(max_slot + 1, 0);
                check.resize(max_slot + 1, FREE);
                value.resize(max_slot + 1, NO_VALUE);
            }
            base[slot as usize] = b as u32;
            for &(c, child_idx) in children {
                let s = b + c as usize;
                check[s] = slot;
                value[s] = self.nodes[child_idx].value;
                queue.push_back((child_idx, s as u32));
            }
            while first_free < check.len() && check[first_free] != FREE {
                first_free += 1;
            }
        }

        let n_states = check.len() as u32;
        let mut out = Vec::with_capacity(FST_HEADER_BYTES + 12 * check.len());
        out.extend_from_slice(&FST_MAGIC);
        out.extend_from_slice(&FST_VERSION.to_le_bytes());
        out.extend_from_slice(&n_states.to_le_bytes());
        out.extend_from_slice(&self.n_keys.to_le_bytes());
        out.extend_from_slice(&self.max_key_bytes.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&self.meta.to_le_bytes());
        for arr in [&base, &check, &value] {
            for &x in arr.iter() {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        Ok(out)
    }
}

/// Builds an arena from sorted `(key, value)` pairs in one call.
pub fn build_fst<K: AsRef<[u8]>>(pairs: &[(K, u32)], meta: u64) -> Result<Vec<u8>, FstError> {
    let mut b = FstBuilder::new().meta(meta);
    for (k, v) in pairs {
        b.insert(k.as_ref(), *v);
    }
    b.finish()
}

// ---------------------------------------------------------------------------
// View
// ---------------------------------------------------------------------------

/// Reads a `u32` at `off` without any alignment requirement.
#[inline]
fn read_u32(data: &[u8], off: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&data[off..off + 4]);
    u32::from_le_bytes(b)
}

/// A borrowed, allocation-free view over a serialized arena.
#[derive(Clone, Copy)]
pub struct FstView<'a> {
    data: &'a [u8],
    n_states: usize,
}

impl<'a> FstView<'a> {
    /// Opens a view over `data`, validating the header and length.
    pub fn new(data: &'a [u8]) -> Result<Self, FstError> {
        if data.len() < FST_HEADER_BYTES {
            return Err(FstError::Truncated {
                expected: FST_HEADER_BYTES,
                found: data.len(),
            });
        }
        if data[..4] != FST_MAGIC {
            return Err(FstError::BadMagic);
        }
        let version = read_u32(data, 4);
        if version != FST_VERSION {
            return Err(FstError::UnsupportedVersion { found: version });
        }
        let n_states = read_u32(data, 8) as usize;
        let expected = FST_HEADER_BYTES + 12 * n_states;
        if data.len() < expected {
            return Err(FstError::Truncated {
                expected,
                found: data.len(),
            });
        }
        Ok(FstView { data, n_states })
    }

    /// Number of keys stored in the automaton.
    pub fn n_keys(&self) -> usize {
        read_u32(self.data, 12) as usize
    }

    /// True when the automaton stores no keys.
    pub fn is_empty(&self) -> bool {
        self.n_keys() == 0
    }

    /// Length in bytes of the longest key.
    pub fn max_key_bytes(&self) -> usize {
        read_u32(self.data, 16) as usize
    }

    /// Exact serialized size the header declares: a well-formed arena
    /// is exactly this many bytes (strict container formats can reject
    /// trailing bytes).
    pub fn arena_len(&self) -> usize {
        FST_HEADER_BYTES + 12 * self.n_states
    }

    /// The caller-defined meta slot from the header.
    pub fn meta(&self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.data[24..32]);
        u64::from_le_bytes(b)
    }

    #[inline]
    fn base(&self, s: usize) -> u32 {
        read_u32(self.data, FST_HEADER_BYTES + 4 * s)
    }

    #[inline]
    fn check(&self, s: usize) -> u32 {
        read_u32(self.data, FST_HEADER_BYTES + 4 * self.n_states + 4 * s)
    }

    #[inline]
    fn value_at(&self, s: usize) -> u32 {
        read_u32(self.data, FST_HEADER_BYTES + 8 * self.n_states + 4 * s)
    }

    /// One transition: from state `s` on byte `c`, or `None`.
    #[inline]
    fn step(&self, s: usize, c: u8) -> Option<usize> {
        let b = self.base(s);
        if b == 0 {
            return None;
        }
        let next = b as usize + c as usize;
        if next < self.n_states && self.check(next) == s as u32 {
            Some(next)
        } else {
            None
        }
    }

    /// Exact lookup: the value stored for `key`, if present.
    pub fn get(&self, key: &[u8]) -> Option<u32> {
        let mut s = 0usize;
        for &c in key {
            s = self.step(s, c)?;
        }
        let v = self.value_at(s);
        (v != NO_VALUE).then_some(v)
    }

    /// Longest key matching a prefix of `bytes[pos..]`, in one forward
    /// walk: returns `(match_len_in_bytes, value)` for the longest
    /// accepting prefix, or `None` when no key matches at `pos`.
    pub fn longest_match_at(&self, bytes: &[u8], pos: usize) -> Option<(usize, u32)> {
        let mut s = 0usize;
        let mut best: Option<(usize, u32)> = None;
        for (i, &c) in bytes.get(pos..)?.iter().enumerate() {
            match self.step(s, c) {
                Some(next) => {
                    s = next;
                    let v = self.value_at(s);
                    if v != NO_VALUE {
                        best = Some((i + 1, v));
                    }
                }
                None => break,
            }
        }
        best
    }

    /// The largest value any state stores (`None` when no state
    /// accepts): one linear pass over the value array, so a loader can
    /// bound every value a lookup could return without walking the
    /// automaton.
    pub fn max_value(&self) -> Option<u32> {
        (0..self.n_states)
            .map(|s| self.value_at(s))
            .filter(|&v| v != NO_VALUE)
            .max()
    }

    /// Iterates all `(key, value)` pairs in increasing key order.
    ///
    /// This walks the automaton scanning all 256 candidate bytes per
    /// state, so it is strictly a cold-path operation (serialization,
    /// equality, re-encoding) — lookups never pay for it.
    pub fn iter(&self) -> FstIter<'a> {
        let root_value = if self.n_states > 0 {
            self.value_at(0)
        } else {
            NO_VALUE
        };
        FstIter {
            view: *self,
            stack: if self.n_states > 0 {
                vec![(0, 0)]
            } else {
                Vec::new()
            },
            key: Vec::new(),
            pending_root: root_value != NO_VALUE,
        }
    }
}

impl fmt::Debug for FstView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FstView")
            .field("n_states", &self.n_states)
            .field("n_keys", &self.n_keys())
            .finish()
    }
}

/// Iterator over all `(key, value)` pairs of an arena, sorted by key.
pub struct FstIter<'a> {
    view: FstView<'a>,
    /// DFS stack of `(state, next byte to try)`.
    stack: Vec<(usize, u16)>,
    key: Vec<u8>,
    pending_root: bool,
}

impl Iterator for FstIter<'_> {
    type Item = (Vec<u8>, u32);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pending_root {
            self.pending_root = false;
            return Some((Vec::new(), self.view.value_at(0)));
        }
        while let Some((state, next_byte)) = self.stack.last_mut() {
            let s = *state;
            let mut found = None;
            for c in *next_byte..256 {
                if let Some(child) = self.view.step(s, c as u8) {
                    found = Some((c, child));
                    break;
                }
            }
            match found {
                Some((c, child)) => {
                    *next_byte = c + 1;
                    self.key.push(c as u8);
                    self.stack.push((child, 0));
                    let v = self.view.value_at(child);
                    if v != NO_VALUE {
                        return Some((self.key.clone(), v));
                    }
                }
                None => {
                    self.stack.pop();
                    self.key.pop();
                }
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Owned arena
// ---------------------------------------------------------------------------

/// An arena with shared ownership of its bytes.
///
/// `Fst` either owns a freshly built arena or borrows a sub-range of a
/// larger shared buffer (a loaded bundle) — both behind `Arc<[u8]>`,
/// so cloning is a reference-count bump and no lifetime ties a frozen
/// model to the buffer it was loaded from.
#[derive(Clone)]
pub struct Fst {
    bytes: Arc<[u8]>,
    start: usize,
    len: usize,
}

impl Fst {
    /// Takes ownership of a whole arena built by [`FstBuilder`].
    pub fn from_vec(bytes: Vec<u8>) -> Result<Self, FstError> {
        let len = bytes.len();
        Self::from_shared(Arc::from(bytes.into_boxed_slice()), 0, len)
    }

    /// Borrows `bytes[start..start + len]` of a shared buffer as an
    /// arena, without copying.
    pub fn from_shared(bytes: Arc<[u8]>, start: usize, len: usize) -> Result<Self, FstError> {
        let slice = bytes.get(start..start + len).ok_or(FstError::Truncated {
            expected: start + len,
            found: bytes.len(),
        })?;
        FstView::new(slice)?;
        Ok(Fst { bytes, start, len })
    }

    /// Builds an arena from sorted `(key, value)` pairs.
    pub fn build<K: AsRef<[u8]>>(pairs: &[(K, u32)], meta: u64) -> Result<Self, FstError> {
        Self::from_vec(build_fst(pairs, meta)?)
    }

    /// The serialized arena bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[self.start..self.start + self.len]
    }

    /// A borrowed view for allocation-free lookups.
    pub fn view(&self) -> FstView<'_> {
        // The range and header were validated at construction.
        FstView::new(self.as_bytes()).expect("validated at construction")
    }

    /// See [`FstView::get`].
    pub fn get(&self, key: &[u8]) -> Option<u32> {
        self.view().get(key)
    }

    /// See [`FstView::longest_match_at`].
    pub fn longest_match_at(&self, bytes: &[u8], pos: usize) -> Option<(usize, u32)> {
        self.view().longest_match_at(bytes, pos)
    }

    /// Number of keys.
    pub fn n_keys(&self) -> usize {
        self.view().n_keys()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.n_keys() == 0
    }

    /// The caller-defined meta slot.
    pub fn meta(&self) -> u64 {
        self.view().meta()
    }

    /// Iterates all `(key, value)` pairs in increasing key order.
    pub fn iter(&self) -> FstIter<'_> {
        self.view().iter()
    }
}

impl fmt::Debug for Fst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fst")
            .field("n_keys", &self.n_keys())
            .field("arena_bytes", &self.len)
            .finish()
    }
}

impl PartialEq for Fst {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Fst {}

impl Default for Fst {
    /// An empty automaton (no keys, meta 0).
    fn default() -> Self {
        Fst::build::<&[u8]>(&[], 0).expect("empty build cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fst_of(pairs: &[(&str, u32)]) -> Fst {
        let pairs: Vec<(&[u8], u32)> = pairs.iter().map(|(k, v)| (k.as_bytes(), *v)).collect();
        Fst::build(&pairs, 0).unwrap()
    }

    #[test]
    fn get_hits_and_misses() {
        let f = fst_of(&[("aka", 1), ("akane", 2), ("kaban", 3), ("kg", 4)]);
        assert_eq!(f.get(b"aka"), Some(1));
        assert_eq!(f.get(b"akane"), Some(2));
        assert_eq!(f.get(b"kaban"), Some(3));
        assert_eq!(f.get(b"kg"), Some(4));
        assert_eq!(f.get(b"ak"), None);
        assert_eq!(f.get(b"akan"), None);
        assert_eq!(f.get(b"akanex"), None);
        assert_eq!(f.get(b""), None);
        assert_eq!(f.get(b"zzz"), None);
        assert_eq!(f.n_keys(), 4);
    }

    #[test]
    fn longest_match_prefers_longer_key() {
        let f = fst_of(&[("aka", 1), ("akane", 2)]);
        assert_eq!(f.longest_match_at(b"akane", 0), Some((5, 2)));
        assert_eq!(f.longest_match_at(b"akan", 0), Some((3, 1)));
        assert_eq!(f.longest_match_at(b"xakane", 1), Some((5, 2)));
        assert_eq!(f.longest_match_at(b"xxx", 0), None);
        assert_eq!(f.longest_match_at(b"akane", 5), None);
        assert_eq!(f.longest_match_at(b"akane", 99), None);
    }

    #[test]
    fn empty_fst_matches_nothing() {
        let f = Fst::default();
        assert!(f.is_empty());
        assert_eq!(f.get(b"a"), None);
        assert_eq!(f.longest_match_at(b"abc", 0), None);
        assert_eq!(f.iter().count(), 0);
    }

    #[test]
    fn empty_key_is_storable() {
        let f = fst_of(&[("", 7), ("a", 8)]);
        assert_eq!(f.get(b""), Some(7));
        assert_eq!(f.get(b"a"), Some(8));
        // A zero-length match is still a match for the empty key.
        assert_eq!(f.longest_match_at(b"zz", 0), None);
        assert_eq!(f.longest_match_at(b"a", 0), Some((1, 8)));
    }

    #[test]
    fn unsorted_and_duplicate_keys_are_rejected() {
        let mut b = FstBuilder::new();
        b.insert(b"b", 0);
        b.insert(b"a", 1);
        assert_eq!(b.finish(), Err(FstError::UnsortedKeys { index: 1 }));

        let mut b = FstBuilder::new();
        b.insert(b"a", 0);
        b.insert(b"a", 1);
        assert_eq!(b.finish(), Err(FstError::UnsortedKeys { index: 1 }));
    }

    #[test]
    fn reserved_value_is_rejected() {
        let mut b = FstBuilder::new();
        b.insert(b"a", u32::MAX);
        assert_eq!(b.finish(), Err(FstError::ReservedValue { index: 0 }));
    }

    #[test]
    fn iter_yields_sorted_pairs() {
        let pairs = [("", 9), ("aka", 1), ("akane", 2), ("kaban", 3), ("kg", 4)];
        let f = fst_of(&pairs);
        let got: Vec<(String, u32)> = f
            .iter()
            .map(|(k, v)| (String::from_utf8(k).unwrap(), v))
            .collect();
        let want: Vec<(String, u32)> = pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn meta_round_trips() {
        let f = Fst::build(&[(b"ab".as_slice(), 5)], 0xDEAD_BEEF_0042).unwrap();
        assert_eq!(f.meta(), 0xDEAD_BEEF_0042);
    }

    #[test]
    fn arena_round_trips_through_bytes() {
        let f = fst_of(&[("aka", 1), ("kaban", 3)]);
        let bytes = f.as_bytes().to_vec();
        let g = Fst::from_vec(bytes).unwrap();
        assert_eq!(f, g);
        assert_eq!(g.get(b"kaban"), Some(3));
    }

    #[test]
    fn build_is_deterministic() {
        let a = fst_of(&[("aka", 1), ("kaban", 3), ("kg", 4)]);
        let b = fst_of(&[("aka", 1), ("kaban", 3), ("kg", 4)]);
        assert_eq!(a.as_bytes(), b.as_bytes());
    }

    #[test]
    fn shared_sub_range_view() {
        let inner = fst_of(&[("x", 1), ("xy", 2)]);
        let mut buf = vec![0u8; 16]; // unaligned-looking prefix
        buf.extend_from_slice(inner.as_bytes());
        buf.extend_from_slice(&[0xAB; 5]);
        let shared: Arc<[u8]> = Arc::from(buf.into_boxed_slice());
        let f = Fst::from_shared(shared, 16, inner.as_bytes().len()).unwrap();
        assert_eq!(f.get(b"xy"), Some(2));
        assert_eq!(f, inner);
    }

    #[test]
    fn header_validation_rejects_garbage() {
        assert_eq!(
            Fst::from_vec(vec![]).unwrap_err(),
            FstError::Truncated {
                expected: 32,
                found: 0
            }
        );
        assert_eq!(
            Fst::from_vec(vec![0u8; 40]).unwrap_err(),
            FstError::BadMagic
        );

        let good = fst_of(&[("ab", 1)]);
        let mut bad = good.as_bytes().to_vec();
        bad[4] = 99; // version
        assert_eq!(
            Fst::from_vec(bad).unwrap_err(),
            FstError::UnsupportedVersion { found: 99 }
        );

        let mut short = good.as_bytes().to_vec();
        short.truncate(short.len() - 1);
        assert!(matches!(
            Fst::from_vec(short).unwrap_err(),
            FstError::Truncated { .. }
        ));
    }

    #[test]
    fn corrupt_arena_lookups_do_not_panic() {
        let good = fst_of(&[("aka", 1), ("akane", 2), ("kg", 4)]);
        // Flipping base/check bytes must never cause a panic, only
        // (possibly) wrong lookups.
        for i in FST_HEADER_BYTES..good.as_bytes().len() {
            let mut bytes = good.as_bytes().to_vec();
            bytes[i] ^= 0xFF;
            if let Ok(f) = Fst::from_vec(bytes) {
                let _ = f.get(b"akane");
                let _ = f.longest_match_at(b"akane kg", 0);
            }
        }
    }

    #[test]
    fn dense_byte_alphabet() {
        let keys: Vec<(Vec<u8>, u32)> = (0u32..=255).map(|b| (vec![b as u8, b as u8], b)).collect();
        let pairs: Vec<(&[u8], u32)> = keys.iter().map(|(k, v)| (k.as_slice(), *v)).collect();
        let f = Fst::build(&pairs, 0).unwrap();
        for b in 0u8..=255 {
            assert_eq!(f.get(&[b, b]), Some(b as u32));
            assert_eq!(f.get(&[b]), None);
        }
        assert_eq!(f.iter().count(), 256);
    }
}
