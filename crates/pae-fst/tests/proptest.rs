//! Property-based equivalence: the double-array automaton must agree
//! byte-for-byte with a naive reference over arbitrary key sets.

use std::collections::BTreeMap;

use proptest::prelude::*;

use pae_fst::{Fst, FstView};

/// Reference longest-match: scan every key at `pos`.
fn reference_longest_match(
    keys: &BTreeMap<Vec<u8>, u32>,
    bytes: &[u8],
    pos: usize,
) -> Option<(usize, u32)> {
    let mut best: Option<(usize, u32)> = None;
    for (k, &v) in keys {
        if !k.is_empty()
            && bytes.len() >= pos + k.len()
            && &bytes[pos..pos + k.len()] == k.as_slice()
            && best.is_none_or(|(len, _)| k.len() > len)
        {
            best = Some((k.len(), v));
        }
    }
    best
}

fn keyset_strategy() -> impl Strategy<Value = BTreeMap<Vec<u8>, u32>> {
    proptest::collection::vec("[a-c]{1,5}", 0..12).prop_map(|words| {
        words
            .into_iter()
            .enumerate()
            .map(|(i, w)| (w.into_bytes(), i as u32))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `get` agrees with the map for both members and random probes.
    #[test]
    fn get_matches_reference(keys in keyset_strategy(), probe in "[a-d]{0,6}") {
        let pairs: Vec<(&[u8], u32)> =
            keys.iter().map(|(k, &v)| (k.as_slice(), v)).collect();
        let fst = Fst::build(&pairs, 0).unwrap();
        for (k, &v) in &keys {
            prop_assert_eq!(fst.get(k), Some(v));
        }
        prop_assert_eq!(fst.get(probe.as_bytes()), keys.get(probe.as_bytes()).copied());
    }

    /// `longest_match_at` agrees with the scan-all-keys reference at
    /// every position of a random text.
    #[test]
    fn longest_match_matches_reference(keys in keyset_strategy(), text in "[a-d ]{0,24}") {
        let pairs: Vec<(&[u8], u32)> =
            keys.iter().map(|(k, &v)| (k.as_slice(), v)).collect();
        let fst = Fst::build(&pairs, 0).unwrap();
        let bytes = text.as_bytes();
        for pos in 0..=bytes.len() {
            prop_assert_eq!(
                fst.longest_match_at(bytes, pos),
                reference_longest_match(&keys, bytes, pos),
                "pos {} of {:?}", pos, text
            );
        }
    }

    /// Serialize → reopen from raw bytes is lossless, and iteration
    /// returns exactly the input pairs in key order.
    #[test]
    fn arena_round_trip_and_iteration(keys in keyset_strategy()) {
        let pairs: Vec<(&[u8], u32)> =
            keys.iter().map(|(k, &v)| (k.as_slice(), v)).collect();
        let fst = Fst::build(&pairs, 42).unwrap();
        let reopened = Fst::from_vec(fst.as_bytes().to_vec()).unwrap();
        prop_assert_eq!(&fst, &reopened);
        prop_assert_eq!(reopened.meta(), 42);
        let view = FstView::new(reopened.as_bytes()).unwrap();
        let got: Vec<(Vec<u8>, u32)> = view.iter().collect();
        let want: Vec<(Vec<u8>, u32)> =
            keys.iter().map(|(k, &v)| (k.clone(), v)).collect();
        prop_assert_eq!(got, want);
    }
}
