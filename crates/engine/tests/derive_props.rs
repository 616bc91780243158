//! The §7.2 re-check as a property: [`keys::derives`] says a row derives
//! an index-entry key exactly when [`keys::entry_keys`] emits that key for
//! the row — for generated key layouts (TOKEN parts first, later or two of
//! them, ascending and descending) and rows (repeated tokens; empty, NULL
//! and token-free text; lowercase forms several chars long; embedded NUL
//! bytes), against every key the row derives, each truncated and extended
//! by a byte or with one byte changed, and the keys of another row. And
//! `entry_keys` itself still emits what it did when it cloned a key per
//! token: the same keys, sorted and each once, every key of a TOKEN layout
//! in a buffer of exactly its size.

use piql_core::codec::key::{self, Dir};
use piql_core::tuple::Tuple;
use piql_core::value::{Value, ValueRef};
use piql_engine::keys::{self, DeriveScratch, KeyPart};
use proptest::prelude::*;

/// Words whose tokens repeat, change case, lowercase to several chars
/// (`İ`), hold a NUL byte or are no token at all.
const WORDS: [&str; 14] = [
    "the",
    "The",
    "THE",
    "grapes",
    "of",
    "wrath",
    "İ",
    "İstanbul",
    "a\0b",
    "\0",
    "--",
    "ß",
    "x1",
    "",
];
const SEPARATORS: [&str; 4] = [" ", "-", ", ", "\0"];

/// Columns: `id BIGINT, n INT, s VARCHAR, t VARCHAR, at TIMESTAMP`.
const ARITY: usize = 5;

fn text() -> impl Strategy<Value = Value> {
    let words = prop::collection::vec((0..WORDS.len(), 0..SEPARATORS.len()), 0..6);
    let text = words.prop_map(|words| {
        let mut s = String::new();
        for (w, sep) in words {
            s.push_str(WORDS[w]);
            s.push_str(SEPARATORS[sep]);
        }
        Value::Varchar(s)
    });
    prop_oneof![Just(Value::Null), text]
}

fn any_row() -> impl Strategy<Value = Tuple> {
    let n = prop_oneof![Just(Value::Null), (-3i32..3).prop_map(Value::Int)];
    (0i64..4, n, text(), text(), 0i64..3).prop_map(|(id, n, s, t, at)| {
        Tuple::new(vec![Value::BigInt(id), n, s, t, Value::Timestamp(at)])
    })
}

/// One to four parts over any column, either direction; a TOKEN part
/// usually over a text column, sometimes over one that holds no text.
fn layout() -> impl Strategy<Value = Vec<KeyPart>> {
    let part = (0..ARITY, any::<bool>(), 0u8..4).prop_map(|(col, desc, token)| KeyPart {
        col,
        dir: if desc { Dir::Desc } else { Dir::Asc },
        token: token > 0 && (matches!(col, 2 | 3) || token == 3),
    });
    prop::collection::vec(part, 1..5)
}

fn entry_keys(parts: &[KeyPart], row: &Tuple) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    keys::entry_keys(parts, row, |key| out.push(key)).unwrap();
    out
}

/// `entry_keys` as it was: a vector of token strings per TOKEN part, one
/// cloned key per token, then sorted and deduplicated.
fn entry_keys_by_cloning(parts: &[KeyPart], row: &Tuple) -> Vec<Vec<u8>> {
    let tokenize = |s: &str| {
        let mut tokens = Vec::new();
        let mut current = String::new();
        for ch in s.chars() {
            if ch.is_alphanumeric() {
                current.extend(ch.to_lowercase());
            } else if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            tokens.push(current);
        }
        tokens
    };
    let mut variants: Vec<Vec<u8>> = vec![Vec::new()];
    for part in parts {
        let value = ValueRef::of(&row[part.col]);
        if !part.token {
            for buf in &mut variants {
                key::encode_component_ref(buf, value, part.dir).unwrap();
            }
            continue;
        }
        let texts = match value {
            ValueRef::Varchar(s) => tokenize(s),
            _ => Vec::new(),
        };
        let mut expanded = Vec::new();
        for buf in &variants {
            for tok in &texts {
                let mut b = buf.clone();
                key::encode_component_ref(&mut b, ValueRef::Varchar(tok), part.dir).unwrap();
                expanded.push(b);
            }
        }
        variants = expanded;
    }
    variants.sort();
    variants.dedup();
    variants
}

/// Check `derives` against `entry_keys` for `row` on `key` and on its
/// one-byte neighbours; `byte` picks the byte appended and the one
/// changed.
fn check_around(
    parts: &[KeyPart],
    row: &Tuple,
    emitted: &[Vec<u8>],
    key: &[u8],
    byte: u8,
    scratch: &mut DeriveScratch,
) -> Result<(), TestCaseError> {
    let mut candidates = vec![key.to_vec()];
    if let Some((_, shorter)) = key.split_last() {
        candidates.push(shorter.to_vec());
        let mut changed = key.to_vec();
        let at = byte as usize % key.len();
        changed[at] = changed[at].wrapping_add(byte | 1);
        candidates.push(changed);
    }
    candidates.push([key, &[byte]].concat());
    for candidate in candidates {
        let derived = keys::derives(parts, row, &candidate, scratch).unwrap();
        let want = emitted.binary_search(&candidate).is_ok();
        prop_assert_eq!(derived, want, "{:?} {:?} {:?}", parts, row, candidate);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `derives(parts, row, key)` ⇔ `entry_keys(parts, row)` emits `key`.
    #[test]
    fn a_row_derives_exactly_the_keys_it_emits(
        parts in layout(),
        row in any_row(),
        other in any_row(),
        byte in any::<u8>(),
    ) {
        // one scratch for every check: nothing of one row leaks into the next
        let mut scratch = DeriveScratch::default();
        let emitted = entry_keys(&parts, &row);
        for key in &emitted {
            check_around(&parts, &row, &emitted, key, byte, &mut scratch)?;
        }
        for key in entry_keys(&parts, &other) {
            check_around(&parts, &row, &emitted, &key, byte, &mut scratch)?;
        }
        check_around(&parts, &row, &emitted, &[], byte, &mut scratch)?;
    }

    /// `entry_keys` emits what cloning a key per token did, in the same
    /// order, each key of a TOKEN layout in a buffer of exactly its size
    /// (a layout without one sizes its key by `encoded_len`, which does
    /// not count NUL escapes).
    #[test]
    fn entry_keys_are_sorted_unique_and_exactly_sized(parts in layout(), row in any_row()) {
        let emitted = entry_keys(&parts, &row);
        prop_assert_eq!(&emitted, &entry_keys_by_cloning(&parts, &row));
        prop_assert!(emitted.windows(2).all(|w| w[0] < w[1]), "{:?}", emitted);
        let mut exact = parts.iter().any(|p| p.token);
        if exact {
            keys::entry_keys(&parts, &row, |key| exact &= key.capacity() == key.len()).unwrap();
            prop_assert!(exact, "{:?} {:?}", parts, row);
        }
    }
}

/// The shapes the generator is asked to reach, each once by hand.
#[test]
fn the_listed_shapes_hold() {
    let token = |col, dir| KeyPart {
        col,
        dir,
        token: true,
    };
    let plain = |col, dir| KeyPart {
        col,
        dir,
        token: false,
    };
    let row = |s: Value, t: Value| {
        Tuple::new(vec![
            Value::BigInt(7),
            Value::Int(1),
            s,
            t,
            Value::Timestamp(2),
        ])
    };
    let text = |s: &str| Value::Varchar(s.into());
    let layouts = [
        vec![token(2, Dir::Asc), plain(0, Dir::Asc)],
        vec![token(2, Dir::Desc), plain(4, Dir::Desc), plain(0, Dir::Asc)],
        vec![plain(1, Dir::Asc), token(2, Dir::Asc), plain(0, Dir::Asc)],
        vec![token(2, Dir::Asc), token(3, Dir::Desc), plain(0, Dir::Asc)],
    ];
    let rows = [
        row(text("the The THE wrath"), text("of")),
        row(text(""), text("x")),
        row(Value::Null, text("x")),
        row(text("-- !!"), text("x")),
        row(text("İstanbul İ"), text("a\0b \0")),
    ];
    let mut scratch = DeriveScratch::default();
    for parts in &layouts {
        for (i, r) in rows.iter().enumerate() {
            let emitted = entry_keys(parts, r);
            assert_eq!(emitted, entry_keys_by_cloning(parts, r), "{parts:?} {r:?}");
            // rows 1-3 have no token in `s`, so no entry
            assert_eq!(emitted.is_empty(), (1..=3).contains(&i), "{parts:?} {r:?}");
            for (j, other) in rows.iter().enumerate() {
                for key in entry_keys(parts, other) {
                    for byte in [0x00, 0x01, 0xFF] {
                        check_around(parts, r, &emitted, &key, byte, &mut scratch)
                            .unwrap_or_else(|e| panic!("row {i} against row {j}: {e}"));
                    }
                }
            }
        }
    }
    // a repeated token is one entry; İ lowercases to two chars, both kept
    let parts = &layouts[0];
    assert_eq!(entry_keys(parts, &rows[0]).len(), 2, "the, wrath");
    let istanbul = entry_keys(parts, &rows[4]);
    assert_eq!(istanbul.len(), 2);
    assert!(keys::derives(parts, &rows[4], &istanbul[0], &mut scratch).unwrap());
}
