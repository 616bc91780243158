//! A [`Rows`] block stands for the `Vec<Tuple>` it was built from: it
//! gives the same tuples back, prints the same, and compares by value —
//! whatever its buffers hold after rows were cut, filtered, projected or
//! reordered in place, and however it was built. (That a string offset
//! cannot wrap is pinned where the offset is made, in `rows.rs`: 4 GiB of
//! text is more than a test can hold.)

use piql_core::rows::{Row, Rows};
use piql_core::tuple::Tuple;
use piql_core::value::{Value, ValueRef};
use proptest::prelude::*;

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i32>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::BigInt),
        ".{0,12}".prop_map(Value::Varchar),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Timestamp),
        any::<f64>()
            .prop_filter("NaN breaks PartialEq", |f| !f.is_nan())
            .prop_map(Value::Double),
    ]
}

const WIDEST: usize = 5;

/// Up to eight rows of one arity: drawn at the widest and cut to it.
fn tuples() -> impl Strategy<Value = Vec<Tuple>> {
    let wide = prop::collection::vec(prop::collection::vec(value(), WIDEST), 0..8);
    (0..=WIDEST, wide).prop_map(|(arity, rows)| {
        let cut = |mut row: Vec<Value>| {
            row.truncate(arity);
            Tuple::new(row)
        };
        rows.into_iter().map(cut).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_block_gives_back_and_prints_as_its_tuples(tuples in tuples()) {
        let rows = Rows::from(tuples.clone());
        prop_assert_eq!(rows.len(), tuples.len());
        prop_assert_eq!(rows.to_tuples(), tuples.clone());
        prop_assert_eq!(format!("{rows:?}"), format!("{tuples:?}"));
        prop_assert_eq!(format!("{rows:#?}"), format!("{tuples:#?}"));
        prop_assert_eq!(rows.first().map(|r| r.to_tuple()), tuples.first().cloned());
        prop_assert_eq!(rows.last().map(|r| r.to_tuple()), tuples.last().cloned());
        prop_assert_eq!(rows.into_iter().collect::<Vec<_>>(), tuples);
    }

    #[test]
    fn equality_is_by_value_after_in_place_edits(
        tuples in tuples(),
        cut in any::<prop::sample::Index>(),
        keep in prop::collection::vec(any::<bool>(), 8),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 0..WIDEST),
        ascending in any::<bool>(),
    ) {
        // truncate
        let n = cut.index(tuples.len() + 1);
        let mut rows = Rows::from(tuples.clone());
        rows.truncate(n);
        prop_assert_eq!(&rows, &Rows::from(tuples[..n].to_vec()));
        prop_assert_eq!(rows.to_tuples(), tuples[..n].to_vec());

        // retain
        let mut rows = Rows::from(tuples.clone());
        let mut at = 0;
        rows.try_retain(|_| {
            at += 1;
            Ok::<_, ()>(keep[at - 1])
        })
        .unwrap();
        let kept: Vec<Tuple> = tuples.iter().zip(&keep).filter(|(_, k)| **k).map(|(t, _)| t.clone()).collect();
        prop_assert_eq!(&rows, &Rows::from(kept));

        // project: positions that ascend move cells down, others gather
        let arity = tuples.first().map_or(0, Tuple::len);
        if arity > 0 {
            let mut positions: Vec<usize> = picks.iter().map(|p| p.index(arity)).collect();
            if ascending {
                positions.sort_unstable();
                positions.dedup();
            }
            let mut rows = Rows::from(tuples.clone());
            rows.project(positions.iter().copied(), &mut Rows::default()).unwrap();
            let projected: Vec<Tuple> = tuples
                .iter()
                .map(|t| Tuple::new(positions.iter().map(|&p| t[p].clone()).collect()))
                .collect();
            prop_assert_eq!(rows.arity(), positions.len());
            prop_assert_eq!(rows.to_tuples(), projected.clone());
            prop_assert_eq!(&rows, &Rows::from(projected));
            prop_assert!(Rows::from(tuples.clone()).project([arity].into_iter(), &mut Rows::default()).is_err());
        }

        // sort: a stable order by the first column, as `Vec::sort_by` gives
        if arity > 0 {
            let mut rows = Rows::from(tuples.clone());
            rows.sort_by(&mut Vec::new(), |a, b| a.value(0).total_cmp(b.value(0)));
            let mut sorted = tuples.clone();
            sorted.sort_by(|a, b| a[0].total_cmp(&b[0]));
            prop_assert_eq!(&rows, &Rows::from(sorted));
        }
    }

    /// A join's output — left cells copied, right values appended to the
    /// left block's text — equals the block built row by row.
    #[test]
    fn blocks_built_in_different_orders_are_equal(
        tuples in tuples(),
        split in any::<prop::sample::Index>(),
    ) {
        let arity = tuples.first().map_or(0, Tuple::len);
        let split = split.index(arity + 1);
        let left: Vec<Tuple> = tuples.iter().map(|t| Tuple::new(t.values()[..split].to_vec())).collect();
        let mut out = Rows::from(left).widen(arity - split, Rows::default());
        // rows last to first: the text is laid out nothing like row-major
        for (i, tuple) in tuples.iter().enumerate().rev() {
            out.push_left(i).unwrap();
            for v in &tuple.values()[split..] {
                out.push(ValueRef::of(v)).unwrap();
            }
            out.end_row().unwrap();
        }
        let reversed: Vec<Tuple> = tuples.iter().rev().cloned().collect();
        let widened = out.finish();
        prop_assert_eq!(&widened, &Rows::from(reversed.clone()));
        prop_assert_eq!(format!("{widened:?}"), format!("{reversed:?}"));
    }
}
