//! Property-based tests over the core invariants: order preservation of the
//! key codec, row-codec roundtrips, pagination completeness, histogram
//! composition, and the op-count bound under randomized data.

use piql::{Database, ExecStrategy, Params, Session, SimCluster, Value};
use piql_core::codec::key::{decode_key, encode_key, Dir};
use piql_core::codec::row::{decode_tuple, encode_tuple};
use piql_core::tuple::Tuple;
use piql_core::value::DataType;
use piql_kv::ClusterConfig;
use proptest::prelude::*;
use std::sync::Arc;

/// A generator of (DataType, Value) pairs valid for keys.
fn key_value() -> impl Strategy<Value = (DataType, Value)> {
    prop_oneof![
        any::<i32>().prop_map(|v| (DataType::Int, Value::Int(v))),
        any::<i64>().prop_map(|v| (DataType::BigInt, Value::BigInt(v))),
        any::<i64>().prop_map(|v| (DataType::Timestamp, Value::Timestamp(v))),
        any::<bool>().prop_map(|v| (DataType::Bool, Value::Bool(v))),
        "[a-z0-9\\x00]{0,12}".prop_map(|s| (DataType::Varchar(24), Value::Varchar(s))),
    ]
}

fn key_tuple(len: usize) -> impl Strategy<Value = Vec<(DataType, Value, Dir)>> {
    prop::collection::vec(
        (key_value(), prop_oneof![Just(Dir::Asc), Just(Dir::Desc)])
            .prop_map(|((t, v), d)| (t, v, d)),
        1..=len,
    )
}

/// Compare two equal-shape tuples in value space with per-component dirs.
fn tuple_cmp(a: &[(DataType, Value, Dir)], b: &[(DataType, Value, Dir)]) -> std::cmp::Ordering {
    for ((_, va, d), (_, vb, _)) in a.iter().zip(b) {
        let ord = va.total_cmp(vb);
        let ord = if *d == Dir::Desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode(a) < encode(b) in byte order iff a < b in value order, for
    /// any same-shape composite keys with mixed directions.
    #[test]
    fn key_codec_preserves_order(shape in key_tuple(4), swap in any::<prop::sample::Index>()) {
        // derive a second tuple by mutating one component
        let mut other = shape.clone();
        let i = swap.index(other.len());
        let (t, v, d) = other[i].clone();
        let v2 = match (&t, &v) {
            (DataType::Int, Value::Int(x)) => Value::Int(x.wrapping_add(1)),
            (DataType::BigInt, Value::BigInt(x)) => Value::BigInt(x.wrapping_add(1)),
            (DataType::Timestamp, Value::Timestamp(x)) => Value::Timestamp(x.wrapping_add(1)),
            (DataType::Bool, Value::Bool(x)) => Value::Bool(!x),
            (_, Value::Varchar(s)) => Value::Varchar(format!("{s}a")),
            _ => v.clone(),
        };
        other[i] = (t, v2, d);

        let enc = |t: &[(DataType, Value, Dir)]| {
            let vals: Vec<Value> = t.iter().map(|(_, v, _)| v.clone()).collect();
            let dirs: Vec<Dir> = t.iter().map(|(_, _, d)| *d).collect();
            encode_key(&vals, &dirs).unwrap()
        };
        let (ka, kb) = (enc(&shape), enc(&other));
        prop_assert_eq!(ka.cmp(&kb), tuple_cmp(&shape, &other));
    }

    /// decode(encode(x)) == x for composite keys.
    #[test]
    fn key_codec_roundtrips(shape in key_tuple(5)) {
        let vals: Vec<Value> = shape.iter().map(|(_, v, _)| v.clone()).collect();
        let dirs: Vec<Dir> = shape.iter().map(|(_, _, d)| *d).collect();
        let types: Vec<DataType> = shape.iter().map(|(t, _, _)| *t).collect();
        let enc = encode_key(&vals, &dirs).unwrap();
        let (dec, used) = decode_key(&enc, &types, &dirs).unwrap();
        prop_assert_eq!(dec, vals);
        prop_assert_eq!(used, enc.len());
    }

    /// Row codec roundtrips arbitrary tuples (including NULLs and doubles).
    #[test]
    fn row_codec_roundtrips(vals in prop::collection::vec(prop_oneof![
        Just(Value::Null),
        any::<i32>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::BigInt),
        any::<bool>().prop_map(Value::Bool),
        any::<f64>().prop_filter("NaN breaks PartialEq", |f| !f.is_nan()).prop_map(Value::Double),
        ".{0,40}".prop_map(Value::Varchar),
    ], 0..10)) {
        let t = Tuple::new(vals);
        prop_assert_eq!(decode_tuple(&encode_tuple(&t)).unwrap(), t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Paginating with any page size returns exactly the full ordered
    /// result, and every page respects the compiled bound.
    #[test]
    fn pagination_equals_full_scan(page in 1u64..20, rows in 1usize..60) {
        let db = Database::new(Arc::new(SimCluster::new(ClusterConfig::instant(3))));
        db.execute_ddl(
            "CREATE TABLE posts (author VARCHAR(16) NOT NULL, seq INT NOT NULL, \
             body VARCHAR(32), PRIMARY KEY (author, seq))",
        ).unwrap();
        db.bulk_load("posts", (0..rows).map(|i| Tuple::new(vec![
            Value::Varchar("amy".into()),
            Value::Int(i as i32),
            Value::Varchar(format!("post {i}")),
        ]))).unwrap();
        db.cluster().rebalance();

        let prepared = db.prepare(&format!(
            "SELECT * FROM posts WHERE author = <a> ORDER BY seq DESC PAGINATE {page}"
        )).unwrap();
        let mut params = Params::new();
        params.set(0, Value::Varchar("amy".into()));
        let mut session = Session::new();
        let mut collected = Vec::new();
        let mut cursor = None;
        loop {
            let r = db.execute_with(
                &mut session, &prepared, &params, ExecStrategy::Parallel, cursor.as_ref(),
            ).unwrap();
            prop_assert!(r.rows.len() as u64 <= page);
            if r.rows.is_empty() { break; }
            collected.extend(r.rows);
            match r.cursor { Some(c) => cursor = Some(c), None => break }
        }
        prop_assert_eq!(collected.len(), rows);
        // strictly descending seq with no duplicates
        for w in collected.windows(2) {
            prop_assert!(w[0][1].as_i64() > w[1][1].as_i64());
        }
    }

    /// Measured kv requests never exceed the compiled bound, for random
    /// data shapes and cardinality limits.
    #[test]
    fn measured_ops_never_exceed_bound(
        limit in 1u64..30,
        per_owner in 0usize..35,
        page in 1u64..15,
    ) {
        let db = Database::new(Arc::new(SimCluster::new(ClusterConfig::instant(4))));
        db.execute_ddl(&format!(
            "CREATE TABLE follows (owner VARCHAR(16) NOT NULL, target VARCHAR(16) NOT NULL, \
             PRIMARY KEY (owner, target), CARDINALITY LIMIT {limit} (owner))"
        )).unwrap();
        // respect the constraint while loading
        let n = per_owner.min(limit as usize);
        db.bulk_load("follows", (0..n).map(|i| Tuple::new(vec![
            Value::Varchar("bob".into()),
            Value::Varchar(format!("t{i:03}")),
        ]))).unwrap();
        db.cluster().rebalance();
        let prepared = db.prepare(&format!(
            "SELECT * FROM follows WHERE owner = <o> LIMIT {page}"
        )).unwrap();
        let mut params = Params::new();
        params.set(0, Value::Varchar("bob".into()));
        let mut s = Session::new();
        let r = db.execute(&mut s, &prepared, &params).unwrap();
        prop_assert!(s.stats.logical_requests <= prepared.compiled.bounds.requests);
        prop_assert!(r.rows.len() as u64 <= prepared.compiled.bounds.tuples);
        prop_assert_eq!(r.rows.len(), n.min(page as usize));
    }

    /// §6.1's "never under", for a store of any shape: a plan whose own
    /// lattice point holds no histogram is never predicted below a stored
    /// point of its operator that it dominates in every coordinate.
    #[test]
    fn model_fallback_never_answers_below_a_dominated_stored_point(
        stored in prop::collection::vec(
            ((0usize..3, 0usize..6, 0usize..4, 0usize..4), 1u64..400),
            1..10,
        ),
        query in (0usize..3, 1u32..700, 1u32..700, 1u32..3_000),
    ) {
        use piql_predict::{snapped, ModelKey, ModelStore, OpKind, BETA_GRID};
        // a spread of the lattice: small, middling and its far corner
        const ALPHAS: [u32; 6] = [1, 10, 50, 100, 250, 500];
        let op = |i| OpKind::from_index(i).expect("three operators");
        let mut store = ModelStore::new(1);
        for &((o, c, j, b), ms) in &stored {
            let key = ModelKey {
                op: op(o),
                alpha_c: ALPHAS[c],
                alpha_j: ALPHAS[j],
                beta: BETA_GRID[b],
            };
            store.record(0, key, ms * 1_000);
        }
        let (o, alpha_c, alpha_j, beta) = query;
        let query = ModelKey { op: op(o), alpha_c, alpha_j, beta };
        let p99 = |key| store.lookup(0, key).map(|h| h.quantile_ms(0.99));
        let keys = store.keys();
        if keys.contains(&snapped(query)) {
            // an exact hit answers its own histogram
            prop_assert_eq!(p99(query), p99(snapped(query)));
        } else {
            for k in keys.iter().filter(|k| {
                k.op == query.op
                    && k.alpha_c <= alpha_c
                    && k.alpha_j <= alpha_j
                    && k.beta <= beta
            }) {
                prop_assert!(
                    p99(query) >= p99(*k),
                    "{query:?} -> {:?}, but {k:?} -> {:?}", p99(query), p99(*k)
                );
            }
        }
    }
}
