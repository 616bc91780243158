//! Unit tests for the engine's local operators (sort, aggregates) — the
//! client-side half of §7.1.

use piql_core::ast::AggFunc;
use piql_core::codec::key::Dir;
use piql_core::plan::physical::PhysAggregate;
use piql_core::rows::Rows;
use piql_core::tuple;
use piql_core::tuple::Tuple;
use piql_core::value::Value;
use piql_engine::exec::{aggregate_rows, compare_rows};

fn agg(func: AggFunc, arg: Option<usize>) -> PhysAggregate {
    PhysAggregate {
        func,
        arg,
        alias: "x".into(),
    }
}

fn aggregate(rows: Vec<Tuple>, group_by: &[usize], aggs: &[PhysAggregate]) -> Vec<Tuple> {
    aggregate_rows(&Rows::from(rows), group_by, aggs)
        .unwrap()
        .to_tuples()
}

#[test]
fn sort_is_stable_multi_key_with_directions() {
    let mut rows = Rows::from(vec![
        tuple!["b", 2, "first"],
        tuple!["a", 2, "second"],
        tuple!["a", 1, "third"],
        tuple!["b", 2, "fourth"],
    ]);
    rows.sort_by(|a, b| compare_rows(&a, &b, &[(0, Dir::Asc), (1, Dir::Desc)]));
    assert_eq!(
        rows.to_tuples(),
        vec![
            tuple!["a", 2, "second"],
            tuple!["a", 1, "third"],
            tuple!["b", 2, "first"], // stability: original order of ties
            tuple!["b", 2, "fourth"],
        ]
    );
}

#[test]
fn aggregates_over_groups() {
    let rows = vec![
        tuple!["a", 10],
        tuple!["a", 30],
        tuple!["b", 5],
        Tuple::new(vec![Value::Varchar("b".into()), Value::Null]),
    ];
    let out = aggregate(
        rows,
        &[0],
        &[
            agg(AggFunc::Count, None),
            agg(AggFunc::Count, Some(1)),
            agg(AggFunc::Sum, Some(1)),
            agg(AggFunc::Avg, Some(1)),
            agg(AggFunc::Min, Some(1)),
            agg(AggFunc::Max, Some(1)),
        ],
    );
    assert_eq!(out.len(), 2);
    // group "a": count*=2, count(v)=2, sum=40, avg=20, min=10, max=30
    assert_eq!(out[0][0], Value::Varchar("a".into()));
    assert_eq!(out[0][1], Value::BigInt(2));
    assert_eq!(out[0][2], Value::BigInt(2));
    assert_eq!(out[0][3], Value::BigInt(40));
    assert_eq!(out[0][4], Value::Double(20.0));
    assert_eq!(out[0][5], Value::Int(10));
    assert_eq!(out[0][6], Value::Int(30));
    // group "b": NULL ignored by value aggregates but counted by COUNT(*)
    assert_eq!(out[1][1], Value::BigInt(2));
    assert_eq!(out[1][2], Value::BigInt(1));
    assert_eq!(out[1][3], Value::BigInt(5));
    assert_eq!(out[1][5], Value::Int(5));
}

#[test]
fn global_aggregate_on_empty_input_yields_zero_count() {
    let out = aggregate(
        Vec::new(),
        &[],
        &[agg(AggFunc::Count, None), agg(AggFunc::Sum, Some(0))],
    );
    assert_eq!(out, vec![Tuple::new(vec![Value::BigInt(0), Value::Null])]);
    // grouped aggregate on empty input yields no rows
    let out = aggregate(Vec::new(), &[0], &[agg(AggFunc::Count, None)]);
    assert!(out.is_empty());
}

#[test]
fn double_sums_stay_double() {
    let rows = vec![
        Tuple::new(vec![Value::Double(1.5)]),
        Tuple::new(vec![Value::Double(2.25)]),
    ];
    let out = aggregate(rows, &[], &[agg(AggFunc::Sum, Some(0))]);
    assert_eq!(out[0][0], Value::Double(3.75));
}
