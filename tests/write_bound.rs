//! A write plan's static bound is a contract, not a comment: for every
//! INSERT shape of the SCADr and TPC-W workloads — succeeding, rejected as
//! a duplicate, and rolled back by a cardinality limit — and for every
//! UPDATE and DELETE outcome — a token set that partly changes, nothing
//! indexed changing, a lost test-and-set race retried, a missing row — the
//! requests and rounds a session spends are the write rows of the cost
//! table's store section (`tests/cost_golden.txt`), within the plan's
//! bound, and it ships back no entries and no bytes (the bound's zeros),
//! on the simulated cluster and on the live one. The write-side twin of
//! the read path's `bound_utilisation <= 1`.

mod store_rows;

use store_rows::{assert_store_rows_pinned, Part};

#[test]
fn updates_and_deletes_stay_within_their_static_write_bound() {
    assert_store_rows_pinned(Part::UpdatesAndDeletes);
}

#[test]
fn workload_inserts_stay_within_their_static_write_bound() {
    let rows = assert_store_rows_pinned(Part::Inserts);
    // a line refused at its cardinality limit is counted, refused and
    // undone: the most a line insert can cost, and all its bound allows
    let refused = rows.iter().filter(|row| row.name.contains(" line 4 of 3"));
    let tight = refused.map(|r| (r.requests == r.bound.requests, r.rounds == r.bound.rounds));
    assert_eq!(tight.collect::<Vec<_>>(), [(true, true); 2]);
}
