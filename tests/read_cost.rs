//! What a read spends at the store is fixed by its plan, not by how the
//! engine gets its rows from operator to operator: for every SCADr
//! page-view and TPC-W Table-1 read, the requests, rounds, entries and
//! bytes a session is charged — and the rows it gets and their digest —
//! are the read rows of the cost table's store section
//! (`tests/cost_golden.txt`), equal on the simulated cluster and on the
//! live one, and within the bound the plan gave before the read ran. The
//! read-side twin of `write_bound.rs`.

mod store_rows;

use store_rows::{assert_store_rows_pinned, Part};

#[test]
fn workload_reads_cost_exactly_what_their_plans_always_did() {
    let rows = assert_store_rows_pinned(Part::Reads);
    // a read of each workload spends all its bound allows
    for workload in ["page view", "tpcw"] {
        let mut rows = rows.iter().filter(|row| row.name.starts_with(workload));
        let tight = rows.any(|r| r.requests == r.bound.requests || r.rounds == r.bound.rounds);
        assert!(tight, "no {workload} read is at its bound");
    }
}
