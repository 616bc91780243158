//! Concurrency contract of [`SharedModelStore`]: writers append and rotate
//! while readers predict from snapshots — no torn reads, no lost samples,
//! and a predictor instance never observes a half-rotated store.

use piql_core::catalog::{Catalog, TableDef};
use piql_core::opt::{Compiled, Optimizer};
use piql_core::parser::parse_select;
use piql_core::value::DataType;
use piql_kv::MILLIS;
use piql_predict::{ModelKey, ModelStore, OpKind, SharedModelStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn scan_key(alpha_c: u32) -> ModelKey {
    ModelKey {
        op: OpKind::IndexScan,
        alpha_c,
        alpha_j: 1,
        beta: 40,
    }
}

/// A one-operator plan (bounded scan of 10) whose only theta is
/// `IndexScan(α=10, β≈users row)` — small enough that predictions are a
/// direct read of the α=10 histogram.
fn compile_scan() -> Compiled {
    let mut cat = Catalog::new();
    cat.create_table(
        TableDef::builder("events")
            .column("owner", DataType::Varchar(8))
            .column("seq", DataType::Int)
            .primary_key(&["owner", "seq"])
            .build(),
    )
    .unwrap();
    Optimizer::scale_independent()
        .compile(
            &cat,
            &parse_select("SELECT * FROM events WHERE owner = <o> ORDER BY seq LIMIT 10").unwrap(),
        )
        .unwrap()
}

#[test]
fn ingest_while_predicting_is_consistent() {
    let mut seed = ModelStore::new(4);
    for interval in 0..4 {
        for _ in 0..25 {
            seed.record(interval, scan_key(10), 5 * MILLIS);
        }
    }
    let shared = Arc::new(SharedModelStore::new(seed));
    let compiled = compile_scan();
    let stop = Arc::new(AtomicBool::new(false));
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 2_000;

    std::thread::scope(|scope| {
        // writers: hammer record_live with slow samples
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                let shared = shared.clone();
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        shared.record_live(scan_key((i % 10 + 1) as u32), 40 * MILLIS);
                    }
                })
            })
            .collect();
        // rotator: keep publishing new snapshots while writers run
        {
            let shared = shared.clone();
            let stop = stop.clone();
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    shared.rotate();
                    std::thread::yield_now();
                }
            });
        }
        // readers: every prediction must be finite and self-consistent
        for _ in 0..3 {
            let shared = shared.clone();
            let stop = stop.clone();
            let compiled = &compiled;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let predictor = shared.predictor();
                    let pred = predictor.predict(compiled);
                    assert!(pred.max_p99_ms.is_finite());
                    for &p in &pred.p99_per_interval_ms {
                        assert!(p.is_finite() && p <= pred.max_p99_ms + 1e-9);
                    }
                    std::thread::yield_now();
                }
            });
        }
        for w in writers {
            w.join().expect("writer panicked");
        }
        stop.store(true, Ordering::Relaxed);
    });

    // fold any un-rotated tail, then check the loop actually closed:
    // the newest interval reflects live (slow) observation only.
    shared.rotate();
    let snap = shared.snapshot();
    assert_eq!(snap.n_intervals(), 4);
    assert!(snap.total_samples() > 0);
    let newest = snap
        .lookup(snap.n_intervals() - 1, scan_key(10))
        .expect("live data present (directly or via same-op fallback)");
    assert!(newest.quantile_ms(0.99) >= 40.0);
}

#[test]
fn drained_kv_samples_land_on_grid_points() {
    use piql_kv::OpSample;
    let shared = SharedModelStore::new(ModelStore::new(2));
    let samples: Vec<OpSample> = (0..10)
        .map(|i| OpSample {
            tag: ModelKey {
                op: OpKind::SortedIndexJoin,
                alpha_c: 97, // snaps to 100
                alpha_j: 9,  // snaps to 10
                beta: 100,   // snaps to 160
            },
            micros: (10 + i) * MILLIS,
        })
        .collect();
    shared.ingest(&samples);
    assert_eq!(shared.pending_samples(), 10);
    assert_eq!(shared.rotate(), 10);
    let snap = shared.snapshot();
    let hist = snap
        .lookup_overall(ModelKey {
            op: OpKind::SortedIndexJoin,
            alpha_c: 100,
            alpha_j: 10,
            beta: 160,
        })
        .expect("snapped grid point exists");
    assert_eq!(hist.count(), 10);
}
