//! Concurrent model ingest — the online half of §6.1.
//!
//! The original pipeline trains a [`ModelStore`] once and freezes it; a
//! serving system needs the opposite: histograms that keep absorbing live
//! operator samples while admission predictions read a consistent state.
//! [`SharedModelStore`] splits those concerns:
//!
//! * **Readers** take an immutable `Arc<ModelStore>` *snapshot* (one
//!   cheap read-lock hit) and predict lock-free against it.
//! * **Writers** append into a *current-interval* accumulator behind its
//!   own short mutex ([`SharedModelStore::record_live`]) — the published
//!   snapshot is never touched mid-prediction.
//! * **Rotation** ([`SharedModelStore::rotate`]) folds the accumulator in
//!   as the newest interval of a fresh snapshot (dropping the oldest, a
//!   ring over time — each rotation is one observed SLO interval, Figure
//!   5(a)) and atomically swaps the published `Arc`.
//!
//! After `n_intervals` rotations the seed model (trained offline or
//! fabricated by a test kit) has been fully replaced by live observation —
//! predictions track the store the service actually runs on.

use crate::histogram::LatencyHistogram;
use crate::model::{snapped, ModelKey, ModelStore};
use crate::predict::SloPredictor;
use piql_analysis::ordered::{Mutex, RwLock};
use piql_analysis::rank;
use piql_kv::{Micros, OpSample};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Current-interval accumulator.
#[derive(Default)]
struct LiveInterval {
    histograms: BTreeMap<ModelKey, LatencyHistogram>,
    samples: u64,
}

/// Callback invoked under the rotation lock with each drained interval —
/// the journaling hook durability uses to persist rotations in order.
pub type RotationObserver = Box<dyn Fn(&BTreeMap<ModelKey, LatencyHistogram>) + Send + Sync>;

/// A [`ModelStore`] that can be read consistently while being appended to.
pub struct SharedModelStore {
    published: RwLock<Arc<ModelStore>>,
    live: Mutex<LiveInterval>,
    /// Serializes rotations: two concurrent `rotate` calls would otherwise
    /// both build from the same snapshot and the losing swap would silently
    /// discard the winner's drained interval.
    rotate_lock: Mutex<()>,
    /// Observer for drained intervals (see [`RotationObserver`]). Called
    /// with the rotation lock held, so observed intervals arrive in
    /// exactly the order they were folded into the published store.
    observer: RwLock<Option<RotationObserver>>,
    rotations: std::sync::atomic::AtomicU64,
}

impl SharedModelStore {
    /// Seed with an initial (offline-trained or fabricated) store.
    pub fn new(seed: ModelStore) -> Self {
        Self::from_snapshot(Arc::new(seed))
    }

    /// Seed from an already-shared snapshot (no copy).
    pub fn from_snapshot(seed: Arc<ModelStore>) -> Self {
        SharedModelStore {
            published: RwLock::new(rank::MODEL_PUBLISHED, "model.published", seed),
            live: Mutex::new(rank::MODEL_LIVE, "model.live", LiveInterval::default()),
            rotate_lock: Mutex::new(rank::MODEL_ROTATE, "model.rotate", ()),
            observer: RwLock::new(rank::MODEL_OBSERVER, "model.observer", None),
            rotations: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Install (or clear) the rotation observer. Durability uses this to
    /// append each drained interval to the write-ahead log; a restarted
    /// process replays them with [`ModelStore::rotated`] and arrives at
    /// the same published models.
    pub fn set_rotation_observer(&self, observer: Option<RotationObserver>) {
        *self.observer.write() = observer;
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<ModelStore> {
        self.published.read().clone()
    }

    /// The published snapshot paired with the number of rotations that
    /// produced it, read atomically (takes the rotation lock, so no
    /// rotation is mid-flight between the two reads). Durability uses the
    /// pair to checkpoint models with an exact rotation sequence number.
    pub fn snapshot_with_rotations(&self) -> (Arc<ModelStore>, u64) {
        let _rotating = self.rotate_lock.lock();
        (
            self.snapshot(),
            self.rotations.load(std::sync::atomic::Ordering::Relaxed),
        )
    }

    /// A predictor over the current snapshot. Successive calls may see
    /// newer models; one predictor instance never does.
    pub fn predictor(&self) -> SloPredictor {
        SloPredictor::from_snapshot(self.snapshot())
    }

    /// Append one live sample to the current (unpublished) interval. The
    /// key is snapped to the training lattice so live mass accumulates on
    /// the same grid points lookups resolve to.
    pub fn record_live(&self, key: ModelKey, latency: Micros) {
        let mut live = self.live.lock();
        live.histograms
            .entry(snapped(key))
            .or_insert_with(LatencyHistogram::standard)
            .record(latency);
        live.samples += 1;
    }

    /// Fold a batch of storage-layer samples (see
    /// [`piql_kv::KvStore::drain_samples`]) into the current interval.
    pub fn ingest(&self, samples: &[OpSample]) {
        if samples.is_empty() {
            return;
        }
        let mut live = self.live.lock();
        for s in samples {
            live.histograms
                .entry(snapped(s.tag))
                .or_insert_with(LatencyHistogram::standard)
                .record(s.micros);
            live.samples += 1;
        }
    }

    /// Samples recorded since the last rotation.
    pub fn pending_samples(&self) -> u64 {
        self.live.lock().samples
    }

    /// Intervals rotated in so far.
    pub fn rotations(&self) -> u64 {
        self.rotations.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Publish the current live interval: the accumulator becomes the
    /// newest interval of a new snapshot (the oldest rotates out) and a
    /// fresh accumulator starts. Returns the number of samples folded;
    /// an empty accumulator is a no-op (the snapshot is left untouched
    /// rather than diluted with an all-empty interval).
    pub fn rotate(&self) -> u64 {
        // One rotation at a time: the read-build-swap below must not
        // interleave with another rotation's, or one drained interval
        // would be lost to the losing Arc swap.
        let _rotating = self.rotate_lock.lock();
        let interval = {
            let mut live = self.live.lock();
            if live.samples == 0 {
                return 0;
            }
            std::mem::take(&mut *live)
        };
        // Build the new store outside any lock the readers or writers
        // need: `published` is only write-locked for the Arc swap. The
        // drained interval moves in as the newest.
        let current = self.snapshot();
        let next = Arc::new(current.rotated(interval.histograms));
        *self.published.write() = next.clone();
        // journal the drained interval, read where it now lies, while
        // still holding the rotation lock: log order == fold order, so
        // replay converges
        if let Some(observer) = self.observer.read().as_ref() {
            if let Some(newest) = next.interval_maps().last() {
                observer(newest);
            }
        }
        self.rotations
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        interval.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OpKind;
    use piql_kv::MILLIS;

    fn key(alpha_c: u32) -> ModelKey {
        ModelKey {
            op: OpKind::IndexScan,
            alpha_c,
            alpha_j: 1,
            beta: 40,
        }
    }

    fn seeded(n_intervals: usize, latency: Micros) -> SharedModelStore {
        let mut store = ModelStore::new(n_intervals);
        for i in 0..n_intervals {
            for _ in 0..10 {
                store.record(i, key(10), latency);
            }
        }
        SharedModelStore::new(store)
    }

    #[test]
    fn rotation_replaces_oldest_interval_and_updates_overall() {
        let shared = seeded(3, 5 * MILLIS);
        assert_eq!(shared.rotate(), 0, "empty accumulator is a no-op");
        for _ in 0..20 {
            shared.record_live(key(7), 50 * MILLIS); // snaps to α=10
        }
        assert_eq!(shared.pending_samples(), 20);
        assert_eq!(shared.rotate(), 20);
        assert_eq!(shared.pending_samples(), 0);
        let snap = shared.snapshot();
        assert_eq!(snap.n_intervals(), 3, "interval count is a ring");
        // newest interval holds the slow live data
        let newest = snap.lookup(2, key(10)).unwrap();
        assert!(newest.quantile_ms(0.5) > 40.0);
        // older intervals still fast
        assert!(snap.lookup(0, key(10)).unwrap().quantile_ms(1.0) <= 6.0);
        // overall mixes 20 fast (one seed interval rotated out) + 20 slow
        assert_eq!(snap.lookup_overall(key(10)).unwrap().count(), 40);
    }

    #[test]
    fn seed_is_fully_replaced_after_n_rotations() {
        let shared = seeded(2, 5 * MILLIS);
        for _ in 0..2 {
            shared.record_live(key(10), 100 * MILLIS);
            shared.rotate();
        }
        let snap = shared.snapshot();
        assert_eq!(snap.lookup_overall(key(10)).unwrap().count(), 2);
        assert!(snap.lookup_overall(key(10)).unwrap().quantile_ms(0.5) > 90.0);
    }

    #[test]
    fn predictor_snapshot_is_isolated_from_concurrent_rotation() {
        let shared = seeded(2, 5 * MILLIS);
        let before = shared.predictor();
        shared.record_live(key(10), 200 * MILLIS);
        shared.rotate();
        let after = shared.predictor();
        let h_before = before.models.lookup_overall(key(10)).unwrap();
        let h_after = after.models.lookup_overall(key(10)).unwrap();
        assert!(h_before.quantile_ms(1.0) <= 6.0, "old snapshot unchanged");
        assert!(h_after.quantile_ms(1.0) > 100.0, "new snapshot sees drift");
    }
}
