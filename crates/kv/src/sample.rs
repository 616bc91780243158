//! Live operator latency samples — the raw material of online model
//! training (§6.1 applied to the serving store instead of a training
//! cluster).
//!
//! The execution engine tags its session with the [`ModelKey`] of the
//! remote operator it is currently running;
//! [`LiveCluster`](crate::LiveCluster) measures every tagged round on the
//! wall clock and pushes one [`OpSample`] per round into its
//! [`LiveSampleSink`]. A periodic consumer (the server's `Revalidator`)
//! drains the sink and folds the samples into the SLO prediction models,
//! closing the loop between the store the service actually runs on and the
//! admission decisions made against it.
//!
//! [`ModelKey`] is the one statement of the §6.1 coordinate: the plan's
//! prediction, the session's tag, the sample, the model store's index and
//! both durable formats all carry this type (the predictor re-exports it).
//!
//! The sink is deliberately cheap on the hot path: samples are striped over
//! a handful of short-critical-section buffers, capacity is bounded (a
//! slow or absent consumer costs a counter bump, never memory), and
//! draining swaps the buffers out wholesale.

use crate::time::Micros;
use piql_analysis::ordered::Mutex;
use piql_analysis::rank;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The three remote operators the model covers (§6.1 ignores local
/// operators: key/value-store latency dominates interactive queries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Θ(α, β): one bounded range read of α entries of β bytes.
    IndexScan = 0,
    /// Θ(αc, β): αc parallel primary-key gets.
    IndexFKJoin = 1,
    /// Θ(αc, αj, β): αc parallel bounded range reads of αj entries each.
    SortedIndexJoin = 2,
}

impl OpKind {
    /// The operator's stable number (its discriminant): the op byte of both
    /// durable formats.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The operator numbered `index`, if there is one.
    pub fn from_index(index: usize) -> Option<OpKind> {
        [Self::IndexScan, Self::IndexFKJoin, Self::SortedIndexJoin]
            .into_iter()
            .find(|op| op.index() == index)
    }

    pub fn name(self) -> &'static str {
        match self {
            OpKind::IndexScan => "IndexScan",
            OpKind::IndexFKJoin => "IndexFKJoin",
            OpKind::SortedIndexJoin => "SortedIndexJoin",
        }
    }
}

/// The coordinate an operator's model Θ is indexed by (§6.1) — predicted
/// at, tagged on the session while the operator's rounds execute, sampled
/// under, stored under and logged under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelKey {
    pub op: OpKind,
    /// Child-side cardinality (scan: the limit hint; joins: child tuples).
    pub alpha_c: u32,
    /// Per-key fan-out (1 except SortedIndexJoin).
    pub alpha_j: u32,
    /// Tuple size in bytes.
    pub beta: u32,
}

impl ModelKey {
    /// The key at plan-side (`u64`) coordinates, saturating: a bound past
    /// `u32::MAX` is beyond every lattice anyway.
    pub fn new(op: OpKind, alpha_c: u64, alpha_j: u64, beta: u64) -> ModelKey {
        let clamp = |x: u64| x.min(u32::MAX as u64) as u32;
        ModelKey {
            op,
            alpha_c: clamp(alpha_c),
            alpha_j: clamp(alpha_j),
            beta: clamp(beta),
        }
    }
}

/// One observed operator execution: the key the session was tagged with
/// and the round's wall-clock latency in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSample {
    pub tag: ModelKey,
    pub micros: Micros,
}

/// Number of stripe buffers. A small power of two: enough that concurrent
/// sessions rarely contend on the same stripe, small enough that draining
/// stays trivial.
const SINK_STRIPES: usize = 8;

/// Default bound on buffered samples (across all stripes). At ~32 bytes a
/// sample this caps an undrained sink near 2 MiB.
pub const DEFAULT_SINK_CAPACITY: usize = 65_536;

/// A bounded, striped buffer of [`OpSample`]s.
pub struct LiveSampleSink {
    stripes: Vec<Mutex<Vec<OpSample>>>,
    per_stripe_capacity: usize,
    /// Round-robin stripe selector (`Relaxed`: distribution, not ordering).
    cursor: AtomicUsize,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl Default for LiveSampleSink {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SINK_CAPACITY)
    }
}

impl LiveSampleSink {
    pub fn with_capacity(capacity: usize) -> Self {
        LiveSampleSink {
            stripes: (0..SINK_STRIPES)
                .map(|_| Mutex::new(rank::KV_SAMPLE_STRIPE, "kv.sample.stripe", Vec::new()))
                .collect(),
            per_stripe_capacity: capacity.div_ceil(SINK_STRIPES).max(1),
            cursor: AtomicUsize::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Record one sample. Bounded: when the chosen stripe is full the
    /// sample is dropped and counted, so a consumerless sink can never
    /// grow without limit.
    pub fn record(&self, sample: OpSample) {
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed) % self.stripes.len();
        let mut stripe = self.stripes[idx].lock();
        if stripe.len() >= self.per_stripe_capacity {
            drop(stripe);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        stripe.push(sample);
        drop(stripe);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Take every buffered sample, leaving the sink empty.
    pub fn drain(&self) -> Vec<OpSample> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            out.append(&mut stripe.lock());
        }
        out
    }

    /// Samples accepted since creation (drained or still buffered).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Samples rejected because the sink was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(us: Micros) -> OpSample {
        OpSample {
            tag: ModelKey::new(OpKind::IndexScan, 10, 1, 40),
            micros: us,
        }
    }

    #[test]
    fn record_and_drain_roundtrip() {
        let sink = LiveSampleSink::default();
        for i in 0..100 {
            sink.record(sample(i));
        }
        assert_eq!(sink.recorded(), 100);
        let mut drained = sink.drain();
        assert_eq!(drained.len(), 100);
        drained.sort_by_key(|s| s.micros);
        assert_eq!(drained[99].micros, 99);
        assert!(sink.drain().is_empty(), "drain leaves the sink empty");
    }

    #[test]
    fn sink_is_bounded_and_counts_drops() {
        let sink = LiveSampleSink::with_capacity(16);
        for i in 0..1000 {
            sink.record(sample(i));
        }
        let buffered = sink.drain().len();
        assert!(buffered <= 16 + SINK_STRIPES, "buffered {buffered}");
        assert_eq!(sink.recorded() + sink.dropped(), 1000);
        assert!(sink.dropped() > 0);
        // after a drain the sink accepts samples again
        sink.record(sample(7));
        assert_eq!(sink.drain().len(), 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing_under_capacity() {
        let sink = std::sync::Arc::new(LiveSampleSink::default());
        std::thread::scope(|scope| {
            for t in 0..8 {
                let sink = sink.clone();
                scope.spawn(move || {
                    for i in 0..500 {
                        sink.record(sample(t * 1000 + i));
                    }
                });
            }
        });
        assert_eq!(sink.recorded(), 4000);
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.drain().len(), 4000);
    }
}
