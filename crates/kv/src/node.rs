//! Storage-node timing simulation.
//!
//! A node is a bounded-concurrency server: `concurrency` operations can be
//! in flight at once; further arrivals queue FIFO. The node keeps a
//! min-heap of slot busy-until times — admitting an op at virtual time `t`
//! costs `max(t, earliest free slot) + service`, which reproduces queueing
//! delay under load and therefore the latency knee the paper's throughput
//! experiments rely on (§8.4).

use crate::latency::{InterferenceConfig, LatencyConfig};
use crate::op::KvRequest;
use crate::time::Micros;
use piql_analysis::ordered::Mutex;
use piql_analysis::rank;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One simulated storage node.
pub struct StorageNode {
    pub id: usize,
    state: Mutex<NodeState>,
    latency: LatencyConfig,
    interference: InterferenceConfig,
    seed: u64,
}

struct NodeState {
    /// Busy-until time per concurrency slot.
    slots: BinaryHeap<Reverse<Micros>>,
    rng: StdRng,
    ops_served: u64,
    busy_us: u64,
    queue_us: u64,
}

/// Outcome of admitting one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    pub start: Micros,
    pub done: Micros,
}

impl StorageNode {
    pub fn new(
        id: usize,
        concurrency: usize,
        latency: LatencyConfig,
        interference: InterferenceConfig,
        seed: u64,
    ) -> Self {
        let mut slots = BinaryHeap::with_capacity(concurrency);
        for _ in 0..concurrency.max(1) {
            slots.push(Reverse(0));
        }
        StorageNode {
            id,
            state: Mutex::new(
                rank::SIM_NODE,
                "sim.node",
                NodeState {
                    slots,
                    rng: StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9)),
                    ops_served: 0,
                    busy_us: 0,
                    queue_us: 0,
                },
            ),
            latency,
            interference,
            seed,
        }
    }

    /// Admit one operation arriving at `arrival`; returns its completion.
    pub fn admit(
        &self,
        arrival: Micros,
        req: &KvRequest,
        result_entries: u64,
        result_bytes: u64,
    ) -> Admission {
        let mut st = self.state.lock();
        let Reverse(free) = st.slots.pop().expect("slots nonempty");
        let start = arrival.max(free);
        let service = self
            .latency
            .sample(&mut st.rng, req, result_entries, result_bytes);
        let factor = self.interference.factor(self.seed, self.id, start);
        let service = (service as f64 * factor) as Micros;
        let done = start + service;
        st.slots.push(Reverse(done));
        st.ops_served += 1;
        st.busy_us += service;
        st.queue_us += start - arrival;
        Admission { start, done }
    }

    /// Completion time of the least-loaded slot — used for replica routing.
    pub fn earliest_free(&self) -> Micros {
        self.state
            .lock()
            .slots
            .peek()
            .map(|Reverse(t)| *t)
            .unwrap_or(0)
    }

    /// (ops served, total busy µs, total queueing µs).
    pub fn stats(&self) -> (u64, u64, u64) {
        let st = self.state.lock();
        (st.ops_served, st.busy_us, st.queue_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::NsId;

    fn fixed_node(concurrency: usize, service_us: f64) -> StorageNode {
        StorageNode::new(
            0,
            concurrency,
            LatencyConfig {
                median_us: service_us,
                sigma: 0.0,
                per_entry_us: 0.0,
                per_kib_us: 0.0,
                write_factor: 1.0,
            },
            InterferenceConfig::none(),
            1,
        )
    }

    fn get() -> KvRequest {
        KvRequest::Get {
            ns: NsId(0),
            key: vec![1],
        }
    }

    #[test]
    fn parallel_slots_no_queueing() {
        let node = fixed_node(4, 1000.0);
        for _ in 0..4 {
            let a = node.admit(0, &get(), 0, 0);
            assert_eq!(a.start, 0);
            assert_eq!(a.done, 1000);
        }
        // fifth op queues behind the earliest slot
        let a = node.admit(0, &get(), 0, 0);
        assert_eq!(a.start, 1000);
        assert_eq!(a.done, 2000);
    }

    #[test]
    fn queueing_grows_under_overload() {
        let node = fixed_node(1, 1000.0);
        let mut last = 0;
        for i in 0..10 {
            let a = node.admit(0, &get(), 0, 0);
            assert_eq!(a.start, i * 1000);
            last = a.done;
        }
        assert_eq!(last, 10_000);
        let (ops, busy, queue) = node.stats();
        assert_eq!(ops, 10);
        assert_eq!(busy, 10_000);
        assert_eq!(queue, 45_000); // 0+1000+...+9000
    }

    #[test]
    fn idle_node_starts_immediately() {
        let node = fixed_node(2, 500.0);
        node.admit(0, &get(), 0, 0);
        let a = node.admit(10_000, &get(), 0, 0);
        assert_eq!(a.start, 10_000);
    }
}
