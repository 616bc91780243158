//! The simulated distributed key/value store (the SCADS substitute, §3).
//!
//! One `SimCluster` models N storage nodes serving range-partitioned,
//! replicated namespaces. Data is held once (logically centralized); each
//! namespace's placement decides which node's *timeline* a request
//! occupies, so parallelism, queueing, replication fan-out, and
//! eventual-consistency visibility behave like the real thing while
//! staying deterministic.
//!
//! * Reads go to the least-loaded replica of the key's partition; reads
//!   served by a non-primary replica only see writes older than the
//!   configured replica lag.
//! * Writes go to every replica in parallel and complete at the slowest.
//! * Range requests visit partitions sequentially in scan order (each visit
//!   is one physical request); all other requests of a round proceed in
//!   parallel.

use crate::latency::{InterferenceConfig, LatencyConfig};
use crate::node::StorageNode;
use crate::ns_table::NsTable;
use crate::op::{
    BulkFeed, Entries, KvRequest, KvResponse, MalformedRound, NsId, Probe, ReadAnswer, ReadRound,
    RequestRound,
};
use crate::partition::{NsPlacement, SplitPoints};
use crate::session::Session;
use crate::store::Namespace;
use crate::time::Micros;
use std::sync::Arc;

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub nodes: usize,
    /// Copies of each partition (the paper's experiments use 2).
    pub replication: usize,
    /// Concurrent ops one node can service before queueing.
    pub node_concurrency: usize,
    pub seed: u64,
    pub latency: LatencyConfig,
    pub interference: InterferenceConfig,
    /// Visibility lag of non-primary replicas (eventual consistency), µs.
    pub replica_lag_us: Micros,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            replication: 2,
            node_concurrency: 8,
            seed: 0xC0FFEE,
            latency: LatencyConfig::default(),
            interference: InterferenceConfig::default(),
            replica_lag_us: 20 * crate::time::MILLIS,
        }
    }
}

impl ClusterConfig {
    /// Instant, interference-free, strongly-visible cluster for
    /// correctness tests.
    pub fn instant(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            replication: 2.min(nodes),
            node_concurrency: 8,
            seed: 1,
            latency: LatencyConfig::zero(),
            interference: InterferenceConfig::none(),
            replica_lag_us: 0,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }
}

/// Physical balance of one namespace's shards (or partitions): how many
/// entries each holds and how many storage operations each has served.
/// This is the observability feed for skew detection — a rebalance exists
/// to drive `max_entry_share` back toward `1/shards`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NsBalance {
    pub name: String,
    /// Shards in the namespace's current layout.
    pub shards: usize,
    /// Shards a rebalance would cut the namespace into now, given the
    /// entries it holds: one while it holds fewer than its store lays a
    /// namespace out in.
    pub rebalanced_shards: usize,
    /// Entries per shard, in key order.
    pub entries: Vec<u64>,
    /// Storage operations served per shard since the last rebalance, or
    /// since its layout was installed (a rebalance restarts the counters
    /// at zero, whether it moves the layout or keeps it).
    pub ops: Vec<u64>,
}

impl NsBalance {
    pub fn total_entries(&self) -> u64 {
        self.entries.iter().sum()
    }

    /// The largest single shard's fraction of entries — `1/shards` is
    /// perfectly even, `1.0` is everything piled on one shard. `0.0` when
    /// the namespace is empty.
    pub fn max_entry_share(&self) -> f64 {
        share(&self.entries)
    }

    /// The largest single shard's fraction of operations served.
    pub fn max_op_share(&self) -> f64 {
        share(&self.ops)
    }
}

fn share(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    counts.iter().copied().max().unwrap_or(0) as f64 / total as f64
}

/// The store abstraction the engine programs against.
pub trait KvStore: Send + Sync {
    /// Resolve (creating if needed) a namespace.
    fn namespace(&self, name: &str) -> NsId;
    /// Issue one parallel round.
    ///
    /// Round contract (what the paper's latency model, the compiler's
    /// round bounds, and both backends agree on):
    ///
    /// * All requests of a round are **logically issued at the same
    ///   instant** and execute concurrently; the round completes — and the
    ///   session clock advances to — the *slowest* request's completion,
    ///   not the sum. `SimCluster` models this in virtual time;
    ///   `LiveCluster` fans a round with service time to overlap out over
    ///   a shared worker pool, and serves one without on the calling
    ///   thread.
    /// * Responses are **positional**: `responses[i]` answers `round[i]`,
    ///   regardless of completion order.
    /// * Requests within one round must be **mutually independent**: the
    ///   store may execute them in any order or interleaving, so a read of
    ///   a key written in the same round sees an unspecified value. The
    ///   engine never issues dependent requests in one round (dependent
    ///   writes go in successive rounds — see the §7.2 write ordering).
    /// * Accounting: one round adds `round.len()` logical requests and at
    ///   least that many physical requests (replica fan-out and partition
    ///   or shard visits inflate the physical count) to the session stats.
    fn execute_round(&self, session: &mut Session, round: RequestRound) -> Vec<KvResponse>;
    /// Issue a round of exactly one request — the shape of every step of
    /// the write path except index maintenance. Same contract, accounting
    /// and sampling as `execute_round(session, vec![req])`, which is what
    /// the default does, so a backend or wrapper that does not override
    /// this stays correct; one that does can skip the two single-element
    /// vectors. A backend that answers the round with no response yields
    /// [`KvResponse::Done`], which the typed accessors then reject.
    fn execute_one(&self, session: &mut Session, req: KvRequest) -> KvResponse {
        self.execute_round(session, vec![req])
            .pop()
            .unwrap_or(KvResponse::Done)
    }
    /// Issue one operator's read round, packed, and answer it as one block
    /// in `answer`, which is emptied first ([`ReadAnswer::reset`]) and
    /// keeps its buffers: the round of the requests its probes stand for
    /// ([`Probe::request`]), with the same contract, accounting and
    /// sampling. The default issues exactly that round through
    /// `execute_round` and packs what comes back, so a backend or wrapper
    /// that does not override this stays correct. A response of another
    /// variant than its probe's is a [`MalformedRound`]; a response missing
    /// leaves the answer short, which the caller refuses.
    fn read_round(
        &self,
        session: &mut Session,
        round: &ReadRound,
        answer: &mut ReadAnswer,
    ) -> Result<(), MalformedRound> {
        read_by_requests(self, session, round, answer)
    }
    /// Allocation-free point read: look `key` up in `ns` and append the
    /// stored value to `out`, with the same session-clock, stats, and
    /// latency-sample accounting as a one-request `GetRange` round that
    /// visited one shard and returned the entry (so the feedback loop sees
    /// point reads served this way exactly like plan-executed ones).
    ///
    /// Returns `Some(found)` when the backend services the read, `None`
    /// when it does not support the fast path — callers must then fall
    /// back to [`KvStore::execute_round`]. The default declines; only
    /// wall-clock backends on the server's binary hot path implement it.
    fn point_get(
        &self,
        session: &mut Session,
        ns: NsId,
        key: &[u8],
        out: &mut Vec<u8>,
    ) -> Option<bool> {
        let _ = (session, ns, key, out);
        None
    }
    /// Write directly, bypassing timing and accounting (bulk load before an
    /// experiment or to seed a serving store). With a write-ahead sink
    /// attached the put is logged and committed before this returns (see
    /// [`crate::wal`]).
    fn bulk_put(&self, ns: NsId, key: Vec<u8>, value: Vec<u8>);
    /// [`KvStore::bulk_put`] every entry `feed` pushes, as one batch: the
    /// store ends as if they were put one by one, in order — of equal keys
    /// the last one wins — and counts one write per entry. A batch is
    /// logged as one put per entry it stores, and committed. The default
    /// is exactly that loop, each buffer split at its key's end; a backend
    /// that can build its storage from a sorted batch overrides it.
    fn bulk_put_all(&self, ns: NsId, feed: &mut BulkFeed<'_>) {
        feed(&mut |mut key, key_len| {
            let value = key.split_off(key_len);
            self.bulk_put(ns, key, value);
        });
    }
    /// Recompute data placement from current contents. Backends without a
    /// placement concept treat this as a no-op.
    fn rebalance(&self) {}
    /// Per-namespace physical shard balance, for backends that track data
    /// placement explicitly (see [`NsBalance`]). Default: nothing to
    /// report.
    fn balance(&self) -> Vec<NsBalance> {
        Vec::new()
    }
    /// Rebalance iff some namespace that a rebalance would cut into more
    /// than one shard ([`NsBalance::rebalanced_shards`]) is op-skewed: it
    /// has served at least `min_ops` operations under its current layout
    /// and its [`NsBalance::max_op_share`] exceeds `max_op_share`. Returns
    /// whether a rebalance ran. Op counters restart at zero at every
    /// rebalance, so `min_ops` doubles as hysteresis between consecutive
    /// triggers.
    fn maybe_rebalance(&self, max_op_share: f64, min_ops: u64) -> bool {
        let skewed = self.balance().iter().any(|b| {
            b.rebalanced_shards > 1
                && b.ops.iter().sum::<u64>() >= min_ops
                && b.max_op_share() > max_op_share
        });
        if skewed {
            self.rebalance();
        }
        skewed
    }
    /// Advance the session clock to the backend's current time, so a
    /// latency measured as `begin()..now` starts *now* rather than at the
    /// previous round's completion. Wall-clock backends override this;
    /// virtual-time backends are a no-op (their sessions own the clock —
    /// idle time does not pass unless the driver says so).
    fn sync_session(&self, session: &mut Session) {
        let _ = session;
    }
    /// Take every buffered live latency sample (see
    /// [`crate::sample::LiveSampleSink`]). Wall-clock backends that observe
    /// real operator latencies override this; virtual-time backends have
    /// nothing to report (their models come from the §6.1 trainer).
    fn drain_samples(&self) -> Vec<crate::sample::OpSample> {
        Vec::new()
    }
    /// True once an attached write-ahead sink has failed a commit barrier:
    /// writes still apply in memory but are no longer durable, and the
    /// serving layer must stop acknowledging them as such. Backends
    /// without a WAL never degrade.
    fn wal_degraded(&self) -> bool {
        false
    }
}

/// [`KvStore::read_round`] as the round of requests it stands for: issued
/// through `execute_round` and packed into `answer` — sized, then copied,
/// so the answer grows at most once.
pub(crate) fn read_by_requests<S: KvStore + ?Sized>(
    store: &S,
    session: &mut Session,
    round: &ReadRound,
    answer: &mut ReadAnswer,
) -> Result<(), MalformedRound> {
    let responses = match round.is_empty() {
        true => Vec::new(),
        false => {
            let requests = round.probes().map(|probe| probe.request(round.ns()));
            store.execute_round(session, requests.collect())
        }
    };
    // a response past the last probe answers nothing asked; one missing
    // leaves the answer short, which the caller refuses
    if responses.len() > round.len() {
        return Err(MalformedRound::Count {
            requests: round.len(),
            responses: responses.len(),
        });
    }
    let (mut entries, mut bytes) = (0, 0);
    for (probe, response) in round.probes().zip(&responses) {
        match (probe, response) {
            (Probe::Get(key), KvResponse::Value(Some(value))) => {
                entries += 1;
                bytes += key.len() + value.len();
            }
            (_, KvResponse::Entries(found)) => {
                entries += found.len();
                bytes += found.payload_len();
            }
            _ => {}
        }
    }
    answer.reset(round.len(), entries, bytes);
    for (probe, response) in round.probes().zip(&responses) {
        answer.push_response(probe, response)?;
    }
    Ok(())
}

/// One simulated namespace: its data, and the nodes its partitions live
/// on. A rebalance replaces it in the table with a copy placed afresh over
/// the same data.
struct SimNamespace {
    id: NsId,
    data: Arc<Namespace>,
    /// The node partition 0 starts at, from the namespace's name, so that
    /// different namespaces' first partitions land on different nodes.
    offset: usize,
    placement: NsPlacement,
}

impl SimNamespace {
    /// `data` cut at `splits`, its partitions dealt over `config`'s nodes
    /// from `offset`.
    fn placed(
        id: NsId,
        data: Arc<Namespace>,
        offset: usize,
        splits: SplitPoints,
        config: &ClusterConfig,
    ) -> Self {
        let placement = NsPlacement::round_robin(splits, config.nodes, config.replication, offset);
        SimNamespace {
            id,
            data,
            offset,
            placement,
        }
    }
}

/// The simulated cluster.
pub struct SimCluster {
    pub config: ClusterConfig,
    nodes: Vec<StorageNode>,
    namespaces: NsTable<SimNamespace>,
}

impl SimCluster {
    pub fn new(config: ClusterConfig) -> Self {
        let nodes = (0..config.nodes.max(1))
            .map(|id| {
                StorageNode::new(
                    id,
                    config.node_concurrency,
                    config.latency.clone(),
                    config.interference.clone(),
                    config.seed,
                )
            })
            .collect();
        SimCluster {
            nodes,
            namespaces: NsTable::new("sim.namespaces"),
            config,
        }
    }

    /// Write directly, bypassing timing (bulk load before an experiment).
    pub fn bulk_put(&self, ns: NsId, key: Vec<u8>, value: Vec<u8>) {
        self.namespaces.get(ns).data.put(key, Some(value), 0);
    }

    /// Entries currently in a namespace.
    pub fn ns_len(&self, ns: NsId) -> usize {
        self.namespaces.get(ns).data.len()
    }

    /// Recompute partition split points from current data, one partition
    /// per node, and spread the partitions over the nodes — the SCADS
    /// Director's job.
    pub fn rebalance(&self) {
        let parts = self.config.nodes.max(1);
        for (_, ns) in self.namespaces.all() {
            let splits = ns.data.split_points(parts);
            let data = ns.data.clone();
            let placed = SimNamespace::placed(ns.id, data, ns.offset, splits, &self.config);
            self.namespaces.replace(ns.id, placed);
        }
    }

    /// Least-loaded replica for a read, with its visibility horizon.
    fn read_replica(
        &self,
        placement: &NsPlacement,
        partition: usize,
        now: Micros,
    ) -> (usize, Micros) {
        let replicas = &placement.replicas[partition.min(placement.replicas.len() - 1)];
        let primary = replicas[0];
        let chosen = replicas
            .iter()
            .copied()
            .min_by_key(|&r| self.nodes[r].earliest_free())
            .unwrap_or(primary);
        let horizon = if chosen == primary {
            now
        } else {
            now.saturating_sub(self.config.replica_lag_us)
        };
        (chosen, horizon)
    }

    /// Execute one request arriving at `start`; returns response and
    /// completion time, counting physical node visits.
    fn execute_one(
        &self,
        start: Micros,
        req: &KvRequest,
        physical: &mut u64,
    ) -> (KvResponse, Micros) {
        let ns = self.namespaces.get(req.ns());
        let (data, placement) = (&ns.data, &ns.placement);
        match req {
            KvRequest::Get { key, .. } => {
                let part = placement.splits.part_of(key);
                let (node, horizon) = self.read_replica(placement, part, start);
                let value = data.get(key, horizon);
                let bytes = value.as_ref().map(|v| v.len() as u64).unwrap_or(0);
                let adm = self.nodes[node].admit(start, req, value.is_some() as u64, bytes);
                *physical += 1;
                (KvResponse::Value(value), adm.done)
            }
            KvRequest::Put { key, .. } | KvRequest::Delete { key, .. } => {
                let value = match req {
                    KvRequest::Put { value, .. } => Some(value.clone()),
                    _ => None,
                };
                let part = placement.splits.part_of(key);
                let replicas = &placement.replicas[part.min(placement.replicas.len() - 1)];
                let bytes = value.as_ref().map(|v| v.len() as u64).unwrap_or(0);
                let mut done = start;
                let mut primary_done = start;
                for (i, &r) in replicas.iter().enumerate() {
                    let adm = self.nodes[r].admit(start, req, 1, bytes);
                    if i == 0 {
                        primary_done = adm.done;
                    }
                    done = done.max(adm.done);
                    *physical += 1;
                }
                // visible once the primary acknowledged
                data.put(key.clone(), value, primary_done);
                (KvResponse::Done, done)
            }
            KvRequest::TestAndSet {
                entry,
                key_len,
                expect,
                ..
            } => {
                // coordinated by the primary; replicas updated in parallel
                let (key, value) = entry.split_at(*key_len);
                let part = placement.splits.part_of(key);
                let replicas = &placement.replicas[part.min(placement.replicas.len() - 1)];
                let bytes = value.len() as u64;
                let mut done = start;
                for &r in replicas {
                    let adm = self.nodes[r].admit(start, req, 1, bytes);
                    done = done.max(adm.done);
                    *physical += 1;
                }
                let (success, current) = data.test_and_set(key, expect.as_deref(), value, done);
                (KvResponse::TasResult { success, current }, done)
            }
            KvRequest::GetRange {
                start: lo,
                end,
                limit,
                reverse,
                ..
            } => {
                let mut parts: Vec<usize> = placement
                    .splits
                    .parts_for_range(lo, end.as_deref())
                    .collect();
                if *reverse {
                    parts.reverse();
                }
                let mut out = Entries::new();
                let mut t = start;
                let want = limit.unwrap_or(u64::MAX);
                for part in parts {
                    if out.len() as u64 >= want {
                        break;
                    }
                    // continuation to the next partition is sequential
                    let (node, horizon) = self.read_replica(placement, part, t);
                    // fetch only this partition's slice of the range
                    let (p_lo, p_hi) = placement.splits.clip(part, lo, end.as_deref());
                    let (had, had_bytes) = (out.len(), out.payload_len());
                    let remaining = want - had as u64;
                    data.range(p_lo, p_hi, Some(remaining), *reverse, horizon, &mut out);
                    let bytes = (out.payload_len() - had_bytes) as u64;
                    let adm = self.nodes[node].admit(t, req, (out.len() - had) as u64, bytes);
                    t = adm.done;
                    *physical += 1;
                }
                (KvResponse::Entries(out), t)
            }
            KvRequest::CountRange { start: lo, end, .. } => {
                let parts = placement.splits.parts_for_range(lo, end.as_deref());
                let mut total = 0u64;
                let mut done = start;
                for part in parts {
                    let (node, horizon) = self.read_replica(placement, part, start);
                    let (p_lo, p_hi) = placement.splits.clip(part, lo, end.as_deref());
                    let c = data.count_range(p_lo, p_hi, horizon);
                    let adm = self.nodes[node].admit(start, req, c, 0);
                    done = done.max(adm.done); // counts proceed in parallel
                    *physical += 1;
                    total += c;
                }
                (KvResponse::Count(total), done)
            }
        }
    }

    /// Compact all namespaces up to `horizon` (GC of tombstones/versions).
    pub fn compact(&self, horizon: Micros) {
        for (_, ns) in self.namespaces.all() {
            ns.data.compact(horizon);
        }
    }
}

impl KvStore for SimCluster {
    /// A new namespace is one partition, until a rebalance cuts it.
    fn namespace(&self, name: &str) -> NsId {
        self.namespaces.resolve(name, |id| {
            let offset = name.bytes().fold(0usize, |acc, b| {
                acc.wrapping_mul(31).wrapping_add(b as usize)
            }) % self.config.nodes.max(1);
            let data = Arc::new(Namespace::new());
            SimNamespace::placed(id, data, offset, SplitPoints::default(), &self.config)
        })
    }

    fn execute_round(&self, session: &mut Session, round: RequestRound) -> Vec<KvResponse> {
        if round.is_empty() {
            return Vec::new();
        }
        let start = session.now;
        let mut responses = Vec::with_capacity(round.len());
        let mut latest = start;
        let mut physical = 0u64;
        for req in &round {
            let (resp, done) = self.execute_one(start, req, &mut physical);
            latest = latest.max(done);
            if let KvResponse::Entries(e) = &resp {
                session.stats.entries += e.len() as u64;
                session.stats.bytes += e.payload_len() as u64;
            }
            responses.push(resp);
        }
        session.now = latest;
        session.stats.rounds += 1;
        session.stats.logical_requests += round.len() as u64;
        session.stats.physical_requests += physical;
        responses
    }

    fn bulk_put(&self, ns: NsId, key: Vec<u8>, value: Vec<u8>) {
        SimCluster::bulk_put(self, ns, key, value);
    }

    fn rebalance(&self) {
        SimCluster::rebalance(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_round_advances_to_max() {
        let mut cfg = ClusterConfig::instant(4);
        cfg.latency = LatencyConfig {
            median_us: 1000.0,
            sigma: 0.0,
            per_entry_us: 0.0,
            per_kib_us: 0.0,
            write_factor: 1.0,
        };
        let c = SimCluster::new(cfg);
        let ns = c.namespace("x");
        let mut s = Session::new();
        let round: RequestRound = (0..8u8)
            .map(|i| KvRequest::Get { ns, key: vec![i] })
            .collect();
        c.execute_round(&mut s, round);
        // 8 gets on 4 nodes: all within ~2 service times, NOT 8 serial ones
        assert!(s.now >= 1000 && s.now <= 4000, "now = {}", s.now);
        let mut s2 = Session::new();
        for i in 0..8u8 {
            c.execute_round(&mut s2, vec![KvRequest::Get { ns, key: vec![i] }]);
        }
        assert!(s2.now >= 8000, "serial rounds accumulate: {}", s2.now);
    }

    #[test]
    fn replica_lag_causes_stale_reads_then_convergence() {
        let mut cfg = ClusterConfig::instant(2);
        cfg.replica_lag_us = 1_000_000;
        cfg.latency = LatencyConfig {
            median_us: 100.0,
            sigma: 0.0,
            per_entry_us: 0.0,
            per_kib_us: 0.0,
            write_factor: 1.0,
        };
        let c = SimCluster::new(cfg);
        let ns = c.namespace("lag");
        let mut s = Session::new();
        c.execute_round(
            &mut s,
            vec![KvRequest::Put {
                ns,
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            }],
        );
        // immediately after the write, a lagged replica may not see it;
        // much later every replica does
        let mut stale_seen = false;
        for _ in 0..8 {
            let r = c.execute_round(
                &mut s,
                vec![KvRequest::Get {
                    ns,
                    key: b"k".to_vec(),
                }],
            );
            if matches!(r[0], KvResponse::Value(None)) {
                stale_seen = true;
            }
        }
        s.now += 2_000_000;
        let r = c.execute_round(
            &mut s,
            vec![KvRequest::Get {
                ns,
                key: b"k".to_vec(),
            }],
        );
        assert_eq!(r[0].expect_value(), Some(b"v".as_slice()));
        let _ = stale_seen; // stale reads are possible but not guaranteed
    }

    #[test]
    fn determinism_same_seed_same_timing() {
        let run = || {
            let c = SimCluster::new(ClusterConfig::default().with_nodes(3).with_seed(99));
            let ns = c.namespace("d");
            let mut s = Session::new();
            for i in 0..50u8 {
                c.execute_round(
                    &mut s,
                    vec![KvRequest::Put {
                        ns,
                        key: vec![i],
                        value: vec![i; 10],
                    }],
                );
            }
            s.now
        };
        assert_eq!(run(), run());
    }
}
