//! Range partitioning and replica placement.
//!
//! Each namespace's keyspace is split at learned split points (quantiles of
//! the loaded data, the job SCADS's Director performs dynamically); each
//! partition is assigned `replication` nodes. Routing a key or range to
//! nodes is a binary search — requests to different partitions land on
//! different nodes, which is where the cluster's parallelism comes from.

use std::borrow::Borrow;

/// Ascending split keys cutting one keyspace into `parts()` contiguous
/// ranges: part `i` covers `[splits[i-1], splits[i])`, with sentinel
/// bounds at the ends, so a split key belongs to the part on its right.
/// The simulator's partitions and `LiveCluster`'s shards both route by
/// this type, so they cannot disagree on what a request visits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SplitPoints(Vec<Vec<u8>>);

impl SplitPoints {
    /// `splits` must be strictly ascending.
    pub fn new(splits: Vec<Vec<u8>>) -> Self {
        debug_assert!(splits.windows(2).all(|w| w[0] < w[1]));
        SplitPoints(splits)
    }

    /// Split points at the quantiles of `sorted` — keys in ascending
    /// order, or an evenly strided sample of them: up to `parts - 1` keys
    /// evenly spaced by position (none from fewer keys than parts).
    pub fn at_quantiles<K: AsRef<[u8]>>(
        sorted: impl ExactSizeIterator<Item = K>,
        parts: usize,
    ) -> Self {
        SplitPoints(
            quantiles(sorted, parts)
                .map(|k| k.as_ref().to_vec())
                .collect(),
        )
    }

    pub fn parts(&self) -> usize {
        self.0.len() + 1
    }

    /// The part owning `key`.
    pub fn part_of(&self, key: &[u8]) -> usize {
        self.0.partition_point(|s| s.as_slice() <= key)
    }

    /// How many of `sorted` — keys in ascending order, none below
    /// `part`'s lower bound — `part` holds: one binary search.
    pub(crate) fn run_len<K: Borrow<[u8]>>(&self, part: usize, sorted: &[K]) -> usize {
        match self.0.get(part) {
            Some(split) => sorted.partition_point(|k| k.borrow() < split.as_slice()),
            None => sorted.len(),
        }
    }

    /// The parts a scan of `[start, end)` (`None` = unbounded) visits,
    /// ascending: every part that can hold a key of the interval — so not
    /// the part to the right of an `end` that equals a split point — and,
    /// for an empty or inverted interval, just the part `start` routes to.
    pub fn parts_for_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> std::ops::RangeInclusive<usize> {
        let first = self.part_of(start);
        let last = match end {
            Some(e) => self.0.partition_point(|s| s.as_slice() < e),
            None => self.0.len(),
        };
        first..=last.max(first)
    }

    /// `[lo, hi)` clipped to `part`'s own bounds.
    pub(crate) fn clip<'a>(
        &'a self,
        part: usize,
        lo: &'a [u8],
        hi: Option<&'a [u8]>,
    ) -> (&'a [u8], Option<&'a [u8]>) {
        let part_lo = part.checked_sub(1).and_then(|below| self.0.get(below));
        let eff_lo = match part_lo {
            Some(pl) if pl.as_slice() > lo => pl,
            _ => lo,
        };
        let eff_hi = match (self.0.get(part), hi) {
            (Some(ph), Some(h)) => Some(ph.as_slice().min(h)),
            (Some(ph), None) => Some(ph.as_slice()),
            (None, hi) => hi,
        };
        (eff_lo, eff_hi)
    }
}

/// The items of `sorted` that [`SplitPoints::at_quantiles`] splits at: up
/// to `parts - 1`, evenly spaced by position (none from fewer items than
/// parts).
pub(crate) fn quantiles<T>(
    sorted: impl ExactSizeIterator<Item = T>,
    parts: usize,
) -> impl Iterator<Item = T> {
    let step = sorted.len() / parts.max(1);
    let splits = if step == 0 {
        0
    } else {
        parts.saturating_sub(1)
    };
    sorted.step_by(step.max(1)).skip(1).take(splits)
}

/// Placement of one namespace.
#[derive(Debug)]
pub struct NsPlacement {
    pub splits: SplitPoints,
    /// `replicas[i]` = node ids serving partition `i`
    /// (`splits.parts()` entries).
    pub replicas: Vec<Vec<usize>>,
}

impl NsPlacement {
    /// `splits`' partitions, each on `replication` nodes (at most all
    /// `nodes`), dealt round-robin from node `offset`.
    pub fn round_robin(
        splits: SplitPoints,
        nodes: usize,
        replication: usize,
        offset: usize,
    ) -> Self {
        let replicas = (0..splits.parts())
            .map(|p| {
                (0..replication.min(nodes))
                    .map(|r| (offset + p + r) % nodes)
                    .collect()
            })
            .collect();
        NsPlacement { splits, replicas }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splits() -> SplitPoints {
        SplitPoints::new(vec![b"g".to_vec(), b"p".to_vec()])
    }

    #[test]
    fn key_routing() {
        let p = splits();
        assert_eq!(p.part_of(b"a"), 0);
        assert_eq!(p.part_of(b"g"), 1, "split key belongs to the right");
        assert_eq!(p.part_of(b"m"), 1);
        assert_eq!(p.part_of(b"z"), 2);
    }

    #[test]
    fn range_routing() {
        let p = splits();
        assert_eq!(p.parts_for_range(b"a", Some(b"c")), 0..=0);
        assert_eq!(p.parts_for_range(b"a", Some(b"m")), 0..=1);
        assert_eq!(p.parts_for_range(b"a", None), 0..=2);
        assert_eq!(
            p.parts_for_range(b"a", Some(b"g")),
            0..=0,
            "exclusive end at split stays left"
        );
        assert_eq!(p.parts_for_range(b"h", Some(b"z")), 1..=2);
    }

    #[test]
    fn round_robin_assignment() {
        let four = SplitPoints::new(vec![b"d".to_vec(), b"g".to_vec(), b"p".to_vec()]);
        let r = NsPlacement::round_robin(four, 3, 2, 0).replicas;
        assert_eq!(r.len(), 4);
        assert_eq!(r[0], vec![0, 1]);
        assert_eq!(r[1], vec![1, 2]);
        assert_eq!(r[3], vec![0, 1]);
        // replication capped by node count
        let r = NsPlacement::round_robin(splits(), 1, 3, 0).replicas;
        assert_eq!(r[0], vec![0]);
    }
}
