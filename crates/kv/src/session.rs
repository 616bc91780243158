//! Client sessions: the virtual clock plus per-session accounting.

use crate::sample::ModelKey;
use crate::time::Micros;

/// Per-session operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Parallel rounds issued.
    pub rounds: u64,
    /// Requests as issued by the execution engine (what the compiler's
    /// bound counts).
    pub logical_requests: u64,
    /// Node visits after partition fan-out/continuation (≥ logical).
    pub physical_requests: u64,
    /// Entries shipped back.
    pub entries: u64,
    /// Payload bytes shipped back.
    pub bytes: u64,
}

impl std::ops::AddAssign for SessionStats {
    fn add_assign(&mut self, other: SessionStats) {
        self.rounds += other.rounds;
        self.logical_requests += other.logical_requests;
        self.physical_requests += other.physical_requests;
        self.entries += other.entries;
        self.bytes += other.bytes;
    }
}

/// One client session. The engine threads a session through a query
/// execution; `now` advances as rounds complete, and the difference between
/// start and end is the query's simulated response time.
#[derive(Debug, Clone, Default)]
pub struct Session {
    pub now: Micros,
    pub stats: SessionStats,
    /// The remote operator this session is currently executing, set by the
    /// engine around an operator's rounds. Wall-clock backends use it to
    /// tag latency samples for online model training; `None` (writes, bulk
    /// work, untagged callers) records nothing.
    pub op_tag: Option<ModelKey>,
}

impl Session {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn at(now: Micros) -> Self {
        Session {
            now,
            stats: SessionStats::default(),
            op_tag: None,
        }
    }

    /// Begin timing a query; returns the start time.
    pub fn begin(&self) -> Micros {
        self.now
    }

    /// Elapsed virtual time since `start`.
    pub fn elapsed_since(&self, start: Micros) -> Micros {
        self.now - start
    }

    pub fn reset_stats(&mut self) {
        self.stats = SessionStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helpers() {
        let mut s = Session::at(100);
        let t0 = s.begin();
        s.now = 350;
        assert_eq!(s.elapsed_since(t0), 250);
        s.stats.rounds = 3;
        s.reset_stats();
        assert_eq!(s.stats, SessionStats::default());
    }
}
