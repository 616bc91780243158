//! Per-tenant admission budgets.
//!
//! A [`TenantBudget`] bounds how many statement executions a tenant may
//! have in flight at once. The registry resolves a statement's tenant from
//! its name prefix (`"t0.point"` → tenant `"t0"`) and consults the budget
//! before executing. When the budget is exhausted the configured
//! [`BudgetPolicy`] decides the outcome:
//!
//! * **Reject** — fail immediately with a `budget-exceeded` error the
//!   client can retry against.
//! * **Queue** — wait up to a bounded time for a permit, then reject.
//! * **Shed** — admit into a small overflow band but serve the statement's
//!   pre-compiled *shed plan* (a tighter-bound rewrite), trading result
//!   completeness for latency, exactly the paper's degrade escape hatch.
//!
//! Permits are RAII ([`BudgetPermit`]): they release on every exit path —
//! success, error return, or panic-unwind inside the executor — so the
//! in-flight count can neither go negative nor leak across disconnects.
//! The default budget is unlimited and takes no lock at all on the admit
//! path, keeping single-tenant deployments at their current cost.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::gate::{Door, Gate};
use piql_analysis::rank;

/// What happens to an execution that arrives while the tenant's budget is
/// exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetPolicy {
    /// Fail immediately with a `budget-exceeded` error.
    Reject,
    /// Wait up to `max_wait` for a permit, then reject.
    Queue {
        /// Longest a request may wait for a permit before rejection.
        max_wait: Duration,
    },
    /// Admit into a bounded overflow band, serving the degraded (shed)
    /// plan instead of the full one.
    Shed,
}

impl BudgetPolicy {
    /// Stable lowercase name used in `stats` replies and scenario specs.
    pub fn name(&self) -> &'static str {
        match self {
            BudgetPolicy::Reject => "reject",
            BudgetPolicy::Queue { .. } => "queue",
            BudgetPolicy::Shed => "shed",
        }
    }
}

/// Outcome of [`TenantBudget::admit`].
pub enum BudgetDecision {
    /// Execute the full plan. Carries a permit unless the unlimited,
    /// lock-free admit let it in.
    Go(Option<BudgetPermit>),
    /// Execute the shed (degraded) plan; the permit covers the overflow
    /// band slot.
    Shed(BudgetPermit),
    /// Refuse the execution.
    Reject,
}

/// Point-in-time budget counters for `stats`.
#[derive(Debug, Clone)]
pub struct BudgetSnapshot {
    pub tenant: String,
    pub capacity: Option<u32>,
    pub policy: &'static str,
    pub in_flight: u32,
    pub admitted: u64,
    pub rejected: u64,
    pub queued: u64,
    pub queue_timeouts: u64,
    pub shed: u64,
}

/// One tenant's admission state. Shared between the registry (configure,
/// stats) and every executing request (admit/release). Capacity and
/// policy live only in the gate's door.
pub struct TenantBudget {
    name: String,
    /// Mirrors "the door has no cap", so the unlimited admit takes no lock.
    unlimited: AtomicBool,
    gate: Gate<BudgetPolicy>,
    admitted: AtomicU64,
    rejected: AtomicU64,
    queued: AtomicU64,
    queue_timeouts: AtomicU64,
    shed_count: AtomicU64,
}

/// What [`TenantBudget::admit`] does with an arrival, read from the door
/// alone: enter, enter the shed band, park for up to a wait, or refuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Go,
    Shed,
    Park(Duration),
    Refuse,
}

fn decide(door: &Door<BudgetPolicy>) -> Step {
    // the overflow band: up to capacity extra places run the shed plan, so
    // degraded work stays bounded too
    let in_band = door
        .cap
        .is_some_and(|cap| door.held < cap.saturating_mul(2).max(cap.saturating_add(1)));
    match door.state {
        _ if door.has_room() => Step::Go,
        BudgetPolicy::Reject => Step::Refuse,
        BudgetPolicy::Shed if in_band => Step::Shed,
        BudgetPolicy::Shed => Step::Refuse,
        BudgetPolicy::Queue { max_wait } => Step::Park(max_wait),
    }
}

impl TenantBudget {
    /// A budget for `name` with the given capacity (`None` = unlimited)
    /// and policy.
    pub fn new(name: &str, capacity: Option<u32>, policy: BudgetPolicy) -> Arc<Self> {
        Arc::new(TenantBudget {
            name: name.to_string(),
            unlimited: AtomicBool::new(capacity.is_none()),
            gate: Gate::new(rank::TENANT_BUDGET, "TenantBudget.gate", capacity, policy),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            queue_timeouts: AtomicU64::new(0),
            shed_count: AtomicU64::new(0),
        })
    }

    /// Tenant name this budget governs.
    pub fn tenant(&self) -> &str {
        &self.name
    }

    /// True when the budget imposes no cap — the admit fast path.
    pub fn is_unlimited(&self) -> bool {
        self.unlimited.load(Ordering::Acquire)
    }

    /// Set the capacity (`None` = unlimited) and policy. Parked executions
    /// re-read the door: a raised or removed cap admits them.
    pub fn configure(&self, capacity: Option<u32>, policy: BudgetPolicy) {
        self.gate.reset(|door| {
            door.cap = capacity;
            door.state = policy;
            self.unlimited.store(capacity.is_none(), Ordering::Release);
        });
    }

    /// Decide the fate of one execution. One atomic load for an unlimited
    /// budget, whose admission is counted once the execution is booked
    /// (`count_admitted`); a bounded one takes the gate's lock briefly.
    pub fn admit(self: &Arc<Self>) -> BudgetDecision {
        if self.is_unlimited() {
            return BudgetDecision::Go(None);
        }
        let mut door = self.gate.lock();
        let mut step = decide(&door);
        if let Step::Park(max_wait) = step {
            door = self.gate.wait(door, Some(max_wait));
            let queued = door.has_room();
            let counter = if queued {
                &self.queued
            } else {
                &self.queue_timeouts
            };
            counter.fetch_add(1, Ordering::Relaxed);
            step = if queued { Step::Go } else { Step::Refuse };
        }
        let counter = match step {
            Step::Refuse => &self.rejected,
            Step::Shed => &self.shed_count,
            Step::Go | Step::Park(_) => &self.admitted,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if step == Step::Refuse {
            return BudgetDecision::Reject;
        }
        door.held += 1;
        let permit = BudgetPermit {
            budget: Arc::clone(self),
        };
        match step {
            Step::Shed => BudgetDecision::Shed(permit),
            _ => BudgetDecision::Go(Some(permit)),
        }
    }

    /// Count one execution an unlimited budget let in, once it is booked:
    /// a run that is dropped unbooked was never admitted.
    pub(crate) fn count_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Current in-flight count (test/stats visibility).
    pub fn in_flight(&self) -> u32 {
        self.gate.lock().held
    }

    /// Executions parked in the queue right now, waiting for a permit (a
    /// test's proof that a request has reached `admit`).
    pub fn waiting(&self) -> u32 {
        self.gate.lock().waiting
    }

    /// Counters for the `stats` reply.
    pub fn snapshot(&self) -> BudgetSnapshot {
        let door = self.gate.lock();
        BudgetSnapshot {
            tenant: self.name.clone(),
            capacity: door.cap,
            policy: door.state.name(),
            in_flight: door.held,
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            queued: self.queued.load(Ordering::Relaxed),
            queue_timeouts: self.queue_timeouts.load(Ordering::Relaxed),
            shed: self.shed_count.load(Ordering::Relaxed),
        }
    }
}

/// RAII execution permit: dropping it returns the slot to the tenant's
/// budget and wakes one queued waiter.
pub struct BudgetPermit {
    budget: Arc<TenantBudget>,
}

impl Drop for BudgetPermit {
    fn drop(&mut self) {
        self.budget.gate.leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cell of (where the door stands) × (policy): below the cap all
    /// go; from the cap reject refuses, shed takes the overflow band
    /// (`cap ≤ held < max(2·cap, cap+1)`) and queue parks; beyond the band
    /// shed refuses too; and a cap removed while an arrival was parked
    /// lets every policy go.
    #[test]
    fn decide_names_every_cell_of_the_table() {
        use Step::*;
        let wait = Duration::from_micros(1500);
        let policies = [
            BudgetPolicy::Reject,
            BudgetPolicy::Shed,
            BudgetPolicy::Queue { max_wait: wait },
        ];
        // (door, held, cap, waiting) → the step per policy, in that order
        let rows = [
            ("below the cap", 2, Some(3), 0, [Go, Go, Go]),
            ("at the cap", 3, Some(3), 0, [Refuse, Shed, Park(wait)]),
            ("top of the band", 5, Some(3), 0, [Refuse, Shed, Park(wait)]),
            (
                "beyond the band",
                6,
                Some(3),
                0,
                [Refuse, Refuse, Park(wait)],
            ),
            (
                "cap 0, band empty",
                0,
                Some(0),
                0,
                [Refuse, Shed, Park(wait)],
            ),
            (
                "cap 0, band full",
                1,
                Some(0),
                0,
                [Refuse, Refuse, Park(wait)],
            ),
            ("cap removed while parked", 6, None, 1, [Go, Go, Go]),
        ];
        for (name, held, cap, waiting, steps) in rows {
            for (state, expected) in policies.into_iter().zip(steps) {
                let door = Door {
                    held,
                    waiting,
                    closed: false,
                    cap,
                    state,
                };
                assert_eq!(decide(&door), expected, "{name} under {}", state.name());
            }
        }
    }

    /// A queue waits as long as it was told to: the policy reads back
    /// exactly as configured, sub-millisecond waits and waits beyond the
    /// one-hour cap on a single park included.
    #[test]
    fn a_configured_policy_reads_back_exactly() {
        let budget = TenantBudget::new("t", Some(0), BudgetPolicy::Reject);
        for max_wait in [
            Duration::from_micros(300),
            Duration::from_micros(1500),
            Duration::from_secs(2 * 3600),
        ] {
            let policy = BudgetPolicy::Queue { max_wait };
            budget.configure(Some(0), policy);
            let door = budget.gate.lock();
            assert_eq!(door.state, policy);
            assert_eq!(decide(&door), Step::Park(max_wait));
        }
    }
}
