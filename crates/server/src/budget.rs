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

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use piql_analysis::ordered::{Condvar, Mutex};
use piql_analysis::rank;

/// Sentinel stored in `TenantBudget.capacity` meaning "no limit".
const UNLIMITED: u32 = u32::MAX;

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

// Policy is stored as atomics so the admit path never takes a config lock.
const POLICY_REJECT: u8 = 0;
const POLICY_QUEUE: u8 = 1;
const POLICY_SHED: u8 = 2;

/// Outcome of [`TenantBudget::admit`].
pub enum BudgetDecision {
    /// Execute the full plan. Carries a permit when the budget is bounded.
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

struct InFlight {
    count: u32,
    /// Executions parked in `admit`'s queue, waiting for a permit.
    waiting: u32,
}

/// One tenant's admission state. Shared between the registry (configure,
/// stats) and every executing request (admit/release).
pub struct TenantBudget {
    name: String,
    /// `UNLIMITED` means no cap; anything else is the permit count.
    capacity: AtomicU32,
    policy: AtomicU32,
    queue_wait_ms: AtomicU64,
    /// Set once the budget has been configured explicitly (per-tenant
    /// override); defaults re-applied via `set_overload` skip pinned
    /// budgets.
    pinned: AtomicBool,
    in_flight: Mutex<InFlight>,
    available: Condvar,
    admitted: AtomicU64,
    rejected: AtomicU64,
    queued: AtomicU64,
    queue_timeouts: AtomicU64,
    shed_count: AtomicU64,
}

impl TenantBudget {
    /// A budget for `name` with the given capacity (`None` = unlimited)
    /// and policy.
    pub fn new(name: &str, capacity: Option<u32>, policy: BudgetPolicy) -> Arc<Self> {
        let budget = Arc::new(TenantBudget {
            name: name.to_string(),
            capacity: AtomicU32::new(UNLIMITED),
            policy: AtomicU32::new(u32::from(POLICY_REJECT)),
            queue_wait_ms: AtomicU64::new(0),
            pinned: AtomicBool::new(false),
            in_flight: Mutex::new(
                rank::TENANT_BUDGET,
                "TenantBudget.in_flight",
                InFlight {
                    count: 0,
                    waiting: 0,
                },
            ),
            available: Condvar::new(),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            queue_timeouts: AtomicU64::new(0),
            shed_count: AtomicU64::new(0),
        });
        budget.apply(capacity, policy);
        budget
    }

    /// Tenant name this budget governs.
    pub fn tenant(&self) -> &str {
        &self.name
    }

    /// True when the budget imposes no cap — the admit fast path.
    pub fn is_unlimited(&self) -> bool {
        self.capacity.load(Ordering::Acquire) == UNLIMITED
    }

    fn apply(&self, capacity: Option<u32>, policy: BudgetPolicy) {
        let (code, wait_ms) = match policy {
            BudgetPolicy::Reject => (POLICY_REJECT, 0),
            BudgetPolicy::Queue { max_wait } => {
                (POLICY_QUEUE, max_wait.as_millis().min(3_600_000) as u64)
            }
            BudgetPolicy::Shed => (POLICY_SHED, 0),
        };
        self.policy.store(u32::from(code), Ordering::Release);
        self.queue_wait_ms.store(wait_ms, Ordering::Release);
        self.capacity
            .store(capacity.unwrap_or(UNLIMITED), Ordering::Release);
        // Raising (or removing) the cap may unblock queued waiters.
        self.available.notify_all();
    }

    /// Explicit per-tenant configuration: applies and pins, so later
    /// default sweeps leave it alone.
    pub fn configure(&self, capacity: Option<u32>, policy: BudgetPolicy) {
        self.pinned.store(true, Ordering::Release);
        self.apply(capacity, policy);
    }

    /// Apply registry-wide defaults unless this budget was configured
    /// explicitly.
    pub fn apply_default(&self, capacity: Option<u32>, policy: BudgetPolicy) {
        if !self.pinned.load(Ordering::Acquire) {
            self.apply(capacity, policy);
        }
    }

    fn current_policy(&self) -> BudgetPolicy {
        match self.policy.load(Ordering::Acquire) as u8 {
            POLICY_QUEUE => BudgetPolicy::Queue {
                max_wait: Duration::from_millis(self.queue_wait_ms.load(Ordering::Acquire)),
            },
            POLICY_SHED => BudgetPolicy::Shed,
            _ => BudgetPolicy::Reject,
        }
    }

    fn take_permit(self: &Arc<Self>) -> BudgetPermit {
        BudgetPermit {
            budget: Arc::clone(self),
        }
    }

    /// Decide the fate of one execution. Cheap (two atomic loads) for
    /// unlimited budgets; bounded budgets take the permit mutex briefly.
    pub fn admit(self: &Arc<Self>) -> BudgetDecision {
        let cap = self.capacity.load(Ordering::Acquire);
        if cap == UNLIMITED {
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return BudgetDecision::Go(None);
        }
        let mut state = self.in_flight.lock();
        if state.count < cap {
            state.count += 1;
            drop(state);
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return BudgetDecision::Go(Some(self.take_permit()));
        }
        match self.current_policy() {
            BudgetPolicy::Reject => {
                drop(state);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                BudgetDecision::Reject
            }
            BudgetPolicy::Shed => {
                // Overflow band: up to capacity extra slots run the shed
                // plan, so degraded work stays bounded too.
                let band = cap.saturating_mul(2).max(cap.saturating_add(1));
                if state.count < band {
                    state.count += 1;
                    drop(state);
                    self.shed_count.fetch_add(1, Ordering::Relaxed);
                    BudgetDecision::Shed(self.take_permit())
                } else {
                    drop(state);
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    BudgetDecision::Reject
                }
            }
            BudgetPolicy::Queue { max_wait } => {
                let deadline = Instant::now()
                    .checked_add(max_wait)
                    .unwrap_or_else(|| Instant::now() + Duration::from_secs(3600));
                state.waiting += 1;
                // the cap this execution was admitted under; `None`: timed out
                let admitted_under = loop {
                    // Re-read: configure() may have raised or removed the
                    // cap while we waited.
                    let cap = self.capacity.load(Ordering::Acquire);
                    if cap == UNLIMITED || state.count < cap {
                        break Some(cap);
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break None;
                    }
                    let (guard, timeout) = self.available.wait_timeout(state, deadline - now);
                    state = guard;
                    if timeout.timed_out() && state.count >= self.capacity.load(Ordering::Acquire) {
                        break None;
                    }
                };
                state.waiting -= 1;
                let Some(cap) = admitted_under else {
                    drop(state);
                    self.queue_timeouts.fetch_add(1, Ordering::Relaxed);
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    return BudgetDecision::Reject;
                };
                let permit = (cap != UNLIMITED).then(|| {
                    state.count += 1;
                    self.take_permit()
                });
                drop(state);
                self.admitted.fetch_add(1, Ordering::Relaxed);
                self.queued.fetch_add(1, Ordering::Relaxed);
                BudgetDecision::Go(permit)
            }
        }
    }

    fn release(&self) {
        let mut state = self.in_flight.lock();
        state.count = state.count.saturating_sub(1);
        drop(state);
        self.available.notify_one();
    }

    /// Current in-flight count (test/stats visibility).
    pub fn in_flight(&self) -> u32 {
        self.in_flight.lock().count
    }

    /// Executions parked in the queue right now, waiting for a permit (a
    /// test's proof that a request has reached `admit`).
    pub fn waiting(&self) -> u32 {
        self.in_flight.lock().waiting
    }

    /// Counters for the `stats` reply.
    pub fn snapshot(&self) -> BudgetSnapshot {
        let cap = self.capacity.load(Ordering::Acquire);
        BudgetSnapshot {
            tenant: self.name.clone(),
            capacity: if cap == UNLIMITED { None } else { Some(cap) },
            policy: self.current_policy().name(),
            in_flight: self.in_flight(),
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
        self.budget.release();
    }
}
