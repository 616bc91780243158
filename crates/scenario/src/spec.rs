//! Scenario descriptions: tenants, load shape, faults, and the overload
//! controls under test. A [`ScenarioSpec`] is a pure value — the driver
//! derives every random choice from `seed`, so the same spec replays the
//! same operation stream byte for byte.

use std::time::Duration;

use piql_server::BudgetPolicy;

/// One tenant's slice of the workload.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name; statements register as `"{name}.point"` etc., so the
    /// registry's `tenant_of` prefix rule maps them back to this tenant.
    pub name: String,
    /// Steady-state connections this tenant keeps open.
    pub connections: usize,
    /// Fraction of this tenant's connections speaking the binary v3
    /// protocol (the rest use newline-delimited JSON).
    pub binary_share: f64,
    /// The tenant's latency target, used by the p99 invariant.
    pub slo_ms: f64,
    /// Enforce `p99 <= slo_ms` as a scenario invariant for this tenant.
    pub assert_slo: bool,
    /// Admission budget (in-flight executions) for this tenant, applied
    /// only when [`Controls::enabled`]. `None` = unlimited.
    pub budget: Option<u32>,
    /// What happens past the budget: reject, queue, or shed.
    pub policy: BudgetPolicy,
}

impl TenantSpec {
    /// A small read-mostly tenant named `name` with `connections`
    /// connections, a generous SLO, and no budget.
    pub fn new(name: &str, connections: usize) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            connections,
            binary_share: 0.25,
            slo_ms: 250.0,
            assert_slo: false,
            budget: None,
            policy: BudgetPolicy::Reject,
        }
    }
}

/// The server-side overload controls a scenario exercises. With
/// `enabled = false` the scenario runs the baseline (pre-controls)
/// configuration, which is how the flash-crowd benchmark demonstrates the
/// violation the controls prevent.
#[derive(Debug, Clone)]
pub struct Controls {
    pub enabled: bool,
    /// Per-connection decode window (`ServerTuning::max_in_flight_per_conn`);
    /// 0 = unlimited.
    pub max_in_flight_per_conn: usize,
    /// Auto-rebalance when a namespace's hottest shard exceeds this op
    /// share (0.0 disables).
    pub rebalance_max_op_share: f64,
    /// Minimum ops observed in a namespace before skew counts.
    pub rebalance_min_ops: u64,
}

impl Default for Controls {
    fn default() -> Self {
        Controls {
            enabled: true,
            max_in_flight_per_conn: 32,
            rebalance_max_op_share: 0.5,
            rebalance_min_ops: 2_000,
        }
    }
}

/// A fault injected at a wall-clock offset into the run.
#[derive(Debug, Clone)]
pub enum Fault {
    /// Every storage request takes `delay_us` longer between `at` and
    /// `until` (a slow shard / degraded disk).
    SlowShard {
        at: Duration,
        until: Duration,
        delay_us: u64,
    },
    /// `extra_connections` zero-think pipelined connections hammer
    /// `tenant`'s point statement between `at` and `until`.
    FlashCrowd {
        at: Duration,
        until: Duration,
        tenant: String,
        extra_connections: usize,
    },
    /// At `at`, open a connection that writes `frames` requests and never
    /// reads a byte of response (a wedged/slow consumer). The socket is
    /// held open until the scenario ends.
    PausedReader {
        at: Duration,
        tenant: String,
        frames: usize,
    },
}

impl Fault {
    /// When the fault fires.
    pub fn at(&self) -> Duration {
        match self {
            Fault::SlowShard { at, .. }
            | Fault::FlashCrowd { at, .. }
            | Fault::PausedReader { at, .. } => *at,
        }
    }
}

/// A complete scenario: load shape, tenants, faults, controls.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Master seed; every per-connection RNG derives from it.
    pub seed: u64,
    /// Wall-clock run length (ignored when `requests_per_conn` is set).
    pub duration: Duration,
    /// Fixed-count mode: each connection issues exactly this many
    /// requests then stops — the fully deterministic mode used by the
    /// reproducibility tests. `None` = run for `duration`.
    pub requests_per_conn: Option<u64>,
    pub tenants: Vec<TenantSpec>,
    /// Keys preloaded per tenant (the read key space).
    pub keys_per_tenant: u64,
    /// Zipf exponent for read-key popularity (0 = uniform, 0.99 = YCSB).
    pub zipf_exponent: f64,
    /// Fraction of operations that are writes (acked-write tracking).
    pub write_fraction: f64,
    /// Base think time between a connection's operations.
    pub think: Duration,
    /// Diurnal load cycles over the run: think time swings between 25%
    /// (peak) and 100% (trough) of `think`, `diurnal_cycles` times.
    /// 0 disables the swing.
    pub diurnal_cycles: u32,
    /// Server dispatch-pool width (0 = inline handling).
    pub dispatch_threads: usize,
    /// Baseline per-request storage delay in microseconds.
    pub request_delay_us: u64,
    pub controls: Controls,
    pub faults: Vec<Fault>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            seed: 0x5ca1ab1e,
            duration: Duration::from_secs(5),
            requests_per_conn: None,
            tenants: vec![TenantSpec::new("t0", 4)],
            keys_per_tenant: 1_000,
            zipf_exponent: 0.99,
            write_fraction: 0.1,
            think: Duration::from_millis(2),
            diurnal_cycles: 2,
            dispatch_threads: 4,
            request_delay_us: 0,
            controls: Controls::default(),
            faults: Vec::new(),
        }
    }
}
