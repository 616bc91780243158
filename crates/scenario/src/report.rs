//! Scenario outcomes: per-tenant counters, latency percentiles, the
//! deterministic operation-stream fingerprint, and the invariant
//! violations (if any). Reports render to the same tiny JSON the server
//! speaks, so benches can write them straight into `BENCH_scenario.json`.

use piql_server::Json;

/// One tenant's aggregated outcome.
#[derive(Debug, Clone)]
pub struct TenantReport {
    pub tenant: String,
    pub connections: usize,
    /// Requests issued by steady-state connections.
    pub sent: u64,
    /// Successful full-plan responses.
    pub ok: u64,
    /// Successful responses served from the shed (degraded) plan.
    pub degraded: u64,
    /// `budget-exceeded` rejections.
    pub rejected: u64,
    /// Any other failure (transport errors, unexpected server errors).
    pub errors: u64,
    /// Acked writes recorded by this tenant's connections.
    pub acked_writes: u64,
    /// Acked writes re-read and found intact during verification.
    pub verified_writes: u64,
    /// Acked writes that verification could not find (must be 0).
    pub lost_writes: u64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub slo_ms: f64,
    /// Flash-crowd traffic against this tenant (tracked separately so
    /// crowd rejections don't pollute steady-state counters).
    pub crowd_sent: u64,
    pub crowd_ok: u64,
    pub crowd_rejected: u64,
}

impl TenantReport {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("tenant", Json::str(self.tenant.clone())),
            ("connections", Json::uint(self.connections)),
            ("sent", Json::uint(self.sent)),
            ("ok", Json::uint(self.ok)),
            ("degraded", Json::uint(self.degraded)),
            ("rejected", Json::uint(self.rejected)),
            ("errors", Json::uint(self.errors)),
            ("acked_writes", Json::uint(self.acked_writes)),
            ("verified_writes", Json::uint(self.verified_writes)),
            ("lost_writes", Json::uint(self.lost_writes)),
            ("p50_ms", Json::Float(self.p50_ms)),
            ("p99_ms", Json::Float(self.p99_ms)),
            ("slo_ms", Json::Float(self.slo_ms)),
            ("crowd_sent", Json::uint(self.crowd_sent)),
            ("crowd_ok", Json::uint(self.crowd_ok)),
            ("crowd_rejected", Json::uint(self.crowd_rejected)),
        ])
    }
}

/// Server-side overload counters sampled from `stats` at the end of the
/// run (0 when the stats call failed).
#[derive(Debug, Clone, Default)]
pub struct ServerOverload {
    pub backpressure_stalls: u64,
    pub budget_rejected: u64,
    pub budget_shed: u64,
    pub auto_rebalances: u64,
}

impl ServerOverload {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("backpressure_stalls", Json::uint(self.backpressure_stalls)),
            ("budget_rejected", Json::uint(self.budget_rejected)),
            ("budget_shed", Json::uint(self.budget_shed)),
            ("auto_rebalances", Json::uint(self.auto_rebalances)),
        ])
    }
}

/// The full outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    pub seed: u64,
    pub controls_enabled: bool,
    /// XOR of every steady-state connection's FNV op-stream fingerprint —
    /// order-independent, so a re-run with the same seed must reproduce
    /// it exactly (fixed-count mode).
    pub fingerprint: u64,
    pub elapsed_ms: u64,
    pub tenants: Vec<TenantReport>,
    pub server: ServerOverload,
    /// Invariant violations; an empty list means the run passed.
    pub violations: Vec<String>,
}

impl ScenarioReport {
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.tenant == name)
    }

    pub fn total_sent(&self) -> u64 {
        self.tenants.iter().map(|t| t.sent).sum()
    }

    pub fn total_lost_writes(&self) -> u64 {
        self.tenants.iter().map(|t| t.lost_writes).sum()
    }

    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(vec![self.to_json_obj()].into())
    }

    /// The report as a single JSON object (what benches embed).
    pub fn to_json_obj(&self) -> Json {
        Json::obj([
            ("seed", Json::uint(self.seed)),
            ("controls_enabled", Json::Bool(self.controls_enabled)),
            (
                "fingerprint",
                Json::str(format!("{:016x}", self.fingerprint)),
            ),
            ("elapsed_ms", Json::uint(self.elapsed_ms)),
            (
                "tenants",
                Json::Arr(self.tenants.iter().map(TenantReport::to_json).collect()),
            ),
            ("server", self.server.to_json()),
            (
                "violations",
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| Json::str(v.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}
