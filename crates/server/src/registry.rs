//! The prepared-statement registry with SLO admission control.
//!
//! This is the paper's success-tolerance enforced at the API boundary
//! (§6, §10): a statement is compiled at registration, and the
//! compile-time p99 prediction decides its fate *before any storage
//! request is issued*:
//!
//! * queries the optimizer cannot bound are **rejected as unbounded**
//!   (the Performance Insight report travels back to the client),
//! * bounded queries whose predicted p99 violates the service SLO are
//!   either **rejected** or — when the service allows degradation — are
//!   **admitted with a reduced LIMIT/PAGINATE** chosen by the §6.4 advisor
//!   (the largest result size whose prediction still meets the SLO),
//! * everything else is **admitted** verbatim.
//!
//! Admission works on a *pure* compile against a catalog snapshot: no
//! namespace creation, no index backfill, no KV round. Only an admitted
//! statement is fully prepared (which may provision plan-derived indexes)
//! and stored. The tests assert the zero-storage-ops property directly.
//!
//! **The prediction loop stays closed after registration.** The backend
//! tags every executed round with its operator context and buffers the
//! observed latency (see `piql_kv::sample`); [`StatementRegistry::revalidate`]
//! — driven periodically by a [`Revalidator`] thread or on demand via the
//! protocol's `revalidate` verb — drains those samples into the shared
//! [`SharedModelStore`], then re-runs the admission decision — the same
//! [`fit`] registration makes, from each statement's original bound —
//! against the refreshed models and updates its [`Admission`] in place:
//! statements that drifted over the SLO are **re-degraded** to a tighter
//! advisor-chosen bound or **flagged** (kept executable — yanking running
//! statements would turn drift into an outage — but marked, with the drift
//! history exposed over `stats`); statements whose store got faster are
//! relaxed to the largest bound that meets again. After any sweep an
//! unflagged statement holds what a fresh `prepare` of its text would get,
//! so admission tracks the store the service actually runs on, interval by
//! interval, and not the road a statement took.

use crate::budget::{BudgetDecision, BudgetPermit, BudgetPolicy, TenantBudget};
use piql_analysis::ordered::{Mutex, RwLock};
use piql_analysis::rank;
use piql_core::ast::SelectStmt;
use piql_core::opt::{Compiled, InsightReport, OptError, Optimizer};
use piql_core::plan::params::ParamsRef;
use piql_core::plan::physical::{PhysicalPlan, ScanLimit};
use piql_core::plan::pred::Operand;
use piql_core::value::Value;
use piql_engine::{Cursor, Database, DbError, ExecStrategy, Prepared, QueryResult};
use piql_kv::{KvStore, LiveCluster, Micros, ModelKey, NsId, OpKind, Session};
pub use piql_predict::advisor::SloConfig;
use piql_predict::advisor::{fit, Fit};
use piql_predict::{SharedModelStore, SloPredictor, ALPHA_GRID};
use piql_workloads::nearest_rank_ms;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The admission verdict (registration-time, and kept current by
/// re-validation sweeps afterwards).
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// Within SLO as written.
    Admitted { predicted_p99_ms: f64 },
    /// Over SLO as written; admitted with the advisor's reduced bound.
    Degraded {
        predicted_p99_ms: f64,
        original_limit: u64,
        limit: u64,
    },
    /// Bounded, but no feasible bound meets the SLO.
    RejectedSlo { predicted_p99_ms: f64 },
    /// The optimizer found no scale-independent plan; `report` is the
    /// Performance Insight Assistant's structured diagnosis (problem,
    /// offending relation, concrete suggestions). Its `Display` is the
    /// legacy flat string older clients showed verbatim.
    RejectedUnbounded { report: InsightReport },
    /// Admitted earlier, but a re-validation sweep found the refreshed
    /// prediction over the SLO with no feasible tighter bound. The
    /// statement stays executable (revoking running statements would turn
    /// model drift into an outage); the flag — and the drift history — is
    /// the Performance Insight signal to act on. `diagnostics` is the
    /// static auditor's structured explanation of the violation (offending
    /// operator, dominating cost term, rewrite suggestions), refreshed by
    /// every sweep that keeps the statement flagged.
    Flagged {
        predicted_p99_ms: f64,
        diagnostics: Vec<piql_audit::Diagnostic>,
    },
}

impl Admission {
    pub fn is_admitted(&self) -> bool {
        matches!(
            self,
            Admission::Admitted { .. } | Admission::Degraded { .. } | Admission::Flagged { .. }
        )
    }

    pub fn verdict(&self) -> &'static str {
        match self {
            Admission::Admitted { .. } => "admitted",
            Admission::Degraded { .. } => "degraded",
            Admission::RejectedSlo { .. } => "rejected-slo",
            Admission::RejectedUnbounded { .. } => "rejected-unbounded",
            Admission::Flagged { .. } => "flagged",
        }
    }

    /// The prediction this verdict was made on (unbounded rejections have
    /// none).
    pub fn predicted_p99_ms(&self) -> Option<f64> {
        match self {
            Admission::Admitted { predicted_p99_ms }
            | Admission::Degraded {
                predicted_p99_ms, ..
            }
            | Admission::RejectedSlo { predicted_p99_ms }
            | Admission::Flagged {
                predicted_p99_ms, ..
            } => Some(*predicted_p99_ms),
            Admission::RejectedUnbounded { .. } => None,
        }
    }
}

/// What one re-validation sweep did to one statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftAction {
    /// Refreshed prediction still supports the current verdict.
    Steady,
    /// Tightened to a smaller advisor-chosen bound.
    Redegraded,
    /// Models got faster: bound restored toward the original.
    Relaxed,
    /// Over SLO with no feasible tighter bound; statement marked.
    Flagged,
    /// A previously flagged statement meets the SLO again.
    Recovered,
}

impl DriftAction {
    pub fn name(self) -> &'static str {
        match self {
            DriftAction::Steady => "steady",
            DriftAction::Redegraded => "redegraded",
            DriftAction::Relaxed => "relaxed",
            DriftAction::Flagged => "flagged",
            DriftAction::Recovered => "recovered",
        }
    }
}

/// One entry of a statement's drift history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEvent {
    /// Which sweep produced it (monotonic, service-wide).
    pub sweep: u64,
    /// The refreshed prediction for the then-current plan, ms.
    pub predicted_p99_ms: f64,
    pub action: DriftAction,
}

/// Drift events retained per statement.
const DRIFT_HISTORY: usize = 32;

/// Registry-wide overload-control configuration: the skew-triggered
/// rebalance. Tenant budgets are configured one by one (see
/// [`StatementRegistry::set_tenant_budget`]).
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Auto-rebalance when any namespace's [`piql_kv::NsBalance::max_op_share`]
    /// exceeds this after a re-validation sweep. `0.0` disables the trigger.
    pub rebalance_max_op_share: f64,
    /// Minimum ops observed on a namespace since the last rebalance before
    /// skew is acted on (avoids rebalancing on statistical noise).
    pub rebalance_min_ops: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            rebalance_max_op_share: 0.0,
            rebalance_min_ops: 10_000,
        }
    }
}

/// The tenant a statement name belongs to: the prefix before the first
/// `'.'` (`"t0.point"` → `"t0"`), or `"default"` for unqualified names.
pub fn tenant_of(name: &str) -> &str {
    match name.split_once('.') {
        Some((tenant, _)) if !tenant.is_empty() => tenant,
        _ => "default",
    }
}

/// Latencies retained per statement: `stats` reports over its most recent
/// this many executions. Roughly: enough for stable p99s, bounded for a
/// server that executes forever.
const LATENCY_RING: usize = 4_096;

/// One key component of a [`FastPointPlan`]'s probe key.
#[derive(Debug, Clone, PartialEq)]
pub enum FastKeyPart {
    /// Literal known at plan time.
    Const(Value),
    /// Taken from the execution's parameter at this index.
    Param(usize),
}

/// A pre-resolved single-key read: everything the server's allocation-free
/// point-read path needs, extracted once at install time so per-request
/// work is *only* "encode key, get, transcode row".
///
/// A statement qualifies when its physical plan is exactly one primary
/// `IndexScan` with a full-primary-key equality prefix, no range, no
/// reverse, no deref, a bounded limit, and no `PAGINATE` (so the cursor is
/// statically `None`). Full-pk keys are prefix-free under the order-
/// preserving key codec, so the plan's `GetRange [key, upper)` is
/// observably identical to an exact get — same rows, same accounting shape
/// (see `KvStore::point_get`).
#[derive(Debug, Clone, PartialEq)]
pub struct FastPointPlan {
    /// Primary namespace of the scanned table.
    pub ns: NsId,
    /// Key components in primary-key order (all `Dir::Asc` — primary
    /// indexes have no explicit directions).
    pub parts: Vec<FastKeyPart>,
    /// The scan's §6.1 key as prepared ([`piql_engine::RemoteOp::key`]):
    /// the lane samples its read under the key the general plan's scan
    /// carries, so the live model trains on both identically.
    pub tag: ModelKey,
    /// Full-row arity — stored rows that decode to a different arity fall
    /// back to the general path (which reports the shape error).
    pub arity: usize,
}

/// The fast point-read plan of a prepared statement, if it qualifies: a
/// view of what `prepare` already resolved (the scan's namespace and
/// table) plus the probe key's sources.
fn fast_point_plan(prepared: &Prepared) -> Option<Arc<FastPointPlan>> {
    let compiled = &prepared.compiled;
    if compiled.page_size.is_some() {
        return None;
    }
    // `SELECT *` compiles to an identity LocalProject over the scan; the
    // fast path emits the stored row verbatim, so peel the wrapper only
    // when it passes every scan column through in storage order (its
    // completeness against the full row is checked below).
    let mut physical = &compiled.physical;
    let mut projected = None;
    if let PhysicalPlan::LocalProject { child, columns, .. } = physical {
        if columns.iter().enumerate().all(|(i, (pos, _))| *pos == i) {
            projected = Some(columns.len());
            physical = child;
        }
    }
    let PhysicalPlan::IndexScan { spec, .. } = physical else {
        return None;
    };
    if spec.index.secondary.is_some() || spec.range.is_some() || spec.reverse || spec.deref {
        return None;
    }
    let ScanLimit::Bounded { count, .. } = &spec.limit else {
        return None;
    };
    if *count == 0 {
        return None;
    }
    // the scan is the plan's only remote operator
    let [scan] = prepared.remote_ops() else {
        return None;
    };
    if spec.eq_prefix.len() != scan.pk.len() {
        return None;
    }
    // a peeled projection must cover the whole row, not a prefix of it
    let arity = scan.table.columns.len();
    if projected.is_some_and(|n| n != arity) {
        return None;
    }
    let parts = spec
        .eq_prefix
        .iter()
        .map(|op| match op {
            Operand::Literal(v) => FastKeyPart::Const(v.clone()),
            Operand::Param(p) => FastKeyPart::Param(p.index),
        })
        .collect();
    Some(Arc::new(FastPointPlan {
        ns: scan.ns,
        parts,
        tag: scan.key,
        arity,
    }))
}

/// What an admission decision installs: the plan prepared at the decided
/// bound and everything derived from it ([`StatementRegistry::plan`]).
#[derive(Debug, Clone)]
struct InstalledPlan {
    prepared: Arc<Prepared>,
    /// Pre-resolved point-read plan when `prepared` qualifies.
    fast_point: Option<Arc<FastPointPlan>>,
    /// Row bound `prepared` enforces (`None`: no bound to degrade).
    limit: Option<u64>,
    /// Pre-compiled shed plan (tightest advisor bound) served when the
    /// tenant's budget admits under the `Shed` policy; `None` when the
    /// statement has no tighter bound.
    shed: Option<Arc<Prepared>>,
}

/// The mutable half of a registered statement, swapped under one lock so
/// executors always see a (plan, admission) pair that belongs together.
#[derive(Debug)]
struct StatementState {
    plan: InstalledPlan,
    /// The verdict, carrying the latest re-validated prediction for `plan`.
    admission: Admission,
    drift: Vec<DriftEvent>,
}

/// One admitted statement with its runtime accounting.
pub struct RegisteredStatement {
    pub name: String,
    pub sql: String,
    /// The statement as registered (re-validation re-degrades/relaxes by
    /// re-binding this AST, never by re-parsing client text).
    stmt: SelectStmt,
    /// The root remote operator: the `kind` `stats` prints.
    pub kind: OpKind,
    state: RwLock<StatementState>,
    /// The admission budget of the tenant this statement belongs to
    /// (resolved from the name prefix at install time).
    budget: Arc<TenantBudget>,
    /// Executions observed — and the cursor of `latencies`: execution `i`
    /// writes slot `i % LATENCY_RING`.
    pub executions: AtomicU64,
    /// Wall-clock latencies, µs, of the most recent `LATENCY_RING`
    /// executions: a fixed ring, written and read without a lock.
    latencies: Box<[AtomicU64]>,
}

impl RegisteredStatement {
    /// The nearest-rank `q`-quantile, in ms, of the statement's most recent
    /// `LATENCY_RING` latencies — the rule experiment reports use
    /// ([`nearest_rank_ms`]). A slot an execution has claimed but not yet
    /// written reads as what it held before.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let observed = self
            .executions
            .load(Ordering::Relaxed)
            .min(LATENCY_RING as u64);
        let slots = self.latencies[..observed as usize].iter();
        nearest_rank_ms(slots.map(|slot| slot.load(Ordering::Relaxed)).collect(), q)
    }

    /// Book one completed execution that took `latency`: the statement's
    /// count and latency, the service's `executed` ([`Run::book`]).
    fn observe(&self, counters: &RegistryCounters, latency: Micros) {
        let at = self.executions.fetch_add(1, Ordering::Relaxed) % LATENCY_RING as u64;
        self.latencies[at as usize].store(latency, Ordering::Relaxed);
        counters.executed.fetch_add(1, Ordering::Relaxed);
    }

    /// The current execution plan (atomic with the admission it belongs to).
    pub fn prepared(&self) -> Arc<Prepared> {
        self.state.read().plan.prepared.clone()
    }

    /// The current admission verdict.
    pub fn admission(&self) -> Admission {
        self.state.read().admission.clone()
    }

    /// The pre-resolved point-read plan, when the current plan qualifies
    /// (atomic with [`RegisteredStatement::prepared`] — plan swaps replace
    /// both under the same lock).
    pub fn fast_point(&self) -> Option<Arc<FastPointPlan>> {
        self.state.read().plan.fast_point.clone()
    }

    /// Latest re-validated prediction for the current plan, ms (the
    /// registration-time prediction until the first sweep).
    pub fn last_predicted_p99_ms(&self) -> f64 {
        self.state
            .read()
            .admission
            .predicted_p99_ms()
            .unwrap_or(0.0)
    }

    /// The most recent `n` drift events, oldest first (`usize::MAX`: all
    /// the ring retains). `stats` asks for a few so the reply stays
    /// bounded no matter how long the server has run.
    pub fn recent_drift(&self, n: usize) -> Vec<DriftEvent> {
        let state = self.state.read();
        let start = state.drift.len().saturating_sub(n);
        state.drift[start..].to_vec()
    }

    /// The tenant budget governing this statement's executions.
    pub fn budget(&self) -> &Arc<TenantBudget> {
        &self.budget
    }

    /// The pre-compiled shed (degraded) plan, when one exists.
    pub fn shed_prepared(&self) -> Option<Arc<Prepared>> {
        self.state.read().plan.shed.clone()
    }

    /// The root remote operator's name (the `kind` label in words).
    pub fn kind_name(&self) -> &'static str {
        self.kind.name()
    }
}

/// Service counters.
#[derive(Debug, Default)]
pub struct RegistryCounters {
    pub admitted: AtomicU64,
    pub degraded: AtomicU64,
    pub rejected_slo: AtomicU64,
    pub rejected_unbounded: AtomicU64,
    pub executed: AtomicU64,
    /// `dml` statements the engine applied / refused (a refusal is any
    /// error: duplicate key, constraint overflow, a text that does not
    /// compile, an unbound parameter).
    pub dml_executed: AtomicU64,
    pub dml_errors: AtomicU64,
    /// Executions served by the allocation-free binary point-read path
    /// (a subset of `executed`; see `server::BinaryConn`).
    pub fast_point_reads: AtomicU64,
    pub exec_errors: AtomicU64,
    /// Requests whose handler panicked and were answered the internal
    /// error instead (see `server::run_handler`). Anything but zero is a
    /// bug to find: a client-reachable input is meant to get a typed
    /// answer.
    pub handler_panics: AtomicU64,
    /// Data-placement rebalances performed via the `rebalance` verb.
    pub rebalances: AtomicU64,
    /// Re-validation sweeps, counted as each starts: once a sweep has
    /// finished this is its number ([`RevalidationSummary::sweep`]).
    pub revalidations: AtomicU64,
    /// Live samples folded into the models by sweeps.
    pub samples_folded: AtomicU64,
    /// Statements tightened / restored / flagged / recovered by sweeps.
    pub drift_redegraded: AtomicU64,
    pub drift_relaxed: AtomicU64,
    pub drift_flagged: AtomicU64,
    pub drift_recovered: AtomicU64,
    /// Times a connection reader stalled on its max-in-flight cap (see
    /// `server::ServerTuning`).
    pub backpressure_stalls: AtomicU64,
    /// Rebalances triggered automatically by the skew threshold (a subset
    /// of `rebalances` is *not* implied: these are separate triggers).
    pub auto_rebalances: AtomicU64,
}

/// What one [`StatementRegistry::revalidate`] sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RevalidationSummary {
    pub sweep: u64,
    /// Live samples drained from the store and folded into the models.
    pub samples_folded: u64,
    /// Whether the sweep published a refreshed model snapshot.
    pub models_rotated: bool,
    pub statements: u64,
    pub steady: u64,
    pub redegraded: u64,
    pub relaxed: u64,
    pub flagged: u64,
    pub recovered: u64,
}

/// Result of a budget-governed execution (see
/// [`StatementRegistry::execute_governed`]).
pub struct ExecOutcome {
    pub result: QueryResult,
    /// True when the tenant's budget admitted into the overflow band and
    /// the statement's pre-compiled shed plan was served — the response is
    /// flagged `degraded` on the wire.
    pub shed: bool,
}

/// One execution of a registered statement, admission to booking: the
/// prologue and epilogue of every venue. [`Run::governed`], or the binary
/// fast lane's [`Run::lock_free`], admits through the tenant's budget,
/// syncs the session to the store's clock and starts timing; [`Run::book`]
/// observes and counts the outcome, and the permit releases as the run
/// drops. The venue supplies only the work between: running the admitted
/// plan, or the fast lane's one probe and one printed row. A permit-less
/// admission is counted at booking, so a run dropped unbooked — a frame
/// the fast lane hands to the general path — leaves the frame's one
/// admission to the run that answers it.
pub(crate) struct Run<'a> {
    statement: &'a RegisteredStatement,
    counters: &'a RegistryCounters,
    /// `None` under an unlimited budget.
    permit: Option<BudgetPermit>,
    /// Also booked as one of `fast_point_reads`.
    fast: bool,
    start: Micros,
}

impl<'a> Run<'a> {
    /// The general prologue: the budget may queue, shed or refuse, and a
    /// shed admission serves the pre-compiled degraded plan when the
    /// statement has one (otherwise the overflow place runs the full plan).
    /// Answers the plan, and whether it is the shed plan.
    fn governed<S: KvStore>(
        registry: &'a StatementRegistry<S>,
        statement: &'a RegisteredStatement,
        session: &mut Session,
    ) -> Result<(Self, Arc<Prepared>, bool), RegistryError> {
        let (permit, shed) = match statement.budget().admit() {
            BudgetDecision::Go(permit) => (permit, None),
            BudgetDecision::Shed(permit) => (Some(permit), statement.shed_prepared()),
            BudgetDecision::Reject => {
                let tenant = statement.budget().tenant().to_string();
                return Err(RegistryError::BudgetExceeded { tenant });
            }
        };
        let shed_plan = shed.is_some();
        let prepared = shed.unwrap_or_else(|| statement.prepared());
        let run = Run::start(registry, statement, session, permit, false);
        Ok((run, prepared, shed_plan))
    }

    /// The fast lane's prologue: only the unlimited budget's admission (no
    /// lock, no permit) of the full plan; `None` leaves the frame to the
    /// general path.
    pub(crate) fn lock_free<S: KvStore>(
        registry: &'a StatementRegistry<S>,
        statement: &'a RegisteredStatement,
        session: &mut Session,
    ) -> Option<Self> {
        let unlimited = statement.budget().is_unlimited();
        unlimited.then(|| Run::start(registry, statement, session, None, true))
    }

    fn start<S: KvStore>(
        registry: &'a StatementRegistry<S>,
        statement: &'a RegisteredStatement,
        session: &mut Session,
        permit: Option<BudgetPermit>,
        fast: bool,
    ) -> Self {
        // time from *now*, not from the previous round's completion —
        // otherwise client think-time (and, on a fresh session, the whole
        // backend uptime) would pollute the latency quantiles
        registry.db.store().sync_session(session);
        let counters = &registry.counters;
        let start = session.begin();
        Run {
            statement,
            counters,
            permit,
            fast,
            start,
        }
    }

    /// The epilogue: count the admission, then observe a success or count
    /// an error.
    pub(crate) fn book<T>(
        self,
        session: &Session,
        result: Result<T, DbError>,
    ) -> Result<T, RegistryError> {
        if self.permit.is_none() {
            self.statement.budget().count_admitted();
        }
        let c = self.counters;
        if result.is_ok() {
            self.statement.observe(c, session.elapsed_since(self.start));
            if self.fast {
                c.fast_point_reads.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            c.exec_errors.fetch_add(1, Ordering::Relaxed);
        }
        result.map_err(RegistryError::Db)
    }
}

/// The durability subsystem, when one is wired in (see `crate::durable`).
///
/// The registry journals through it: [`DurabilityControl::upserted`]
/// whenever a name becomes (or replaces an) executable statement and
/// [`DurabilityControl::dropped`] whenever a name stops being executable
/// (a rejected re-registration unregisters it) — a restarted server
/// replays the journal and re-validates each surviving statement against
/// its recovered models, so clients never re-prepare. The `stats` verb
/// reports [`DurabilityControl::health`] and the `snapshot` verb drives
/// [`DurabilityControl::checkpoint`].
pub trait DurabilityControl: Send + Sync {
    fn upserted(&self, name: &str, sql: &str);
    fn dropped(&self, name: &str);
    fn health(&self) -> piql_durability::DurabilityHealth;
    fn checkpoint(&self) -> std::io::Result<piql_durability::SnapshotSummary>;
}

/// Errors surfaced to protocol clients.
#[derive(Debug)]
pub enum RegistryError {
    UnknownStatement(String),
    /// The tenant's admission budget refused the execution (surfaced with
    /// the `budget-exceeded` protocol code so clients can back off).
    BudgetExceeded {
        tenant: String,
    },
    Db(DbError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownStatement(name) => {
                write!(f, "unknown statement '{name}' (prepare it first)")
            }
            RegistryError::BudgetExceeded { tenant } => {
                write!(f, "admission budget exceeded for tenant '{tenant}'")
            }
            RegistryError::Db(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<DbError> for RegistryError {
    fn from(e: DbError) -> Self {
        RegistryError::Db(e)
    }
}

/// The registry. Generic over the backend so the same service logic runs
/// on the wall-clock [`LiveCluster`] (the default) and, in harnesses, the
/// virtual-time simulator.
pub struct StatementRegistry<S: KvStore = LiveCluster> {
    db: Arc<Database<S>>,
    /// The §6.1 models, shared between admission (reads snapshots) and the
    /// re-validation sweeps (ingest + rotate).
    models: Arc<SharedModelStore>,
    slo: SloConfig,
    optimizer: Optimizer,
    statements: RwLock<BTreeMap<String, Arc<RegisteredStatement>>>,
    /// Serializes [`StatementRegistry::revalidate`]: the background
    /// `Revalidator` tick and client-forced `revalidate` verbs must not
    /// interleave their drain/rotate/apply phases.
    sweep_lock: Mutex<()>,
    /// The durability subsystem, when the stack is durable: registration
    /// changes are journaled, and `stats` and `snapshot` reach it, through
    /// here.
    durability: RwLock<Option<Arc<dyn DurabilityControl>>>,
    /// Overload-control configuration (the rebalance trigger).
    overload: Mutex<OverloadConfig>,
    /// Tenant name → admission budget. Budgets are created lazily on first
    /// statement install / lookup and live for the registry's lifetime.
    tenants: RwLock<BTreeMap<String, Arc<TenantBudget>>>,
    pub counters: RegistryCounters,
}

impl<S: KvStore> StatementRegistry<S> {
    pub fn new(db: Arc<Database<S>>, predictor: SloPredictor, slo: SloConfig) -> Self {
        Self::with_models(
            db,
            Arc::new(SharedModelStore::from_snapshot(predictor.models)),
            slo,
        )
    }

    /// Build over an externally owned model store (e.g. shared with other
    /// services or pre-warmed by an offline trainer).
    pub fn with_models(
        db: Arc<Database<S>>,
        models: Arc<SharedModelStore>,
        slo: SloConfig,
    ) -> Self {
        StatementRegistry {
            db,
            models,
            slo,
            optimizer: Optimizer::scale_independent(),
            statements: RwLock::new(
                rank::REGISTRY_STATEMENTS,
                "registry.statements",
                BTreeMap::new(),
            ),
            sweep_lock: Mutex::new(rank::REGISTRY_SWEEP, "registry.sweep", ()),
            durability: RwLock::new(rank::REGISTRY_DURABILITY, "registry.durability", None),
            overload: Mutex::new(
                rank::REGISTRY_OVERLOAD,
                "registry.overload",
                OverloadConfig::default(),
            ),
            tenants: RwLock::new(rank::REGISTRY_TENANTS, "registry.tenants", BTreeMap::new()),
            counters: RegistryCounters::default(),
        }
    }

    /// Replace the overload-control configuration.
    pub fn set_overload(&self, cfg: OverloadConfig) {
        *self.overload.lock() = cfg;
    }

    /// Configure one tenant's budget. A budget is unlimited until this
    /// configures it.
    pub fn set_tenant_budget(&self, tenant: &str, capacity: Option<u32>, policy: BudgetPolicy) {
        self.budget_for(tenant).configure(capacity, policy);
    }

    /// Every tenant budget the registry has materialized, by tenant name.
    pub fn tenant_budgets(&self) -> Vec<Arc<TenantBudget>> {
        self.tenants.read().values().cloned().collect()
    }

    /// The budget for `tenant`, created unlimited on first sight.
    pub fn budget_for(&self, tenant: &str) -> Arc<TenantBudget> {
        if let Some(budget) = self.tenants.read().get(tenant) {
            return budget.clone();
        }
        let mut tenants = self.tenants.write();
        tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantBudget::new(tenant, None, BudgetPolicy::Reject))
            .clone()
    }

    /// Wire in (or clear) the durability subsystem. Install it *after*
    /// replaying recovered statements, or the replay itself would be
    /// journaled again.
    pub fn set_durability(&self, control: Option<Arc<dyn DurabilityControl>>) {
        *self.durability.write() = control;
    }

    /// The durability handle, when the stack is durable.
    pub fn durability(&self) -> Option<Arc<dyn DurabilityControl>> {
        self.durability.read().clone()
    }

    pub fn db(&self) -> &Arc<Database<S>> {
        &self.db
    }

    pub fn slo(&self) -> &SloConfig {
        &self.slo
    }

    /// The shared model store admission predicts against.
    pub fn models(&self) -> &Arc<SharedModelStore> {
        &self.models
    }

    /// Register `sql` under `name`. Returns the admission verdict ([`fit`],
    /// with "infeasible" a rejection); only admitted/degraded statements
    /// become executable. Re-registering a name replaces it — a rejected
    /// re-registration *unregisters* the name, so a client can never
    /// execute different SQL than it last prepared. An `Err` (the text does
    /// not parse, bind or provision) is no verdict: the name stays as it was.
    pub fn register(&self, name: &str, sql: &str) -> Result<Admission, RegistryError> {
        let stmt = piql_core::parser::parse_select(sql)
            .map_err(|e| RegistryError::Db(DbError::Parse(e)))?;
        let catalog = self.db.catalog();
        let predictor = self.models.predictor();

        // Phase 1 — pure compile: no namespaces, no backfill, no KV rounds.
        let compiled = match self.optimizer.compile(&catalog, &stmt) {
            Ok(c) => c,
            Err(OptError::NotScaleIndependent(report)) => {
                self.counters
                    .rejected_unbounded
                    .fetch_add(1, Ordering::Relaxed);
                self.uninstall(name);
                return Ok(Admission::RejectedUnbounded { report });
            }
            Err(e) => return Err(RegistryError::Db(DbError::Compile(e))),
        };

        // Phase 2 — the decision (§6.2–6.4) on the compiled plan. Still pure.
        let found = self.fit(&predictor, &catalog, &stmt, &compiled);
        let Some((limit, admission)) = admit(&found, &stmt) else {
            self.counters.rejected_slo.fetch_add(1, Ordering::Relaxed);
            self.uninstall(name);
            return Ok(Admission::RejectedSlo {
                predicted_p99_ms: found.written().max_p99_ms,
            });
        };

        // Phase 3 — only a statement that will run touches storage.
        let plan = self.plan(&stmt, limit)?;
        let counter = match admission {
            Admission::Degraded { .. } => &self.counters.degraded,
            _ => &self.counters.admitted,
        };
        self.install(name, sql, stmt, plan, admission.clone());
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(admission)
    }

    /// [`fit`] under this service's SLO: `written` is `stmt`'s plan as
    /// written, candidates are pure compiles of `stmt` re-bounded.
    fn fit(
        &self,
        predictor: &SloPredictor,
        catalog: &piql_core::catalog::Catalog,
        stmt: &SelectStmt,
        written: &Compiled,
    ) -> Fit {
        let below = stmt.bound.filter(|_| self.slo.allow_degrade);
        fit(
            predictor,
            &self.slo,
            written,
            below.map(|b| b.count()),
            |limit| self.optimizer.compile(catalog, &stmt.rebound(limit)).ok(),
        )
    }

    /// Build what a decision installs: `stmt` prepared at `limit` (its own
    /// bound, or the degraded one) with the plans derived from it. May touch
    /// storage (index provisioning) — never under the statement state lock.
    fn plan(&self, stmt: &SelectStmt, limit: Option<u64>) -> Result<InstalledPlan, DbError> {
        let prepared = match limit {
            Some(l) if Some(l) != stmt.bound.map(|b| b.count()) => {
                self.db.prepare_stmt(&stmt.rebound(l))?
            }
            _ => self.db.prepare_stmt(stmt)?,
        };
        Ok(InstalledPlan {
            fast_point: fast_point_plan(&prepared),
            prepared: Arc::new(prepared),
            limit,
            shed: self.build_shed(stmt, limit),
        })
    }

    /// Pre-compile the shed plan: the statement rebound to the tightest
    /// advisor grid bound, when that is strictly tighter than the current
    /// plan's bound.
    fn build_shed(&self, stmt: &SelectStmt, limit: Option<u64>) -> Option<Arc<Prepared>> {
        let current = limit?;
        let tightest = ALPHA_GRID.iter().map(|&a| a as u64).min()?;
        if tightest >= current {
            return None;
        }
        self.db
            .prepare_stmt(&stmt.rebound(tightest))
            .ok()
            .map(Arc::new)
    }

    fn uninstall(&self, name: &str) {
        // the journal append happens while the statements write lock is
        // still held: two racing (un)registrations of the same name must
        // journal in the same order their map updates land, or replay
        // could resurrect the losing statement. Registration is a rare
        // control-plane operation, so the fsync-length hold is acceptable.
        let mut statements = self.statements.write();
        let removed = statements.remove(name).is_some();
        // journal only transitions: dropping a name that was never
        // executable would bloat the log with no-op records
        if removed {
            if let Some(durability) = self.durability.read().as_ref() {
                durability.dropped(name);
            }
        }
    }

    fn install(
        &self,
        name: &str,
        sql: &str,
        stmt: SelectStmt,
        plan: InstalledPlan,
        admission: Admission,
    ) {
        // the tenant budget resolves before the statements write lock: it
        // takes its own lock and must not nest inside it
        let budget = self.budget_for(tenant_of(name));
        let statement = Arc::new(RegisteredStatement {
            name: name.to_string(),
            sql: sql.to_string(),
            stmt,
            // the root-most remote operator runs last
            kind: plan
                .prepared
                .remote_ops()
                .last()
                .map_or(OpKind::IndexScan, |op| op.key.op),
            state: RwLock::new(
                rank::STATEMENT_STATE,
                "registry.statement.state",
                StatementState {
                    plan,
                    admission,
                    drift: Vec::new(),
                },
            ),
            budget,
            executions: AtomicU64::new(0),
            latencies: (0..LATENCY_RING).map(|_| AtomicU64::new(0)).collect(),
        });
        // journal while still holding the write lock so journal order
        // matches map-state order (see `uninstall`)
        let mut statements = self.statements.write();
        statements.insert(name.to_string(), statement);
        if let Some(durability) = self.durability.read().as_ref() {
            durability.upserted(name, sql);
        }
    }

    pub fn get(&self, name: &str) -> Option<Arc<RegisteredStatement>> {
        self.statements.read().get(name).cloned()
    }

    pub fn list(&self) -> Vec<Arc<RegisteredStatement>> {
        self.statements.read().values().cloned().collect()
    }

    /// Execute a registered statement, recording wall-clock latency under
    /// the statement's interaction kind. Equivalent to
    /// [`StatementRegistry::execute_governed`] with the shed flag dropped.
    pub fn execute<'p>(
        &self,
        session: &mut Session,
        name: &str,
        params: impl Into<ParamsRef<'p>>,
        cursor: Option<&Cursor>,
    ) -> Result<QueryResult, RegistryError> {
        self.execute_governed(session, name, params, cursor)
            .map(|outcome| outcome.result)
    }

    /// Execute a registered statement through its tenant's admission
    /// budget, as one `Run`. The budget permit is held (RAII) for the
    /// whole execution — it releases on success, error, and panic-unwind
    /// alike, so in-flight accounting cannot leak across disconnects.
    pub fn execute_governed<'p>(
        &self,
        session: &mut Session,
        name: &str,
        params: impl Into<ParamsRef<'p>>,
        cursor: Option<&Cursor>,
    ) -> Result<ExecOutcome, RegistryError> {
        let statement = self
            .get(name)
            .ok_or_else(|| RegistryError::UnknownStatement(name.to_string()))?;
        let (run, prepared, shed) = Run::governed(self, &statement, session)?;
        let result =
            self.db
                .execute_with(session, &prepared, params, ExecStrategy::Parallel, cursor);
        let result = run.book(session, result)?;
        Ok(ExecOutcome { result, shed })
    }

    /// Execute a DML statement (writes are always single-record bounded
    /// operations, so they need no admission decision).
    pub fn execute_dml<'p>(
        &self,
        session: &mut Session,
        sql: &str,
        params: impl Into<ParamsRef<'p>>,
    ) -> Result<(), RegistryError> {
        let result = self.db.execute_dml(session, sql, params);
        let counter = match result {
            Ok(()) => &self.counters.dml_executed,
            Err(_) => &self.counters.dml_errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        result.map_err(RegistryError::Db)
    }

    /// Recompute the backend's data placement from current contents (the
    /// protocol's `rebalance` verb): every namespace is re-split at
    /// learned key-distribution quantiles while sessions keep executing.
    /// Returns the post-rebalance shard balance of backends that track
    /// one.
    pub fn rebalance(&self) -> Vec<piql_kv::NsBalance> {
        self.db.cluster().rebalance();
        self.counters.rebalances.fetch_add(1, Ordering::Relaxed);
        self.db.cluster().balance()
    }

    // ------------------------------------------------- the feedback loop

    /// One re-validation sweep: drain live latency samples from the
    /// backend, fold them into the shared models (each sweep closes one
    /// observation interval), then re-run the admission decision for every
    /// registered statement against the refreshed snapshot. Afterwards each
    /// holds the verdict and bound [`StatementRegistry::register`] would
    /// answer for its text on that snapshot — except that a rejection is
    /// [`Admission::Flagged`], the installed plan kept.
    pub fn revalidate(&self) -> RevalidationSummary {
        // one sweep at a time: a client-forced `revalidate` verb must not
        // interleave with the background Revalidator's tick (both would
        // drain/rotate and double-apply drift actions)
        let _sweeping = self.sweep_lock.lock();
        let c = &self.counters;
        let sweep = c.revalidations.fetch_add(1, Ordering::Relaxed) + 1;
        let samples = self.db.store().drain_samples();
        self.models.ingest(&samples);
        let folded = self.models.rotate();
        let predictor = self.models.predictor();

        let mut summary = RevalidationSummary {
            sweep,
            samples_folded: folded,
            models_rotated: folded > 0,
            ..Default::default()
        };
        for statement in self.list() {
            let action = self.revalidate_statement(&statement, &predictor, sweep);
            summary.statements += 1;
            match action {
                DriftAction::Steady => summary.steady += 1,
                DriftAction::Redegraded => summary.redegraded += 1,
                DriftAction::Relaxed => summary.relaxed += 1,
                DriftAction::Flagged => summary.flagged += 1,
                DriftAction::Recovered => summary.recovered += 1,
            }
        }
        c.samples_folded.fetch_add(folded, Ordering::Relaxed);
        c.drift_redegraded
            .fetch_add(summary.redegraded, Ordering::Relaxed);
        c.drift_relaxed
            .fetch_add(summary.relaxed, Ordering::Relaxed);
        c.drift_flagged
            .fetch_add(summary.flagged, Ordering::Relaxed);
        c.drift_recovered
            .fetch_add(summary.recovered, Ordering::Relaxed);

        // Skew-triggered rebalance: a sweep already looked at the whole
        // service, so it is the natural place to act on placement skew.
        // Op counters reset on rebalance, so `rebalance_min_ops` doubles
        // as the hysteresis between consecutive triggers.
        let (threshold, min_ops) = {
            let cfg = self.overload.lock();
            (cfg.rebalance_max_op_share, cfg.rebalance_min_ops)
        };
        if threshold > 0.0 && self.db.cluster().maybe_rebalance(threshold, min_ops) {
            c.auto_rebalances.fetch_add(1, Ordering::Relaxed);
        }
        summary
    }

    /// Re-run the admission decision for one statement: the [`fit`] a fresh
    /// [`StatementRegistry::register`] would run, from its *original* bound,
    /// wherever the installed one got to.
    fn revalidate_statement(
        &self,
        statement: &Arc<RegisteredStatement>,
        predictor: &SloPredictor,
        sweep: u64,
    ) -> DriftAction {
        let catalog = self.db.catalog();
        // Decide first, apply later: compiles and the advisor grid search
        // are the expensive part, and they must not run under the state
        // write lock or every sweep would stall this statement's executors
        // (which read-lock the state to clone the plan). Sweeps are
        // serialized by `sweep_lock`, so no other writer races the apply.
        let (installed, old) = {
            let state = statement.state.read();
            (state.plan.clone(), state.admission.clone())
        };
        let running = &installed.prepared.compiled;
        let stmt = &statement.stmt;
        // the installed plan answers for its own bound: an undegraded
        // statement is re-decided without a compile
        let found = if installed.limit == stmt.bound.map(|b| b.count()) {
            self.fit(predictor, &catalog, stmt, running)
        } else {
            match self.optimizer.compile(&catalog, stmt) {
                Ok(written) => self.fit(predictor, &catalog, stmt, &written),
                Err(_) => Fit::Infeasible(predictor.predict(running)),
            }
        };
        // a bound that moved needs its plan (one that cannot be had: a flag)
        let mut moved = None;
        let decided = admit(&found, stmt).and_then(|(limit, admission)| {
            if limit != installed.limit {
                moved = Some(self.plan(stmt, limit).ok()?);
            }
            Some((limit, admission))
        });
        let (action, admission) = transition(&old, installed.limit, decided, || {
            let audit = piql_audit::audit_compiled(
                predictor,
                &statement.name,
                &statement.sql,
                running,
                self.slo,
            );
            Admission::Flagged {
                predicted_p99_ms: predictor.predict(running).max_p99_ms,
                diagnostics: audit.diagnostics,
            }
        });

        // apply: brief write lock, no compiles inside
        let mut state = statement.state.write();
        if let Some(plan) = moved {
            state.plan = plan;
        }
        state.drift.push(DriftEvent {
            sweep,
            predicted_p99_ms: admission.predicted_p99_ms().unwrap_or(0.0),
            action,
        });
        state.admission = admission;
        if state.drift.len() > DRIFT_HISTORY {
            let excess = state.drift.len() - DRIFT_HISTORY;
            state.drift.drain(..excess);
        }
        action
    }
}

/// The bound and verdict a feasible [`Fit`] of `stmt` installs; `None` for
/// [`Fit::Infeasible`], which registration rejects and a sweep flags.
fn admit(found: &Fit, stmt: &SelectStmt) -> Option<(Option<u64>, Admission)> {
    let original = stmt.bound.map(|b| b.count());
    match found {
        Fit::AsWritten(written) => Some((
            original,
            Admission::Admitted {
                predicted_p99_ms: written.max_p99_ms,
            },
        )),
        Fit::Degraded {
            limit, prediction, ..
        } => Some((
            Some(*limit),
            Admission::Degraded {
                predicted_p99_ms: prediction.max_p99_ms,
                original_limit: original?,
                limit: *limit,
            },
        )),
        Fit::Infeasible(_) => None,
    }
}

/// Name what a sweep's decision did to a statement whose verdict was `old`
/// at bound `installed`. `decided` is what registration would install now
/// ([`admit`]); `None`, its rejection, is a flag (`flag` builds it).
fn transition(
    old: &Admission,
    installed: Option<u64>,
    decided: Option<(Option<u64>, Admission)>,
    flag: impl FnOnce() -> Admission,
) -> (DriftAction, Admission) {
    let flagged = matches!(old, Admission::Flagged { .. });
    match decided {
        None if flagged => (DriftAction::Steady, flag()),
        None => (DriftAction::Flagged, flag()),
        Some((limit, admission)) => {
            let action = match limit.cmp(&installed) {
                std::cmp::Ordering::Less => DriftAction::Redegraded,
                std::cmp::Ordering::Greater => DriftAction::Relaxed,
                std::cmp::Ordering::Equal if flagged => DriftAction::Recovered,
                std::cmp::Ordering::Equal => DriftAction::Steady,
            };
            (action, admission)
        }
    }
}

/// A background thread that runs [`StatementRegistry::revalidate`] every
/// `period` — the always-on half of the feedback loop. Dropping it stops
/// the sweeps (joining the thread).
pub struct Revalidator {
    _thread: Periodic,
}

impl Revalidator {
    pub fn spawn<S: KvStore + 'static>(
        registry: Arc<StatementRegistry<S>>,
        period: Duration,
    ) -> Revalidator {
        Revalidator {
            _thread: Periodic::spawn("piql-revalidate", period, move || {
                registry.revalidate();
            }),
        }
    }
}

/// A control-plane thread that runs `work` every `period`. Dropping it
/// stops the schedule (joining the thread); work in flight finishes first.
pub(crate) struct Periodic {
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Periodic {
    pub(crate) fn spawn(
        name: &str,
        period: Duration,
        mut work: impl FnMut() + Send + 'static,
    ) -> Periodic {
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let shutdown = shutdown.clone();
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || {
                    // sleep in short ticks so shutdown never waits a period
                    let tick = period
                        .min(Duration::from_millis(20))
                        .max(Duration::from_millis(1));
                    let mut slept = Duration::ZERO;
                    loop {
                        std::thread::sleep(tick);
                        if shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        slept += tick;
                        if slept >= period {
                            slept = Duration::ZERO;
                            work();
                        }
                    }
                })
                // Construction-time spawn, before any request is accepted.
                // lint:allow(request-unwrap)
                .expect("spawn periodic control-plane thread")
        };
        Periodic {
            shutdown,
            handle: Some(handle),
        }
    }
}

impl Drop for Periodic {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const O: u64 = 100;

    fn admitted() -> Admission {
        Admission::Admitted {
            predicted_p99_ms: 1.0,
        }
    }

    fn degraded(limit: u64) -> Admission {
        Admission::Degraded {
            predicted_p99_ms: 1.0,
            original_limit: O,
            limit,
        }
    }

    fn flagged() -> Admission {
        Admission::Flagged {
            predicted_p99_ms: 9.0,
            diagnostics: Vec::new(),
        }
    }

    /// What registration would install at `limit` of a `LIMIT 100`
    /// statement — the shape [`admit`] hands to [`transition`].
    fn install(limit: u64) -> Option<(Option<u64>, Admission)> {
        let admission = if limit == O {
            admitted()
        } else {
            degraded(limit)
        };
        Some((Some(limit), admission))
    }

    /// Every cell of (what the statement was) × (what the decision is now):
    /// the action is named by where the bound went, the verdict is the one
    /// registration would answer, and only a rejection keeps a flag.
    #[test]
    fn transition_names_every_cell_of_the_table() {
        use DriftAction::*;
        // (old verdict, installed bound) — admitted, degraded,
        // flagged at the original bound, flagged while degraded
        let rows = [
            (admitted(), O),
            (degraded(25), 25),
            (flagged(), O),
            (flagged(), 25),
        ];
        // decision → the action per row; `None` = no such cell (the bound
        // cannot move above the original)
        let columns = [
            // meets as written
            (
                install(O),
                [Some(Steady), Some(Relaxed), Some(Recovered), Some(Relaxed)],
            ),
            // degraded lower than installed
            (
                install(10),
                [
                    Some(Redegraded),
                    Some(Redegraded),
                    Some(Redegraded),
                    Some(Redegraded),
                ],
            ),
            // degraded higher than installed
            (install(50), [None, Some(Relaxed), None, Some(Relaxed)]),
            // the installed bound again
            (install(25), [None, Some(Steady), None, Some(Recovered)]),
            // infeasible: flag once, keep the flag (and the plan) after
            (
                None,
                [Some(Flagged), Some(Flagged), Some(Steady), Some(Steady)],
            ),
        ];
        for (decided, actions) in columns {
            for ((old, installed), expected) in rows.iter().zip(actions) {
                let Some(expected) = expected else { continue };
                let (action, admission) =
                    transition(old, Some(*installed), decided.clone(), flagged);
                let cell = format!("{} at {installed} → {decided:?}", old.verdict());
                assert_eq!(action, expected, "{cell}");
                match &decided {
                    Some((_, verdict)) => assert_eq!(&admission, verdict, "{cell}"),
                    None => assert_eq!(admission, flagged(), "{cell}"),
                }
            }
        }
        // a statement with no bound to move: steady, flagged, recovered
        let unbounded = Some((None, admitted()));
        for (old, decided, expected) in [
            (admitted(), unbounded.clone(), Steady),
            (flagged(), unbounded, Recovered),
            (admitted(), None, Flagged),
        ] {
            assert_eq!(transition(&old, None, decided, flagged).0, expected);
        }
    }

    /// [`admit`] is where a [`Fit`] becomes a bound and a verdict.
    #[test]
    fn admit_maps_a_fit_to_what_registration_installs() {
        let stmt = piql_core::parser::parse_select("SELECT * FROM t WHERE k = <k> LIMIT 100")
            .expect("parses");
        let prediction = |p99: f64| piql_predict::QueryPrediction {
            p99_per_interval_ms: vec![p99],
            max_p99_ms: p99,
            overall: piql_predict::Distribution::point(0),
        };
        assert_eq!(
            admit(&Fit::AsWritten(prediction(1.0)), &stmt),
            Some((Some(O), admitted()))
        );
        let found = Fit::Degraded {
            written: prediction(9.0),
            limit: 25,
            prediction: prediction(1.0),
        };
        assert_eq!(admit(&found, &stmt), Some((Some(25), degraded(25))));
        assert_eq!(admit(&Fit::Infeasible(prediction(9.0)), &stmt), None);
    }

    /// A point read registered over an empty table, to observe by hand.
    fn statement() -> Arc<RegisteredStatement> {
        let store = piql_kv::SimCluster::new(piql_kv::ClusterConfig::instant(1));
        let db = Database::new(Arc::new(store));
        db.execute_ddl("CREATE TABLE t (k INT NOT NULL, PRIMARY KEY (k))")
            .expect("creates");
        let slo = crate::testkit::permissive_slo();
        let predictor = crate::testkit::linear_predictor(200, 100, 2);
        let registry = StatementRegistry::new(Arc::new(db), predictor, slo);
        registry
            .register("q", "SELECT * FROM t WHERE k = <k>")
            .expect("admits");
        registry.get("q").expect("registered")
    }

    /// The statement's ring answers every quantile as an unbounded
    /// `RunMetrics` of its most recent `LATENCY_RING` latencies does:
    /// before, at and after it wraps.
    #[test]
    fn the_latency_ring_answers_as_the_reference_does() {
        for n in [1, LATENCY_RING - 1, LATENCY_RING, 10_000] {
            let statement = statement();
            let counters = RegistryCounters::default();
            // rising, with noise: every window has its own quantiles
            let latencies: Vec<Micros> =
                (1..=n as u64).map(|i| i * 10 + i * 7_919 % 1_000).collect();
            for &latency in &latencies {
                statement.observe(&counters, latency);
            }
            let mut reference = piql_workloads::RunMetrics {
                horizon_us: Micros::MAX,
                ..Default::default()
            };
            for &latency in &latencies[n.saturating_sub(LATENCY_RING)..] {
                reference.record(0, latency, 0);
            }
            for q in [0.0, 0.5, 0.99, 1.0] {
                let (got, expected) = (statement.quantile_ms(q), reference.quantile_ms(q));
                assert_eq!(got, expected, "{n} latencies, q = {q}");
            }
            assert_eq!(statement.executions.load(Ordering::Relaxed), n as u64);
            assert_eq!(counters.executed.load(Ordering::Relaxed), n as u64);
        }
    }

    /// Observers racing a reader over one ring, all released at once:
    /// nothing panics, every quantile read is one the latencies observed
    /// (or a slot not yet written) could give, and every execution is
    /// counted.
    #[test]
    fn observers_racing_a_reader_count_every_execution() {
        const OBSERVERS: u64 = 4;
        const EACH: u64 = 50_000;
        let statement = statement();
        let counters = RegistryCounters::default();
        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(OBSERVERS as usize + 1);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                start.wait();
                while !done.load(Ordering::Relaxed) {
                    for q in [0.0, 0.5, 0.99, 1.0] {
                        let ms = statement.quantile_ms(q);
                        assert!((0.0..=0.1).contains(&ms), "q = {q}: {ms} ms");
                    }
                }
            });
            let observers: Vec<_> = (0..OBSERVERS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        for i in 0..EACH {
                            statement.observe(&counters, i % 100 + 1);
                        }
                    })
                })
                .collect();
            for observer in observers {
                observer.join().expect("an observer panicked");
            }
            done.store(true, Ordering::Relaxed);
            reader.join().expect("the reader panicked");
        });
        let total = OBSERVERS * EACH;
        assert_eq!(statement.executions.load(Ordering::Relaxed), total);
        assert_eq!(counters.executed.load(Ordering::Relaxed), total);
        assert_eq!(statement.quantile_ms(1.0), 0.1);
    }
}
