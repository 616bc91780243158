//! The scenario driver: boots a real [`PiqlServer`] on a live cluster,
//! opens every tenant's connections, replays a seeded operation stream
//! against it while a fault injector perturbs the run, then verifies the
//! scenario invariants:
//!
//! 1. **No acked write is ever lost** — every write the server
//!    acknowledged is re-read after the run (with faults cleared) and
//!    must still be there.
//! 2. **Per-tenant p99 vs SLO** — tenants marked `assert_slo` must see
//!    their measured p99 under their target, faults and flash crowds
//!    notwithstanding.
//! 3. **No connection starves** — every steady-state connection that
//!    issued requests got at least one response (success or a clean
//!    rejection), even with slow consumers wedged on other sockets.
//! 4. **No unexpected errors** — the only allowed failure is the typed
//!    `budget-exceeded` rejection.
//!
//! Determinism: every random choice derives from `ScenarioSpec::seed`
//! via per-connection RNGs, and each connection folds its operation
//! stream into an FNV-1a fingerprint *before* sending, so the combined
//! fingerprint (and, in fixed-count mode, every admission/rejection
//! count driven purely by budget configuration) reproduces exactly
//! across runs.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use piql_core::tuple;
use piql_core::value::Value;
use piql_engine::Database;
use piql_kv::{LiveCluster, LiveConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use piql_server::protocol::request_to_line;
use piql_server::testkit::linear_predictor;
use piql_server::{
    nearest_rank_ms, Admission, BudgetPolicy, Client, Json, OverloadConfig, PiqlServer, Request,
    ServerTuning, SloConfig, StatementRegistry,
};

use crate::report::{ScenarioReport, ServerOverload, TenantReport};
use crate::spec::{Fault, ScenarioSpec, TenantSpec};
use crate::zipf::Zipfian;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Stable per-connection RNG seed: mixes the master seed with the
/// connection's coordinates (splitmix-style odd multiplier).
fn conn_seed(master: u64, tenant_idx: usize, conn_idx: usize) -> u64 {
    let coord = (tenant_idx as u64) << 20 | conn_idx as u64;
    master ^ (coord.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn key_label(rank: u64) -> String {
    format!("k{rank:08}")
}

/// Think-time multiplier in `[0.25, 1.0]`: starts at the trough (full
/// think), dips to peak load (quarter think) mid-cycle, `cycles` times
/// over the run.
fn diurnal_factor(cycles: u32, progress: f64) -> f64 {
    if cycles == 0 {
        return 1.0;
    }
    let phase = std::f64::consts::TAU * f64::from(cycles) * progress.clamp(0.0, 1.0);
    0.625 + 0.375 * phase.cos()
}

/// Everything a steady-state connection worker needs, cheap to clone.
#[derive(Clone)]
struct WorkerCtx {
    addr: SocketAddr,
    seed: u64,
    requests_per_conn: Option<u64>,
    duration: Duration,
    keys: u64,
    zipf_exponent: f64,
    write_fraction: f64,
    think: Duration,
    diurnal_cycles: u32,
    stop: Arc<AtomicBool>,
}

/// One steady-state connection's raw outcome.
struct ConnOutcome {
    tenant_idx: usize,
    conn_idx: usize,
    sent: u64,
    ok: u64,
    degraded: u64,
    rejected: u64,
    errors: u64,
    latencies_us: Vec<u64>,
    /// Group every acked write of this connection landed in.
    write_group: String,
    /// Keys of acked writes, in ack order.
    acked: Vec<String>,
    fingerprint: u64,
    error_sample: Option<String>,
}

fn conn_worker(
    ctx: WorkerCtx,
    tenant: TenantSpec,
    tenant_idx: usize,
    conn_idx: usize,
) -> ConnOutcome {
    let mut out = ConnOutcome {
        tenant_idx,
        conn_idx,
        sent: 0,
        ok: 0,
        degraded: 0,
        rejected: 0,
        errors: 0,
        latencies_us: Vec::new(),
        write_group: format!("w.{tenant_idx}.{conn_idx}"),
        acked: Vec::new(),
        fingerprint: FNV_OFFSET,
        error_sample: None,
    };
    let binary_conns = (tenant.connections as f64 * tenant.binary_share).round() as usize;
    let connect = if conn_idx < binary_conns {
        Client::connect_binary(ctx.addr)
    } else {
        Client::connect(ctx.addr)
    };
    let mut client = match connect {
        Ok(c) => c,
        Err(e) => {
            out.errors = 1;
            out.error_sample = Some(format!("connect: {e}"));
            return out;
        }
    };
    let mut rng = StdRng::seed_from_u64(conn_seed(ctx.seed, tenant_idx, conn_idx));
    let zipf = Zipfian::new(ctx.keys, ctx.zipf_exponent);
    let point = format!("{}.point", tenant.name);
    let insert_sql = format!(
        "INSERT INTO {}_items (g, k, v) VALUES (<g>, <k>, <v>)",
        tenant.name
    );
    let started = Instant::now();
    let mut seq: u64 = 0;
    loop {
        match ctx.requests_per_conn {
            Some(n) => {
                if out.sent >= n {
                    break;
                }
            }
            None => {
                if ctx.stop.load(Ordering::Relaxed) {
                    break;
                }
            }
        }
        // Generate the operation *before* sending and fold it into the
        // fingerprint: the stream is a pure function of the seed, never
        // of outcomes or timing.
        let is_write = rng.gen_bool(ctx.write_fraction);
        let mut acked_key = None;
        let request = if is_write {
            seq += 1;
            let k = key_label(seq);
            out.fingerprint = fnv(out.fingerprint, b"w");
            out.fingerprint = fnv(out.fingerprint, k.as_bytes());
            let params = vec![
                Value::Varchar(out.write_group.clone()).into(),
                Value::Varchar(k.clone()).into(),
                Value::Varchar(format!("v{seq}")).into(),
            ];
            acked_key = Some(k);
            Request::Dml {
                sql: insert_sql.clone(),
                params,
            }
        } else {
            let k = key_label(zipf.sample(&mut rng));
            out.fingerprint = fnv(out.fingerprint, b"r");
            out.fingerprint = fnv(out.fingerprint, k.as_bytes());
            Request::Execute {
                name: point.clone(),
                params: vec![Value::Varchar("r".into()).into(), Value::Varchar(k).into()],
                cursor: None,
            }
        };
        out.sent += 1;
        let t0 = Instant::now();
        // Sent tagged (a pipeline of depth one): what a flash crowd
        // exhausts is the dispatch pool, and an id-less request, run on
        // its own connection's thread, would never meet the crowd.
        let mut pipeline = client.pipeline();
        pipeline.queue(&request);
        let answer = pipeline
            .flush()
            .map(|mut answers| answers.pop().expect("one answer per queued request"));
        match answer {
            Ok(resp) => {
                let us = t0.elapsed().as_micros() as u64;
                if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                    if resp.get("degraded").and_then(Json::as_bool) == Some(true) {
                        out.degraded += 1;
                    } else {
                        out.ok += 1;
                    }
                    out.latencies_us.push(us);
                    if let Some(k) = acked_key {
                        out.acked.push(k);
                    }
                } else if resp.get("code").and_then(Json::as_str) == Some("budget-exceeded") {
                    out.rejected += 1;
                } else {
                    out.errors += 1;
                    if out.error_sample.is_none() {
                        out.error_sample = resp
                            .get("error")
                            .and_then(Json::as_str)
                            .map(|s| s.to_string());
                    }
                }
            }
            Err(e) => {
                out.errors += 1;
                if out.error_sample.is_none() {
                    out.error_sample = Some(format!("transport: {e}"));
                }
                break;
            }
        }
        if !ctx.think.is_zero() {
            let progress = match ctx.requests_per_conn {
                Some(n) if n > 0 => out.sent as f64 / n as f64,
                _ => (started.elapsed().as_secs_f64() / ctx.duration.as_secs_f64().max(1e-9))
                    .min(1.0),
            };
            thread::sleep(
                ctx.think
                    .mul_f64(diurnal_factor(ctx.diurnal_cycles, progress)),
            );
        }
    }
    out
}

/// A flash-crowd connection's outcome (tracked apart from steady state).
struct CrowdOutcome {
    tenant: String,
    sent: u64,
    ok: u64,
    rejected: u64,
    errors: u64,
}

const CROWD_PIPELINE: usize = 16;

/// When an entire crowd flush comes back `budget-exceeded`, the crowd
/// connection backs off briefly before retrying (the retry-after pattern
/// rejected clients follow). The baseline run never rejects, so the
/// crowd never backs off there — the overload stays unthrottled.
const CROWD_REJECT_BACKOFF: Duration = Duration::from_millis(5);

fn crowd_worker(
    addr: SocketAddr,
    tenant: String,
    keys: u64,
    zipf_exponent: f64,
    seed: u64,
    crowd_stop: Arc<AtomicBool>,
    global_stop: Arc<AtomicBool>,
) -> CrowdOutcome {
    let mut out = CrowdOutcome {
        tenant: tenant.clone(),
        sent: 0,
        ok: 0,
        rejected: 0,
        errors: 0,
    };
    let Ok(mut client) = Client::connect(addr) else {
        out.errors = 1;
        return out;
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipfian::new(keys, zipf_exponent);
    let point = format!("{tenant}.point");
    while !crowd_stop.load(Ordering::Relaxed) && !global_stop.load(Ordering::Relaxed) {
        let mut pipe = client.pipeline();
        for _ in 0..CROWD_PIPELINE {
            let k = key_label(zipf.sample(&mut rng));
            pipe.queue_execute(
                &point,
                &[Value::Varchar("r".into()).into(), Value::Varchar(k).into()],
            );
        }
        out.sent += CROWD_PIPELINE as u64;
        match pipe.flush() {
            Ok(responses) => {
                let batch = responses.len() as u64;
                let mut rejected_in_batch = 0;
                for resp in responses {
                    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                        out.ok += 1;
                    } else if resp.get("code").and_then(Json::as_str) == Some("budget-exceeded") {
                        out.rejected += 1;
                        rejected_in_batch += 1;
                    } else {
                        out.errors += 1;
                    }
                }
                if rejected_in_batch == batch && batch > 0 {
                    thread::sleep(CROWD_REJECT_BACKOFF);
                }
            }
            Err(_) => {
                out.errors += 1;
                break;
            }
        }
    }
    out
}

/// A paused reader: writes `frames` requests then never reads a byte, so
/// the server's responses back up on this socket. With backpressure
/// enabled the reader lane parks at the in-flight cap; either way the
/// socket is held open until the scenario ends.
fn paused_reader(addr: SocketAddr, tenant: String, frames: usize, global_stop: Arc<AtomicBool>) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    stream.set_nodelay(true).ok();
    stream
        .set_write_timeout(Some(Duration::from_millis(200)))
        .ok();
    let line = request_to_line(&Request::Execute {
        name: format!("{tenant}.scan"),
        params: vec![Value::Varchar("r".into()).into()],
        cursor: None,
    });
    let frame = format!("{line}\n");
    let mut written = 0;
    while written < frames && !global_stop.load(Ordering::Relaxed) {
        match stream.write_all(frame.as_bytes()) {
            Ok(()) => written += 1,
            // Socket buffer full: the wedge is in effect; stop writing
            // (a retry could split a frame) and just hold the socket.
            Err(_) => break,
        }
    }
    while !global_stop.load(Ordering::Relaxed) {
        thread::sleep(Duration::from_millis(20));
    }
}

enum TimedAction {
    Delay(u64),
    CrowdStart {
        tenant: String,
        extra: usize,
        stop: Arc<AtomicBool>,
    },
    CrowdStop(Arc<AtomicBool>),
    PausedReader {
        tenant: String,
        frames: usize,
    },
}

/// Expand the fault list into a time-sorted action timeline.
fn build_timeline(spec: &ScenarioSpec) -> Vec<(Duration, TimedAction)> {
    let mut timeline = Vec::new();
    for fault in &spec.faults {
        match fault {
            Fault::SlowShard {
                at,
                until,
                delay_us,
            } => {
                timeline.push((*at, TimedAction::Delay(*delay_us)));
                timeline.push((*until, TimedAction::Delay(spec.request_delay_us)));
            }
            Fault::FlashCrowd {
                at,
                until,
                tenant,
                extra_connections,
            } => {
                let stop = Arc::new(AtomicBool::new(false));
                timeline.push((
                    *at,
                    TimedAction::CrowdStart {
                        tenant: tenant.clone(),
                        extra: *extra_connections,
                        stop: stop.clone(),
                    },
                ));
                timeline.push((*until, TimedAction::CrowdStop(stop)));
            }
            Fault::PausedReader { at, tenant, frames } => {
                timeline.push((
                    *at,
                    TimedAction::PausedReader {
                        tenant: tenant.clone(),
                        frames: *frames,
                    },
                ));
            }
        }
    }
    timeline.sort_by_key(|(at, _)| *at);
    timeline
}

/// Runs the fault timeline against the cluster/server, spawning crowd and
/// paused-reader threads; joins them all and returns the crowd outcomes.
#[allow(clippy::too_many_arguments)]
fn inject_faults(
    timeline: Vec<(Duration, TimedAction)>,
    cluster: Arc<LiveCluster>,
    addr: SocketAddr,
    keys: u64,
    zipf_exponent: f64,
    seed: u64,
    global_stop: Arc<AtomicBool>,
) -> Vec<CrowdOutcome> {
    let started = Instant::now();
    let mut crowd_handles: Vec<JoinHandle<CrowdOutcome>> = Vec::new();
    let mut reader_handles: Vec<JoinHandle<()>> = Vec::new();
    for (at, action) in timeline {
        while started.elapsed() < at && !global_stop.load(Ordering::Relaxed) {
            thread::sleep(Duration::from_millis(5));
        }
        if global_stop.load(Ordering::Relaxed) {
            break;
        }
        match action {
            TimedAction::Delay(us) => cluster.set_request_delay_us(us),
            TimedAction::CrowdStart {
                tenant,
                extra,
                stop,
            } => {
                for i in 0..extra {
                    let tenant = tenant.clone();
                    let stop = stop.clone();
                    let global_stop = global_stop.clone();
                    let crowd_seed = seed ^ 0xc0ffee ^ (i as u64) << 32;
                    if let Ok(h) =
                        thread::Builder::new()
                            .name(format!("scn-crowd-{i}"))
                            .spawn(move || {
                                crowd_worker(
                                    addr,
                                    tenant,
                                    keys,
                                    zipf_exponent,
                                    crowd_seed,
                                    stop,
                                    global_stop,
                                )
                            })
                    {
                        crowd_handles.push(h);
                    }
                }
            }
            TimedAction::CrowdStop(stop) => stop.store(true, Ordering::Relaxed),
            TimedAction::PausedReader { tenant, frames } => {
                let global_stop = global_stop.clone();
                if let Ok(h) = thread::Builder::new()
                    .name("scn-paused-reader".into())
                    .spawn(move || paused_reader(addr, tenant, frames, global_stop))
                {
                    reader_handles.push(h);
                }
            }
        }
    }
    // Crowd threads exit on their own stop flag or the global one; the
    // driver sets the global flag before joining us.
    let outcomes = crowd_handles
        .into_iter()
        .filter_map(|h| h.join().ok())
        .collect();
    for h in reader_handles {
        h.join().ok();
    }
    outcomes
}

/// How many acked writes per connection the verification phase re-reads.
const VERIFY_PER_CONN: usize = 64;

/// Run one scenario end to end and return its report (invariant
/// violations included — callers assert `report.passed()`).
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioReport {
    let t_start = Instant::now();
    let cluster = Arc::new(LiveCluster::new(LiveConfig {
        request_delay_us: spec.request_delay_us,
        ..LiveConfig::default()
    }));
    let db = Arc::new(Database::new(cluster.clone()));
    for t in &spec.tenants {
        db.execute_ddl(&format!(
            "CREATE TABLE {}_items ( \
               g VARCHAR(24) NOT NULL, \
               k VARCHAR(24) NOT NULL, \
               v VARCHAR(64), \
               PRIMARY KEY (g, k) )",
            t.name
        ))
        .expect("scenario DDL");
        db.bulk_load(
            &format!("{}_items", t.name),
            (0..spec.keys_per_tenant).map(|i| tuple!["r", key_label(i).as_str(), "seed"]),
        )
        .expect("scenario preload");
    }
    // Generous SLO at the registry: scenario statements must admit; the
    // per-tenant SLOs are asserted from the *client-measured* side.
    let registry = Arc::new(StatementRegistry::new(
        db,
        linear_predictor(200, 50, 2),
        SloConfig {
            slo_ms: 1e9,
            interval_confidence: 1.0,
            allow_degrade: true,
        },
    ));
    for t in &spec.tenants {
        let admission = registry
            .register(
                &format!("{}.point", t.name),
                &format!(
                    "SELECT * FROM {}_items WHERE g = <g> AND k = <k> LIMIT 1",
                    t.name
                ),
            )
            .expect("register point statement");
        assert!(
            matches!(
                admission,
                Admission::Admitted { .. } | Admission::Degraded { .. }
            ),
            "point statement not admitted: {admission:?}"
        );
        registry
            .register(
                &format!("{}.scan", t.name),
                &format!("SELECT * FROM {}_items WHERE g = <g> LIMIT 25", t.name),
            )
            .expect("register scan statement");
    }
    if spec.controls.enabled {
        registry.set_overload(OverloadConfig {
            rebalance_max_op_share: spec.controls.rebalance_max_op_share,
            rebalance_min_ops: spec.controls.rebalance_min_ops,
        });
        for t in &spec.tenants {
            if t.budget.is_some() {
                registry.set_tenant_budget(&t.name, t.budget, t.policy);
            }
        }
    }
    let mut server = PiqlServer::start_tuned(
        registry.clone(),
        "127.0.0.1:0",
        ServerTuning {
            dispatch_threads: spec.dispatch_threads,
            max_in_flight_per_conn: if spec.controls.enabled {
                spec.controls.max_in_flight_per_conn
            } else {
                0
            },
        },
    )
    .expect("scenario server start");
    if spec.controls.enabled && spec.controls.rebalance_max_op_share > 0.0 {
        // Auto-rebalance rides the revalidation sweep.
        server.enable_revalidation(Duration::from_millis(200));
    }
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let ctx = WorkerCtx {
        addr,
        seed: spec.seed,
        requests_per_conn: spec.requests_per_conn,
        duration: spec.duration,
        keys: spec.keys_per_tenant,
        zipf_exponent: spec.zipf_exponent,
        write_fraction: spec.write_fraction,
        think: spec.think,
        diurnal_cycles: spec.diurnal_cycles,
        stop: stop.clone(),
    };
    let mut worker_handles: Vec<JoinHandle<ConnOutcome>> = Vec::new();
    for (ti, t) in spec.tenants.iter().enumerate() {
        for ci in 0..t.connections {
            let ctx = ctx.clone();
            let t = t.clone();
            let h = thread::Builder::new()
                .name(format!("scn-{ti}-{ci}"))
                .spawn(move || conn_worker(ctx, t, ti, ci))
                .expect("spawn scenario worker");
            worker_handles.push(h);
        }
    }
    let injector = {
        let timeline = build_timeline(spec);
        let cluster = cluster.clone();
        let global_stop = stop.clone();
        let keys = spec.keys_per_tenant;
        let zipf_exponent = spec.zipf_exponent;
        let seed = spec.seed;
        thread::Builder::new()
            .name("scn-faults".into())
            .spawn(move || {
                inject_faults(
                    timeline,
                    cluster,
                    addr,
                    keys,
                    zipf_exponent,
                    seed,
                    global_stop,
                )
            })
            .expect("spawn fault injector")
    };
    // Wall-clock mode: cut the run after `duration`. Fixed-count mode:
    // workers stop on their own.
    if spec.requests_per_conn.is_none() {
        let deadline = Instant::now() + spec.duration;
        while Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
    }
    let outcomes: Vec<ConnOutcome> = worker_handles
        .into_iter()
        .filter_map(|h| h.join().ok())
        .collect();
    stop.store(true, Ordering::Relaxed);
    let crowd_outcomes = injector.join().unwrap_or_default();

    // ---- verification phase: clear faults and controls, then re-read
    // every sampled acked write through the public protocol.
    cluster.set_request_delay_us(0);
    for budget in registry.tenant_budgets() {
        budget.configure(None, BudgetPolicy::Reject);
    }
    let mut verified_per_tenant = vec![(0u64, 0u64); spec.tenants.len()];
    if let Ok(mut verifier) = Client::connect(addr) {
        for out in &outcomes {
            if out.acked.is_empty() {
                continue;
            }
            let point = format!("{}.point", spec.tenants[out.tenant_idx].name);
            let step = (out.acked.len() / VERIFY_PER_CONN).max(1);
            for k in out.acked.iter().step_by(step) {
                let found = verifier
                    .request_raw(&Request::Execute {
                        name: point.clone(),
                        params: vec![
                            Value::Varchar(out.write_group.clone()).into(),
                            Value::Varchar(k.clone()).into(),
                        ],
                        cursor: None,
                    })
                    .ok()
                    .filter(|resp| resp.get("ok").and_then(Json::as_bool) == Some(true))
                    .and_then(|resp| match resp.get("rows") {
                        Some(Json::Arr(rows)) => Some(rows.len()),
                        _ => None,
                    })
                    == Some(1);
                let slot = &mut verified_per_tenant[out.tenant_idx];
                if found {
                    slot.0 += 1;
                } else {
                    slot.1 += 1;
                }
            }
        }
    }
    let server_overload = sample_overload(addr);

    // ---- aggregate per tenant.
    let mut tenants = Vec::with_capacity(spec.tenants.len());
    let mut violations = Vec::new();
    for (ti, t) in spec.tenants.iter().enumerate() {
        let mine: Vec<&ConnOutcome> = outcomes.iter().filter(|o| o.tenant_idx == ti).collect();
        let latencies: Vec<u64> = mine
            .iter()
            .flat_map(|o| o.latencies_us.iter().copied())
            .collect();
        let (verified, lost) = verified_per_tenant[ti];
        let report = TenantReport {
            tenant: t.name.clone(),
            connections: t.connections,
            sent: mine.iter().map(|o| o.sent).sum(),
            ok: mine.iter().map(|o| o.ok).sum(),
            degraded: mine.iter().map(|o| o.degraded).sum(),
            rejected: mine.iter().map(|o| o.rejected).sum(),
            errors: mine.iter().map(|o| o.errors).sum(),
            acked_writes: mine.iter().map(|o| o.acked.len() as u64).sum(),
            verified_writes: verified,
            lost_writes: lost,
            p50_ms: nearest_rank_ms(latencies.clone(), 0.50),
            p99_ms: nearest_rank_ms(latencies.clone(), 0.99),
            slo_ms: t.slo_ms,
            crowd_sent: crowd_outcomes
                .iter()
                .filter(|c| c.tenant == t.name)
                .map(|c| c.sent)
                .sum(),
            crowd_ok: crowd_outcomes
                .iter()
                .filter(|c| c.tenant == t.name)
                .map(|c| c.ok)
                .sum(),
            crowd_rejected: crowd_outcomes
                .iter()
                .filter(|c| c.tenant == t.name)
                .map(|c| c.rejected)
                .sum(),
        };
        if report.lost_writes > 0 {
            violations.push(format!(
                "tenant {}: {} acked writes lost",
                t.name, report.lost_writes
            ));
        }
        if t.assert_slo && !latencies.is_empty() && report.p99_ms > t.slo_ms {
            violations.push(format!(
                "tenant {}: p99 {:.2}ms over SLO {:.2}ms",
                t.name, report.p99_ms, t.slo_ms
            ));
        }
        if report.errors > 0 {
            let sample = mine
                .iter()
                .find_map(|o| o.error_sample.clone())
                .unwrap_or_default();
            violations.push(format!(
                "tenant {}: {} unexpected errors ({sample})",
                t.name, report.errors
            ));
        }
        for o in &mine {
            if o.sent > 0 && o.ok + o.degraded + o.rejected == 0 {
                violations.push(format!(
                    "tenant {}: connection {} starved ({} sent, none answered)",
                    t.name, o.conn_idx, o.sent
                ));
            }
        }
        tenants.push(report);
    }
    if tenants.iter().map(|t| t.sent).sum::<u64>() == 0 {
        violations.push("no operations were issued".to_string());
    }
    let fingerprint = outcomes.iter().fold(0u64, |acc, o| acc ^ o.fingerprint);
    drop(server);
    ScenarioReport {
        seed: spec.seed,
        controls_enabled: spec.controls.enabled,
        fingerprint,
        elapsed_ms: t_start.elapsed().as_millis() as u64,
        tenants,
        server: server_overload,
        violations,
    }
}

/// Pull the server's overload counters from a `stats` call.
fn sample_overload(addr: SocketAddr) -> ServerOverload {
    let mut out = ServerOverload::default();
    if let Ok(mut client) = Client::connect(addr) {
        if let Ok(stats) = client.stats() {
            if let Some(ov) = stats.get("overload") {
                let grab =
                    |key: &str| ov.get(key).and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
                out.backpressure_stalls = grab("backpressure_stalls");
                out.budget_rejected = grab("budget_rejected");
                out.budget_shed = grab("budget_shed");
                out.auto_rebalances = grab("auto_rebalances");
            }
        }
    }
    out
}
