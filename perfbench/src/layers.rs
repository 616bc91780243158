//! The traced run: each layer measured from outside, through its public
//! entry point, on the workload's own requests. One thread replays the
//! same seeded segment through the connection handler (with and without
//! the span-recording store wrappers), the statement registry and the
//! engine; fixed-shape probes time the store and the log on their own; a
//! short end-to-end phase supplies the generator's diagnostics.

use crate::check::Checker;
use crate::data::{self, Stack};
use crate::gen::{self, Generator, Ids, Meta};
use crate::spec::{Kind, Phase, Workload};
use crate::trace::{self, Tracer};
use crate::{e2e, proc, E2e, Report};
use piql_core::plan::params::Params;
use piql_durability::{Durability, DurabilityConfig, SyncPolicy};
use piql_engine::Database;
use piql_kv::{KvRequest, KvStore, LiveCluster, LiveConfig, NsId, Session, WalSink};
use piql_server::server::{handle_line, handle_request};
use piql_server::{BinaryConn, Json, Request, RequestId, StatementRegistry};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Mean ns of one call of `f` over `n` calls.
fn mean_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// One statement of a request, with its parameters already bound.
enum Stmt {
    Read { name: String, params: Params },
    Write { sql: String, params: Params },
}

fn statements_of(request: &Request, out: &mut Vec<Stmt>) {
    match request {
        Request::Execute { name, params, .. } => out.push(Stmt::Read {
            name: name.clone(),
            params: Params::from_values(params.iter().cloned()),
        }),
        Request::Dml { sql, params } => out.push(Stmt::Write {
            sql: sql.clone(),
            params: Params::from_values(params.iter().cloned()),
        }),
        Request::Batch { requests } => requests.iter().for_each(|r| statements_of(r, out)),
        other => unreachable!("the generator does not draw {other:?}"),
    }
}

/// A replayable segment: the same seed draws the same keys every time;
/// only inserted ids are fresh, so a segment can follow another on one
/// database.
struct Segment {
    meta: Vec<Meta>,
    /// Framed requests, each without its transport framing.
    frames: Vec<Vec<u8>>,
    /// The requests' statements, in order.
    stmts: Vec<Stmt>,
}

fn segment(w: &Workload, seed: u64, ids: &mut Ids) -> Segment {
    let mut generator = Generator::new(w, seed);
    let wire = gen::wire(w.kind);
    let (mut meta, mut frames, mut stmts) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..w.trace_requests {
        let (m, request) = generator.next(ids);
        statements_of(&request, &mut stmts);
        let mut framed = Vec::new();
        gen::encode(wire, i as i64, request, &mut framed);
        // what the server's reader hands the handler: binary frames
        // without the length prefix, JSON lines without the newline
        let frame = match wire.version() {
            3 => framed[4..].to_vec(),
            _ => framed[..framed.len() - 1].to_vec(),
        };
        meta.push(m);
        frames.push(frame);
    }
    Segment {
        meta,
        frames,
        stmts,
    }
}

/// Replay a segment through the connection handler — `BinaryConn` for
/// binary frames, `handle_line` for JSON lines — with no socket. Returns
/// ns per statement and the responses (decoded after the clock stops).
fn replay_handler<S: KvStore + 'static>(
    seg: &Segment,
    registry: &Arc<StatementRegistry<S>>,
    binary: bool,
    tracer: Option<&Tracer>,
) -> (f64, Vec<Json>) {
    let mut conn = BinaryConn::new(registry.clone());
    let mut session = Session::new();
    let mut responses = Vec::with_capacity(seg.frames.len());
    let t = Instant::now();
    for (i, frame) in seg.frames.iter().enumerate() {
        let span = tracer.map(|t| t.request("server.handle", i as u32));
        if binary {
            conn.handle_frame(frame);
        } else {
            let line = std::str::from_utf8(frame).expect("JSON lines are UTF-8");
            responses.push(handle_line(line, &mut session, registry));
        }
        if let (Some(t), Some(span)) = (tracer, span) {
            t.exit(span);
        }
    }
    let ns = t.elapsed().as_nanos() as f64 / seg.stmts.len() as f64;
    // binary answers queue up in the connection's output buffer, each
    // behind its length prefix
    let mut output = conn.output();
    while let Some((len, rest)) = output.split_first_chunk::<4>() {
        let (frame, rest) = rest.split_at(u32::from_le_bytes(*len) as usize);
        let body = piql_server::Wire::decode_response(&piql_server::BinaryWire, frame)
            .map(|(_, body)| body)
            .unwrap_or(Json::Null);
        responses.push(body);
        output = rest;
    }
    (ns, responses)
}

struct EngineCounts {
    ns: f64,
    requests: u64,
    rounds: u64,
    entries: u64,
    rows: u64,
    bound_utilisation: f64,
}

fn replay_engine(seg: &Segment, stack: &Stack) -> EngineCounts {
    let prepared: std::collections::BTreeMap<String, _> = stack
        .registry
        .list()
        .iter()
        .map(|s| (s.name.clone(), s.prepared()))
        .collect();
    let mut session = Session::new();
    let mut counts = EngineCounts {
        ns: 0.0,
        requests: 0,
        rounds: 0,
        entries: 0,
        rows: 0,
        bound_utilisation: 0.0,
    };
    let t = Instant::now();
    for stmt in &seg.stmts {
        let before = session.stats;
        match stmt {
            Stmt::Read { name, params } => {
                let plan = &prepared[name];
                let result = stack
                    .db
                    .execute(&mut session, plan, params)
                    .expect("engine read");
                counts.rows += result.rows.len() as u64;
                let used = session.stats.logical_requests - before.logical_requests;
                let bound = plan.compiled.bounds.requests.max(1);
                counts.bound_utilisation = counts.bound_utilisation.max(used as f64 / bound as f64);
            }
            Stmt::Write { sql, params } => stack
                .db
                .execute_dml(&mut session, sql, params)
                .expect("engine write"),
        }
    }
    counts.ns = t.elapsed().as_nanos() as f64 / seg.stmts.len() as f64;
    counts.requests = session.stats.logical_requests;
    counts.rounds = session.stats.rounds;
    counts.entries = session.stats.entries;
    counts
}

fn replay_registry(seg: &Segment, stack: &Stack) -> f64 {
    let mut session = Session::new();
    mean_ns(seg.stmts.len(), |i| match &seg.stmts[i] {
        Stmt::Read { name, params } => {
            black_box(
                stack
                    .registry
                    .execute_governed(&mut session, name, params, None)
                    .expect("registry read"),
            );
        }
        Stmt::Write { sql, params } => stack
            .registry
            .execute_dml(&mut session, sql, params)
            .expect("registry write"),
    })
}

/// Fixed round shapes against the loaded primary table, and puts into a
/// scratch namespace.
fn probe_store(cluster: &LiveCluster, table_ns: &str, out: &mut Report) {
    let ns = cluster.namespace(table_ns);
    let mut session = Session::new();
    let keys: Vec<Vec<u8>> = cluster
        .execute_round(
            &mut session,
            vec![KvRequest::GetRange {
                ns,
                start: Vec::new(),
                end: None,
                limit: Some(4096),
                reverse: false,
            }],
        )
        .remove(0)
        .into_entries()
        .expect("range answer")
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    assert!(!keys.is_empty(), "{table_ns} is loaded");
    let key = |i: usize| keys[i * 31 % keys.len()].clone();
    let mut value = Vec::new();
    out.layer(
        "kv.point_get_ns",
        mean_ns(200_000, |i| {
            value.clear();
            black_box(cluster.point_get(&mut session, ns, &keys[i * 31 % keys.len()], &mut value));
        }),
    );
    out.layer(
        "kv.round1_get_ns",
        mean_ns(100_000, |i| {
            black_box(
                cluster.execute_round(&mut session, vec![KvRequest::Get { ns, key: key(i) }]),
            );
        }),
    );
    out.layer(
        "kv.round8_get_ns",
        mean_ns(20_000, |i| {
            let round = (0..8)
                .map(|j| KvRequest::Get {
                    ns,
                    key: key(i * 8 + j),
                })
                .collect();
            black_box(cluster.execute_round(&mut session, round));
        }),
    );
    out.layer(
        "kv.range10_ns",
        mean_ns(100_000, |i| {
            black_box(cluster.execute_round(
                &mut session,
                vec![KvRequest::GetRange {
                    ns,
                    start: key(i),
                    end: None,
                    limit: Some(10),
                    reverse: false,
                }],
            ));
        }),
    );
    let scratch = cluster.namespace("perf/scratch");
    out.layer(
        "kv.put_ns",
        mean_ns(100_000, |i| {
            black_box(cluster.execute_round(
                &mut session,
                vec![KvRequest::Put {
                    ns: scratch,
                    key: format!("k{:09}", i * 7919 % 1_000_003).into_bytes(),
                    value: vec![7u8; 64],
                }],
            ));
        }),
    );
}

/// `Database::execute_dml` with no log attached: inserts of the
/// data set's own write statement.
fn probe_dml(db: &Database<LiveCluster>, kind: Kind, ids: &mut Ids) -> f64 {
    let w = match kind {
        Kind::TpcwMix => crate::spec::workload("tpcw_mix"),
        _ => crate::spec::workload("post_v3"),
    }
    .expect("write workload");
    // the write workloads' own generators know how to draw inserts
    let mut generator = Generator::new(w, 1);
    let mut stmts = Vec::new();
    while stmts.len() < 5_000 {
        let (_, request) = generator.next(ids);
        let mut all = Vec::new();
        statements_of(&request, &mut all);
        stmts.extend(all.into_iter().filter(|s| matches!(s, Stmt::Write { .. })));
    }
    let mut session = Session::new();
    mean_ns(stmts.len(), |i| {
        if let Stmt::Write { sql, params } = &stmts[i] {
            db.execute_dml(&mut session, sql, params).expect("insert");
        }
    })
}

/// Parse, compile, predict and prepare, over the workload's statements.
fn probe_compile(w: &Workload, stack: &Stack, seg: &Segment, out: &mut Report) {
    let reads = data::statements(w.kind);
    let mut texts: Vec<String> = reads.iter().map(|(_, sql)| sql.clone()).collect();
    for stmt in &seg.stmts {
        if let Stmt::Write { sql, .. } = stmt {
            if !texts.contains(sql) {
                texts.push(sql.clone());
            }
        }
    }
    out.layer(
        "core.parse_ns",
        mean_ns(texts.len() * 2_000, |i| {
            black_box(piql_core::parser::parse(&texts[i % texts.len()]).expect("parse"));
        }),
    );
    out.layer(
        "core.compile_us",
        mean_ns(reads.len() * 200, |i| {
            black_box(
                stack
                    .db
                    .prepare(&reads[i % reads.len()].1)
                    .expect("compile"),
            );
        }) / 1e3,
    );
    let predictor = stack.registry.models().predictor();
    let plans: Vec<_> = stack.registry.list().iter().map(|s| s.prepared()).collect();
    out.layer(
        "predict.predict_us",
        mean_ns(plans.len() * 200, |i| {
            black_box(predictor.predict(&plans[i % plans.len()].compiled));
        }) / 1e3,
    );
    out.layer(
        "server.prepare_us",
        mean_ns(reads.len() * 50, |i| {
            let (name, sql) = &reads[i % reads.len()];
            let admission = stack
                .registry
                .register(&format!("probe{}_{name}", i / reads.len()), sql)
                .expect("prepare");
            black_box(admission);
        }) / 1e3,
    );
}

/// The log on its own, in scratch directories: append, commit barrier,
/// a durable put through the store, and recovery of a fixed-size log.
fn probe_durability(dir: &Path, out: &mut Report) {
    const RECORDS: usize = 200_000;
    let config = || DurabilityConfig {
        dir: dir.to_path_buf(),
        policy: SyncPolicy::GroupCommit,
        snapshot_wal_bytes: u64::MAX,
    };
    let _ = std::fs::remove_dir_all(dir);
    let (_, log) = Durability::open(config()).expect("open log");
    let cluster = LiveCluster::new(LiveConfig::default());
    let ns = cluster.namespace("perf/log");
    log.append_ns(ns, "perf/log");
    let value = [7u8; 64];
    out.layer(
        "durability.append_ns",
        mean_ns(RECORDS, |i| {
            log.append_put(ns, format!("k{i:010}").as_bytes(), &value)
        }),
    );
    assert!(log.commit(), "log is alive");
    let mut commit_ns = 0u128;
    const COMMITS: usize = 200;
    for c in 0..COMMITS {
        for i in 0..16 {
            log.append_put(ns, format!("c{c:05}-{i:02}").as_bytes(), &value);
        }
        let t = Instant::now();
        assert!(log.commit(), "log is alive");
        commit_ns += t.elapsed().as_nanos();
    }
    out.layer(
        "durability.commit_us",
        commit_ns as f64 / COMMITS as f64 / 1e3,
    );
    cluster.attach_wal(log.clone());
    let mut session = Session::new();
    out.layer(
        "durability.put_durable_us",
        mean_ns(300, |i| {
            black_box(cluster.execute_round(
                &mut session,
                vec![KvRequest::Put {
                    ns,
                    key: format!("d{i:06}").into_bytes(),
                    value: value.to_vec(),
                }],
            ));
        }) / 1e3,
    );
    cluster.detach_wal();
    log.close();
    drop(log);

    let t = Instant::now();
    let (recovered, reopened) = Durability::open(config()).expect("reopen log");
    let fresh = LiveCluster::new(LiveConfig::default());
    fresh.namespace("perf/log");
    recovered.apply_kv(&fresh).expect("replay log");
    out.layer("durability.recovery_ms", t.elapsed().as_secs_f64() * 1e3);
    assert!(
        fresh.ns_len(NsId(0)) >= RECORDS,
        "recovery replayed the whole log"
    );
    reopened.close();
    let _ = std::fs::remove_dir_all(dir);
}

/// The generator's diagnostics of an end-to-end phase, as layer metrics.
fn loadgen_metrics(w: &Workload, e: &E2e, out: &mut Report) {
    let mut latency = e.outcome.seen.latency_ns.clone();
    latency.sort_unstable();
    let mut lag = e.outcome.seen.lag_ns.clone();
    lag.sort_unstable();
    let over = latency
        .iter()
        .filter(|&&ns| ns as f64 > w.slo_limit_us * 1e3)
        .count();
    // a failed statement misses any limit
    let missed = over as f64 + e.outcome.seen.failed as f64;
    let samples = latency.len() as f64 + e.outcome.seen.failed as f64;
    let slices = e.outcome.slices();
    out.layer(
        "loadgen.throughput_stmt_s",
        crate::load::median(&slices.stmt_per_s),
    );
    out.layer(
        "loadgen.cpu_us_per_stmt",
        crate::load::median(&slices.cpu_us_per_stmt),
    );
    out.layer(
        "loadgen.latency_p50_us",
        crate::load::median(&slices.p50_us),
    );
    out.layer(
        "loadgen.latency_p90_us",
        crate::load::median(&slices.p90_us),
    );
    out.layer(
        "loadgen.latency_p99_us",
        crate::load::quantile(&latency, 0.99) / 1e3,
    );
    out.layer(
        "loadgen.latency_max_us",
        latency.last().copied().unwrap_or(0) as f64 / 1e3,
    );
    out.layer("loadgen.slice_rate_cv", crate::load::cv(&slices.stmt_per_s));
    out.layer(
        "loadgen.send_lag_p99_us",
        crate::load::quantile(&lag, 0.99) / 1e3,
    );
    out.layer("loadgen.slo_miss_ratio", missed / samples.max(1.0));
    out.layer("loadgen.backlog_end", e.outcome.seen.backlog as f64);
}

pub fn run(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut out = Report::default();
    let base = proc::scratch_dir().join(format!("{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&base).expect("create scratch directory");
    let mut ids = Ids::new(w.kind);
    let binary = gen::wire(w.kind).version() == 3;

    // ---- the program as `run` measures it, no wrappers — except that
    // the insert workload runs on the durable stack here
    let durable = matches!(w.traced_phase, Phase::Durable { .. });
    let data_dir = base.join("data");
    let stack = Stack::build(w, &data_dir, durable);
    let phase = e2e(
        w,
        &stack,
        seed,
        (seconds / 2.0).max(1.0),
        &mut ids,
        w.traced_phase,
    );
    let seen = &phase.outcome.seen;
    out.tally(seen.ok, seen.failed, &seen.examples);
    out.note(crate::clocks(&phase));
    loadgen_metrics(w, &phase, &mut out);
    if let Phase::Open(rate) = w.traced_phase {
        // an open loop's numbers mean something only while the generator
        // keeps its schedule and the server keeps up with it. Whether they
        // do depends on the host as much as on the program, so a run that
        // does not is flagged for the reader, not failed: every answer
        // was still checked, and nothing here has a bound.
        let seen = &phase.outcome.seen;
        if seen.backlog as f64 > 0.1 * rate {
            out.note(format!(
                "DISTURBED: {} responses outstanding when the last request fell due; \
                 do not read this run's open-loop latencies",
                seen.backlog
            ));
        }
        let mut lag = seen.lag_ns.clone();
        lag.sort_unstable();
        let mut latency = seen.latency_ns.clone();
        latency.sort_unstable();
        let (lag_p50, p50) = (
            crate::load::quantile(&lag, 0.5),
            crate::load::quantile(&latency, 0.5),
        );
        if lag_p50 > 0.1 * p50 {
            out.note(format!(
                "DISTURBED: generator late, send lag p50 {lag_p50} ns against latency p50 \
                 {p50} ns; do not read this run's open-loop latencies"
            ));
        }
    }
    let sent = phase.stmts_sent as f64;
    out.layer(
        "server.fast_point_ratio",
        phase.fast_point_reads as f64 / sent,
    );
    out.layer(
        "durability.wal_records_per_stmt",
        phase.wal_records as f64 / sent,
    );
    out.layer("durability.fsyncs_per_stmt", phase.fsyncs as f64 / sent);
    out.layer("durability.snapshots", phase.snapshots as f64);

    let mut session = Session::new();
    let t = Instant::now();
    black_box(handle_request(
        &Request::Stats,
        &mut session,
        &stack.registry,
    ));
    out.layer("server.stats_us", t.elapsed().as_nanos() as f64 / 1e3);

    let segments: Vec<Segment> = (0..3).map(|_| segment(w, seed, &mut ids)).collect();
    let wire = gen::wire(w.kind);

    // handler, unwrapped; its answers are checked like any other
    let (handle_ns, responses) = replay_handler(&segments[0], &stack.registry, binary, None);
    let mut checker = Checker::new(w);
    for (meta, body) in segments[0].meta.iter().zip(&responses) {
        checker.check(meta, body);
    }
    out.tally(checker.ok, checker.failed, &checker.examples);
    out.layer("server.handle_ns", handle_ns);

    // codec over the same frames and answers
    let stmts = segments[0].stmts.len() as f64;
    let frames = &segments[0].frames;
    out.layer(
        "server.codec_req_decode_ns",
        mean_ns(frames.len(), |i| {
            black_box(wire.decode_envelope(&frames[i]).expect("decode request"));
        }) * frames.len() as f64
            / stmts,
    );
    let mut encoded = Vec::new();
    let mut bytes = 0usize;
    let encode_ns = mean_ns(responses.len(), |i| {
        encoded.clear();
        wire.encode_response(Some(&RequestId::Int(i as i64)), &responses[i], &mut encoded);
        bytes += encoded.len();
    });
    out.layer(
        "server.codec_resp_encode_ns",
        encode_ns * responses.len() as f64 / stmts,
    );
    out.layer("server.codec_resp_bytes", bytes as f64 / stmts);

    // per statement, one connection's time outside its handler: socket,
    // thread hops, queueing, and the load generator itself
    let mut latency = phase.outcome.seen.latency_ns.clone();
    latency.sort_unstable();
    let measured = (phase.outcome.seen.ok + phase.outcome.seen.failed) as f64;
    let stmts_per_sample = measured / latency.len().max(1) as f64;
    out.layer(
        "server.transport_ns",
        crate::load::quantile(&latency, 0.5) / stmts_per_sample - handle_ns,
    );

    let before = stack.cluster.stats_snapshot();
    let pool_before = stack
        .cluster
        .pool()
        .stats
        .worker_tasks
        .load(Ordering::Relaxed);
    let engine = replay_engine(&segments[2], &stack);
    let after = stack.cluster.stats_snapshot();
    let pool_tasks = stack
        .cluster
        .pool()
        .stats
        .worker_tasks
        .load(Ordering::Relaxed)
        - pool_before;
    let engine_stmts = segments[2].stmts.len() as f64;
    out.layer("engine.exec_ns", engine.ns);
    out.layer(
        "engine.kv_requests_per_stmt",
        engine.requests as f64 / engine_stmts,
    );
    out.layer(
        "engine.kv_rounds_per_stmt",
        engine.rounds as f64 / engine_stmts,
    );
    out.layer(
        "engine.entries_per_row",
        engine.entries as f64 / engine.rows.max(1) as f64,
    );
    out.layer("engine.bound_utilisation", engine.bound_utilisation);
    let logical = (after.ops - before.ops).max(1) as f64;
    out.layer(
        "kv.physical_per_logical",
        (after.physical_ops - before.physical_ops) as f64 / logical,
    );
    out.layer("kv.pool_worker_task_ratio", pool_tasks as f64 / logical);
    if engine.bound_utilisation > 1.0 {
        out.fail(format!(
            "a statement issued {}x its plan's static request bound",
            engine.bound_utilisation
        ));
    }

    out.layer(
        "server.registry_exec_ns",
        replay_registry(&segments[1], &stack),
    );

    if let Some(log) = &stack.durable {
        // kill the log as `kill -9` would, reopen the directory: every
        // insert acknowledged so far, by the phase and the three replays,
        // must be there
        log.durability.simulate_crash();
        let recovered = Stack::recover(w, &data_dir);
        let replayed = segments.iter().map(|s| s.stmts.len()).sum();
        let lost = crate::check::missing_thoughts(
            &recovered,
            &phase.stream,
            phase.requests_sent,
            replayed,
        );
        if lost > 0 {
            out.fail(format!(
                "{lost} acknowledged inserts missing after crash and recovery"
            ));
        }
        out.note(format!(
            "crash + recovery: {} acknowledged inserts checked by count, 1000 by key, {lost} \
             missing; log on {}",
            phase.requests_sent + replayed,
            proc::fs_type(&data_dir)
        ));
    }
    // everything below times the layers under the log, so take it off
    stack.cluster.detach_wal();
    out.layer("engine.dml_ns", probe_dml(&stack.db, w.kind, &mut ids));
    let table = match w.kind {
        Kind::TpcwMix => "t/customer",
        _ => "t/users",
    };
    probe_store(&stack.cluster, table, &mut out);
    probe_compile(w, &stack, &segments[0], &mut out);
    drop(stack);

    // ---- the same program with the span-recording wrappers in place
    let tracer = Tracer::new(w.trace_requests * 64);
    let mut traced_ids = Ids::new(w.kind);
    let traced = Stack::build_traced(w, &base.join("traced"), durable, &tracer);
    let traced_segment = segment(w, seed, &mut traced_ids);
    let (traced_ns, _) = replay_handler(&traced_segment, &traced.registry, binary, Some(&tracer));
    drop(traced);
    let spans = tracer.spans();
    let (handler_ns, kv_ns) = trace::time_and_children(&spans, "server.handle");
    let (_, wal_ns) = trace::time_and_children(&spans, "kv.execute_round");
    let traced_stmts = traced_segment.stmts.len() as f64;
    out.layer("server.handle_traced_ns", traced_ns);
    out.layer("kv.span_ns_per_stmt", kv_ns as f64 / traced_stmts);
    out.note(format!(
        "self time per statement: handler {:.0} ns, store {:.0} ns, log {:.0} ns \
         (handler spans {:.0} ns; wrappers add {:.0} ns over the unwrapped replay)",
        handler_ns.saturating_sub(kv_ns) as f64 / traced_stmts,
        kv_ns.saturating_sub(wal_ns) as f64 / traced_stmts,
        wal_ns as f64 / traced_stmts,
        handler_ns as f64 / traced_stmts,
        traced_ns - handle_ns,
    ));
    // spans nest: a child cannot outlast the span that caused it
    if kv_ns > handler_ns {
        out.fail(format!(
            "span nesting broken: handler {handler_ns} ns, store {kv_ns} ns, log {wal_ns} ns"
        ));
    }
    let trace_file = proc::scratch_dir().join(format!("trace-{}.jsonl", w.name));
    tracer.write_jsonl(&trace_file).expect("write trace");
    out.note(format!("{} spans in {}", spans.len(), trace_file.display()));

    probe_durability(&base.join("log"), &mut out);
    let _ = std::fs::remove_dir_all(&base);
    out
}
