//! `piql-server` in five minutes: start the query service on a real-time
//! store, register the SCADr thoughtstream, and watch success-tolerance at
//! the API boundary — one registration admitted, one degraded to a
//! SLO-feasible page size, one refused outright (with the Performance
//! Insight report) before it can touch storage. Then the feedback loop:
//! the store drifts slow, a re-validation sweep folds the observed
//! latencies back into the models, and the admitted statement is flagged
//! — same process, no restart. Along the way a second client negotiates
//! the binary v3 codec on the same port and races the JSON client through
//! pipelined point reads (served by the zero-allocation fast path).
//!
//! Run with: `cargo run --example serve`
//!
//! Pass `--data-dir <path>` to run the durable flavor: data, prepared
//! statements, and live-trained models are journaled to a write-ahead log
//! with group commit, and a second run against the same directory recovers
//! everything and re-validates admissions at boot.

use piql::engine::Database;
use piql::kv::{LiveCluster, LiveConfig};
use piql::Value;
use piql_server::testkit::linear_predictor;
use piql_server::{
    decode_page, open_durable, Client, DurableOptions, Json, PiqlServer, Request, SloConfig,
};
use piql_workloads::scadr::{self, ScadrConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let mut data_dir: Option<std::path::PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--data-dir" => {
                data_dir = Some(args.next().ok_or("--data-dir needs a path")?.into());
            }
            other => return Err(format!("unknown argument '{other}'").into()),
        }
    }

    let config = ScadrConfig {
        users_per_node: 100,
        thoughts_per_user: 15,
        subscriptions_per_user: 8,
        max_subscriptions: 100,
        ..Default::default()
    };
    // -- the service: 80ms p99 SLO, operator costs from a linear model
    // (a deployment would train these against its own store, §6.1)
    let slo = SloConfig {
        slo_ms: 80.0,
        interval_confidence: 1.0,
        allow_degrade: true,
    };

    // -- a wall-clock store with the SCADr schema and a little data;
    // with `--data-dir`, everything below survives a `kill -9`
    let (cluster, mut server, stack) = if let Some(dir) = data_dir {
        let mut opts = DurableOptions::new(&dir);
        opts.slo = slo;
        let bootstrap_config = config.clone();
        let stack = open_durable(opts, linear_predictor(200, 100, 3), move |db| {
            scadr::setup(db, &bootstrap_config, 2).map(|_| ())
        })?;
        let r = &stack.report;
        println!(
            "durable store at {}: generation {}, snapshot {} ({} entries), \
             {} WAL record(s) replayed, {} statement(s), {} DDL, \
             {} model rotation(s) — recovered in {}ms",
            dir.display(),
            r.generation,
            if r.snapshot_loaded { "loaded" } else { "none" },
            r.snapshot_entries,
            r.wal_records,
            r.statements,
            r.ddl,
            r.model_rotations,
            r.duration_ms,
        );
        for re in &stack.readmissions {
            println!("  re-admitted '{}': {}", re.name, re.verdict);
        }
        println!();
        let server = PiqlServer::start_with_registry(stack.registry.clone(), "127.0.0.1:0")?;
        (stack.cluster.clone(), server, Some(stack))
    } else {
        let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
        let db = Arc::new(Database::new(cluster.clone()));
        let n_users = scadr::setup(&db, &config, 2)?;
        println!(
            "loaded SCADr: {n_users} users on a live sharded store \
             ({} round fan-out workers shared by all sessions)\n",
            cluster.pool().worker_count()
        );
        let server = PiqlServer::start(db, linear_predictor(200, 100, 3), slo, "127.0.0.1:0")?;
        (cluster, server, None)
    };
    // live samples fold back into the models periodically; the period is
    // long so this demo's forced `revalidate` below owns the scripted
    // sweep (a background tick landing mid-script would drain the samples
    // first and make the printed summary a no-op)
    server.enable_revalidation(std::time::Duration::from_secs(60));
    println!(
        "piql-server listening on {} (SLO: p99 ≤ 80ms, periodic re-validation on)\n",
        server.local_addr()
    );

    let mut client = Client::connect(server.local_addr())?;

    // -- 1. a cheap point query: admitted as written
    let verdict = client.prepare("find_user", "SELECT * FROM users WHERE username = <u>")?;
    print_verdict("find_user", &verdict);
    let page = client.execute(
        "find_user",
        &[Value::Varchar(scadr::username(42)).into()],
        None,
    )?;
    println!(
        "   → executed: {} row(s), e.g. {}\n",
        page.rows.len(),
        page.rows[0]
    );

    // -- 2. the thoughtstream: over SLO as written (100 subscriptions ×
    //       10-thought pages), admitted with an advisor-degraded page size
    let verdict = client.prepare(
        "thoughtstream",
        "SELECT thoughts.* FROM subscriptions s JOIN thoughts \
         WHERE thoughts.owner = s.target AND s.owner = <u> AND s.approved = true \
         ORDER BY thoughts.timestamp DESC LIMIT 10",
    )?;
    print_verdict("thoughtstream", &verdict);
    let page = client.execute(
        "thoughtstream",
        &[Value::Varchar(scadr::username(7)).into()],
        None,
    )?;
    println!(
        "   → executed: {} row(s) under the degraded bound\n",
        page.rows.len()
    );

    // -- 3. an unbounded query: REFUSED before any storage request
    let ops_before = cluster.op_count();
    let verdict = client.prepare("grep", "SELECT * FROM thoughts WHERE text = <t>")?;
    print_verdict("grep", &verdict);
    println!(
        "   → storage operations issued while rejecting: {}\n",
        cluster.op_count() - ops_before
    );

    // -- 4. the page-view, amortized (PROTOCOL.md §5–6): a fan-out app
    //       server pipelines N statements into ~1 round trip instead of N
    let t0 = Instant::now();
    let mut sequential_rows = 0;
    for i in 0..10 {
        sequential_rows += client
            .execute(
                "find_user",
                &[Value::Varchar(scadr::username(i)).into()],
                None,
            )?
            .rows
            .len();
    }
    let sequential = t0.elapsed();
    let t0 = Instant::now();
    let mut pipeline = client.pipeline();
    for i in 0..10 {
        pipeline.queue_execute("find_user", &[Value::Varchar(scadr::username(i)).into()]);
    }
    let pipelined_rows: usize = pipeline
        .flush()?
        .iter()
        .map(|r| decode_page(r).map(|p| p.rows.len()))
        .sum::<Result<usize, _>>()?;
    let pipelined = t0.elapsed();
    assert_eq!(pipelined_rows, sequential_rows);
    println!(
        "page-view of 10 statements: {sequential_rows} rows — sequential {:.2}ms, \
         pipelined {:.2}ms (one write, answers in completion order)",
        sequential.as_secs_f64() * 1e3,
        pipelined.as_secs_f64() * 1e3,
    );
    // a batch is one *line*: sub-requests share a session sequentially,
    // so the INSERT is visible to the read right behind it (and a
    // mid-batch error would answer in place without aborting the rest)
    let results = client.execute_batch(&[
        Request::Prepare {
            name: "my_thoughts".into(),
            sql: "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 3".into(),
        },
        Request::Dml {
            sql: "INSERT INTO thoughts (owner, timestamp, text) VALUES (<u>, <ts>, <txt>)".into(),
            params: vec![
                Value::Varchar(scadr::username(42)).into(),
                Value::Timestamp(9_000_000_000_000_000).into(),
                Value::Varchar("posted and read back in one round trip".into()).into(),
            ],
        },
        Request::Execute {
            name: "my_thoughts".into(),
            params: vec![Value::Varchar(scadr::username(42)).into()],
            cursor: None,
        },
    ])?;
    let read_back = decode_page(&results[2])?;
    println!(
        "batch of [prepare, post thought, read own stream]: one round trip — \
         prepare {}, write ok={}, newest row: {}\n",
        results[0]
            .get("status")
            .and_then(Json::as_str)
            .unwrap_or("?"),
        results[1]
            .get("ok")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        read_back.rows[0],
    );

    // -- 5. the binary wire protocol (v3, PROTOCOL.md §9): same port —
    //       a client opts in with a magic preamble, everything else keeps
    //       speaking JSON v2. Point reads take the server's
    //       allocation-free fast path.
    let mut bclient = Client::connect_binary(server.local_addr())?;
    let fast_before = client
        .stats()?
        .get("fast_point_reads")
        .and_then(Json::as_i64)
        .unwrap_or(0);
    let reads = 400;
    let t0 = Instant::now();
    let mut pipeline = client.pipeline();
    for i in 0..reads {
        pipeline.queue_execute("find_user", &[Value::Varchar(scadr::username(i)).into()]);
    }
    pipeline.flush()?;
    let json_elapsed = t0.elapsed();
    let t0 = Instant::now();
    let mut pipeline = bclient.pipeline();
    for i in 0..reads {
        pipeline.queue_execute("find_user", &[Value::Varchar(scadr::username(i)).into()]);
    }
    pipeline.flush()?;
    let bin_elapsed = t0.elapsed();
    let fast_reads = bclient
        .stats()?
        .get("fast_point_reads")
        .and_then(Json::as_i64)
        .unwrap_or(0)
        - fast_before;
    println!(
        "binary v{} negotiated on the same port: {reads} pipelined point reads — \
         json-v2 {:.2}ms, binary-v3 {:.2}ms ({fast_reads} answered by the \
         zero-allocation fast path)\n",
        bclient.wire_version(),
        json_elapsed.as_secs_f64() * 1e3,
        bin_elapsed.as_secs_f64() * 1e3,
    );
    // fold the race's healthy samples into the models now, so the drift
    // sweep below sees the slow ones undiluted
    client.revalidate()?;

    // -- 6. the feedback loop: the store drifts slow, live samples fold
    //       back into the models, and a sweep flags the admitted statement
    println!("injecting 120ms/request latency drift into the running store...");
    cluster.set_request_delay_us(120_000);
    for _ in 0..3 {
        client.execute(
            "find_user",
            &[Value::Varchar(scadr::username(42)).into()],
            None,
        )?;
    }
    let sweep = client.revalidate()?;
    println!(
        "revalidate: folded {} live samples, flagged {} statement(s)",
        sweep
            .get("samples_folded")
            .and_then(Json::as_i64)
            .unwrap_or(0),
        sweep.get("flagged").and_then(Json::as_i64).unwrap_or(0),
    );
    if let Some(statements) = client.stats()?.get("statements").and_then(Json::as_arr) {
        for s in statements {
            if s.get("name").and_then(Json::as_str) == Some("find_user") {
                println!(
                    "! find_user is now {} — refreshed p99 prediction {:.1}ms \
                     vs observed p99 {:.1}ms\n",
                    s.get("status").and_then(Json::as_str).unwrap_or("?"),
                    s.get("predicted_p99_ms")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0),
                    s.get("p99_ms").and_then(Json::as_f64).unwrap_or(0.0),
                );
            }
        }
    }
    cluster.set_request_delay_us(0);

    // -- service counters
    let stats = client.stats()?;
    println!(
        "stats: admitted={} degraded={} rejected_unbounded={} executed={} revalidations={}",
        stats.get("admitted").and_then(Json::as_i64).unwrap_or(0),
        stats.get("degraded").and_then(Json::as_i64).unwrap_or(0),
        stats
            .get("rejected_unbounded")
            .and_then(Json::as_i64)
            .unwrap_or(0),
        stats.get("executed").and_then(Json::as_i64).unwrap_or(0),
        stats
            .get("revalidations")
            .and_then(Json::as_i64)
            .unwrap_or(0),
    );

    // -- durable mode: checkpoint over the wire, then shut down cleanly.
    // Run again with the same --data-dir: same data, same predictions,
    // zero re-registration.
    if let Some(stack) = stack {
        // what persists is the *live* model state, so a restarted server
        // would re-admit find_user against the drifted models and reject
        // it at boot. Let the cleared drift rotate out first, so the
        // checkpointed prediction is the recovered one.
        for _ in 0..3 {
            for _ in 0..3 {
                client.execute(
                    "find_user",
                    &[Value::Varchar(scadr::username(42)).into()],
                    None,
                )?;
            }
            client.revalidate()?;
        }
        let summary = client.snapshot()?;
        println!(
            "snapshot: generation {} — {} entries, {} bytes ({} WAL bytes compacted away)",
            summary
                .get("generation")
                .and_then(Json::as_i64)
                .unwrap_or(0),
            summary.get("entries").and_then(Json::as_i64).unwrap_or(0),
            summary.get("bytes").and_then(Json::as_i64).unwrap_or(0),
            summary
                .get("compacted_wal_bytes")
                .and_then(Json::as_i64)
                .unwrap_or(0),
        );
        if let Some(d) = client.stats()?.get("durability") {
            println!(
                "durability health: policy={} wal_bytes={} records_since_snapshot={}",
                d.get("policy").and_then(Json::as_str).unwrap_or("?"),
                d.get("wal_bytes").and_then(Json::as_i64).unwrap_or(0),
                d.get("wal_records").and_then(Json::as_i64).unwrap_or(0),
            );
        }
        stack.close();
    }
    Ok(())
}

fn print_verdict(name: &str, verdict: &Json) {
    let status = verdict.get("status").and_then(Json::as_str).unwrap_or("?");
    match status {
        "admitted" => println!(
            "✓ {name}: ADMITTED (predicted p99 {:.1}ms)",
            verdict
                .get("predicted_p99_ms")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        ),
        "degraded" => println!(
            "~ {name}: ADMITTED DEGRADED — LIMIT {} → {} (predicted p99 {:.1}ms)",
            verdict
                .get("original_limit")
                .and_then(Json::as_i64)
                .unwrap_or(0),
            verdict.get("limit").and_then(Json::as_i64).unwrap_or(0),
            verdict
                .get("predicted_p99_ms")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        ),
        "rejected-slo" => println!(
            "✗ {name}: REJECTED — predicted p99 {:.1}ms exceeds the SLO",
            verdict
                .get("predicted_p99_ms")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        ),
        "rejected-unbounded" => {
            println!("✗ {name}: REJECTED — not scale-independent");
            if let Some(problem) = verdict.get("problem").and_then(Json::as_str) {
                println!("     {problem}");
            }
            for s in verdict
                .get("suggestions")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
            {
                println!("     suggestion: {}", s.as_str().unwrap_or("?"));
            }
        }
        other => println!("? {name}: {other}"),
    }
}
