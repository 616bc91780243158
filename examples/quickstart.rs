//! Quickstart: create a schema with a cardinality constraint, load data,
//! compile a scale-independent query, inspect its static bounds, execute
//! it, and page through results with a serializable cursor.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use piql::engine::{Database, ExecStrategy};
use piql::kv::{ClusterConfig, Session, SimCluster};
use piql::Params;
use piql_core::tuple::Tuple;
use piql_core::value::Value;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A simulated 6-node distributed key/value store (2x replication,
    // EC2-flavored latency model). All time below is virtual.
    let cluster = Arc::new(SimCluster::new(ClusterConfig::default().with_nodes(6)));
    let db = Database::new(cluster);

    // PIQL DDL: standard SQL plus CARDINALITY LIMIT (§4.2 of the paper).
    db.execute_ddl(
        "CREATE TABLE users (
           username VARCHAR(24) NOT NULL,
           home_town VARCHAR(32),
           PRIMARY KEY (username) )",
    )?;
    db.execute_ddl(
        "CREATE TABLE messages (
           recipient VARCHAR(24) NOT NULL,
           sent_at   TIMESTAMP NOT NULL,
           sender    VARCHAR(24),
           body      VARCHAR(140),
           PRIMARY KEY (recipient, sent_at),
           FOREIGN KEY (recipient) REFERENCES users,
           CARDINALITY LIMIT 200 (recipient) )",
    )?;

    // Load some data (bulk load maintains indexes, skips latency).
    db.bulk_load(
        "users",
        (0..500).map(|i| {
            Tuple::new(vec![
                Value::Varchar(format!("user{i:03}")),
                Value::Varchar("Berkeley".into()),
            ])
        }),
    )?;
    db.bulk_load(
        "messages",
        (0..500).flat_map(|i| {
            (0..50).map(move |m| {
                Tuple::new(vec![
                    Value::Varchar(format!("user{i:03}")),
                    Value::Timestamp(1_700_000_000_000 + m * 977),
                    Value::Varchar(format!("user{:03}", (i + m as usize) % 500)),
                    Value::Varchar(format!("message {m}")),
                ])
            })
        }),
    )?;
    db.cluster().rebalance();

    // Compile a paginated query. The compiler proves a bound on the
    // key/value operations BEFORE execution — that is scale independence.
    let inbox = db.prepare(
        "SELECT * FROM messages WHERE recipient = <user> \
         ORDER BY sent_at DESC PAGINATE 10",
    )?;
    println!("query class:     {}", inbox.compiled.class);
    println!(
        "static bound:    ≤{} key/value requests, ≤{} tuples per page",
        inbox.compiled.bounds.requests, inbox.compiled.bounds.tuples
    );
    println!(
        "physical plan:\n{}",
        inbox.compiled.physical.display_with(&inbox.compiled.schema)
    );

    // Execute page 1, then resume from a serialized cursor — the cursor can
    // be shipped to a browser and back (§4.1); servers stay stateless.
    let mut session = Session::new();
    let mut params = Params::new();
    params.set(0, Value::Varchar("user042".into()));
    let page1 = db.execute(&mut session, &inbox, &params)?;
    println!(
        "page 1: {} rows in {:.1} ms (virtual)",
        page1.rows.len(),
        session.now as f64 / 1000.0
    );
    let cursor_bytes = page1.cursor.expect("more pages").to_bytes();
    println!("cursor: {} bytes, ships with the page", cursor_bytes.len());

    let cursor = piql::engine::Cursor::from_bytes(&cursor_bytes)?;
    let page2 = db.execute_with(
        &mut session,
        &inbox,
        &params,
        ExecStrategy::Parallel,
        Some(&cursor),
    )?;
    println!(
        "page 2: {} rows; first row: {}",
        page2.rows.len(),
        page2.rows.to_tuples()[0]
    );

    // A query the compiler refuses — with an explanation and a fix.
    let err = db
        .prepare("SELECT * FROM messages WHERE sender = <user>")
        .unwrap_err();
    println!("\nrejected query:\n{err}");
    Ok(())
}
