//! SCADr — the paper's Twitter-like microblogging benchmark (§8.1.2).
//!
//! Three tables (users, subscriptions, thoughts), five queries ("List users
//! I'm following", "List my recent thoughts", the thoughtstream, "Find
//! user", and the 1%-probability "Post a new thought" update). One web
//! interaction renders the home page: the four read queries once each,
//! plus possibly the post.

use crate::driver::Workload;
use crate::fill;
use piql_core::plan::params::Params;
use piql_core::value::{Value, ValueRef};
use piql_engine::{Database, DbError, ExecStrategy, Prepared};
use piql_kv::{KvStore, Session};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SCADr sizing (defaults scaled down from the paper's 60k users/server so
/// laptop-size sweeps stay in memory; shapes are unaffected).
#[derive(Debug, Clone)]
pub struct ScadrConfig {
    pub users_per_node: usize,
    pub thoughts_per_user: usize,
    pub subscriptions_per_user: usize,
    /// The schema's CARDINALITY LIMIT on subscriptions per owner (§8.2 uses
    /// 10 for the scale experiment).
    pub max_subscriptions: u64,
    /// Thoughtstream page size (§8.2 uses 10).
    pub page_size: u64,
    pub seed: u64,
}

impl Default for ScadrConfig {
    fn default() -> Self {
        ScadrConfig {
            users_per_node: 500,
            thoughts_per_user: 20,
            subscriptions_per_user: 10,
            max_subscriptions: 10,
            page_size: 10,
            seed: 0x5CAD,
        }
    }
}

/// DDL for the §8.1.2 schema.
pub fn ddl(config: &ScadrConfig) -> Vec<String> {
    vec![
        "CREATE TABLE users ( \
           username VARCHAR(24) NOT NULL, \
           password VARCHAR(24), \
           home_town VARCHAR(32), \
           PRIMARY KEY (username) )"
            .to_string(),
        format!(
            "CREATE TABLE subscriptions ( \
               owner VARCHAR(24) NOT NULL, \
               target VARCHAR(24) NOT NULL, \
               approved BOOL, \
               PRIMARY KEY (owner, target), \
               FOREIGN KEY (owner) REFERENCES users, \
               FOREIGN KEY (target) REFERENCES users, \
               CARDINALITY LIMIT {} (owner) )",
            config.max_subscriptions
        ),
        "CREATE TABLE thoughts ( \
           owner VARCHAR(24) NOT NULL, \
           timestamp TIMESTAMP NOT NULL, \
           text VARCHAR(140), \
           PRIMARY KEY (owner, timestamp), \
           FOREIGN KEY (owner) REFERENCES users )"
            .to_string(),
    ]
}

/// The five SCADr queries (§8.1.2), with the thoughtstream page size baked
/// in at prepare time.
pub fn queries(config: &ScadrConfig) -> ScadrQueries {
    ScadrQueries {
        users_followed: "SELECT u.* FROM subscriptions s JOIN users u \
             WHERE u.username = s.target AND s.owner = <uname>"
            .to_string(),
        recent_thoughts: format!(
            "SELECT * FROM thoughts WHERE owner = <uname> \
             ORDER BY timestamp DESC LIMIT {}",
            config.page_size
        ),
        thoughtstream: format!(
            "SELECT thoughts.* FROM subscriptions s JOIN thoughts \
             WHERE thoughts.owner = s.target AND s.owner = <uname> AND s.approved = true \
             ORDER BY thoughts.timestamp DESC LIMIT {}",
            config.page_size
        ),
        find_user: "SELECT * FROM users WHERE username = <uname>".to_string(),
        post_thought: "INSERT INTO thoughts (owner, timestamp, text) \
             VALUES (<uname>, <ts>, <text>)"
            .to_string(),
    }
}

/// SCADr query texts.
#[derive(Debug, Clone)]
pub struct ScadrQueries {
    pub users_followed: String,
    pub recent_thoughts: String,
    pub thoughtstream: String,
    pub find_user: String,
    pub post_thought: String,
}

/// Canonical username.
pub fn username(i: usize) -> String {
    format!("u{i:07}")
}

/// Create schema and load data for an `n_nodes`-node cluster (data per
/// node constant, §8.4.2).
pub fn setup<S: KvStore>(
    db: &Database<S>,
    config: &ScadrConfig,
    n_nodes: usize,
) -> Result<usize, DbError> {
    for stmt in ddl(config) {
        db.execute_ddl(&stmt)?;
    }
    let n_users = config.users_per_node * n_nodes;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let names: Vec<String> = (0..n_users).map(username).collect();
    let (mut text, mut town) = (String::new(), String::new());
    db.bulk_load_with("users", |rows| {
        names.iter().enumerate().try_for_each(|(i, name)| {
            rows.push(&[
                ValueRef::Varchar(name),
                ValueRef::Varchar(fill(&mut text, format_args!("pw{i}"))),
                ValueRef::Varchar(fill(&mut town, format_args!("town{:03}", i % 500))),
            ])
        })
    })?;
    // random subscriptions: distinct targets per owner, each drawn until
    // it is new, then stored in target order
    let follows = config.subscriptions_per_user.min(n_users.saturating_sub(1));
    let mut targets = Vec::with_capacity(follows);
    db.bulk_load_with("subscriptions", |rows| {
        for (i, owner) in names.iter().enumerate() {
            targets.clear();
            while targets.len() < follows {
                let t = rng.gen_range(0..n_users);
                if t != i && !targets.contains(&t) {
                    targets.push(t);
                }
            }
            targets.sort_unstable();
            for &t in &targets {
                rows.push(&[
                    ValueRef::Varchar(owner),
                    ValueRef::Varchar(&names[t]),
                    ValueRef::Bool(rng.gen_bool(0.9)),
                ])?;
            }
        }
        Ok(())
    })?;
    db.bulk_load_with("thoughts", |rows| {
        for (i, owner) in names.iter().enumerate() {
            for p in 0..config.thoughts_per_user {
                rows.push(&[
                    ValueRef::Varchar(owner),
                    ValueRef::Timestamp(1_300_000_000_000_000 + (i * 613 + p * 10_007) as i64),
                    ValueRef::Varchar(fill(&mut text, format_args!("thought {p} from user {i}"))),
                ])?;
            }
        }
        Ok(())
    })?;
    db.cluster().rebalance();
    Ok(n_users)
}

/// The home-page interaction workload.
pub struct ScadrWorkload {
    pub n_users: usize,
    prepared: ScadrPrepared,
    post_sql: String,
    /// Probability of the "Post a new thought" update (§8.1.2: 1%).
    pub post_probability: f64,
}

#[derive(Debug, Clone)]
struct ScadrPrepared {
    users_followed: Prepared,
    recent_thoughts: Prepared,
    thoughtstream: Prepared,
    find_user: Prepared,
}

/// Interaction kind indexes (for metrics).
pub const KIND_HOME_PAGE: usize = 0;
pub const KIND_HOME_WITH_POST: usize = 1;

impl ScadrWorkload {
    pub fn new<S: KvStore>(
        db: &Database<S>,
        config: &ScadrConfig,
        n_users: usize,
    ) -> Result<Self, DbError> {
        let q = queries(config);
        Ok(ScadrWorkload {
            n_users,
            prepared: ScadrPrepared {
                users_followed: db.prepare(&q.users_followed)?,
                recent_thoughts: db.prepare(&q.recent_thoughts)?,
                thoughtstream: db.prepare(&q.thoughtstream)?,
                find_user: db.prepare(&q.find_user)?,
            },
            post_sql: q.post_thought,
            post_probability: 0.01,
        })
    }

    /// The prepared thoughtstream (used by Table 1 / prediction harnesses).
    pub fn thoughtstream(&self) -> &Prepared {
        &self.prepared.thoughtstream
    }

    pub fn all_prepared(&self) -> Vec<(&'static str, &Prepared)> {
        vec![
            ("Users Followed", &self.prepared.users_followed),
            ("Recent Thoughts", &self.prepared.recent_thoughts),
            ("Thoughtstream", &self.prepared.thoughtstream),
            ("Find User", &self.prepared.find_user),
        ]
    }
}

impl Workload for ScadrWorkload {
    fn kinds(&self) -> Vec<&'static str> {
        vec!["home page", "home page + post"]
    }

    fn interaction(
        &self,
        db: &Database,
        session: &mut Session,
        rng: &mut StdRng,
        strategy: ExecStrategy,
    ) -> Result<usize, DbError> {
        let me = username(rng.gen_range(0..self.n_users));
        let other = username(rng.gen_range(0..self.n_users));
        let mut p_me = Params::new();
        p_me.set(0, Value::Varchar(me.clone()));
        let mut p_other = Params::new();
        p_other.set(0, Value::Varchar(other));

        db.execute_with(
            session,
            &self.prepared.users_followed,
            &p_me,
            strategy,
            None,
        )?;
        db.execute_with(
            session,
            &self.prepared.recent_thoughts,
            &p_me,
            strategy,
            None,
        )?;
        db.execute_with(session, &self.prepared.thoughtstream, &p_me, strategy, None)?;
        db.execute_with(session, &self.prepared.find_user, &p_other, strategy, None)?;

        if rng.gen_bool(self.post_probability) {
            let mut p = Params::new();
            p.set(0, Value::Varchar(me));
            p.set(
                1,
                Value::Timestamp(session.now as i64 + rng.gen_range(0..1000i64)),
            );
            p.set(2, Value::Varchar("a fresh thought".into()));
            // ignore pk collisions from the synthetic timestamp
            let _ = db.execute_dml(session, &self.post_sql, &p);
            return Ok(KIND_HOME_WITH_POST);
        }
        Ok(KIND_HOME_PAGE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_closed_loop, DriverConfig};
    use piql_kv::{ClusterConfig, SimCluster};
    use std::sync::Arc;

    #[test]
    fn scadr_sets_up_and_runs() {
        let cluster = Arc::new(SimCluster::new(
            ClusterConfig::default().with_nodes(4).with_seed(9),
        ));
        let db = Database::new(cluster);
        let config = ScadrConfig {
            users_per_node: 50,
            thoughts_per_user: 5,
            subscriptions_per_user: 4,
            ..Default::default()
        };
        let n_users = setup(&db, &config, 4).unwrap();
        assert_eq!(n_users, 200);
        let workload = ScadrWorkload::new(&db, &config, n_users).unwrap();
        let cfg = DriverConfig {
            sessions: 4,
            duration_us: 5 * piql_kv::SECONDS,
            warmup_us: piql_kv::SECONDS,
            ..Default::default()
        };
        let m = run_closed_loop(&db, &workload, &cfg).unwrap();
        assert!(m.count() > 20, "completed {}", m.count());
        assert!(m.quantile_ms(0.99) > 0.0);
        // every query stayed within its compiled bound is enforced by the
        // engine tests; here we sanity-check the workload's own shape
        assert!(m.throughput_per_sec() > 1.0);
    }

    #[test]
    fn scadr_queries_all_compile_scale_independent() {
        let cluster = Arc::new(SimCluster::new(ClusterConfig::instant(2)));
        let db = Database::new(cluster);
        let config = ScadrConfig::default();
        for stmt in ddl(&config) {
            db.execute_ddl(&stmt).unwrap();
        }
        let q = queries(&config);
        for sql in [
            &q.users_followed,
            &q.recent_thoughts,
            &q.thoughtstream,
            &q.find_user,
        ] {
            let prepared = db.prepare(sql).unwrap();
            assert!(
                prepared.compiled.bounds.guaranteed,
                "{sql} must be scale-independent"
            );
            assert!(prepared.compiled.class.is_scale_independent());
        }
    }
}
