//! The `Database` facade: PIQL's library-centric database engine (§3).
//!
//! One `Database` instance corresponds to one application-server library:
//! it owns a catalog, compiles PIQL text with the scale-independent
//! optimizer, auto-creates (and backfills) compiler-derived indexes, and
//! executes plans against the shared key/value store. It keeps no
//! per-request state — sessions are externally owned, so many simulated
//! application servers can share one `Database` handle.
//!
//! Writes are compiled too: `execute_dml` looks the statement text up in a
//! cache of [`WritePlan`]s and runs the plan. The catalog's lock is the
//! write epoch: a write holds it for read from that lookup to its last
//! round, and so do bulk loads and the sweep, while a catalog mutation —
//! `CREATE INDEX` declared, or derived by a SELECT `prepare` — takes it
//! for write and empties the cache. So the mutation waits for every write
//! in flight, and every write after it compiles against the new catalog
//! and maintains the new index: an index built online finds every row.

use crate::cursor::Cursor;
use crate::exec::{ExecCtx, ExecError, ExecStrategy, QueryResult, RemoteOp};
use crate::plan::{table_write, WritePlan};
use crate::reference::ReferenceExecutor;
use crate::write::{IndexWrite, Loader, WriteError, Writer};
use piql_analysis::ordered::{Mutex, RwLock};
use piql_analysis::rank;
use piql_core::ast::Statement;
use piql_core::catalog::{Catalog, CatalogError, IndexDef, IndexId, TableDef};
use piql_core::opt::{Compiled, OptError, Optimizer};
use piql_core::parser::{parse, ParseError};
use piql_core::plan::params::ParamsRef;
use piql_core::tuple::Tuple;
use piql_core::value::ValueRef;
use piql_kv::{KvStore, Session, SimCluster};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Top-level database errors.
#[derive(Debug)]
pub enum DbError {
    Parse(ParseError),
    Catalog(CatalogError),
    Compile(OptError),
    Exec(ExecError),
    Write(WriteError),
    Unsupported(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(e) => write!(f, "{e}"),
            DbError::Catalog(e) => write!(f, "{e}"),
            DbError::Compile(e) => write!(f, "{e}"),
            DbError::Exec(e) => write!(f, "{e}"),
            DbError::Write(e) => write!(f, "{e}"),
            DbError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<ParseError> for DbError {
    fn from(e: ParseError) -> Self {
        DbError::Parse(e)
    }
}
impl From<CatalogError> for DbError {
    fn from(e: CatalogError) -> Self {
        DbError::Catalog(e)
    }
}
impl From<OptError> for DbError {
    fn from(e: OptError) -> Self {
        DbError::Compile(e)
    }
}
impl From<ExecError> for DbError {
    fn from(e: ExecError) -> Self {
        DbError::Exec(e)
    }
}
impl From<WriteError> for DbError {
    fn from(e: WriteError) -> Self {
        DbError::Write(e)
    }
}

/// A compiled, index-provisioned, executable query — the read-side twin of
/// a [`WritePlan`]: besides the plan, what each of its remote operators
/// reads, resolved once against the catalog and the store, so an execution
/// consults neither. Definitions are append-only and namespaces keep their
/// ids, so a `Prepared` stays valid for the life of its database.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub compiled: Compiled,
    /// Output column names.
    pub columns: Vec<String>,
    remote: Vec<RemoteOp>,
}

impl Prepared {
    fn resolve(
        store: &dyn KvStore,
        catalog: &Catalog,
        compiled: Compiled,
    ) -> Result<Self, DbError> {
        let remote =
            RemoteOp::resolve_all(store, catalog, &compiled.physical).map_err(ExecError::Key)?;
        Ok(Prepared {
            columns: compiled.output.iter().map(|o| o.name.clone()).collect(),
            compiled,
            remote,
        })
    }

    /// The plan's remote operators as resolved, in execution order.
    pub fn remote_ops(&self) -> &[RemoteOp] {
        &self.remote
    }
}

/// Most write plans kept at once. Parameterised statements are a handful
/// of texts; a client that inlines literals makes every text new, and past
/// this many the cache starts over rather than grow with the data.
pub const WRITE_PLAN_CACHE_CAP: usize = 256;

/// Counters of the write-plan cache (see [`Database::write_plan_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WritePlanStats {
    /// Plans cached right now.
    pub cached: u64,
    /// Plans compiled: first sight of a text, plus rebuilds after a
    /// catalog mutation emptied the cache.
    pub compiles: u64,
    /// Plans dropped to keep the cache within [`WRITE_PLAN_CACHE_CAP`].
    pub evictions: u64,
}

/// The PIQL database engine, generic over its key/value backend: the
/// deterministic [`SimCluster`] for experiments (the default) or any other
/// [`KvStore`] — e.g. `piql_kv::LiveCluster` for wall-clock serving.
pub struct Database<S: KvStore = SimCluster> {
    cluster: Arc<S>,
    /// Table and index definitions, and the write epoch: held for read by
    /// every write from its plan lookup to its last round, for write only
    /// by a catalog mutation.
    catalog: RwLock<Catalog>,
    optimizer: Optimizer,
    /// Compiled writes by statement text, compiled against the catalog as
    /// it stands: a catalog mutation empties it. Taken under the catalog's
    /// read guard for one lookup or insert, never across a kv round.
    write_plans: RwLock<HashMap<Box<str>, Arc<WritePlan>>>,
    /// By index id: whether the index's first backfill has finished. A
    /// shape declared again after that is complete and maintained by every
    /// write plan already, so declaring it costs nothing.
    filled: Mutex<Vec<bool>>,
    plan_compiles: AtomicU64,
    plan_evictions: AtomicU64,
}

impl<S: KvStore> Database<S> {
    pub fn new(cluster: Arc<S>) -> Self {
        Database {
            cluster,
            catalog: RwLock::new(rank::ENGINE_CATALOG, "engine.catalog", Catalog::new()),
            optimizer: Optimizer::scale_independent(),
            write_plans: RwLock::new(
                rank::ENGINE_WRITE_PLANS,
                "engine.write_plans",
                HashMap::new(),
            ),
            filled: Mutex::new(rank::ENGINE_FILLED, "engine.filled", Vec::new()),
            plan_compiles: AtomicU64::new(0),
            plan_evictions: AtomicU64::new(0),
        }
    }

    pub fn cluster(&self) -> &Arc<S> {
        &self.cluster
    }

    /// The backend as a trait object (what the executor and writer take).
    pub fn store(&self) -> &dyn KvStore {
        self.cluster.as_ref()
    }

    /// A point-in-time copy of the catalog (definitions are `Arc`-shared).
    pub fn catalog(&self) -> Catalog {
        self.catalog.read().clone()
    }

    // ---------------------------------------------------------------- DDL

    /// Execute a DDL statement (`CREATE TABLE` / `CREATE INDEX`).
    pub fn execute_ddl(&self, sql: &str) -> Result<(), DbError> {
        match parse(sql)? {
            Statement::CreateTable(stmt) => self.create_table(stmt.into()),
            Statement::CreateIndex(stmt) => {
                let table = self.catalog.read().table(&stmt.table).cloned();
                let table = table.ok_or(CatalogError::UnknownTable(stmt.table))?;
                let index = IndexDef::new(stmt.name, table.id, stmt.parts);
                self.create_index_and_backfill(&table, index)
            }
            _ => Err(DbError::Unsupported(
                "execute_ddl expects CREATE TABLE or CREATE INDEX".into(),
            )),
        }
    }

    /// Register a table with the *enforcement index* of each of its
    /// cardinality constraints, all or nothing ([`Catalog::create_table`]),
    /// then create those indexes' namespaces and backfill them.
    pub fn create_table(&self, def: TableDef) -> Result<(), DbError> {
        let id = self.mutate_catalog(|catalog| catalog.create_table(def))?;
        let catalog = self.catalog();
        for idx in catalog.indexes_for_table(id) {
            self.backfill(catalog.table_by_id(id), &idx)?;
        }
        Ok(())
    }

    /// Declare an index and backfill it. A shape already declared changes
    /// nothing in the catalog (its id is returned), so the write-plan cache
    /// is kept; its backfill is skipped once the first one has finished,
    /// and run again while that one may still be going — so this never
    /// returns before the index holds every row.
    fn create_index_and_backfill(&self, table: &TableDef, def: IndexDef) -> Result<(), DbError> {
        let declared = self.catalog.read().index_of_shape(&def);
        let id = match declared {
            Some(id) if self.is_filled(id) => return Ok(()),
            Some(id) => id,
            None => self.mutate_catalog(|catalog| catalog.create_index(def))?,
        };
        let idx = self.catalog.read().index_by_id(id).clone();
        self.backfill(table, &idx)
    }

    fn is_filled(&self, id: IndexId) -> bool {
        self.filled.lock().get(id.0 as usize) == Some(&true)
    }

    /// Apply `mutate` to the catalog under its write guard, which waits for
    /// every write in flight: a backfill's scan after it finds every record
    /// they store. Emptying the write-plan cache makes every write after it
    /// compile against the new catalog and maintain what `mutate` added.
    fn mutate_catalog<T>(
        &self,
        mutate: impl FnOnce(&mut Catalog) -> Result<T, CatalogError>,
    ) -> Result<T, DbError> {
        let mut catalog = self.catalog.write();
        let value = mutate(&mut catalog)?;
        self.write_plans.write().clear();
        Ok(value)
    }

    /// Make a registered index's namespace exist, then backfill it from the
    /// table's records.
    fn backfill(&self, table: &TableDef, idx: &Arc<IndexDef>) -> Result<(), DbError> {
        let index = IndexWrite::resolve(self.store(), table, idx)?;
        let primary = self.store().namespace(&Catalog::table_namespace(table));
        Writer::new(self.store()).backfill_index(table, primary, &index)?;
        let at = idx.id.0 as usize;
        let mut filled = self.filled.lock();
        if filled.len() <= at {
            filled.resize(at + 1, false);
        }
        filled[at] = true;
        Ok(())
    }

    // -------------------------------------------------------------- query

    /// Compile a SELECT, creating and backfilling any indexes the plan
    /// requires (§5.3).
    pub fn prepare(&self, sql: &str) -> Result<Prepared, DbError> {
        self.prepare_with(sql, &self.optimizer)
    }

    /// Compile with a caller-supplied optimizer (e.g. the cost-based
    /// baseline).
    pub fn prepare_with(&self, sql: &str, optimizer: &Optimizer) -> Result<Prepared, DbError> {
        let stmt = piql_core::parser::parse_select(sql)?;
        self.prepare_stmt_with(&stmt, optimizer)
    }

    /// Compile an already-parsed SELECT (callers that rewrite the AST —
    /// e.g. the admission controller degrading a LIMIT — skip re-parsing).
    pub fn prepare_stmt(&self, stmt: &piql_core::ast::SelectStmt) -> Result<Prepared, DbError> {
        self.prepare_stmt_with(stmt, &self.optimizer)
    }

    /// [`Database::prepare_stmt`] with a caller-supplied optimizer.
    pub fn prepare_stmt_with(
        &self,
        stmt: &piql_core::ast::SelectStmt,
        optimizer: &Optimizer,
    ) -> Result<Prepared, DbError> {
        let catalog = self.catalog.read().clone();
        let compiled = optimizer.compile(&catalog, stmt)?;
        if compiled.required_indexes.is_empty() {
            return Prepared::resolve(self.store(), &catalog, compiled);
        }
        // provision derived indexes, then recompile against the updated
        // catalog so the plan references the registered definitions
        for idx in &compiled.required_indexes {
            let table = catalog.table_by_id(idx.table).clone();
            self.create_index_and_backfill(&table, idx.clone())?;
        }
        let catalog = self.catalog.read().clone();
        let compiled = optimizer.compile(&catalog, stmt)?;
        Prepared::resolve(self.store(), &catalog, compiled)
    }

    /// Execute a prepared query. Parameters are anything that lends a
    /// [`ParamsRef`]: a `&Params`, or a request's parameter list as decoded.
    pub fn execute<'p>(
        &self,
        session: &mut Session,
        prepared: &Prepared,
        params: impl Into<ParamsRef<'p>>,
    ) -> Result<QueryResult, DbError> {
        self.execute_with(session, prepared, params, ExecStrategy::Parallel, None)
    }

    /// Execute with an explicit strategy and optional pagination cursor.
    pub fn execute_with<'p>(
        &self,
        session: &mut Session,
        prepared: &Prepared,
        params: impl Into<ParamsRef<'p>>,
        strategy: ExecStrategy,
        cursor: Option<&Cursor>,
    ) -> Result<QueryResult, DbError> {
        let mut ctx = ExecCtx::new(
            self.store(),
            session,
            &prepared.remote,
            params.into(),
            strategy,
        );
        ctx.produce_cursor = prepared.compiled.page_size.is_some();
        ctx.resume = cursor.map(|c| &c.state);
        let rows = ctx.eval(&prepared.compiled.physical);
        // never leak an operator tag past this query (an error return mid-
        // operator would otherwise mis-attribute the session's next rounds)
        ctx.session.op_tag = None;
        let rows = rows?;
        let next = ctx.next_cursor.take();
        Ok(QueryResult {
            rows,
            cursor: if prepared.compiled.page_size.is_some() {
                next.map(|state| Cursor { state })
            } else {
                None
            },
        })
    }

    /// One-shot: prepare + execute.
    pub fn query<'p>(
        &self,
        session: &mut Session,
        sql: &str,
        params: impl Into<ParamsRef<'p>>,
    ) -> Result<QueryResult, DbError> {
        let prepared = self.prepare(sql)?;
        self.execute(session, &prepared, params)
    }

    // ---------------------------------------------------------------- DML

    /// Execute an INSERT/UPDATE/DELETE statement: look its compiled plan up
    /// by text (compiling on first sight) and run it, holding the catalog
    /// for read throughout, so no catalog mutation lands in between.
    pub fn execute_dml<'p>(
        &self,
        session: &mut Session,
        sql: &str,
        params: impl Into<ParamsRef<'p>>,
    ) -> Result<(), DbError> {
        let catalog = self.catalog.read();
        let plan = self.plan_against(&catalog, sql)?;
        Ok(plan.execute(self.store(), session, params.into())?)
    }

    /// The compiled plan of a DML text, current with the catalog: from the
    /// cache when the text has been seen since the last catalog mutation,
    /// compiled (and cached) otherwise. A text that does not compile is an
    /// error every time and is never cached.
    pub fn write_plan(&self, sql: &str) -> Result<Arc<WritePlan>, DbError> {
        self.plan_against(&self.catalog.read(), sql)
    }

    /// [`Database::write_plan`] under the catalog read guard its caller
    /// holds.
    fn plan_against(&self, catalog: &Catalog, sql: &str) -> Result<Arc<WritePlan>, DbError> {
        if let Some(plan) = self.write_plans.read().get(sql) {
            return Ok(plan.clone());
        }
        let plan = Arc::new(WritePlan::build(self.store(), catalog, &parse(sql)?)?);
        self.plan_compiles.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.write_plans.write();
        if cache.len() >= WRITE_PLAN_CACHE_CAP && !cache.contains_key(sql) {
            self.plan_evictions
                .fetch_add(cache.len() as u64, Ordering::Relaxed);
            cache.clear();
        }
        cache.insert(sql.into(), plan.clone());
        Ok(plan)
    }

    /// Occupancy and traffic of the write-plan cache.
    pub fn write_plan_stats(&self) -> WritePlanStats {
        WritePlanStats {
            cached: self.write_plans.read().len() as u64,
            compiles: self.plan_compiles.load(Ordering::Relaxed),
            evictions: self.plan_evictions.load(Ordering::Relaxed),
        }
    }

    /// Garbage-collect dangling secondary-index entries of a table (§7.2).
    /// Returns the number of entries collected. Holds the catalog for read
    /// throughout, as a write does.
    pub fn gc_indexes(&self, session: &mut Session, table: &str) -> Result<u64, DbError> {
        let catalog = self.catalog.read();
        let target = table_write(self.store(), &catalog, table)?;
        Ok(Writer::new(self.store()).gc_indexes(session, &target)?)
    }

    /// Untimed bulk load (experiment setup); maintains index entries.
    pub fn bulk_load(
        &self,
        table: &str,
        rows: impl IntoIterator<Item = Tuple>,
    ) -> Result<u64, DbError> {
        self.bulk_load_with(table, |loader| {
            rows.into_iter().try_for_each(|row| {
                loader.push(&row.values().iter().map(ValueRef::of).collect::<Vec<_>>())
            })
        })
    }

    /// [`Database::bulk_load`] of the borrowed rows `feed` pushes
    /// ([`Writer::bulk_load`]). Holds the catalog for read throughout, as a
    /// write does, so `feed` must not call back into this database.
    pub fn bulk_load_with(
        &self,
        table: &str,
        feed: impl FnOnce(&mut Loader<'_>) -> Result<(), WriteError>,
    ) -> Result<u64, DbError> {
        let catalog = self.catalog.read();
        let target = table_write(self.store(), &catalog, table)?;
        Ok(Writer::new(self.store()).bulk_load(&target, feed)?)
    }

    /// Run a SELECT through the naive reference executor (testing oracle).
    pub fn reference_query<'p>(
        &self,
        sql: &str,
        params: impl Into<ParamsRef<'p>>,
    ) -> Result<Vec<Tuple>, DbError> {
        let stmt = piql_core::parser::parse_select(sql)?;
        let catalog = self.catalog.read().clone();
        let r = ReferenceExecutor::new(self.store(), &catalog);
        r.run(&stmt, params.into()).map_err(DbError::Exec)
    }
}
