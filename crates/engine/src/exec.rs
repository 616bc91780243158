//! The PIQL execution engine (§7).
//!
//! Operators are evaluated bottom-up over materialized (bounded!) batches,
//! each one packed [`Rows`] block — stored rows are decoded straight into
//! it, joins widen it, local operators move its cells; what varies is how
//! remote operators turn their work into key/value-store rounds. The three
//! strategies of §8.5:
//!
//! * **Lazy** — one entry per request, one request per round (a traditional
//!   iterator pulling tuple-at-a-time through a high-latency store);
//! * **Simple** — batch requests using the compiler's limit hints, but one
//!   request per round (no intra-operator parallelism);
//! * **Parallel** — batched requests, and every request of an operator
//!   issued in the same parallel round.
//!
//! A round is executed by the backend at the *slowest* request, not the
//! sum (see the [`KvStore::execute_round`] contract): `SimCluster` models
//! that in virtual time, and `LiveCluster` fans a round with service time
//! out over its shared worker pool — so `Parallel`'s speedup is real
//! wall-clock overlap on the live path, not just round batching. An
//! operator's fanned round — the FK join's gets, the sorted join's ranges,
//! a non-covering scan's dereference — is built as one packed
//! [`ReadRound`] and read back as one [`ReadAnswer`] block, whatever the
//! strategy issues it as; so is a bounded scan's one range.
//!
//! Everything an execution builds only to read with — probe and bound
//! keys, rounds, the store's answers, the sorted join's merge order — lives
//! in the executing thread's scratch and is reused by its next execution,
//! and so do the [`Rows`] blocks it builds: a join's input goes back when
//! the join is done, and the answer once it has been printed
//! ([`give_back`]), as do the keys of a printed cursor
//! ([`give_back_cursor`]). A warm read whose answers are handed back
//! allocates nothing.

use crate::cursor::{Cursor, CursorState};
use crate::keys::{self, KeyPart};
use piql_core::ast::AggFunc;
use piql_core::catalog::{Catalog, ColumnId, IndexDef, TableDef, TableId};
use piql_core::codec::key::{self, prefix_upper_bound_in_place, Dir};
use piql_core::codec::row as row_codec;
use piql_core::opt::UNBOUNDED_SCAN_BATCH;
use piql_core::plan::params::{ParamError, ParamsRef};
use piql_core::plan::physical::{
    KeySource, PhysAggregate, PhysicalPlan, RangeBound, RangeSpec, ScanSpec, SortedJoinSpec,
};
use piql_core::plan::BoundPredicate;
use piql_core::rows::{Row, Rows, RowsBuilder, RowsError};
use piql_core::text;
use piql_core::value::{DataType, Value, ValueRef};
use piql_kv::{
    Entries, KvRequest, KvResponse, KvStore, MalformedRound, ModelKey, NsId, OpKind, Probe,
    ReadAnswer, ReadRound, Session,
};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Remote-operator execution strategy (§8.5, Figure 12).
///
/// The compiler's request bounds ([`piql_core::plan::physical::QueryBounds`])
/// describe executors that respect limit hints — `Simple` and `Parallel`.
/// `Lazy` deliberately ignores hints (one entry per request) and may issue
/// up to `tuples` extra requests; it exists as the paper's baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecStrategy {
    Lazy,
    Simple,
    #[default]
    Parallel,
}

impl ExecStrategy {
    pub fn name(self) -> &'static str {
        match self {
            ExecStrategy::Lazy => "LazyExecutor",
            ExecStrategy::Simple => "SimpleExecutor",
            ExecStrategy::Parallel => "ParallelExecutor",
        }
    }
}

/// Execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    Param(ParamError),
    Key(keys::KeyError),
    Cursor(String),
    Internal(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Param(e) => write!(f, "{e}"),
            ExecError::Key(e) => write!(f, "{e}"),
            ExecError::Cursor(e) => write!(f, "cursor: {e}"),
            ExecError::Internal(e) => write!(f, "internal: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ParamError> for ExecError {
    fn from(e: ParamError) -> Self {
        ExecError::Param(e)
    }
}

impl From<keys::KeyError> for ExecError {
    fn from(e: keys::KeyError) -> Self {
        ExecError::Key(e)
    }
}

impl From<MalformedRound> for ExecError {
    fn from(e: MalformedRound) -> Self {
        ExecError::Internal(e.to_string())
    }
}

impl From<RowsError> for ExecError {
    fn from(e: RowsError) -> Self {
        ExecError::Internal(e.to_string())
    }
}

/// Result of one query (or one page of a paginated query).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The rows as the executor's root operator left them: one packed
    /// block, which the wire codecs print from in place. `rows.len()`,
    /// `rows.iter()` and `rows.first()` read it; `rows.to_tuples()` gives
    /// owned [`Tuple`](piql_core::tuple::Tuple)s.
    pub rows: Rows,
    /// Cursor to fetch the next page (paginated queries only; `None` when
    /// exhausted).
    pub cursor: Option<Cursor>,
}

/// What one remote operator reads, resolved once when its plan is prepared
/// — the read-side twin of [`TableWrite`](crate::write::TableWrite): the
/// table, its namespaces, and the layout of the stored key the operator
/// probes. Definitions are append-only and a namespace keeps its id for
/// the life of its store, so nothing here goes stale and every execution
/// of the plan shares it: no catalog, no namespace name, no per-operator
/// layout derivation on the request path.
#[derive(Debug, Clone)]
pub struct RemoteOp {
    pub table: Arc<TableDef>,
    /// Namespace the operator's requests address: the index's, or the
    /// table's primary namespace for a primary-index read.
    pub ns: NsId,
    /// The table's primary namespace, which a non-covering read
    /// dereferences into.
    pub primary: NsId,
    /// Primary-key column positions, in key order.
    pub pk: Vec<ColumnId>,
    /// Whether `ns` holds a secondary index (entries carry only the key).
    pub secondary: bool,
    /// Layout of the full stored key the operator reads.
    pub parts: Vec<KeyPart>,
    /// `parts`' directions and value types, as the key codec takes them.
    pub dirs: Vec<Dir>,
    pub types: Vec<DataType>,
    /// The first probe component is matched as a search token (§7.3).
    pub token: bool,
    /// The §6.1 key the plan bounds the operator at
    /// ([`PhysicalPlan::theta`]) — the one `piql_predict::plan_thetas`
    /// predicts it at. A scan's rounds are sampled under it as is; a join
    /// tags the child cardinality it observed instead of the bound.
    pub key: ModelKey,
}

impl RemoteOp {
    fn resolve(
        store: &dyn KvStore,
        catalog: &Catalog,
        table: TableId,
        index: Option<&IndexDef>,
        key: ModelKey,
    ) -> Result<RemoteOp, keys::KeyError> {
        let table = catalog.table_by_id(table).clone();
        let primary = store.namespace(&Catalog::table_namespace(&table));
        let pk = table.primary_key_ids();
        let (ns, parts) = match index {
            None => {
                let parts = pk.iter().map(|&col| KeyPart {
                    col,
                    dir: Dir::Asc,
                    token: false,
                });
                (primary, parts.collect())
            }
            Some(idx) => (
                store.namespace(&Catalog::index_namespace(idx)),
                keys::index_key_parts(&table, idx)?,
            ),
        };
        Ok(RemoteOp {
            ns,
            primary,
            pk,
            secondary: index.is_some(),
            dirs: parts.iter().map(|p| p.dir).collect(),
            types: keys::key_types(&table, &parts),
            token: index.is_some_and(IndexDef::has_token_part),
            parts,
            table,
            key,
        })
    }

    /// Resolve every remote operator of `plan`, in execution order
    /// ([`PhysicalPlan::remote_ops`]) — the order [`ExecCtx::eval`] reaches
    /// them in.
    pub fn resolve_all(
        store: &dyn KvStore,
        catalog: &Catalog,
        plan: &PhysicalPlan,
    ) -> Result<Vec<RemoteOp>, keys::KeyError> {
        plan.remote_ops()
            .into_iter()
            .map(|op| {
                let (kind, table, index, (alpha_c, alpha_j, beta)) = match (op, op.theta()) {
                    (PhysicalPlan::IndexScan { spec, .. }, Some(theta)) => {
                        let at = &spec.index;
                        (OpKind::IndexScan, at.table, at.secondary.as_ref(), theta)
                    }
                    (PhysicalPlan::SortedIndexJoin { spec, .. }, Some(theta)) => {
                        let at = &spec.index;
                        (
                            OpKind::SortedIndexJoin,
                            at.table,
                            at.secondary.as_ref(),
                            theta,
                        )
                    }
                    (PhysicalPlan::IndexFKJoin { table, .. }, Some(theta)) => {
                        (OpKind::IndexFKJoin, *table, None, theta)
                    }
                    _ => {
                        return Err(keys::KeyError::RowShape(
                            "a local operator among the remote ones".into(),
                        ))
                    }
                };
                let key = ModelKey::new(kind, alpha_c, alpha_j, beta);
                Self::resolve(store, catalog, table, index, key)
            })
            .collect()
    }
}

/// The most bytes the execution scratch keeps from one execution to the
/// next, its buffers and its spare blocks together: a scratch that grew
/// past it is let go when the execution ends, and a block handed back past
/// it is dropped. About twice what a thread serving the TPC-W ordering mix
/// keeps once warm (65–69 KB: three spare blocks of 8–18 KB and the rest in
/// its buffers), so those reads never regrow, while one outsized read does
/// not stay resident on its thread.
pub const SCRATCH_CEILING_BYTES: usize = 128 * 1024;

/// The spare blocks' own part of [`SCRATCH_CEILING_BYTES`]: a block handed
/// back is kept while the spares, it included, fit in it. Blocks move
/// between read shapes and grow to the largest they serve; a budget apart
/// from the buffers keeps that growth from crowding out the buffers and
/// the buffers' from refusing blocks, so a warm thread keeps every block
/// it is handed, whichever shapes it served in whichever order.
const SPARE_BLOCK_BYTES: usize = SCRATCH_CEILING_BYTES / 2;

thread_local! {
    /// The executing thread's scratch between executions.
    static SCRATCH: Cell<Option<ExecScratch>> = const { Cell::new(None) };
}

/// What one execution builds only to read with, kept for the next on the
/// same thread: an operator issues a bounded number of requests for a
/// bounded number of entries (§5, §7.1), so these stop growing once warm.
#[derive(Default)]
struct ExecScratch {
    /// The key being built: a scan's start, a join's probe (and the
    /// sorted join's bound behind it).
    key: Vec<u8>,
    /// A scan's end.
    end: Vec<u8>,
    /// A TOKEN-index probe's search token.
    token: String,
    /// The operator's round and the store's answer to it.
    round: ReadRound,
    answer: ReadAnswer,
    /// The sorted join's merge order, as (child, entry) pairs, and each
    /// child's probe-prefix length.
    items: Vec<(usize, usize)>,
    prefix_lens: Vec<usize>,
    /// A local sort's order.
    order: Vec<usize>,
    /// What turning the answer's entries into rows uses.
    rows: RowScratch,
    /// Blocks to build the next ones in: a join's input once it is
    /// widened, and an answer once printed.
    spares: Vec<Rows>,
    /// Buffers to copy the next cursor's keys into: a cursor's, once
    /// printed.
    cursor_keys: Vec<Vec<u8>>,
}

/// [`ExecCtx::materialize`]'s part of the scratch, apart from the answer
/// whose entries it reads.
#[derive(Default)]
struct RowScratch {
    /// The strings an index key decodes through.
    key_text: Vec<u8>,
    /// A dereference's index entries as rows, its primary key, its round
    /// and the store's answer.
    key_rows: Rows,
    pk: Vec<u8>,
    round: ReadRound,
    answer: ReadAnswer,
    /// A TOKEN entry's re-check against its record.
    derive: keys::DeriveScratch,
}

impl ExecScratch {
    /// The bytes its buffers and spare blocks have room for.
    fn bytes(&self) -> usize {
        fn bytes<T>(buffer: &Vec<T>) -> usize {
            buffer.capacity() * std::mem::size_of::<T>()
        }
        let (s, r) = (self, &self.rows);
        [
            s.spare_bytes(),
            bytes(&s.key),
            bytes(&s.end),
            s.token.capacity(),
            s.round.capacity_bytes(),
            s.answer.capacity_bytes(),
            bytes(&s.items),
            bytes(&s.prefix_lens),
            bytes(&s.order),
            bytes(&s.cursor_keys) + s.cursor_keys.iter().map(bytes).sum::<usize>(),
            bytes(&r.key_text),
            r.key_rows.capacity_bytes(),
            bytes(&r.pk),
            r.round.capacity_bytes(),
            r.answer.capacity_bytes(),
            r.derive.capacity_bytes(),
        ]
        .into_iter()
        .sum()
    }

    /// The bytes its spare blocks have room for, their slots included.
    fn spare_bytes(&self) -> usize {
        let blocks = self.spares.iter().map(Rows::capacity_bytes);
        blocks.sum::<usize>() + self.spares.capacity() * std::mem::size_of::<Rows>()
    }

    /// Keep `rows` as a spare block, unless it has no room to reuse or
    /// would take the spares past [`SPARE_BLOCK_BYTES`] or the scratch
    /// past [`SCRATCH_CEILING_BYTES`].
    fn keep(&mut self, rows: Rows) {
        let room = rows.capacity_bytes() + std::mem::size_of::<Rows>();
        if rows.capacity_bytes() > 0
            && self.spare_bytes() + room <= SPARE_BLOCK_BYTES
            && self.bytes() + room <= SCRATCH_CEILING_BYTES
        {
            self.spares.push(rows);
        }
    }
}

/// A block to build in: a spare one, when the thread has one.
fn spare(spares: &mut Vec<Rows>) -> Rows {
    spares.pop().unwrap_or_default()
}

/// The most key buffers one cursor holds, and so the most the scratch
/// keeps for the next.
const CURSOR_KEYS: usize = 2;

/// A cursor's own copy of `key`, made in a buffer a printed cursor handed
/// back when the thread has one.
fn cursor_key(buffers: &mut Vec<Vec<u8>>, key: &[u8]) -> Vec<u8> {
    let mut buffer = buffers.pop().unwrap_or_default();
    buffer.clear();
    buffer.extend_from_slice(key);
    buffer
}

/// The bytes the calling thread's execution scratch keeps between
/// executions, its spare blocks included — at most
/// [`SCRATCH_CEILING_BYTES`] — or 0 when it keeps none.
pub fn scratch_bytes() -> usize {
    let scratch = SCRATCH.take();
    let bytes = scratch.as_ref().map_or(0, ExecScratch::bytes);
    SCRATCH.set(scratch);
    bytes
}

/// Hand a result block back to the calling thread's execution scratch once
/// its rows have been printed: the thread's next execution builds a block
/// in its buffers. A read's answer is bounded (§5, §7), so a thread that
/// hands its answers back stops allocating blocks once warm.
pub fn give_back(rows: Rows) {
    let mut scratch = SCRATCH.take().unwrap_or_default();
    scratch.keep(rows);
    SCRATCH.set(Some(scratch));
}

/// Hand a cursor's key buffers back to the calling thread's execution
/// scratch once it has been printed: the thread's next page copies its
/// cursor's keys into them. Kept like a block: not past
/// [`SCRATCH_CEILING_BYTES`], and no more than one cursor's worth.
pub fn give_back_cursor(cursor: Cursor) {
    let mut scratch = SCRATCH.take().unwrap_or_default();
    let keys: [Option<Vec<u8>>; CURSOR_KEYS] = match cursor.state {
        CursorState::ScanAfter { last_key } => [Some(last_key), None],
        CursorState::SortedJoinAfter { suffix, full_key } => [Some(suffix), Some(full_key)],
    };
    for key in keys.into_iter().flatten() {
        let room = key.capacity() + std::mem::size_of::<Vec<u8>>();
        let kept = scratch.cursor_keys.len() < CURSOR_KEYS;
        if kept && key.capacity() > 0 && scratch.bytes() + room <= SCRATCH_CEILING_BYTES {
            scratch.cursor_keys.push(key);
        }
    }
    SCRATCH.set(Some(scratch));
}

/// The execution context threaded through operator evaluation.
pub struct ExecCtx<'a> {
    pub store: &'a dyn KvStore,
    pub session: &'a mut Session,
    /// The plan's remote operators still to run, in execution order.
    ops: std::slice::Iter<'a, RemoteOp>,
    pub params: ParamsRef<'a>,
    pub strategy: ExecStrategy,
    /// Resume point (pagination).
    pub resume: Option<&'a CursorState>,
    /// New resume point produced by the root remote operator.
    pub next_cursor: Option<CursorState>,
    /// Ask the root remote operator to record a resume point even on the
    /// first page (set for paginated queries).
    pub produce_cursor: bool,
}

impl<'a> ExecCtx<'a> {
    /// A context for one evaluation of the plan `ops` was resolved from
    /// ([`RemoteOp::resolve_all`]).
    pub fn new(
        store: &'a dyn KvStore,
        session: &'a mut Session,
        ops: &'a [RemoteOp],
        params: ParamsRef<'a>,
        strategy: ExecStrategy,
    ) -> Self {
        ExecCtx {
            store,
            session,
            ops: ops.iter(),
            params,
            strategy,
            resume: None,
            next_cursor: None,
            produce_cursor: false,
        }
    }

    /// The resolution of the remote operator evaluation has just reached.
    fn next_op(&mut self) -> Result<&'a RemoteOp, ExecError> {
        self.ops.next().ok_or_else(|| {
            ExecError::Internal("plan has a remote operator that was not resolved".into())
        })
    }

    /// Tag the session with the remote operator about to issue rounds, so
    /// wall-clock backends can attribute round latencies to the §6.1 model
    /// key (op kind, α_c, α_j, β) for online training.
    fn tag_op(&mut self, op: OpKind, alpha_c: u64, alpha_j: u64, beta: u64) {
        self.session.op_tag = Some(ModelKey::new(op, alpha_c, alpha_j, beta));
    }

    fn clear_op_tag(&mut self) {
        self.session.op_tag = None;
    }

    /// Evaluate a plan to completion, in the executing thread's scratch:
    /// taken from its slot for the evaluation, so a nested one makes its
    /// own, and put back after it — unless it outgrew
    /// [`SCRATCH_CEILING_BYTES`], or a panic unwinds past it, either of
    /// which drops it.
    pub fn eval(&mut self, plan: &PhysicalPlan) -> Result<Rows, ExecError> {
        let mut scratch = SCRATCH.take().unwrap_or_default();
        let rows = self.eval_in(plan, &mut scratch);
        if scratch.bytes() <= SCRATCH_CEILING_BYTES {
            SCRATCH.set(Some(scratch));
        }
        rows
    }

    fn eval_in(&mut self, plan: &PhysicalPlan, s: &mut ExecScratch) -> Result<Rows, ExecError> {
        match plan {
            PhysicalPlan::ParamSource { param, max, .. } => {
                let values = self
                    .params
                    .collection(param.index, &param.name, Some(*max))?;
                let text = values.iter().filter_map(Value::as_str).map(str::len).sum();
                let mut out = spare(&mut s.spares).rebuild(1);
                out.reserve(values.len(), text);
                for v in values {
                    out.push(ValueRef::of(v))?;
                    out.end_row()?;
                }
                Ok(out.finish())
            }
            PhysicalPlan::IndexScan { spec, .. } => {
                let op = self.next_op()?;
                self.eval_scan(op, spec, s)
            }
            PhysicalPlan::IndexFKJoin {
                child,
                key,
                row_bytes,
                ..
            } => {
                let children = self.eval_in(child, s)?;
                let op = self.next_op()?;
                self.eval_fk_join(op, children, key, *row_bytes, s)
            }
            PhysicalPlan::SortedIndexJoin { child, spec, .. } => {
                let children = self.eval_in(child, s)?;
                let op = self.next_op()?;
                self.eval_sorted_join(op, children, spec, s)
            }
            PhysicalPlan::LocalSelection {
                child, predicates, ..
            } => {
                let mut rows = self.eval_in(child, s)?;
                let params = self.params;
                rows.try_retain(|row| BoundPredicate::eval_all(predicates, &row, params))?;
                Ok(rows)
            }
            PhysicalPlan::LocalSort { child, keys, .. } => {
                let mut rows = self.eval_in(child, s)?;
                rows.sort_by(&mut s.order, |a, b| compare_rows(&a, &b, keys));
                Ok(rows)
            }
            PhysicalPlan::LocalStop { child, count, .. } => {
                let mut rows = self.eval_in(child, s)?;
                rows.truncate(*count as usize);
                Ok(rows)
            }
            PhysicalPlan::LocalProject { child, columns, .. } => {
                let mut rows = self.eval_in(child, s)?;
                let mut gathered = spare(&mut s.spares);
                rows.project(columns.iter().map(|(position, _)| *position), &mut gathered)?;
                s.keep(gathered);
                Ok(rows)
            }
            PhysicalPlan::LocalAggregate {
                child,
                group_by,
                aggs,
                ..
            } => {
                let rows = self.eval_in(child, s)?;
                let groups = aggregate_rows(&rows, group_by, aggs)?;
                s.keep(rows);
                Ok(groups)
            }
        }
    }

    // ------------------------------------------------------------- scans

    fn eval_scan(
        &mut self,
        op: &RemoteOp,
        spec: &ScanSpec,
        s: &mut ExecScratch,
    ) -> Result<Rows, ExecError> {
        let params = self.params;
        let (start, end) = (&mut s.key, &mut s.end);
        start.clear();
        Self::probe_prefix(
            start,
            &mut s.token,
            op,
            spec.eq_prefix
                .iter()
                .map(|o| o.resolve(params).map(ValueRef::of)),
        )?;
        let range_dir = op
            .dirs
            .get(spec.eq_prefix.len())
            .copied()
            .unwrap_or(Dir::Asc);
        let mut bounded = range_bounds(params, start, end, spec.range.as_ref(), range_dir)?;

        // pagination resume. A cursor only ever narrows the scan: one
        // replayed under other parameters lies outside `[start, end)` and
        // must not widen it to rows the predicate excludes (past the far
        // bound it leaves an inverted interval, which the store answers
        // empty)
        if let Some(CursorState::ScanAfter { last_key }) = self.resume {
            if spec.reverse {
                if !bounded || *last_key < *end {
                    end.clone_from(last_key);
                    bounded = true;
                }
            } else if *last_key >= *start {
                start.clone_from(last_key);
                start.push(0);
            }
        }
        let end = bounded.then_some(end.as_slice());

        self.session.op_tag = Some(op.key);
        let (ns, reverse) = (op.ns, spec.reverse);
        let max = spec
            .limit
            .is_bounded()
            .then(|| spec.limit.count_or_estimate());
        let paged;
        let entries = match (max, self.strategy) {
            // the §7.1 prefetch: one range fetches the whole hint
            (Some(count), ExecStrategy::Simple | ExecStrategy::Parallel) => {
                s.round.reset_ranges(ns, 1, Some(count), reverse);
                s.round.push_range(start, end);
                self.read(&s.round, &mut s.answer)?;
                s.answer.entries()
            }
            // Lazy reads one entry per request; cost-based plans page
            // until exhausted
            (max, strategy) => {
                let page = match strategy {
                    ExecStrategy::Lazy => 1,
                    _ => UNBOUNDED_SCAN_BATCH,
                };
                let bounds = (start.clone(), end.map(<[u8]>::to_vec));
                paged = self.read_pages(ns, bounds, reverse, page, max)?;
                &paged
            }
        };
        self.clear_op_tag();

        // cursor for the next page
        if self.resume.is_some() || self.produce_cursor {
            let buffers = &mut s.cursor_keys;
            self.next_cursor = entries.last().map(|(k, _)| CursorState::ScanAfter {
                last_key: cursor_key(buffers, k),
            });
        }

        let mut rows = spare(&mut s.spares).rebuild(op.table.columns.len());
        let deref = spec.deref.then_some(spec.row_bytes);
        let no_left = |_: &mut RowsBuilder, _| Ok(());
        self.materialize(op, entries.iter(), deref, &mut rows, no_left, &mut s.rows)?;
        Ok(rows.finish())
    }

    /// Every entry [`page_range`] reads of `bounds` in pages of `page`, up
    /// to `max`, as one block.
    fn read_pages(
        &mut self,
        ns: NsId,
        bounds: (Vec<u8>, Option<Vec<u8>>),
        reverse: bool,
        page: u64,
        max: Option<u64>,
    ) -> Result<Entries, ExecError> {
        let mut entries = Entries::new();
        page_range(
            self.store,
            self.session,
            ns,
            bounds,
            reverse,
            page,
            max,
            |_, found| {
                entries.append(found);
                Ok::<_, ExecError>(())
            },
        )?;
        Ok(entries)
    }

    // ------------------------------------------------------------- joins

    fn eval_fk_join(
        &mut self,
        op: &RemoteOp,
        children: Rows,
        key: &[KeySource],
        row_bytes: u64,
        s: &mut ExecScratch,
    ) -> Result<Rows, ExecError> {
        let (round, probe, answer) = (&mut s.round, &mut s.key, &mut s.answer);
        round.reset_gets(op.primary, children.len());
        for child in &children {
            probe.clear();
            for ks in key {
                let value = match ks {
                    KeySource::Const(operand) => ValueRef::of(operand.resolve(self.params)?),
                    KeySource::ChildField(p) => child.value(*p),
                };
                keys::encode_probe_component(probe, value, Dir::Asc)?;
            }
            round.push_get(probe);
        }
        self.tag_op(OpKind::IndexFKJoin, round.len() as u64, 1, row_bytes);
        self.read(round, answer)?;
        self.clear_op_tag();
        let mut out = children.widen(op.table.columns.len(), spare(&mut s.spares));
        let answer = &s.answer;
        out.reserve(answer.entries().len(), value_bytes(answer.entries()));
        for child in 0..answer.len() {
            // missing row: dangling reference -> inner join drops it
            if let Some((_, record)) = answer.probe(child).next() {
                out.push_left(child)?;
                keys::decode_row_into(&mut out, &op.table, record)?;
                out.end_row()?;
            }
        }
        let (rows, left) = out.finish_with_left();
        s.keep(left);
        Ok(rows)
    }

    fn eval_sorted_join(
        &mut self,
        op: &RemoteOp,
        children: Rows,
        spec: &SortedJoinSpec,
        s: &mut ExecScratch,
    ) -> Result<Rows, ExecError> {
        // resume state
        let resume = match self.resume {
            Some(CursorState::SortedJoinAfter { suffix, full_key }) => {
                Some((suffix.as_slice(), full_key.as_slice()))
            }
            Some(CursorState::ScanAfter { .. }) => {
                return Err(ExecError::Cursor(
                    "cursor does not match this query's plan".into(),
                ))
            }
            None => None,
        };

        // one bounded range per child: everything under its probe prefix,
        // narrowed to the cursor position when resuming — conservatively,
        // including it, and filtered below
        let params = self.params;
        let ExecScratch {
            key: probe,
            token,
            round,
            answer,
            items,
            prefix_lens,
            rows,
            spares,
            cursor_keys,
            ..
        } = s;
        round.reset_ranges(op.ns, children.len(), Some(spec.per_key), spec.reverse);
        prefix_lens.clear();
        for child in &children {
            probe.clear();
            Self::probe_prefix(
                probe,
                token,
                op,
                spec.prefix.iter().map(|ks| match ks {
                    KeySource::Const(operand) => operand.resolve(params).map(ValueRef::of),
                    KeySource::ChildField(p) => Ok(child.value(*p)),
                }),
            )?;
            let prefix = probe.len();
            prefix_lens.push(prefix);
            // `probe` is the prefix and any cursor suffix; the range starts
            // at one of the two and ends past everything under the other,
            // whose upper bound is built behind them
            if let Some((suffix, _)) = resume {
                probe.extend_from_slice(suffix);
            }
            let (start, under) = if spec.reverse {
                (prefix, probe.len())
            } else {
                (probe.len(), prefix)
            };
            let bound = probe.len();
            probe.extend_from_within(..under);
            let bounded = prefix_upper_bound_in_place(probe, bound);
            round.push_range(&probe[..start], bounded.then(|| &probe[bound..]));
        }

        // fetch up to per_key entries per probe
        self.tag_op(
            OpKind::SortedIndexJoin,
            round.len() as u64,
            spec.per_key,
            spec.row_bytes,
        );
        self.read(round, answer)?;
        self.clear_op_tag();

        // merge: order entries by the key bytes after their probe prefix
        // (the sort columns + pk, already direction-encoded by the index
        // codec), forward or reverse; ties by full key. The entries stay in
        // the answer; what is sorted is (child, entry) index pairs.
        let entry = |&(_, i): &(usize, usize)| answer.entries().get(i);
        let position = |at: &(usize, usize)| {
            let key = entry(at).0;
            (&key[prefix_lens[at.0].min(key.len())..], key)
        };
        items.clear();
        items.reserve(answer.entries().len());
        for child in 0..answer.len() {
            items.extend(answer.span(child).map(|i| (child, i)));
        }
        if spec.reverse {
            items.sort_by(|a, b| position(b).cmp(&position(a)));
        } else {
            items.sort_by(|a, b| position(a).cmp(&position(b)));
        }
        // resume filter: drop everything at or before the cursor position
        if let Some(cursor) = resume {
            items.retain(|it| {
                let cmp = if spec.reverse {
                    cursor.cmp(&position(it))
                } else {
                    position(it).cmp(&cursor)
                };
                cmp == std::cmp::Ordering::Greater
            });
        }
        if let Some(limit) = spec.emit_limit {
            items.truncate(limit as usize);
        }

        // cursor
        if self.resume.is_some() || self.produce_cursor {
            self.next_cursor = items.last().map(|it| {
                let (suffix, full_key) = position(it);
                CursorState::SortedJoinAfter {
                    suffix: cursor_key(cursor_keys, suffix),
                    full_key: cursor_key(cursor_keys, full_key),
                }
            });
        }

        // materialize right rows (deref when needed), each behind the
        // cells of the child that probed for it
        let mut out = children.widen(op.table.columns.len(), spare(spares));
        let merged = items.iter().map(entry);
        let left = |out: &mut RowsBuilder, i: usize| out.push_left(items[i].0);
        let deref = spec.deref.then_some(spec.row_bytes);
        self.materialize(op, merged, deref, &mut out, left, rows)?;
        let (rows, left) = out.finish_with_left();
        s.keep(left);
        Ok(rows)
    }

    // ------------------------------------------------------------- shared

    /// Append a probe prefix to `prefix`: one component per value, over the
    /// leading key parts of `op`'s index. A search token is canonicalized
    /// in `token`.
    fn probe_prefix<'v>(
        prefix: &mut Vec<u8>,
        token: &mut String,
        op: &RemoteOp,
        values: impl Iterator<Item = Result<ValueRef<'v>, ParamError>>,
    ) -> Result<(), ExecError> {
        for (i, value) in values.enumerate() {
            let value = value?;
            let dir = op.dirs.get(i).copied().ok_or_else(|| {
                ExecError::Internal("probe prefix is longer than the index key".into())
            })?;
            // token probes encode the canonical token
            let search = i == 0
                && op.token
                && (value.as_str()).is_some_and(|text| text::search_token_into(text, token));
            if search {
                key::encode_component_ref(prefix, ValueRef::Varchar(token), dir)
                    .map_err(keys::KeyError::from)?;
            } else {
                keys::encode_probe_component(prefix, value, dir)?;
            }
        }
        Ok(())
    }

    /// Turn index entries into full-arity right rows appended to `out`,
    /// dereferencing through the primary namespace when the index is not
    /// covering — `deref` is then the row bytes the dereference is modeled
    /// at. The entries are read where the store's answer holds them,
    /// and each stored row (or covering key) is decoded straight into the
    /// block, which is sized from the bytes actually fetched. `left` begins
    /// the row of the entry at the position it is given (a join pushes the
    /// probing child's cells); entries whose record is gone or has moved
    /// on are skipped.
    fn materialize<'e>(
        &mut self,
        op: &RemoteOp,
        entries: impl ExactSizeIterator<Item = (&'e [u8], &'e [u8])> + Clone,
        deref: Option<u64>,
        out: &mut RowsBuilder,
        mut left: impl FnMut(&mut RowsBuilder, usize) -> Result<(), RowsError>,
        s: &mut RowScratch,
    ) -> Result<(), ExecError> {
        let RowScratch {
            key_text,
            key_rows,
            pk,
            round,
            answer,
            derive,
        } = s;
        let table = &op.table;
        if !op.secondary {
            out.reserve(entries.len(), entries.clone().map(|(_, v)| v.len()).sum());
            for (i, (_, v)) in entries.enumerate() {
                left(out, i)?;
                keys::decode_row_into(out, table, v)?;
                out.end_row()?;
            }
            return Ok(());
        }
        let key_bytes = entries.clone().map(|(k, _)| k.len()).sum();
        let mut row_from_key = |out: &mut RowsBuilder, k: &[u8]| {
            let arity = table.columns.len();
            keys::row_from_key_into(out, arity, &op.parts, &op.types, &op.dirs, k, key_text)
        };
        let Some(row_bytes) = deref else {
            out.reserve(entries.len(), key_bytes);
            for (i, (k, _)) in entries.enumerate() {
                left(out, i)?;
                row_from_key(out, k)?;
                out.end_row()?;
            }
            return Ok(());
        };
        let mut from_keys = std::mem::take(key_rows).rebuild(table.columns.len());
        from_keys.reserve(entries.len(), key_bytes);
        for (k, _) in entries.clone() {
            row_from_key(&mut from_keys, k)?;
            from_keys.end_row()?;
        }
        *key_rows = from_keys.finish();
        round.reset_gets(op.primary, entries.len());
        for row in &*key_rows {
            pk.clear();
            for &col in &op.pk {
                keys::encode_probe_component(pk, row.value(col), Dir::Asc)?;
            }
            round.push_get(pk);
        }
        // non-covering index dereference: modeled (and therefore
        // sampled) as an IndexFKJoin of the fetched entries — the
        // same shape `plan_thetas` predicts for it
        self.tag_op(OpKind::IndexFKJoin, round.len() as u64, 1, row_bytes);
        self.read(round, answer)?;
        self.clear_op_tag();
        out.reserve(answer.entries().len(), value_bytes(answer.entries()));
        for (i, (k, _)) in entries.enumerate() {
            if let Some((_, record)) = answer.probe(i).next() {
                left(out, i)?;
                keys::decode_row_into(out, table, record)?;
                // an entry whose record moved on dangles: a crash
                // between an UPDATE's swap and its stale drops leaves
                // one, and so do a lost UPDATE race and an UPDATE
                // racing a DELETE (ROADMAP.md, R9); emit the row only
                // if its record still derives the entry
                if keys::derives(&op.parts, &out.pending(), k, derive)? {
                    out.end_row()?;
                } else {
                    out.drop_row();
                }
            }
            // missing: dangling index entry awaiting GC (§7.2); skip
        }
        Ok(())
    }

    /// Issue an operator's read round per the strategy — Parallel as the
    /// one round it is, Simple as one round per probe, Lazy as one entry
    /// per request — and answer it as one block in `answer`, with an
    /// answer for every probe or an error.
    fn read(&mut self, round: &ReadRound, answer: &mut ReadAnswer) -> Result<(), ExecError> {
        match self.strategy {
            ExecStrategy::Parallel => self.store.read_round(self.session, round, answer)?,
            strategy => {
                answer.reset(round.len(), 0, 0);
                for probe in round.probes() {
                    let response = match (strategy, probe) {
                        (
                            ExecStrategy::Lazy,
                            Probe::Range {
                                start,
                                end,
                                limit,
                                reverse,
                            },
                        ) => {
                            let bounds = (start.to_vec(), end.map(<[u8]>::to_vec));
                            KvResponse::Entries(self.read_pages(
                                round.ns(),
                                bounds,
                                reverse,
                                1,
                                limit,
                            )?)
                        }
                        _ => self.round_one(probe.request(round.ns())),
                    };
                    answer.push_response(probe, &response)?;
                }
            }
        }
        if answer.len() != round.len() {
            return Err(MalformedRound::Count {
                requests: round.len(),
                responses: answer.len(),
            }
            .into());
        }
        Ok(())
    }

    fn round_one(&mut self, request: KvRequest) -> KvResponse {
        self.store.execute_one(self.session, request)
    }
}

/// Byte-space `[start, end)` of a scan, in place: `start` holds the prefix
/// everything under which is read, narrowed by a range over the key part
/// that follows it, whose direction is `dir`. `start` becomes the start and
/// `end` the end; answers `false` when the end is open.
fn range_bounds(
    params: ParamsRef<'_>,
    start: &mut Vec<u8>,
    end: &mut Vec<u8>,
    range: Option<&RangeSpec>,
    dir: Dir,
) -> Result<bool, ExecError> {
    let (low, high) = match range {
        Some(r) => (r.low.as_ref(), r.high.as_ref()),
        None => (None, None),
    };
    // under Desc encoding, the value-space low bound becomes the
    // byte-space high bound and vice versa
    let (byte_low, byte_high) = match dir {
        Dir::Asc => (low, high),
        Dir::Desc => (high, low),
    };
    let enc = |key: &mut Vec<u8>, bound: &RangeBound| -> Result<(), ExecError> {
        let value = ValueRef::of(bound.operand.resolve(params)?);
        Ok(keys::encode_probe_component(key, value, dir)?)
    };
    end.clone_from(start);
    let bounded = match byte_high {
        None => prefix_upper_bound_in_place(end, 0),
        Some(bound) => {
            enc(end, bound)?;
            !bound.inclusive || prefix_upper_bound_in_place(end, 0)
        }
    };
    if let Some(bound) = byte_low {
        enc(start, bound)?;
        // past the bound, unless no key is (all of it 0xFF)
        if !bound.inclusive && start.iter().any(|&b| b != 0xFF) {
            prefix_upper_bound_in_place(start, 0);
        }
    }
    Ok(bounded)
}

/// The value bytes of `entries`: what a block about to hold the rows they
/// are reserves.
fn value_bytes(entries: &Entries) -> usize {
    entries.iter().map(|(_, value)| value.len()).sum()
}

/// Read `[start, end)` of `ns` in scan order, down from `end` when
/// `reverse`, in pages of up to `page` entries — one request per round,
/// through `execute_one` — and hand `each` every page that holds any, with
/// the session to issue further rounds on. A page resumes just past the
/// last key of the one before. The read stops on a page shorter than it
/// asked for, or once `max` entries have been read. The one range pager:
/// the Lazy executor's reads, cost-based scans, the index sweep and the
/// index backfill all page through it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn page_range<E: From<MalformedRound>>(
    store: &dyn KvStore,
    session: &mut Session,
    ns: NsId,
    (mut start, mut end): (Vec<u8>, Option<Vec<u8>>),
    reverse: bool,
    page: u64,
    max: Option<u64>,
    mut each: impl FnMut(&mut Session, Entries) -> Result<(), E>,
) -> Result<(), E> {
    let mut left = max.unwrap_or(u64::MAX);
    while left > 0 {
        let limit = page.clamp(1, left);
        // the bound a page moves goes to its request; the other is copied
        let (from, to) = if reverse {
            (start.clone(), end.take())
        } else {
            (std::mem::take(&mut start), end.clone())
        };
        let request = KvRequest::GetRange {
            ns,
            start: from,
            end: to,
            limit: Some(limit),
            reverse,
        };
        let found = store.execute_one(session, request).into_block()?;
        let read = found.len() as u64;
        // a full page: the range may hold more, past its last key
        let full = read >= limit;
        if let Some((last, _)) = found.last().filter(|_| full) {
            if reverse {
                end = Some(last.to_vec());
            } else {
                start = [last, &[0]].concat();
            }
        }
        if read > 0 {
            each(session, found)?;
        }
        if !full {
            return Ok(());
        }
        left = left.saturating_sub(read);
    }
    Ok(())
}

/// Multi-key row order honoring per-key direction: what `LocalSort` (and
/// the reference executor's sort) order rows by.
pub fn compare_rows(a: &impl Row, b: &impl Row, keys: &[(usize, Dir)]) -> Ordering {
    for (pos, dir) in keys {
        let ord = a.value(*pos).total_cmp(b.value(*pos));
        let ord = if *dir == Dir::Desc {
            ord.reverse()
        } else {
            ord
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Group-by + aggregates over a bounded input (§7.1: computed client-side).
///
/// `SUM` and `AVG` over an integral column (`INT`, `BIGINT`, `TIMESTAMP`)
/// accumulate in an `i128`, which no bounded input can overflow, so the sum
/// is exact: `SUM` answers it as a `BIGINT`, saturating at the `i64` range,
/// and `AVG` divides it. A `DOUBLE` column accumulates in `f64`.
pub fn aggregate_rows(
    rows: &Rows,
    group_by: &[usize],
    aggs: &[PhysAggregate],
) -> Result<Rows, RowsError> {
    #[derive(Default, Clone)]
    struct Acc {
        count: u64,
        int_sum: i128,
        float_sum: f64,
        is_float: bool,
        min: Option<Value>,
        max: Option<Value>,
    }
    let mut groups: BTreeMap<Vec<u8>, (Vec<Value>, Vec<Acc>)> = BTreeMap::new();
    for row in rows {
        // groups come out in the order of their values' row encoding
        let mut key = Vec::new();
        row_codec::encode_arity(&mut key, group_by.len());
        for &p in group_by {
            row_codec::encode_value_ref(&mut key, row.value(p));
        }
        let (_, accs) = groups.entry(key).or_insert_with(|| {
            let key_vals = group_by.iter().map(|&p| row.value(p).to_value());
            (key_vals.collect(), vec![Acc::default(); aggs.len()])
        });
        for (acc, agg) in accs.iter_mut().zip(aggs) {
            let val = agg.arg.map(|p| row.value(p));
            match agg.func {
                AggFunc::Count => match val {
                    Some(ValueRef::Null) => {}
                    _ => acc.count += 1,
                },
                AggFunc::Sum | AggFunc::Avg => match val {
                    Some(ValueRef::Int(v)) => {
                        acc.int_sum += i128::from(v);
                        acc.count += 1;
                    }
                    Some(ValueRef::BigInt(v) | ValueRef::Timestamp(v)) => {
                        acc.int_sum += i128::from(v);
                        acc.count += 1;
                    }
                    Some(ValueRef::Double(v)) => {
                        acc.float_sum += v;
                        acc.is_float = true;
                        acc.count += 1;
                    }
                    _ => {}
                },
                AggFunc::Min | AggFunc::Max => {
                    let (best, wanted) = match agg.func {
                        AggFunc::Min => (&mut acc.min, Ordering::Less),
                        _ => (&mut acc.max, Ordering::Greater),
                    };
                    if let Some(v) = val.filter(|v| !v.is_null()) {
                        if best
                            .as_ref()
                            .is_none_or(|m| v.total_cmp(ValueRef::of(m)) == wanted)
                        {
                            *best = Some(v.to_value());
                        }
                    }
                }
            }
        }
    }
    // empty input with no grouping: one row of "zero" aggregates
    if groups.is_empty() && group_by.is_empty() {
        groups.insert(Vec::new(), (Vec::new(), vec![Acc::default(); aggs.len()]));
    }
    let mut out = Rows::builder(group_by.len() + aggs.len());
    for (key_vals, accs) in groups.values() {
        for v in key_vals {
            out.push(ValueRef::of(v))?;
        }
        for (acc, agg) in accs.iter().zip(aggs) {
            let sum = acc.float_sum + acc.int_sum as f64;
            out.push(match agg.func {
                AggFunc::Count => ValueRef::BigInt(acc.count as i64),
                AggFunc::Sum | AggFunc::Avg if acc.count == 0 => ValueRef::Null,
                AggFunc::Sum if acc.is_float => ValueRef::Double(sum),
                AggFunc::Sum => {
                    let clamped = acc.int_sum.clamp(i64::MIN.into(), i64::MAX.into());
                    ValueRef::BigInt(clamped as i64)
                }
                AggFunc::Avg => ValueRef::Double(sum / acc.count as f64),
                AggFunc::Min => acc.min.as_ref().map_or(ValueRef::Null, ValueRef::of),
                AggFunc::Max => acc.max.as_ref().map_or(ValueRef::Null, ValueRef::of),
            })?;
        }
        out.end_row()?;
    }
    Ok(out.finish())
}
