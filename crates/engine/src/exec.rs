//! The PIQL execution engine (§7).
//!
//! Operators are evaluated bottom-up over materialized (bounded!) tuple
//! batches; what varies is how remote operators turn their work into
//! key/value-store rounds. The three strategies of §8.5:
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
//! that in virtual time, and `LiveCluster` fans the round out over its
//! shared worker pool — so `Parallel`'s speedup is real wall-clock
//! overlap on the live path, not just round batching.

use crate::cursor::{Cursor, CursorState};
use crate::keys;
use piql_core::ast::AggFunc;
use piql_core::catalog::{Catalog, IndexDef, TableDef};
use piql_core::codec::key::{prefix_upper_bound, Dir};
use piql_core::opt::UNBOUNDED_SCAN_BATCH;
use piql_core::plan::params::{ParamError, ParamsRef};
use piql_core::plan::physical::{
    IndexRef, KeySource, PhysAggregate, PhysicalPlan, RangeSpec, ScanLimit, ScanSpec,
    SortedJoinSpec,
};
use piql_core::plan::{BoundPredicate, Operand};
use piql_core::tuple::Tuple;
use piql_core::value::Value;
use piql_kv::{KvRequest, KvResponse, KvStore, LiveOpKind, NsId, OpTag, ResponseMismatch, Session};
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

impl From<ResponseMismatch> for ExecError {
    fn from(e: ResponseMismatch) -> Self {
        ExecError::Internal(e.to_string())
    }
}

/// Result of one query (or one page of a paginated query).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub rows: Vec<Tuple>,
    /// Cursor to fetch the next page (paginated queries only; `None` when
    /// exhausted).
    pub cursor: Option<Cursor>,
}

/// The execution context threaded through operator evaluation.
pub struct ExecCtx<'a> {
    pub store: &'a dyn KvStore,
    pub session: &'a mut Session,
    pub catalog: &'a Catalog,
    pub params: ParamsRef<'a>,
    pub strategy: ExecStrategy,
    /// Resume point (pagination).
    pub resume: Option<CursorState>,
    /// New resume point produced by the root remote operator.
    pub next_cursor: Option<CursorState>,
    /// Ask the root remote operator to record a resume point even on the
    /// first page (set for paginated queries).
    pub produce_cursor: bool,
}

impl<'a> ExecCtx<'a> {
    pub fn new(
        store: &'a dyn KvStore,
        session: &'a mut Session,
        catalog: &'a Catalog,
        params: ParamsRef<'a>,
        strategy: ExecStrategy,
    ) -> Self {
        ExecCtx {
            store,
            session,
            catalog,
            params,
            strategy,
            resume: None,
            next_cursor: None,
            produce_cursor: false,
        }
    }

    fn table(&self, index: &IndexRef) -> Arc<TableDef> {
        self.catalog.table_by_id(index.table).clone()
    }

    fn ns_of_index(&self, table: &TableDef, index: &IndexRef) -> NsId {
        match &index.secondary {
            None => self.store.namespace(&Catalog::table_namespace(table)),
            Some(idx) => self.store.namespace(&Catalog::index_namespace(idx)),
        }
    }

    fn primary_ns(&self, table: &TableDef) -> NsId {
        self.store.namespace(&Catalog::table_namespace(table))
    }

    fn resolve(&self, op: &Operand) -> Result<Value, ExecError> {
        Ok(op.resolve(self.params)?.clone())
    }

    /// Tag the session with the remote operator about to issue rounds, so
    /// wall-clock backends can attribute round latencies to the §6.1 model
    /// key (op kind, α_c, α_j, β) for online training.
    fn tag_op(&mut self, op: LiveOpKind, alpha_c: u64, alpha_j: u64, beta: u64) {
        self.session.op_tag = Some(OpTag {
            op,
            alpha_c: alpha_c.min(u32::MAX as u64) as u32,
            alpha_j: alpha_j.min(u32::MAX as u64) as u32,
            beta: beta.min(u32::MAX as u64) as u32,
        });
    }

    fn clear_op_tag(&mut self) {
        self.session.op_tag = None;
    }

    /// Evaluate a plan to completion.
    pub fn eval(&mut self, plan: &PhysicalPlan) -> Result<Vec<Tuple>, ExecError> {
        match plan {
            PhysicalPlan::ParamSource { param, max, .. } => {
                let values = self
                    .params
                    .collection(param.index, &param.name, Some(*max))?;
                Ok(values.iter().map(|v| Tuple::new(vec![v.clone()])).collect())
            }
            PhysicalPlan::IndexScan { spec, .. } => self.eval_scan(spec),
            PhysicalPlan::IndexFKJoin {
                child,
                key,
                table,
                row_bytes,
                ..
            } => {
                let children = self.eval(child)?;
                self.eval_fk_join(children, *table, key, *row_bytes)
            }
            PhysicalPlan::SortedIndexJoin { child, spec, .. } => {
                let children = self.eval(child)?;
                self.eval_sorted_join(children, spec)
            }
            PhysicalPlan::LocalSelection {
                child, predicates, ..
            } => {
                let rows = self.eval(child)?;
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    if BoundPredicate::eval_all(predicates, &row, self.params)? {
                        out.push(row);
                    }
                }
                Ok(out)
            }
            PhysicalPlan::LocalSort { child, keys, .. } => {
                let mut rows = self.eval(child)?;
                sort_rows(&mut rows, keys);
                Ok(rows)
            }
            PhysicalPlan::LocalStop { child, count, .. } => {
                let mut rows = self.eval(child)?;
                rows.truncate(*count as usize);
                Ok(rows)
            }
            PhysicalPlan::LocalProject { child, columns, .. } => {
                let rows = self.eval(child)?;
                Ok(rows
                    .into_iter()
                    .map(|r| Tuple::new(columns.iter().map(|(p, _)| r[*p].clone()).collect()))
                    .collect())
            }
            PhysicalPlan::LocalAggregate {
                child,
                group_by,
                aggs,
                ..
            } => {
                let rows = self.eval(child)?;
                Ok(aggregate_rows(rows, group_by, aggs))
            }
        }
    }

    // ------------------------------------------------------------- scans

    fn eval_scan(&mut self, spec: &ScanSpec) -> Result<Vec<Tuple>, ExecError> {
        let table = self.table(&spec.index);
        let ns = self.ns_of_index(&table, &spec.index);

        // probe prefix
        let (prefix, range_dir) = self.scan_prefix(&table, spec)?;
        let range = self.resolve_range(spec.range.as_ref())?;
        let (mut start, mut end) = range_to_bytes(&prefix, &range, range_dir);

        // pagination resume
        if let Some(CursorState::ScanAfter { last_key }) = self.resume.clone() {
            if spec.reverse {
                end = Some(last_key);
            } else {
                let mut s = last_key;
                s.push(0);
                start = s;
            }
        }

        let scan_alpha = match &spec.limit {
            ScanLimit::Bounded { count, .. } => *count,
            ScanLimit::Unbounded { estimate } => *estimate,
        };
        self.tag_op(LiveOpKind::IndexScan, scan_alpha, 1, spec.row_bytes);
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        match (&spec.limit, self.strategy) {
            (ScanLimit::Bounded { count, .. }, ExecStrategy::Lazy) => {
                // tuple-at-a-time
                while (entries.len() as u64) < *count {
                    let resp = self.round_one(KvRequest::GetRange {
                        ns,
                        start: start.clone(),
                        end: end.clone(),
                        limit: Some(1),
                        reverse: spec.reverse,
                    });
                    let batch = resp.into_entries()?;
                    match batch.into_iter().next() {
                        Some((k, v)) => {
                            advance_bounds(&mut start, &mut end, &k, spec.reverse);
                            entries.push((k, v));
                        }
                        None => break,
                    }
                }
            }
            (ScanLimit::Bounded { count, .. }, _) => {
                // the §7.1 prefetch: one request fetches the whole hint
                let resp = self.round_one(KvRequest::GetRange {
                    ns,
                    start,
                    end,
                    limit: Some(*count),
                    reverse: spec.reverse,
                });
                entries = resp.into_entries()?;
            }
            (ScanLimit::Unbounded { .. }, strategy) => {
                // cost-based plans page until exhausted
                let batch = match strategy {
                    ExecStrategy::Lazy => 1,
                    _ => UNBOUNDED_SCAN_BATCH,
                };
                loop {
                    let resp = self.round_one(KvRequest::GetRange {
                        ns,
                        start: start.clone(),
                        end: end.clone(),
                        limit: Some(batch),
                        reverse: spec.reverse,
                    });
                    let chunk = resp.into_entries()?;
                    let n = chunk.len() as u64;
                    if let Some((k, _)) = chunk.last() {
                        advance_bounds(&mut start, &mut end, k, spec.reverse);
                    }
                    entries.extend(chunk);
                    if n < batch {
                        break;
                    }
                }
            }
        }

        self.clear_op_tag();

        // cursor for the next page
        if self.resume.is_some() || self.next_cursor_wanted() {
            self.next_cursor = entries.last().map(|(k, _)| CursorState::ScanAfter {
                last_key: k.clone(),
            });
        }

        self.materialize(&table, &spec.index, entries, spec.deref, spec.row_bytes)
            .map(|rows| rows.into_iter().map(|(_, t)| t).collect())
    }

    /// Whether the caller asked us to produce a cursor (set by execute()).
    fn next_cursor_wanted(&self) -> bool {
        self.produce_cursor
    }

    // ------------------------------------------------------------- joins

    fn eval_fk_join(
        &mut self,
        children: Vec<Tuple>,
        table_id: piql_core::catalog::TableId,
        key: &[KeySource],
        row_bytes: u64,
    ) -> Result<Vec<Tuple>, ExecError> {
        let table = self.catalog.table_by_id(table_id).clone();
        let ns = self.primary_ns(&table);
        let mut probe_keys = Vec::with_capacity(children.len());
        for child in &children {
            let vals: Vec<Value> = key
                .iter()
                .map(|ks| match ks {
                    KeySource::Const(op) => self.resolve(op),
                    KeySource::ChildField(p) => Ok(child[*p].clone()),
                })
                .collect::<Result<_, _>>()?;
            probe_keys.push(keys::primary_key_from_values(&vals)?);
        }
        self.tag_op(
            LiveOpKind::IndexFKJoin,
            probe_keys.len() as u64,
            1,
            row_bytes,
        );
        let responses = self.issue_gets(ns, probe_keys)?;
        self.clear_op_tag();
        let mut out = Vec::with_capacity(children.len());
        for (child, resp) in children.into_iter().zip(responses) {
            if let KvResponse::Value(Some(bytes)) = resp {
                let row = keys::decode_row(&table, &bytes)?;
                out.push(child.concat(&row));
            }
            // missing row: dangling reference -> inner join drops it
        }
        Ok(out)
    }

    fn eval_sorted_join(
        &mut self,
        children: Vec<Tuple>,
        spec: &SortedJoinSpec,
    ) -> Result<Vec<Tuple>, ExecError> {
        let table = self.table(&spec.index);
        let ns = self.ns_of_index(&table, &spec.index);

        // per-child probe prefixes
        let mut prefixes = Vec::with_capacity(children.len());
        for child in &children {
            let mut prefix = Vec::new();
            let parts_dirs = self.index_dirs(&table, &spec.index);
            for (i, ks) in spec.prefix.iter().enumerate() {
                let v = match ks {
                    KeySource::Const(op) => {
                        let val = self.resolve(op)?;
                        // token probes encode the canonical token
                        if i == 0 && self.index_has_token(&spec.index) {
                            match val.as_str().and_then(piql_core::text::search_token) {
                                Some(tok) => Value::Varchar(tok),
                                None => val,
                            }
                        } else {
                            val
                        }
                    }
                    KeySource::ChildField(p) => child[*p].clone(),
                };
                keys::encode_probe_component(&mut prefix, &v, parts_dirs[i])?;
            }
            prefixes.push(prefix);
        }

        // resume state
        let resume = match self.resume.clone() {
            Some(CursorState::SortedJoinAfter { suffix, full_key }) => Some((suffix, full_key)),
            Some(CursorState::ScanAfter { .. }) => {
                return Err(ExecError::Cursor(
                    "cursor does not match this query's plan".into(),
                ))
            }
            None => None,
        };

        // fetch up to per_key entries per probe
        let mut per_child_entries: Vec<Vec<(Vec<u8>, Vec<u8>)>> = Vec::new();
        let requests: Vec<KvRequest> = prefixes
            .iter()
            .map(|prefix| {
                let (mut start, mut end) = (prefix.clone(), prefix_upper_bound(prefix));
                if let Some((suffix, _)) = &resume {
                    // conservative: include the cursor position, filter below
                    let mut at = prefix.clone();
                    at.extend_from_slice(suffix);
                    if spec.reverse {
                        end = prefix_upper_bound(&at).or(end);
                    } else {
                        start = at;
                    }
                }
                KvRequest::GetRange {
                    ns,
                    start,
                    end,
                    limit: Some(spec.per_key),
                    reverse: spec.reverse,
                }
            })
            .collect();
        self.tag_op(
            LiveOpKind::SortedIndexJoin,
            prefixes.len() as u64,
            spec.per_key,
            spec.row_bytes,
        );
        match self.strategy {
            ExecStrategy::Parallel => {
                let responses = self.round(requests);
                for resp in responses {
                    per_child_entries.push(resp.into_entries()?);
                }
            }
            ExecStrategy::Simple => {
                for req in requests {
                    let resp = self.round_one(req);
                    per_child_entries.push(resp.into_entries()?);
                }
            }
            ExecStrategy::Lazy => {
                // per probe: one entry per request
                for (req, prefix) in requests.into_iter().zip(&prefixes) {
                    let KvRequest::GetRange {
                        ns,
                        mut start,
                        mut end,
                        reverse,
                        ..
                    } = req
                    else {
                        unreachable!()
                    };
                    let mut got = Vec::new();
                    while (got.len() as u64) < spec.per_key {
                        let resp = self.round_one(KvRequest::GetRange {
                            ns,
                            start: start.clone(),
                            end: end.clone(),
                            limit: Some(1),
                            reverse,
                        });
                        let batch = resp.into_entries()?;
                        match batch.into_iter().next() {
                            Some((k, v)) => {
                                advance_bounds(&mut start, &mut end, &k, reverse);
                                got.push((k, v));
                            }
                            None => break,
                        }
                    }
                    let _ = prefix;
                    per_child_entries.push(got);
                }
            }
        }
        self.clear_op_tag();

        // merge: tag entries with (suffix, full key) and k-way merge
        struct Item {
            child_idx: usize,
            suffix: Vec<u8>,
            key: Vec<u8>,
            value: Vec<u8>,
        }
        let mut items: Vec<Item> = Vec::new();
        for (ci, entries) in per_child_entries.into_iter().enumerate() {
            let plen = prefixes[ci].len();
            for (k, v) in entries {
                let suffix = k[plen.min(k.len())..].to_vec();
                items.push(Item {
                    child_idx: ci,
                    suffix,
                    key: k,
                    value: v,
                });
            }
        }
        // emission order: by suffix bytes (already direction-encoded by the
        // index codec), forward or reverse; ties by full key
        if spec.reverse {
            items.sort_by(|a, b| b.suffix.cmp(&a.suffix).then(b.key.cmp(&a.key)));
        } else {
            items.sort_by(|a, b| a.suffix.cmp(&b.suffix).then(a.key.cmp(&b.key)));
        }
        // resume filter: drop everything at or before the cursor position
        if let Some((cs, ck)) = &resume {
            items.retain(|it| {
                let cmp = if spec.reverse {
                    (cs.as_slice(), ck.as_slice()).cmp(&(it.suffix.as_slice(), it.key.as_slice()))
                } else {
                    (it.suffix.as_slice(), it.key.as_slice()).cmp(&(cs.as_slice(), ck.as_slice()))
                };
                cmp == std::cmp::Ordering::Greater
            });
        }
        if let Some(limit) = spec.emit_limit {
            items.truncate(limit as usize);
        }

        // cursor
        if self.resume.is_some() || self.next_cursor_wanted() {
            self.next_cursor = items.last().map(|it| CursorState::SortedJoinAfter {
                suffix: it.suffix.clone(),
                full_key: it.key.clone(),
            });
        }

        // materialize right rows (deref when needed), attach child tuples
        let entries: Vec<(Vec<u8>, Vec<u8>)> = items
            .iter()
            .map(|it| (it.key.clone(), it.value.clone()))
            .collect();
        let rows = self.materialize(&table, &spec.index, entries, spec.deref, spec.row_bytes)?;
        let mut out = Vec::with_capacity(rows.len());
        for (it, (_, right)) in items.iter().zip(rows) {
            out.push(children[it.child_idx].concat(&right));
        }
        Ok(out)
    }

    // ------------------------------------------------------------- shared

    /// Build the scan's probe prefix and return the direction of the key
    /// part a range (if any) applies to.
    fn scan_prefix(&self, table: &TableDef, spec: &ScanSpec) -> Result<(Vec<u8>, Dir), ExecError> {
        let dirs = self.index_dirs(table, &spec.index);
        let mut prefix = Vec::new();
        for (i, op) in spec.eq_prefix.iter().enumerate() {
            let v = self.resolve(op)?;
            let v = if i == 0 && self.index_has_token(&spec.index) {
                match v.as_str().and_then(piql_core::text::search_token) {
                    Some(tok) => Value::Varchar(tok),
                    None => v,
                }
            } else {
                v
            };
            keys::encode_probe_component(&mut prefix, &v, dirs[i])?;
        }
        let range_dir = dirs.get(spec.eq_prefix.len()).copied().unwrap_or(Dir::Asc);
        Ok((prefix, range_dir))
    }

    fn index_dirs(&self, table: &TableDef, index: &IndexRef) -> Vec<Dir> {
        match &index.secondary {
            None => vec![Dir::Asc; table.primary_key.len()],
            Some(idx) => idx.full_key_dirs(table),
        }
    }

    fn index_has_token(&self, index: &IndexRef) -> bool {
        index
            .secondary
            .as_ref()
            .map(IndexDef::has_token_part)
            .unwrap_or(false)
    }

    fn resolve_range(&self, range: Option<&RangeSpec>) -> Result<ResolvedRange, ExecError> {
        let Some(r) = range else {
            return Ok(ResolvedRange::default());
        };
        let conv = |b: &Option<piql_core::plan::physical::RangeBound>| -> Result<_, ExecError> {
            Ok(match b {
                Some(rb) => Some((self.resolve(&rb.operand)?, rb.inclusive)),
                None => None,
            })
        };
        Ok(ResolvedRange {
            low: conv(&r.low)?,
            high: conv(&r.high)?,
        })
    }

    /// Turn index entries into full-arity right rows, dereferencing through
    /// the primary namespace when the index is not covering.
    fn materialize(
        &mut self,
        table: &TableDef,
        index: &IndexRef,
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        deref: bool,
        row_bytes: u64,
    ) -> Result<Vec<(Vec<u8>, Tuple)>, ExecError> {
        match &index.secondary {
            None => entries
                .into_iter()
                .map(|(k, v)| Ok((k, keys::decode_row(table, &v)?)))
                .collect(),
            Some(idx) if !deref => entries
                .into_iter()
                .map(|(k, _)| {
                    let row = keys::row_from_index_key(table, idx, &k)?;
                    Ok((k, row))
                })
                .collect(),
            Some(idx) => {
                let primary = self.primary_ns(table);
                let mut pk_keys = Vec::with_capacity(entries.len());
                for (k, _) in &entries {
                    let pk_vals = keys::pk_values_from_index_key(table, idx, k)?;
                    pk_keys.push(keys::primary_key_from_values(&pk_vals)?);
                }
                // non-covering index dereference: modeled (and therefore
                // sampled) as an IndexFKJoin of the fetched entries — the
                // same shape `plan_thetas` predicts for it
                self.tag_op(LiveOpKind::IndexFKJoin, pk_keys.len() as u64, 1, row_bytes);
                let responses = self.issue_gets(primary, pk_keys)?;
                self.clear_op_tag();
                let mut out = Vec::with_capacity(entries.len());
                for ((k, _), resp) in entries.into_iter().zip(responses) {
                    if let KvResponse::Value(Some(bytes)) = resp {
                        let row = keys::decode_row(table, &bytes)?;
                        // the §7.2 write order can leave entries whose
                        // record moved on (crash between record update and
                        // stale-entry deletion); re-verify the entry is
                        // still derivable from the record before emitting
                        if keys::index_entry_keys(table, idx, &row)?.contains(&k) {
                            out.push((k, row));
                        }
                    }
                    // missing: dangling index entry awaiting GC (§7.2); skip
                }
                Ok(out)
            }
        }
    }

    /// Issue a batch of gets per the strategy.
    fn issue_gets(&mut self, ns: NsId, keys: Vec<Vec<u8>>) -> Result<Vec<KvResponse>, ExecError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        Ok(match self.strategy {
            ExecStrategy::Parallel => self.round(
                keys.into_iter()
                    .map(|key| KvRequest::Get { ns, key })
                    .collect(),
            ),
            _ => keys
                .into_iter()
                .map(|key| self.round_one(KvRequest::Get { ns, key }))
                .collect(),
        })
    }

    fn round(&mut self, requests: Vec<KvRequest>) -> Vec<KvResponse> {
        self.store.execute_round(self.session, requests)
    }

    fn round_one(&mut self, request: KvRequest) -> KvResponse {
        self.round(vec![request]).remove(0)
    }
}

/// Resolved scan range in value space.
#[derive(Debug, Default, Clone)]
struct ResolvedRange {
    low: Option<(Value, bool)>,
    high: Option<(Value, bool)>,
}

/// Convert a value-space range into byte-space `[start, end)` under the key
/// part's direction.
fn range_to_bytes(prefix: &[u8], range: &ResolvedRange, dir: Dir) -> (Vec<u8>, Option<Vec<u8>>) {
    // under Desc encoding, the value-space low bound becomes the byte-space
    // high bound and vice versa
    let (byte_low, byte_high) = match dir {
        Dir::Asc => (range.low.clone(), range.high.clone()),
        Dir::Desc => (range.high.clone(), range.low.clone()),
    };
    let enc = |v: &Value| {
        let mut k = prefix.to_vec();
        piql_core::codec::key::encode_component(&mut k, v, dir).expect("key-compatible value");
        k
    };
    let start = match &byte_low {
        None => prefix.to_vec(),
        Some((v, inclusive)) => {
            let k = enc(v);
            if *inclusive {
                k
            } else {
                prefix_upper_bound(&k).unwrap_or(k)
            }
        }
    };
    let end = match &byte_high {
        None => prefix_upper_bound(prefix),
        Some((v, inclusive)) => {
            let k = enc(v);
            if *inclusive {
                prefix_upper_bound(&k)
            } else {
                Some(k)
            }
        }
    };
    (start, end)
}

/// After consuming entry `k`, tighten the bounds for the next fetch.
fn advance_bounds(start: &mut Vec<u8>, end: &mut Option<Vec<u8>>, k: &[u8], reverse: bool) {
    if reverse {
        *end = Some(k.to_vec());
    } else {
        let mut s = k.to_vec();
        s.push(0);
        *start = s;
    }
}

/// Stable multi-key sort honoring per-key direction.
pub fn sort_rows(rows: &mut [Tuple], keys: &[(usize, Dir)]) {
    rows.sort_by(|a, b| {
        for (pos, dir) in keys {
            let ord = a[*pos].total_cmp(&b[*pos]);
            let ord = if *dir == Dir::Desc {
                ord.reverse()
            } else {
                ord
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// Group-by + aggregates over a bounded input (§7.1: computed client-side).
pub fn aggregate_rows(rows: Vec<Tuple>, group_by: &[usize], aggs: &[PhysAggregate]) -> Vec<Tuple> {
    #[derive(Default, Clone)]
    struct Acc {
        count: u64,
        sum: f64,
        sum_is_float: bool,
        min: Option<Value>,
        max: Option<Value>,
    }
    let mut groups: BTreeMap<Vec<u8>, (Vec<Value>, Vec<Acc>)> = BTreeMap::new();
    for row in &rows {
        let key_vals: Vec<Value> = group_by.iter().map(|&p| row[p].clone()).collect();
        let key = piql_core::codec::row::encode_tuple(&Tuple::new(key_vals.clone()));
        let entry = groups
            .entry(key)
            .or_insert_with(|| (key_vals, vec![Acc::default(); aggs.len()]));
        for (acc, agg) in entry.1.iter_mut().zip(aggs) {
            let val = agg.arg.map(|p| &row[p]);
            match agg.func {
                AggFunc::Count => {
                    if agg.arg.is_none() || !val.unwrap().is_null() {
                        acc.count += 1;
                    }
                }
                AggFunc::Sum | AggFunc::Avg => {
                    if let Some(v) = val {
                        if let Some(f) = v.as_f64() {
                            acc.sum += f;
                            acc.count += 1;
                            acc.sum_is_float = matches!(v, Value::Double(_));
                        }
                    }
                }
                AggFunc::Min => {
                    if let Some(v) = val {
                        if !v.is_null()
                            && acc
                                .min
                                .as_ref()
                                .map(|m| v.total_cmp(m) == std::cmp::Ordering::Less)
                                .unwrap_or(true)
                        {
                            acc.min = Some(v.clone());
                        }
                    }
                }
                AggFunc::Max => {
                    if let Some(v) = val {
                        if !v.is_null()
                            && acc
                                .max
                                .as_ref()
                                .map(|m| v.total_cmp(m) == std::cmp::Ordering::Greater)
                                .unwrap_or(true)
                        {
                            acc.max = Some(v.clone());
                        }
                    }
                }
            }
        }
    }
    // empty input with no grouping: one row of "zero" aggregates
    if groups.is_empty() && group_by.is_empty() {
        let vals: Vec<Value> = aggs
            .iter()
            .map(|a| match a.func {
                AggFunc::Count => Value::BigInt(0),
                _ => Value::Null,
            })
            .collect();
        return vec![Tuple::new(vals)];
    }
    groups
        .into_values()
        .map(|(mut key_vals, accs)| {
            for (acc, agg) in accs.iter().zip(aggs) {
                let v = match agg.func {
                    AggFunc::Count => Value::BigInt(acc.count as i64),
                    AggFunc::Sum => {
                        if acc.count == 0 {
                            Value::Null
                        } else if acc.sum_is_float {
                            Value::Double(acc.sum)
                        } else {
                            Value::BigInt(acc.sum as i64)
                        }
                    }
                    AggFunc::Avg => {
                        if acc.count == 0 {
                            Value::Null
                        } else {
                            Value::Double(acc.sum / acc.count as f64)
                        }
                    }
                    AggFunc::Min => acc.min.clone().unwrap_or(Value::Null),
                    AggFunc::Max => acc.max.clone().unwrap_or(Value::Null),
                };
                key_vals.push(v);
            }
            Tuple::new(key_vals)
        })
        .collect()
}
