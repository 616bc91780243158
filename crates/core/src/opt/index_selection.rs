//! Index selection (§5.3).
//!
//! Given the predicates a remote operator must serve, find an index whose
//! key layout makes the matching entries *contiguous*: `[token?] [equality
//! columns] [one inequality column] [sort columns]` with a consistent
//! direction (forward or fully reversed scan). The optimizer prefers the
//! primary index (no deref round trip, no maintenance cost — the Figure 3
//! discussion), then existing secondary indexes, and otherwise *derives* a
//! new index definition which the engine will create and maintain.

use crate::catalog::{Catalog, ColumnId, IndexDef, IndexKeyPart, IndexKind, TableDef};
use crate::codec::key::Dir;
use std::collections::BTreeSet;

/// What the operator needs from an index.
#[derive(Debug, Clone)]
pub struct IndexRequest {
    /// Column a TOKEN() lookup targets (must be the first key part).
    pub token_col: Option<ColumnId>,
    /// Columns with attribute-equality predicates (probe prefix candidates).
    pub eq_cols: BTreeSet<ColumnId>,
    /// Column with a servable inequality, if any.
    pub range_col: Option<ColumnId>,
    /// Desired output order, table-local columns.
    pub sort: Vec<(ColumnId, Dir)>,
    /// Columns that MUST be served as index prefix (⊆ `eq_cols`): a join's
    /// probe columns, a data-stop's cause columns, or all eq columns when a
    /// standard stop provides the bound. Other eq columns may fall back to
    /// local residual filters.
    pub required_eq: BTreeSet<ColumnId>,
}

/// A successful match.
#[derive(Debug, Clone)]
pub struct IndexMatch {
    /// `None` = primary index.
    pub index: Option<IndexDef>,
    /// Eq columns served as index prefix, in index-part order (after the
    /// token part, when present).
    pub served_eq: Vec<ColumnId>,
    pub range_served: bool,
    pub sort_served: bool,
    /// Scan direction: reverse iff the desired sort is the exact reverse of
    /// the index order.
    pub reverse: bool,
    /// Columns reconstructible from the index entry key alone.
    pub covering: BTreeSet<ColumnId>,
    /// True when this match required creating a new index.
    pub derived: bool,
}

impl IndexMatch {
    /// Eq columns NOT served (become local residual predicates).
    pub fn residual_eq(&self, req: &IndexRequest) -> Vec<ColumnId> {
        req.eq_cols
            .iter()
            .copied()
            .filter(|c| !self.served_eq.contains(c))
            .collect()
    }
}

/// Try to match one concrete key-part layout.
fn match_parts(table: &TableDef, parts: &[IndexKeyPart], req: &IndexRequest) -> Option<IndexMatch> {
    // each part's column; a part naming none matches nothing
    let cols: Vec<ColumnId> = parts
        .iter()
        .map(|p| table.column_id(p.kind.column_name()))
        .collect::<Option<_>>()?;
    let mut i = 0usize;

    // token part handling
    match (req.token_col, parts.first()) {
        (Some(tc), Some(p)) if p.kind.is_token() && cols[0] == tc => i = 1,
        (Some(_), _) => return None,
        (None, Some(p)) if p.kind.is_token() => return None,
        (None, _) => {}
    }

    // consume equality prefix greedily
    let mut remaining = req.eq_cols.clone();
    let mut served_eq = Vec::new();
    while i < parts.len() && !parts[i].kind.is_token() {
        let c = cols[i];
        if remaining.remove(&c) {
            served_eq.push(c);
            i += 1;
        } else {
            break;
        }
    }
    if req.required_eq.iter().any(|c| remaining.contains(c)) {
        return None;
    }

    // inequality: must sit directly after the eq prefix
    let mut range_served = false;
    if let Some(rc) = req.range_col {
        if i < parts.len() && !parts[i].kind.is_token() && cols[i] == rc {
            range_served = true;
            // the range column doubles as the first sort column when both
            // exist; do not advance — sort matching starts here.
        }
    }

    // sort: skip columns pinned by served equalities (constants)
    let pending: Vec<(ColumnId, Dir)> = req
        .sort
        .iter()
        .copied()
        .filter(|(c, _)| !served_eq.contains(c))
        .collect();
    let mut sort_served = true;
    let mut reverse = false;
    if let Some(&(first, _)) = pending.first() {
        // §5.2.1: a served inequality must be the first sort field; an
        // unserved one becomes a residual, and sorting via this index is
        // still possible as long as the sort columns line up
        sort_served = !range_served || req.range_col == Some(first);
        if sort_served {
            let mut flip: Option<bool> = None;
            for (offset, (c, d)) in pending.iter().enumerate() {
                let j = i + offset;
                let ok = j < parts.len() && !parts[j].kind.is_token() && cols[j] == *c;
                if !ok {
                    sort_served = false;
                    break;
                }
                let f = parts[j].dir != *d;
                match flip {
                    None => flip = Some(f),
                    Some(prev) if prev != f => {
                        sort_served = false;
                        break;
                    }
                    _ => {}
                }
            }
            reverse = sort_served && flip.unwrap_or(false);
        }
    }

    let covering: BTreeSet<ColumnId> = parts
        .iter()
        .zip(&cols)
        .filter(|(p, _)| !p.kind.is_token())
        .map(|(_, c)| *c)
        .collect();
    Some(IndexMatch {
        index: None, // caller fills in
        served_eq,
        range_served,
        sort_served,
        reverse,
        covering,
        derived: false,
    })
}

/// Find the best index for `req` on `table`, deriving one if permitted.
pub fn select_index(
    catalog: &Catalog,
    table: &TableDef,
    req: &IndexRequest,
    allow_derive: bool,
) -> Option<IndexMatch> {
    // quality: bigger is better
    let score = |m: &IndexMatch, is_primary: bool| -> (u8, u8, usize, u8) {
        (
            m.sort_served as u8,
            m.range_served as u8,
            m.served_eq.len(),
            is_primary as u8,
        )
    };

    let mut best: Option<(IndexMatch, (u8, u8, usize, u8))> = None;

    // 1. primary index (key = pk asc, value = full row: always covering)
    if req.token_col.is_none() {
        let pk_parts: Vec<IndexKeyPart> = table
            .primary_key
            .iter()
            .map(|c| IndexKeyPart::asc(c.clone()))
            .collect();
        if let Some(mut m) = match_parts(table, &pk_parts, req) {
            m.covering = (0..table.columns.len()).collect();
            let s = score(&m, true);
            best = Some((m, s));
        }
    }

    // 2. existing secondary indexes
    for idx in catalog.indexes_for_table(table.id) {
        let parts = idx.full_key_parts(table);
        if let Some(mut m) = match_parts(table, &parts, req) {
            m.index = Some((*idx).clone());
            let s = score(&m, false);
            if best.as_ref().map(|(_, bs)| s > *bs).unwrap_or(true) {
                best = Some((m, s));
            }
        }
    }

    // A match is *useful* when it serves every obligation that cannot be
    // deferred to a residual filter: all eq columns if required, plus sort
    // and range whenever those were requested and a derived index could
    // serve them.
    let fully_serves = |m: &IndexMatch| -> bool {
        req.required_eq.iter().all(|c| m.served_eq.contains(c))
            && (req.sort.is_empty() || m.sort_served)
            && (req.range_col.is_none() || m.range_served)
    };

    if let Some((m, _)) = &best {
        if fully_serves(m) {
            return best.map(|(m, _)| m);
        }
    }

    // 3. derive a new index (§5.3): [token?] eq cols, range col, sort cols
    if allow_derive {
        let mut parts: Vec<IndexKeyPart> = Vec::new();
        if let Some(tc) = req.token_col {
            parts.push(IndexKeyPart::token(table.columns[tc].name.clone()));
        }
        let mut used: BTreeSet<ColumnId> = BTreeSet::new();
        for &c in &req.eq_cols {
            parts.push(IndexKeyPart::asc(table.columns[c].name.clone()));
            used.insert(c);
        }
        if let Some(rc) = req.range_col {
            if !used.contains(&rc) {
                parts.push(IndexKeyPart::asc(table.columns[rc].name.clone()));
                used.insert(rc);
            }
        }
        for (c, d) in &req.sort {
            if !used.contains(c) && req.range_col != Some(*c) {
                parts.push(IndexKeyPart {
                    kind: IndexKind::Column(table.columns[*c].name.clone()),
                    dir: *d,
                });
                used.insert(*c);
            }
        }
        // all-key-compatible check
        let keyable = parts.iter().all(|p| {
            table
                .column_id(p.kind.column_name())
                .map(|c| table.columns[c].ty.key_compatible())
                .unwrap_or(false)
        });
        if keyable && !parts.is_empty() {
            let name = IndexDef::derived_name(table, &parts);
            let def = IndexDef::new(name, table.id, parts);
            let full = def.full_key_parts(table);
            if let Some(mut m) = match_parts(table, &full, req) {
                if fully_serves(&m) {
                    m.index = Some(def);
                    m.derived = true;
                    return Some(m);
                }
            }
        }
    }

    best.map(|(m, _)| m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableDef;
    use crate::value::DataType;

    fn setup() -> (Catalog, TableDef) {
        let mut cat = Catalog::new();
        let id = cat
            .create_table(
                TableDef::builder("thoughts")
                    .column("owner", DataType::Varchar(32))
                    .column("timestamp", DataType::Timestamp)
                    .column("text", DataType::Varchar(140))
                    .primary_key(&["owner", "timestamp"])
                    .build(),
            )
            .unwrap();
        let t = (**cat.table_by_id(id)).clone();
        (cat, t)
    }

    #[test]
    fn primary_serves_eq_prefix_and_reverse_sort() {
        let (cat, t) = setup();
        let owner = t.column_id("owner").unwrap();
        let ts = t.column_id("timestamp").unwrap();
        let req = IndexRequest {
            token_col: None,
            eq_cols: [owner].into(),
            range_col: None,
            sort: vec![(ts, Dir::Desc)],
            required_eq: [owner].into(),
        };
        let m = select_index(&cat, &t, &req, true).unwrap();
        assert!(m.index.is_none(), "primary index preferred");
        assert!(m.sort_served);
        assert!(m.reverse, "DESC over ASC pk column = reverse scan");
        assert!(!m.derived);
    }

    #[test]
    fn derives_index_when_primary_cannot_serve() {
        let (cat, t) = setup();
        let ts = t.column_id("timestamp").unwrap();
        let text = t.column_id("text").unwrap();
        let req = IndexRequest {
            token_col: Some(text),
            eq_cols: BTreeSet::new(),
            range_col: None,
            sort: vec![(ts, Dir::Desc)],
            required_eq: BTreeSet::new(),
        };
        let m = select_index(&cat, &t, &req, true).unwrap();
        let idx = m.index.expect("derived index");
        assert!(m.derived);
        assert!(idx.key[0].kind.is_token());
        assert_eq!(idx.key[1].kind.column_name(), "timestamp");
        assert_eq!(idx.key[1].dir, Dir::Desc);
        assert!(m.sort_served && !m.reverse);
    }

    #[test]
    fn existing_secondary_reused_instead_of_deriving() {
        let (mut cat, t) = setup();
        let text = t.column_id("text").unwrap();
        cat.create_index(IndexDef::new(
            "idx_existing",
            t.id,
            vec![IndexKeyPart::token("text")],
        ))
        .unwrap();
        let req = IndexRequest {
            token_col: Some(text),
            eq_cols: BTreeSet::new(),
            range_col: None,
            sort: vec![],
            required_eq: BTreeSet::new(),
        };
        let m = select_index(&cat, &t, &req, true).unwrap();
        assert!(!m.derived);
        assert_eq!(m.index.unwrap().name, "idx_existing");
    }

    #[test]
    fn range_must_follow_eq_prefix() {
        let (cat, t) = setup();
        let owner = t.column_id("owner").unwrap();
        let ts = t.column_id("timestamp").unwrap();
        let req = IndexRequest {
            token_col: None,
            eq_cols: [owner].into(),
            range_col: Some(ts),
            sort: vec![],
            required_eq: [owner].into(),
        };
        let m = select_index(&cat, &t, &req, false).unwrap();
        assert!(m.range_served);
        // range on a col not after the prefix: not served by primary
        let req2 = IndexRequest {
            token_col: None,
            eq_cols: BTreeSet::new(),
            range_col: Some(ts),
            sort: vec![],
            required_eq: BTreeSet::new(),
        };
        let m2 = select_index(&cat, &t, &req2, false).unwrap();
        assert!(!m2.range_served, "timestamp is second pk column");
    }

    #[test]
    fn residual_eq_allowed_when_not_required() {
        let (cat, t) = setup();
        let owner = t.column_id("owner").unwrap();
        let text = t.column_id("text").unwrap();
        let req = IndexRequest {
            token_col: None,
            eq_cols: [owner, text].into(),
            range_col: None,
            sort: vec![],
            required_eq: [owner].into(),
        };
        let m = select_index(&cat, &t, &req, false).unwrap();
        assert_eq!(m.served_eq, vec![owner]);
        assert_eq!(m.residual_eq(&req), vec![text]);
    }
}
