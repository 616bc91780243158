//! The namespace table both stores keep: ids handed out in creation order,
//! dense from 0, and a name → id map, under one ranked lock. A name gets
//! one id for the life of its store, and a reader resolves an id with one
//! read lock and one `Arc` clone.

use crate::op::NsId;
use piql_analysis::ordered::RwLock;
use piql_analysis::rank;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One store's namespaces, each a `T`, by id and by name.
pub(crate) struct NsTable<T> {
    table: RwLock<Table<T>>,
}

struct Table<T> {
    /// `by_id[i]` is `NsId(i)`: its name and the namespace.
    by_id: Vec<(Arc<str>, Arc<T>)>,
    ids: BTreeMap<Arc<str>, NsId>,
}

impl<T> NsTable<T> {
    /// An empty table; `lock` names its lock in lock-order reports.
    pub(crate) fn new(lock: &'static str) -> Self {
        let table = Table {
            by_id: Vec::new(),
            ids: BTreeMap::new(),
        };
        NsTable {
            table: RwLock::new(rank::KV_NAMESPACES, lock, table),
        }
    }

    /// The id `name` has, or the next one, given to the namespace `create`
    /// makes for it. `create` runs under the table's write lock, once per
    /// name, so whatever it announces is announced before the id is
    /// visible, and never twice.
    pub(crate) fn resolve(&self, name: &str, create: impl FnOnce(NsId) -> T) -> NsId {
        if let Some(&id) = self.table.read().ids.get(name) {
            return id;
        }
        let mut table = self.table.write();
        if let Some(&id) = table.ids.get(name) {
            return id;
        }
        let id = NsId(table.by_id.len() as u32);
        let name: Arc<str> = name.into();
        table.by_id.push((name.clone(), Arc::new(create(id))));
        table.ids.insert(name, id);
        id
    }

    /// Namespace `id`. An id this table never gave out panics.
    pub(crate) fn get(&self, id: NsId) -> Arc<T> {
        self.table.read().by_id[id.0 as usize].1.clone()
    }

    /// Every namespace and its name, in id order, held by the caller
    /// alone: what it does with them holds no lock of the table's.
    pub(crate) fn all(&self) -> Vec<(Arc<str>, Arc<T>)> {
        self.table.read().by_id.clone()
    }

    /// `f` over every namespace's id and name, in id order, with creation
    /// shut out until it returns.
    pub(crate) fn frozen(&self, f: impl FnOnce(&mut dyn Iterator<Item = (NsId, &str)>)) {
        let table = self.table.write();
        let mut walk =
            (table.by_id.iter().enumerate()).map(|(i, (name, _))| (NsId(i as u32), &**name));
        f(&mut walk);
    }

    /// Put `ns` in `id`'s place. A reader that loaded the old one keeps
    /// it; the next lookup finds `ns`.
    pub(crate) fn replace(&self, id: NsId, ns: T) {
        self.table.write().by_id[id.0 as usize].1 = Arc::new(ns);
    }
}
