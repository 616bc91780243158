//! Table statistics for the *cost-based* baseline optimizer (§8.3).
//!
//! The scale-independent optimizer never consults these — that is the whole
//! point of the paper. They exist so the Figure-7 comparison can implement
//! the traditional objective ("minimize average operations given current
//! data") and demonstrate why it breaks under success.

use super::table::TableId;
use std::collections::BTreeMap;

/// Statistics for one table.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// Total rows currently in the table.
    pub row_count: u64,
    /// Average number of rows sharing one value of a column (group
    /// cardinality), keyed by lower-cased column name. E.g. average number
    /// of subscriptions per `target` user.
    pub avg_group_size: BTreeMap<String, f64>,
}

impl TableStats {
    pub fn with_rows(row_count: u64) -> Self {
        TableStats {
            row_count,
            avg_group_size: BTreeMap::new(),
        }
    }

    pub fn set_avg_group_size(&mut self, column: &str, avg: f64) {
        self.avg_group_size.insert(column.to_ascii_lowercase(), avg);
    }

    pub fn avg_group_size(&self, column: &str) -> Option<f64> {
        self.avg_group_size
            .get(&column.to_ascii_lowercase())
            .copied()
    }
}

/// Statistics for the whole database.
#[derive(Debug, Clone, Default)]
pub struct Statistics {
    tables: BTreeMap<TableId, TableStats>,
}

impl Statistics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set_table(&mut self, table: TableId, stats: TableStats) {
        self.tables.insert(table, stats);
    }

    pub fn table(&self, table: TableId) -> Option<&TableStats> {
        self.tables.get(&table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_sizes_case_insensitive() {
        let mut s = TableStats::with_rows(100);
        s.set_avg_group_size("Target", 126.0);
        assert_eq!(s.avg_group_size("target"), Some(126.0));
        assert_eq!(s.avg_group_size("owner"), None);
    }
}
