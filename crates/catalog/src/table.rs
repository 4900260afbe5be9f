//! Table and index metadata.

use crate::column::Column;
use crate::layout;

/// Identifier of a table within a [`crate::catalog::Catalog`] (stable
/// across additions; similar to a PostgreSQL OID).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Identifier of an index within a catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub u32);

/// A base table (or a materialized partition, which is just a table whose
/// `partition_of` records its parent, as in the paper's what-if tables).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub id: TableId,
    pub name: String,
    pub columns: Vec<Column>,
    /// Cardinality (`pg_class.reltuples`).
    pub row_count: u64,
    /// Heap pages (`pg_class.relpages`); derived from layout when built
    /// synthetically, measured when materialized.
    pub pages: u64,
    /// Positions (into `columns`) of the primary-key columns.
    pub primary_key: Vec<usize>,
    /// If this table is a vertical partition, the parent table's id.
    pub partition_of: Option<TableId>,
}

impl Table {
    /// Create a table, deriving the page count from the row shape.
    pub fn new(
        id: TableId,
        name: impl Into<String>,
        columns: Vec<Column>,
        row_count: u64,
    ) -> Self {
        let pages = layout::heap_pages(row_count, &columns);
        Table {
            id,
            name: name.into().to_ascii_lowercase(),
            columns,
            row_count,
            pages,
            primary_key: Vec::new(),
            partition_of: None,
        }
    }

    /// Builder: set the primary key by column names (panics on a bad name,
    /// which is a schema-definition bug, not a runtime condition).
    pub fn with_primary_key(mut self, names: &[&str]) -> Self {
        self.primary_key = names
            .iter()
            .map(|n| {
                self.column_index(n)
                    .unwrap_or_else(|| panic!("primary key column {n} not in table {}", self.name))
            })
            .collect();
        self
    }

    /// Position of a column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.columns.iter().position(|c| c.name == lower)
    }

    /// Column lookup by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.column_index(name).map(|i| &self.columns[i])
    }

    /// Recompute `pages` from the current shape and row count.
    pub fn recompute_pages(&mut self) {
        self.pages = layout::heap_pages(self.row_count, &self.columns);
    }
}

/// A B-tree index over a table.
#[derive(Debug, Clone, PartialEq)]
pub struct Index {
    pub id: IndexId,
    pub name: String,
    pub table: TableId,
    /// Positions of the key columns in the table, in key order.
    pub key_columns: Vec<usize>,
    pub unique: bool,
    /// Leaf pages (Equation 1 when hypothetical, measured when built).
    pub pages: u64,
    /// Tree height above the leaf level.
    pub height: u32,
    /// True for what-if indexes that exist only as statistics.
    pub hypothetical: bool,
}

impl Index {
    /// Define an index over `table`, sizing it with Equation 1.
    pub fn new(
        id: IndexId,
        name: impl Into<String>,
        table: &Table,
        key_column_names: &[&str],
    ) -> Option<Self> {
        let key_columns: Option<Vec<usize>> = key_column_names
            .iter()
            .map(|n| table.column_index(n))
            .collect();
        let key_columns = key_columns?;
        let cols: Vec<Column> = key_columns.iter().map(|&i| table.columns[i].clone()).collect();
        let pages = layout::index_leaf_pages(table.row_count, &cols);
        let entry = layout::INDEX_ROW_OVERHEAD as f64 + layout::avg_columns_size(&cols);
        let fanout = ((layout::usable_page_bytes() as f64) / entry).max(2.0) as u64;
        Some(Index {
            id,
            name: name.into().to_ascii_lowercase(),
            table: table.id,
            key_columns,
            unique: false,
            pages,
            height: layout::btree_height(pages, fanout),
            hypothetical: false,
        })
    }

    /// Builder: mark unique.
    pub fn unique(mut self) -> Self {
        self.unique = true;
        self
    }

    /// Builder: mark hypothetical (what-if).
    pub fn hypothetical(mut self) -> Self {
        self.hypothetical = true;
        self
    }

    /// Size in bytes (leaf level), as charged against the advisor's budget.
    pub fn size_bytes(&self) -> u64 {
        self.pages * layout::PAGE_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SqlType;

    fn t() -> Table {
        Table::new(
            TableId(1),
            "PhotoObj",
            vec![
                Column::new("objid", SqlType::Int8).not_null(),
                Column::new("ra", SqlType::Float8).not_null(),
                Column::new("dec", SqlType::Float8).not_null(),
                Column::new("type", SqlType::Int2).not_null(),
            ],
            100_000,
        )
        .with_primary_key(&["objid"])
    }

    #[test]
    fn table_name_lowercased() {
        assert_eq!(t().name, "photoobj");
    }

    #[test]
    fn column_lookup_case_insensitive() {
        assert_eq!(t().column_index("RA"), Some(1));
        assert_eq!(t().column_index("nope"), None);
    }

    #[test]
    fn primary_key_positions() {
        assert_eq!(t().primary_key, vec![0]);
    }

    #[test]
    #[should_panic(expected = "primary key column")]
    fn bad_primary_key_panics() {
        let _ = t().with_primary_key(&["missing"]);
    }

    #[test]
    fn pages_derived_from_layout() {
        let table = t();
        assert_eq!(
            table.pages,
            layout::heap_pages(table.row_count, &table.columns)
        );
        assert!(table.pages > 0);
    }

    #[test]
    fn index_over_missing_column_is_none() {
        let table = t();
        assert!(Index::new(IndexId(1), "i", &table, &["missing"]).is_none());
    }

    #[test]
    fn index_pages_match_equation1() {
        let table = t();
        let idx = Index::new(IndexId(1), "i_ra", &table, &["ra"]).unwrap();
        let cols = vec![table.columns[1].clone()];
        assert_eq!(idx.pages, layout::index_leaf_pages(table.row_count, &cols));
        assert!(idx.size_bytes() >= idx.pages * 8192);
    }

    #[test]
    fn multicolumn_index_keys_in_order() {
        let table = t();
        let idx = Index::new(IndexId(2), "i", &table, &["dec", "ra"]).unwrap();
        assert_eq!(idx.key_columns, vec![2, 1]);
    }
}
