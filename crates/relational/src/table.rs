//! A single table: schema + rows keyed by primary key.

use std::collections::BTreeMap;

use crate::error::RelError;
use crate::schema::TableSchema;
use crate::value::SqlValue;

/// A table with BTree-ordered rows (scan order = primary-key order,
/// which keeps every downstream dump and experiment deterministic).
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    rows: BTreeMap<i64, Vec<SqlValue>>,
}

impl Table {
    /// An empty table.
    pub fn new(schema: TableSchema) -> Table {
        Table {
            schema,
            rows: BTreeMap::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Validates and inserts a row. Returns the primary key.
    pub fn insert(&mut self, row: Vec<SqlValue>) -> Result<i64, RelError> {
        if row.len() != self.schema.columns.len() {
            return Err(RelError::Arity {
                table: self.schema.name.clone(),
                expected: self.schema.columns.len(),
                got: row.len(),
            });
        }
        for (value, column) in row.iter().zip(&self.schema.columns) {
            if value.is_null() {
                if !column.nullable {
                    return Err(RelError::NullViolation {
                        table: self.schema.name.clone(),
                        column: column.name.clone(),
                    });
                }
            } else if !value.fits(column.ty) {
                return Err(RelError::TypeMismatch {
                    table: self.schema.name.clone(),
                    column: column.name.clone(),
                    value: value.to_string(),
                });
            }
        }
        let pk = row[self.schema.pk_index()]
            .as_int()
            .expect("PK validated as non-null Int");
        if self.rows.contains_key(&pk) {
            return Err(RelError::DuplicateKey {
                table: self.schema.name.clone(),
                key: pk,
            });
        }
        self.rows.insert(pk, row);
        Ok(pk)
    }

    /// Row by primary key.
    pub fn get(&self, pk: i64) -> Option<&[SqlValue]> {
        self.rows.get(&pk).map(Vec::as_slice)
    }

    /// The key after the largest one (1 for an empty table): a commit
    /// takes its new row's id from the rows it counts, so no separate
    /// counter can drift from them.
    pub fn next_key(&self) -> i64 {
        self.rows.keys().next_back().map_or(1, |last| last + 1)
    }

    /// True if the primary key exists.
    pub fn contains_key(&self, pk: i64) -> bool {
        self.rows.contains_key(&pk)
    }

    /// Iterates `(pk, row)` in key order.
    pub fn scan(&self) -> impl Iterator<Item = (i64, &[SqlValue])> {
        self.rows.iter().map(|(k, v)| (*k, v.as_slice()))
    }

    /// Rows satisfying `pred`, in key order.
    pub fn select<'a>(
        &'a self,
        pred: impl Fn(&[SqlValue]) -> bool + 'a,
    ) -> impl Iterator<Item = (i64, &'a [SqlValue])> {
        self.scan().filter(move |(_, row)| pred(row))
    }

    /// A named cell from a row of *this* table.
    pub fn cell<'r>(&self, row: &'r [SqlValue], column: &str) -> Result<&'r SqlValue, RelError> {
        let idx = self
            .schema
            .column_index(column)
            .ok_or_else(|| RelError::NoSuchColumn {
                table: self.schema.name.clone(),
                column: column.to_string(),
            })?;
        Ok(&row[idx])
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::SqlType;

    fn table() -> Table {
        let schema = TableSchema::new(
            "people",
            vec![
                Column::required("id", SqlType::Int),
                Column::required("name", SqlType::Text),
                Column::nullable("age", SqlType::Int),
            ],
            "id",
            vec![],
        )
        .unwrap();
        Table::new(schema)
    }

    #[test]
    fn insert_and_get() {
        let mut t = table();
        let pk = t
            .insert(vec![1.into(), "ada".into(), SqlValue::Null])
            .unwrap();
        assert_eq!(pk, 1);
        assert_eq!(t.get(1).unwrap()[1].as_text(), Some("ada"));
        assert!(t.get(2).is_none());
    }

    #[test]
    fn rejects_bad_rows() {
        let mut t = table();
        assert!(matches!(
            t.insert(vec![1.into()]),
            Err(RelError::Arity { .. })
        ));
        assert!(matches!(
            t.insert(vec![1.into(), 2.into(), SqlValue::Null]),
            Err(RelError::TypeMismatch { .. })
        ));
        assert!(matches!(
            t.insert(vec![1.into(), SqlValue::Null, SqlValue::Null]),
            Err(RelError::NullViolation { .. })
        ));
        t.insert(vec![1.into(), "a".into(), SqlValue::Null])
            .unwrap();
        assert!(matches!(
            t.insert(vec![1.into(), "b".into(), SqlValue::Null]),
            Err(RelError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn scan_is_key_ordered() {
        let mut t = table();
        for id in [5, 1, 3] {
            t.insert(vec![id.into(), "x".into(), SqlValue::Null])
                .unwrap();
        }
        let keys: Vec<i64> = t.scan().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 3, 5]);
    }

    #[test]
    fn next_key_follows_the_largest_key() {
        let mut t = table();
        assert_eq!(t.next_key(), 1);
        for id in [5, 1, 3] {
            t.insert(vec![id.into(), "x".into(), SqlValue::Null])
                .unwrap();
        }
        assert_eq!(t.next_key(), 6);
    }

    #[test]
    fn select_filters() {
        let mut t = table();
        t.insert(vec![1.into(), "ada".into(), 30.into()]).unwrap();
        t.insert(vec![2.into(), "bob".into(), 20.into()]).unwrap();
        let old: Vec<i64> = t
            .select(|row| row[2].as_int().is_some_and(|a| a >= 25))
            .map(|(k, _)| k)
            .collect();
        assert_eq!(old, vec![1]);
    }

    #[test]
    fn cell_lookup_by_name() {
        let mut t = table();
        t.insert(vec![1.into(), "ada".into(), SqlValue::Null])
            .unwrap();
        let row = t.get(1).unwrap();
        assert_eq!(t.cell(row, "name").unwrap().as_text(), Some("ada"));
        assert!(t.cell(row, "ghost").is_err());
    }
}
