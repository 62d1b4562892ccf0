//! The table catalog: schemas and constraints.
//!
//! The catalog is pure metadata (serializable for checkpoints); the engine
//! pairs each entry with its physical [`crate::heap::HeapFile`].

use crate::constraint::Constraint;
use crate::schema::TableSchema;
use pstm_types::{PstmError, PstmResult};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a table within one database.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TableId(pub u32);

impl fmt::Debug for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tbl{}", self.0)
    }
}

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tbl{}", self.0)
    }
}

/// Metadata of one table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TableMeta {
    /// The schema.
    pub schema: TableSchema,
    /// CHECK constraints enforced on every write.
    pub constraints: Vec<Constraint>,
}

/// The catalog: an ordered collection of table metadata with name lookup.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    tables: Vec<TableMeta>,
    #[serde(skip)]
    by_name: HashMap<String, TableId>,
}

impl Catalog {
    /// An empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a table; fails if the name is taken or a constraint
    /// references a column beyond the schema arity.
    pub fn create_table(
        &mut self,
        schema: TableSchema,
        constraints: Vec<Constraint>,
    ) -> PstmResult<TableId> {
        if self.by_name.contains_key(&schema.name) {
            return Err(PstmError::AlreadyExists(format!("table {}", schema.name)));
        }
        for c in &constraints {
            if c.column >= schema.arity() {
                return Err(PstmError::internal(format!(
                    "constraint {} references column #{} beyond arity {} of table {}",
                    c.name,
                    c.column,
                    schema.arity(),
                    schema.name
                )));
            }
        }
        let id = TableId(self.tables.len() as u32);
        self.by_name.insert(schema.name.clone(), id);
        self.tables.push(TableMeta { schema, constraints });
        Ok(id)
    }

    /// Metadata of `table`.
    pub fn meta(&self, table: TableId) -> PstmResult<&TableMeta> {
        self.tables
            .get(table.0 as usize)
            .ok_or_else(|| PstmError::NotFound(format!("table {table}")))
    }

    /// Looks a table up by name.
    pub fn table_id(&self, name: &str) -> PstmResult<TableId> {
        self.by_name.get(name).copied().ok_or_else(|| PstmError::NotFound(format!("table {name}")))
    }

    /// Number of tables.
    #[must_use]
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Iterates `(id, meta)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TableId, &TableMeta)> {
        self.tables.iter().enumerate().map(|(i, m)| (TableId(i as u32), m))
    }

    /// Rebuilds the name lookup after deserialization (serde skips it).
    pub fn rebuild_lookup(&mut self) {
        self.by_name = self
            .tables
            .iter()
            .enumerate()
            .map(|(i, m)| (m.schema.name.clone(), TableId(i as u32)))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use pstm_types::ValueKind;

    fn flight_schema() -> TableSchema {
        TableSchema::new(
            "Flight",
            vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("free", ValueKind::Int)],
        )
        .unwrap()
    }

    #[test]
    fn create_and_lookup() {
        let mut c = Catalog::new();
        let id =
            c.create_table(flight_schema(), vec![Constraint::non_negative("free>=0", 1)]).unwrap();
        assert_eq!(c.table_id("Flight").unwrap(), id);
        assert_eq!(c.meta(id).unwrap().schema.name, "Flight");
        assert_eq!(c.table_count(), 1);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = Catalog::new();
        c.create_table(flight_schema(), vec![]).unwrap();
        assert!(matches!(
            c.create_table(flight_schema(), vec![]).unwrap_err(),
            PstmError::AlreadyExists(_)
        ));
    }

    #[test]
    fn constraint_column_validated() {
        let mut c = Catalog::new();
        let err =
            c.create_table(flight_schema(), vec![Constraint::non_negative("bad", 9)]).unwrap_err();
        assert!(matches!(err, PstmError::Internal(_)));
    }

    #[test]
    fn serde_round_trip_rebuilds_lookup() {
        let mut c = Catalog::new();
        c.create_table(flight_schema(), vec![]).unwrap();
        let json = serde_json::to_string(&c).unwrap();
        let mut back: Catalog = serde_json::from_str(&json).unwrap();
        assert!(back.table_id("Flight").is_err(), "lookup not serialized");
        back.rebuild_lookup();
        assert_eq!(back.table_id("Flight").unwrap(), TableId(0));
        assert_eq!(back.tables, c.tables);
    }
}
