//! Binding of middleware resources to physical storage locations.
//!
//! The managers (2PL baseline and GTM) schedule in terms of
//! [`ResourceId`]s — abstract object data members. The binding registry
//! maps each one to a `(table, row, column)` triple in the engine, so a
//! granted operation knows where to read and an SST knows where to write.

use crate::catalog::TableId;
use crate::row::RowId;
use pstm_types::{MemberId, ObjectId, PstmError, PstmResult, ResourceId};

/// Physical location of one object data member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Binding {
    /// Table holding the object's row.
    pub table: TableId,
    /// The object's row.
    pub row: RowId,
    /// Column backing the data member.
    pub column: usize,
}

/// Registry of resource → storage bindings, in ascending resource order.
/// A resource's rank in that order is its *slot*: one lookup
/// ([`BindingRegistry::slot`]) yields it, and a manager keeps its
/// per-resource state in a `Vec` by slot, iterated in resource order.
#[derive(Clone, Debug, Default)]
pub struct BindingRegistry {
    entries: Vec<(ResourceId, Binding)>,
    next_object: u32,
}

impl BindingRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        BindingRegistry::default()
    }

    /// Registers a binding for an explicit resource id.
    pub fn bind(&mut self, resource: ResourceId, binding: Binding) -> PstmResult<()> {
        let Err(at) = self.entries.binary_search_by_key(&resource, |e| e.0) else {
            return Err(PstmError::AlreadyExists(format!("binding for {resource}")));
        };
        self.next_object = self.next_object.max(resource.object.0 + 1);
        self.entries.insert(at, (resource, binding));
        Ok(())
    }

    /// Allocates a fresh object id and binds its members to consecutive
    /// columns of `row`, starting at `first_column`. Returns the new
    /// object id.
    pub fn bind_object(
        &mut self,
        table: TableId,
        row: RowId,
        members: &[(MemberId, usize)],
    ) -> PstmResult<ObjectId> {
        let object = ObjectId(self.next_object);
        for (member, column) in members {
            self.bind(ResourceId::new(object, *member), Binding { table, row, column: *column })?;
        }
        self.next_object = object.0 + 1;
        Ok(object)
    }

    /// The slot of `resource`, if it is bound.
    #[must_use]
    pub fn slot(&self, resource: ResourceId) -> Option<usize> {
        self.entries.binary_search_by_key(&resource, |e| e.0).ok()
    }

    /// The resource in `slot` and its binding.
    ///
    /// # Panics
    /// If `slot` is not below [`BindingRegistry::len`].
    #[must_use]
    pub fn at(&self, slot: usize) -> (ResourceId, Binding) {
        self.entries[slot]
    }

    /// Looks up the binding for `resource`.
    pub fn resolve(&self, resource: ResourceId) -> PstmResult<Binding> {
        match self.slot(resource) {
            Some(slot) => Ok(self.entries[slot].1),
            None => Err(PstmError::NotFound(format!("binding for {resource}"))),
        }
    }

    /// All bound resources, in id (= slot) order.
    pub fn resources(&self) -> impl Iterator<Item = ResourceId> + '_ {
        self.entries.iter().map(|e| e.0)
    }

    /// Number of bound resources.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_object_allocates_sequential_ids() {
        let mut reg = BindingRegistry::new();
        let t = TableId(0);
        let o1 =
            reg.bind_object(t, RowId::new(0, 0), &[(MemberId(0), 1), (MemberId(1), 2)]).unwrap();
        let o2 = reg.bind_object(t, RowId::new(0, 1), &[(MemberId(0), 1)]).unwrap();
        assert_eq!(o1, ObjectId(0));
        assert_eq!(o2, ObjectId(1));
        assert_eq!(reg.len(), 3);

        let b = reg.resolve(ResourceId::new(o1, MemberId(1))).unwrap();
        assert_eq!(b.column, 2);
        assert_eq!(b.row, RowId::new(0, 0));
        // Slots rank the resources.
        let members = [(o1, 0), (o1, 1), (o2, 0)].map(|(o, m)| ResourceId::new(o, MemberId(m)));
        for (slot, resource) in members.into_iter().enumerate() {
            assert_eq!(reg.slot(resource), Some(slot));
            assert_eq!(reg.at(slot).0, resource);
        }
    }

    #[test]
    fn explicit_bind_conflicts_detected() {
        let mut reg = BindingRegistry::new();
        let r = ResourceId::atomic(ObjectId(5));
        let b = Binding { table: TableId(0), row: RowId::new(0, 0), column: 0 };
        reg.bind(r, b).unwrap();
        assert!(matches!(reg.bind(r, b).unwrap_err(), PstmError::AlreadyExists(_)));
        // Fresh allocations skip past explicitly-used ids.
        let o = reg.bind_object(TableId(0), RowId::new(0, 1), &[(MemberId(0), 0)]).unwrap();
        assert!(o.0 > 5);
    }

    #[test]
    fn unresolved_binding_errors() {
        let reg = BindingRegistry::new();
        assert!(reg.resolve(ResourceId::atomic(ObjectId(0))).is_err());
        assert!(reg.is_empty());
    }
}
