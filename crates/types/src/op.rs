//! Transaction operations.

use crate::{ItemId, Value};

/// The kind of an operation: read or write.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// Shared-mode access returning the item's current value.
    Read,
    /// Exclusive-mode access installing a new value.
    Write,
}

impl OpKind {
    /// True for `Write`.
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, OpKind::Write)
    }
}

/// One operation in a transaction program.
///
/// Per the §1.1 system model, a transaction may *read* any item present at
/// its originating site (primary copy or replica) but may only *write*
/// items whose primary copy lives at that site.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Op {
    /// The logical item accessed.
    pub item: ItemId,
    /// Read or write.
    pub kind: OpKind,
    /// Value installed by a write; ignored for reads.
    pub value: Value,
}

impl Op {
    /// Build a read operation.
    pub fn read(item: ItemId) -> Self {
        Op { item, kind: OpKind::Read, value: Value::Initial }
    }

    /// Build a write operation installing `value`.
    pub fn write(item: ItemId, value: impl Into<Value>) -> Self {
        Op { item, kind: OpKind::Write, value: value.into() }
    }

    /// True if this is a write.
    #[inline]
    pub fn is_write(&self) -> bool {
        self.kind.is_write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let r = Op::read(ItemId(3));
        assert_eq!(r.kind, OpKind::Read);
        assert!(!r.is_write());

        let w = Op::write(ItemId(4), 99);
        assert!(w.is_write());
        assert_eq!(w.value.as_int(), Some(99));
    }
}
