//! The value model: one enum over all Redis data types.

use crate::ds::{hll::Hll, stream::Stream, zset::ZSet};
use bytes::Bytes;
use std::collections::{HashMap, HashSet, VecDeque};

/// A value stored at a key.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Binary-safe string (also the storage for HyperLogLog-free strings).
    Str(Bytes),
    /// Doubly-ended list.
    List(VecDeque<Bytes>),
    /// Field → value hash.
    Hash(HashMap<Bytes, Bytes>),
    /// Unordered set of members.
    Set(HashSet<Bytes>),
    /// Sorted set backed by a skiplist with rank spans. Boxed, like
    /// `Stream`: the two largest variants would otherwise set the size of
    /// every keyspace entry, whatever its type.
    ZSet(Box<ZSet>),
    /// Append-only stream of id → field/value entries.
    Stream(Box<Stream>),
    /// Dense HyperLogLog (stored as its own type; `PF*` commands only).
    Hll(Hll),
}

impl Value {
    /// The `TYPE` command's name for this value.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::List(_) => "list",
            Value::Hash(_) => "hash",
            Value::Set(_) => "set",
            Value::ZSet(_) => "zset",
            Value::Stream(_) => "stream",
            // Redis stores HLLs as strings; we keep the visible type equal.
            Value::Hll(_) => "string",
        }
    }

    /// True when the container is empty and the key should be removed
    /// (Redis deletes empty aggregates).
    pub fn is_empty_container(&self) -> bool {
        match self {
            Value::Str(_) => false,
            Value::List(l) => l.is_empty(),
            Value::Hash(h) => h.is_empty(),
            Value::Set(s) => s.is_empty(),
            Value::ZSet(z) => z.is_empty(),
            // Streams persist even when all entries are deleted.
            Value::Stream(_) => false,
            Value::Hll(_) => false,
        }
    }

    /// Approximate heap footprint in bytes, used for `used_memory`
    /// accounting, snapshot scheduling (paper §4.2.3), and the BGSave
    /// copy-on-write model (paper §6.2).
    pub fn approx_size(&self) -> usize {
        const ENTRY_OVERHEAD: usize = 48; // allocator + struct overhead guess
        match self {
            Value::Str(b) => b.len() + ENTRY_OVERHEAD,
            Value::List(l) => l.iter().map(|b| b.len() + 16).sum::<usize>() + ENTRY_OVERHEAD,
            Value::Hash(h) => {
                h.iter().map(|(k, v)| k.len() + v.len() + 32).sum::<usize>() + ENTRY_OVERHEAD
            }
            Value::Set(s) => s.iter().map(|m| m.len() + 24).sum::<usize>() + ENTRY_OVERHEAD,
            Value::ZSet(z) => z.approx_size() + ENTRY_OVERHEAD,
            Value::Stream(s) => s.approx_size() + ENTRY_OVERHEAD,
            Value::Hll(h) => h.approx_size() + ENTRY_OVERHEAD,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every key of every type pays for the largest variant: an inline
    /// variant above 56 bytes fails here instead of growing each entry.
    #[test]
    fn value_and_entry_stay_small() {
        assert!(std::mem::size_of::<Value>() <= 56);
        assert!(std::mem::size_of::<crate::db::Entry>() <= 88);
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::Str(Bytes::new()).type_name(), "string");
        assert_eq!(Value::List(VecDeque::new()).type_name(), "list");
        assert_eq!(Value::Hash(HashMap::new()).type_name(), "hash");
        assert_eq!(Value::Set(HashSet::new()).type_name(), "set");
        assert_eq!(Value::ZSet(Box::default()).type_name(), "zset");
        assert_eq!(Value::Hll(Hll::new()).type_name(), "string");
    }

    #[test]
    fn empty_container_detection() {
        assert!(Value::List(VecDeque::new()).is_empty_container());
        assert!(Value::Hash(HashMap::new()).is_empty_container());
        assert!(Value::Set(HashSet::new()).is_empty_container());
        assert!(Value::ZSet(Box::default()).is_empty_container());
        assert!(!Value::Str(Bytes::new()).is_empty_container());
        let mut l = VecDeque::new();
        l.push_back(Bytes::from_static(b"x"));
        assert!(!Value::List(l).is_empty_container());
    }

    #[test]
    fn approx_size_grows_with_content() {
        let small = Value::Str(Bytes::from(vec![0u8; 10]));
        let big = Value::Str(Bytes::from(vec![0u8; 1000]));
        assert!(big.approx_size() > small.approx_size());
    }
}
