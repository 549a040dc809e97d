//! The keyspace: key → value entries with expiration, per-slot key counts
//! for cluster migration, per-key versions for `WATCH`, and SCAN support.

use crate::slots::{key_hash_slot, NUM_SLOTS};
use crate::value::Value;
use bytes::Bytes;
use std::collections::hash_map::Entry as MapEntry;
use std::collections::{HashMap, HashSet};

/// One keyspace entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The stored value.
    pub value: Value,
    /// Absolute expiry in engine milliseconds, if any.
    pub expire_at: Option<u64>,
    /// Modification version (drives `WATCH`), drawn from the keyspace's
    /// monotonic counter.
    version: u64,
    /// Index of this key in the dense key list.
    pos: usize,
}

/// The keyspace of a single shard.
///
/// `entries` is the only per-key hash table: a new key costs one hash
/// insert. Besides it the keyspace maintains:
/// * a dense key vector for O(1) `RANDOMKEY` and cursor-based `SCAN` (each
///   entry records its own position, so removal is a swap-remove);
/// * per-slot key counts for `CLUSTER COUNTKEYSINSLOT`; listing or deleting
///   a slot's keys (migration, paper §5.2) scans the dense key vector;
/// * an index of keys carrying a TTL, for the active expiry cycle.
///
/// **WATCH versions.** A present key's version lives in its entry. An
/// absent key reads `removed_floor`, which every removal (and flush) raises
/// to a fresh counter value — so a watched key that is created, deleted, or
/// deleted and re-created in between never reads the same version twice.
/// The one imprecision: removing *any* key changes what every absent key
/// reads, so a transaction that watched an absent key may abort spuriously.
#[derive(Debug, Clone)]
pub struct Db {
    entries: HashMap<Bytes, Entry>,
    key_list: Vec<Bytes>,
    slot_counts: Vec<u32>,
    expires: HashSet<Bytes>,
    version_counter: u64,
    removed_floor: u64,
    /// Count of state-changing operations since creation (Redis's `dirty`).
    pub dirty: u64,
}

impl Default for Db {
    fn default() -> Self {
        Db::new()
    }
}

impl Db {
    /// Creates an empty keyspace.
    pub fn new() -> Db {
        Db::with_capacity(0)
    }

    /// Creates an empty keyspace with room for `keys` keys.
    pub fn with_capacity(keys: usize) -> Db {
        Db {
            entries: HashMap::with_capacity(keys),
            key_list: Vec::with_capacity(keys),
            slot_counts: vec![0; NUM_SLOTS as usize],
            expires: HashSet::new(),
            version_counter: 0,
            removed_floor: 0,
            dirty: 0,
        }
    }

    /// Makes room for `additional` more keys without further table growth.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
        self.key_list.reserve(additional);
    }

    /// Number of live keys (including logically expired but unreaped ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Is the entry at `key` logically expired at `now_ms`?
    fn is_expired(&self, key: &[u8], now_ms: u64) -> bool {
        self.entries
            .get(key)
            .and_then(|e| e.expire_at)
            .is_some_and(|t| t <= now_ms)
    }

    /// Immutable lookup; logically expired keys read as absent.
    pub fn lookup(&self, key: &[u8], now_ms: u64) -> Option<&Value> {
        let e = self.entries.get(key)?;
        if e.expire_at.is_some_and(|t| t <= now_ms) {
            None
        } else {
            Some(&e.value)
        }
    }

    /// Mutable lookup; logically expired keys read as absent. The caller is
    /// responsible for calling [`Db::signal_modified`] if it mutates.
    pub fn lookup_mut(&mut self, key: &[u8], now_ms: u64) -> Option<&mut Value> {
        let e = self.entries.get_mut(key)?;
        if e.expire_at.is_some_and(|t| t <= now_ms) {
            None
        } else {
            Some(&mut e.value)
        }
    }

    /// If `key` is logically expired, removes it and returns `true`.
    ///
    /// The primary calls this on access and turns the reap into an explicit
    /// `DEL` effect for the replication stream; replicas never call it and
    /// instead wait for the primary's `DEL` (paper §2.1 determinism rule).
    pub fn reap_if_expired(&mut self, key: &[u8], now_ms: u64) -> bool {
        if self.is_expired(key, now_ms) {
            self.remove(key);
            true
        } else {
            false
        }
    }

    /// The next modification version, counting one state change.
    fn bump(&mut self) -> u64 {
        self.version_counter += 1;
        self.dirty += 1;
        self.version_counter
    }

    /// Inserts or replaces the value at `key` under a fresh version, with
    /// one hash probe either way. `ttl` is `None` to keep an existing key's
    /// expiry, `Some(at)` to set (or, with `Some(None)`, clear) it.
    fn upsert(&mut self, key: Bytes, value: Value, ttl: Option<Option<u64>>) {
        self.version_counter += 1;
        let version = self.version_counter;
        match self.entries.entry(key) {
            MapEntry::Occupied(mut slot) => {
                if let Some(expire_at) = ttl {
                    match (slot.get().expire_at.is_some(), expire_at.is_some()) {
                        (false, true) => {
                            self.expires.insert(slot.key().clone());
                        }
                        (true, false) => {
                            self.expires.remove(slot.key());
                        }
                        _ => {}
                    }
                    slot.get_mut().expire_at = expire_at;
                }
                let e = slot.get_mut();
                e.value = value;
                e.version = version;
            }
            MapEntry::Vacant(slot) => {
                let key = slot.key().clone();
                let expire_at = ttl.flatten();
                self.slot_counts[key_hash_slot(&key) as usize] += 1;
                if expire_at.is_some() {
                    self.expires.insert(key.clone());
                }
                slot.insert(Entry {
                    value,
                    expire_at,
                    version,
                    pos: self.key_list.len(),
                });
                self.key_list.push(key);
            }
        }
    }

    /// Inserts or replaces the value at `key`, clearing any TTL (Redis `SET`
    /// semantics; use [`Db::set_expiry`] afterwards to retain one).
    pub fn set_value(&mut self, key: Bytes, value: Value) {
        self.dirty += 1;
        self.upsert(key, value, Some(None));
    }

    /// Inserts a value preserving an existing TTL if the key already exists
    /// (the `KEEPTTL` path and in-place aggregate creation).
    pub fn set_value_keep_ttl(&mut self, key: Bytes, value: Value) {
        self.dirty += 1;
        self.upsert(key, value, None);
    }

    /// Inserts one decoded snapshot entry with its TTL: the load path's
    /// single hash insert. A load is not a client write, so `dirty` stays;
    /// the version is fresh so the key never reads as unmodified. A key the
    /// image holds twice keeps its last occurrence, like a replayed `SET`.
    pub fn insert_loaded(&mut self, key: Bytes, value: Value, expire_at: Option<u64>) {
        self.upsert(key, value, Some(expire_at));
    }

    /// Indexes `entry` under `key`, which must not be present. No version
    /// or `dirty` change: this is how whole entries move between keyspaces.
    fn adopt(&mut self, key: Bytes, mut entry: Entry) {
        self.slot_counts[key_hash_slot(&key) as usize] += 1;
        if entry.expire_at.is_some() {
            self.expires.insert(key.clone());
        }
        entry.pos = self.key_list.len();
        self.key_list.push(key.clone());
        self.entries.insert(key, entry);
    }

    /// Fetches or creates an aggregate value via `default`, returning a
    /// mutable reference. The caller must [`Db::signal_modified`] on change.
    pub fn entry_or_insert_with(
        &mut self,
        key: &Bytes,
        now_ms: u64,
        default: impl FnOnce() -> Value,
    ) -> &mut Value {
        if self.is_expired(key, now_ms) {
            self.remove(key);
        }
        if !self.entries.contains_key(key) {
            self.version_counter += 1;
            let entry = Entry {
                value: default(),
                expire_at: None,
                version: self.version_counter,
                pos: 0,
            };
            self.adopt(key.clone(), entry);
        }
        &mut self.entries.get_mut(key).expect("inserted above").value
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: &[u8]) -> Option<Value> {
        let entry = self.entries.remove(key)?;
        self.key_list.swap_remove(entry.pos);
        if let Some(moved) = self.key_list.get(entry.pos) {
            if let Some(e) = self.entries.get_mut(moved) {
                e.pos = entry.pos;
            }
        }
        self.slot_counts[key_hash_slot(key) as usize] -= 1;
        if entry.expire_at.is_some() {
            self.expires.remove(key);
        }
        self.removed_floor = self.bump();
        Some(entry.value)
    }

    /// Removes the key if its container value became empty (Redis deletes
    /// empty aggregates).
    pub fn remove_if_empty(&mut self, key: &[u8]) {
        if self
            .entries
            .get(key)
            .is_some_and(|e| e.value.is_empty_container())
        {
            self.remove(key);
        }
    }

    /// Sets or clears the expiry of an existing key. Returns `false` when
    /// the key does not exist.
    pub fn set_expiry(&mut self, key: &[u8], expire_at: Option<u64>) -> bool {
        let Some(e) = self.entries.get_mut(key) else {
            return false;
        };
        self.version_counter += 1;
        self.dirty += 1;
        e.version = self.version_counter;
        match (e.expire_at.is_some(), expire_at.is_some()) {
            // Own the key without re-allocating: clone the listed instance.
            (false, true) => {
                self.expires.insert(self.key_list[e.pos].clone());
            }
            (true, false) => {
                self.expires.remove(key);
            }
            _ => {}
        }
        e.expire_at = expire_at;
        true
    }

    /// Expiry timestamp of a live key.
    pub fn expiry(&self, key: &[u8]) -> Option<u64> {
        self.entries.get(key).and_then(|e| e.expire_at)
    }

    /// Does the key exist (and is not logically expired)?
    pub fn exists(&self, key: &[u8], now_ms: u64) -> bool {
        self.lookup(key, now_ms).is_some()
    }

    /// Samples up to `limit` logically-expired keys (the active expire
    /// cycle's input).
    pub fn expired_keys(&self, now_ms: u64, limit: usize) -> Vec<Bytes> {
        self.expires
            .iter()
            .filter(|k| self.is_expired(k, now_ms))
            .take(limit)
            .cloned()
            .collect()
    }

    /// Bumps the modification version of `key` (drives `WATCH`). Signalled
    /// for a key that is absent, it raises the removed-key floor instead.
    pub fn signal_modified(&mut self, key: &[u8]) {
        let version = self.bump();
        match self.entries.get_mut(key) {
            Some(e) => e.version = version,
            None => self.removed_floor = version,
        }
    }

    /// Current modification version of `key`: its entry's when present, the
    /// removed-key floor when absent.
    pub fn version(&self, key: &[u8]) -> u64 {
        self.entries
            .get(key)
            .map_or(self.removed_floor, |e| e.version)
    }

    /// A uniformly random live key, using the caller's RNG index.
    pub fn random_key(&self, idx: usize) -> Option<&Bytes> {
        if self.key_list.is_empty() {
            None
        } else {
            Some(&self.key_list[idx % self.key_list.len()])
        }
    }

    /// Cursor-based iteration: returns up to `count` keys starting at
    /// `cursor` plus the next cursor (0 = done). Guarantees are the weak
    /// SCAN guarantees: concurrent mutation may skip or repeat keys.
    pub fn scan(&self, cursor: u64, count: usize, pattern: Option<&[u8]>) -> (u64, Vec<Bytes>) {
        let mut out = Vec::new();
        let mut i = cursor as usize;
        while i < self.key_list.len() && out.len() < count {
            let key = &self.key_list[i];
            if pattern.is_none_or(|p| glob_match(p, key)) {
                out.push(key.clone());
            }
            i += 1;
        }
        let next = if i >= self.key_list.len() {
            0
        } else {
            i as u64
        };
        (next, out)
    }

    /// All keys matching a glob pattern (the `KEYS` command).
    pub fn keys_matching(&self, pattern: &[u8]) -> Vec<Bytes> {
        self.key_list
            .iter()
            .filter(|k| glob_match(pattern, k))
            .cloned()
            .collect()
    }

    /// Keys currently mapped to a cluster slot: a scan of the dense key
    /// list that stops once the slot's counted keys are found (migration
    /// and `CLUSTER GETKEYSINSLOT` only — never on the request path).
    pub fn keys_in_slot(&self, slot: u16) -> Vec<Bytes> {
        let want = self.count_keys_in_slot(slot);
        self.key_list
            .iter()
            .filter(|k| key_hash_slot(k) == slot)
            .take(want)
            .cloned()
            .collect()
    }

    /// Number of keys in a cluster slot.
    pub fn count_keys_in_slot(&self, slot: u16) -> usize {
        self.slot_counts
            .get(slot as usize)
            .map_or(0, |n| *n as usize)
    }

    /// Deletes every key in a slot (migration abandon/cleanup path).
    /// Returns how many were removed.
    pub fn delete_slot(&mut self, slot: u16) -> usize {
        let keys = self.keys_in_slot(slot);
        for k in &keys {
            self.remove(k);
        }
        keys.len()
    }

    /// Drops the entire keyspace. Raising the removed-key floor makes every
    /// flushed key read as modified.
    pub fn flush(&mut self) {
        self.entries.clear();
        self.key_list.clear();
        self.slot_counts.fill(0);
        self.expires.clear();
        self.removed_floor = self.bump();
    }

    /// Iterates all live entries (snapshot serialization).
    pub fn iter_entries(&self) -> impl Iterator<Item = (&Bytes, &Entry)> {
        self.entries.iter()
    }

    /// Moves every entry of `other` into this keyspace, TTLs and versions
    /// included, one hash insert each. The restore merge feeds disjoint
    /// partitions; a key present on both sides keeps `other`'s entry, so
    /// the call is total.
    pub fn absorb(&mut self, other: Db) {
        self.reserve(other.entries.len());
        let base = self.key_list.len();
        let mut overwritten = Vec::new();
        for (key, mut entry) in other.entries {
            entry.pos += base;
            if let Some(old) = self.entries.insert(key, entry) {
                overwritten.push(old);
            }
        }
        self.key_list.extend(other.key_list);
        for (mine, theirs) in self.slot_counts.iter_mut().zip(&other.slot_counts) {
            *mine += theirs;
        }
        self.expires.extend(other.expires);
        self.version_counter = self.version_counter.max(other.version_counter);
        self.removed_floor = self.removed_floor.max(other.removed_floor);
        // Each overwritten entry left a second listing of its key (and a
        // second count) behind; unlist from the back so the positions of
        // the ones still to go stay valid.
        overwritten.sort_unstable_by_key(|old| std::cmp::Reverse(old.pos));
        for old in overwritten {
            let key = self.key_list.swap_remove(old.pos);
            if let Some(moved) = self.key_list.get(old.pos) {
                if let Some(e) = self.entries.get_mut(moved) {
                    e.pos = old.pos;
                }
            }
            self.slot_counts[key_hash_slot(&key) as usize] -= 1;
            if old.expire_at.is_some() && self.expiry(&key).is_none() {
                self.expires.remove(&key);
            }
        }
    }

    /// Recomputes the approximate dataset footprint in bytes.
    pub fn used_memory(&self) -> usize {
        self.entries
            .iter()
            .map(|(k, e)| k.len() + e.value.approx_size() + 16)
            .sum()
    }
}

/// Redis-style glob matching: `*`, `?`, `[abc]`, `[^abc]`, `[a-z]`, and `\`
/// escapes.
pub fn glob_match(pattern: &[u8], text: &[u8]) -> bool {
    glob_inner(pattern, text)
}

fn glob_inner(mut p: &[u8], mut t: &[u8]) -> bool {
    while let Some(&pc) = p.first() {
        match pc {
            b'*' => {
                // Collapse consecutive stars.
                while p.first() == Some(&b'*') {
                    p = &p[1..];
                }
                if p.is_empty() {
                    return true;
                }
                for i in 0..=t.len() {
                    if glob_inner(p, &t[i..]) {
                        return true;
                    }
                }
                return false;
            }
            b'?' => {
                if t.is_empty() {
                    return false;
                }
                p = &p[1..];
                t = &t[1..];
            }
            b'[' => {
                if t.is_empty() {
                    return false;
                }
                let mut i = 1;
                let negate = p.get(1) == Some(&b'^');
                if negate {
                    i += 1;
                }
                let mut matched = false;
                let c = t[0];
                while i < p.len() && p[i] != b']' {
                    if p[i] == b'\\' && i + 1 < p.len() {
                        if p[i + 1] == c {
                            matched = true;
                        }
                        i += 2;
                    } else if i + 2 < p.len() && p[i + 1] == b'-' && p[i + 2] != b']' {
                        let (lo, hi) = (p[i].min(p[i + 2]), p[i].max(p[i + 2]));
                        if (lo..=hi).contains(&c) {
                            matched = true;
                        }
                        i += 3;
                    } else {
                        if p[i] == c {
                            matched = true;
                        }
                        i += 1;
                    }
                }
                if i >= p.len() {
                    return false; // unterminated class
                }
                if matched == negate {
                    return false;
                }
                p = &p[i + 1..];
                t = &t[1..];
            }
            b'\\' if p.len() > 1 => {
                if t.first() != Some(&p[1]) {
                    return false;
                }
                p = &p[2..];
                t = &t[1..];
            }
            _ => {
                if t.first() != Some(&pc) {
                    return false;
                }
                p = &p[1..];
                t = &t[1..];
            }
        }
    }
    t.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn sval(s: &str) -> Value {
        Value::Str(b(s))
    }

    #[test]
    fn set_get_remove() {
        let mut db = Db::new();
        db.set_value(b("k"), sval("v"));
        assert_eq!(db.lookup(b"k", 0), Some(&sval("v")));
        assert_eq!(db.len(), 1);
        assert_eq!(db.remove(b"k"), Some(sval("v")));
        assert_eq!(db.lookup(b"k", 0), None);
        assert!(db.is_empty());
    }

    #[test]
    fn expiry_hides_values() {
        let mut db = Db::new();
        db.set_value(b("k"), sval("v"));
        assert!(db.set_expiry(b"k", Some(100)));
        assert!(db.exists(b"k", 99));
        assert!(!db.exists(b"k", 100));
        assert!(db.lookup(b"k", 100).is_none());
        // Entry is still physically present until reaped.
        assert_eq!(db.len(), 1);
        assert!(db.reap_if_expired(b"k", 100));
        assert_eq!(db.len(), 0);
        assert!(!db.reap_if_expired(b"k", 100));
    }

    #[test]
    fn set_value_clears_ttl_keep_ttl_preserves() {
        let mut db = Db::new();
        db.set_value(b("k"), sval("v"));
        db.set_expiry(b"k", Some(100));
        db.set_value(b("k"), sval("v2"));
        assert_eq!(db.expiry(b"k"), None);

        db.set_expiry(b"k", Some(100));
        db.set_value_keep_ttl(b("k"), sval("v3"));
        assert_eq!(db.expiry(b"k"), Some(100));
    }

    /// Every derived structure agrees with `entries`.
    fn assert_consistent(db: &Db) {
        assert_eq!(db.key_list.len(), db.entries.len());
        for (key, e) in &db.entries {
            assert_eq!(&db.key_list[e.pos], key, "listed position of {key:?}");
            assert_eq!(db.expires.contains(key), e.expire_at.is_some());
            assert!(e.version <= db.version_counter);
        }
        assert_eq!(
            db.expires.len(),
            db.expired_keys(u64::MAX, usize::MAX).len()
        );
        let mut counts = vec![0u32; NUM_SLOTS as usize];
        for key in &db.key_list {
            counts[key_hash_slot(key) as usize] += 1;
        }
        assert_eq!(db.slot_counts, counts);
        assert!(db.removed_floor <= db.version_counter);
    }

    #[test]
    fn absorb_moves_entries_with_ttls() {
        let mut a = Db::new();
        a.set_value(b("keep"), sval("old"));
        a.set_value(b("clash"), sval("mine"));
        a.set_expiry(b"clash", Some(5));
        a.set_value(b("clash2"), sval("mine"));
        let mut other = Db::new();
        other.set_value(b("clash"), sval("theirs"));
        other.set_value(b("ttl"), sval("v"));
        other.set_expiry(b"ttl", Some(777));
        other.set_value(b("clash2"), sval("theirs"));
        other.set_expiry(b"clash2", Some(9));
        let ttl_version = other.version(b"ttl");
        a.absorb(other);
        assert_eq!(a.lookup(b"keep", 0), Some(&sval("old")));
        assert_eq!(a.lookup(b"clash", 0), Some(&sval("theirs")));
        assert_eq!(a.expiry(b"clash"), None);
        assert_eq!(a.expiry(b"clash2"), Some(9));
        assert_eq!(a.lookup(b"ttl", 0), Some(&sval("v")));
        assert_eq!(a.expiry(b"ttl"), Some(777));
        assert_eq!(a.version(b"ttl"), ttl_version, "entries move whole");
        assert_eq!(a.len(), 4);
        assert_consistent(&a);

        let mut c = Db::new();
        c.set_value(b("z"), sval("1"));
        let mut d = Db::new();
        d.absorb(c);
        assert_eq!(d.lookup(b"z", 0), Some(&sval("1")));
        assert_consistent(&d);
    }

    #[test]
    fn absorbing_disjoint_slot_partitions_rebuilds_the_keyspace() {
        let n = 4usize;
        let mut whole = Db::new();
        let mut parts: Vec<Db> = (0..n).map(|_| Db::new()).collect();
        for i in 0..500 {
            let k = b(&format!("k{i}"));
            let expire_at = (i % 3 == 0).then_some(1_000 + i);
            let p = key_hash_slot(&k) as usize * n / NUM_SLOTS as usize;
            parts[p].insert_loaded(k.clone(), sval(&format!("v{i}")), expire_at);
            whole.insert_loaded(k, sval(&format!("v{i}")), expire_at);
        }
        assert!(parts.iter().all(|p| !p.is_empty()));
        let mut parts = parts.into_iter();
        let mut merged = parts.next().unwrap();
        for p in parts {
            merged.absorb(p);
        }
        assert_consistent(&merged);
        assert_eq!(merged.len(), whole.len());
        for (key, e) in whole.iter_entries() {
            assert_eq!(merged.lookup(key, 0), Some(&e.value));
            assert_eq!(merged.expiry(key), e.expire_at);
        }
    }

    #[test]
    fn insert_loaded_is_one_insert_and_last_occurrence_wins() {
        let mut db = Db::with_capacity(8);
        db.insert_loaded(b("a"), sval("1"), None);
        db.insert_loaded(b("t"), sval("2"), Some(50));
        assert_eq!(db.dirty, 0, "a load is not a client write");
        assert!(db.version(b"a") > 0);
        assert_eq!(db.expiry(b"t"), Some(50));
        // A hostile image may hold a key twice.
        db.insert_loaded(b("t"), sval("3"), None);
        db.insert_loaded(b("a"), sval("4"), Some(60));
        assert_eq!(db.lookup(b"t", 0), Some(&sval("3")));
        assert_eq!(db.expiry(b"t"), None);
        assert_eq!(db.expiry(b"a"), Some(60));
        assert_eq!(db.len(), 2);
        assert_consistent(&db);
    }

    #[test]
    fn churn_leaves_no_per_key_state_behind() {
        // A session-key workload: every key is distinct, lives briefly and
        // goes away by DEL, by expiry, or by FLUSHALL. Nothing per key may
        // outlive the key.
        use crate::cmd;
        use crate::exec::{Engine, Role, SessionState};
        let mut e = Engine::new(Role::Primary);
        e.set_time_ms(1_000);
        let mut s = SessionState::new();
        for i in 0..50_000 {
            let key = format!("session:{i}");
            match i % 3 {
                0 => {
                    e.execute(&mut s, &cmd(["SET", &key, "v"]));
                    e.execute(&mut s, &cmd(["DEL", &key]));
                }
                1 => {
                    e.execute(&mut s, &cmd(["SET", &key, "v", "PX", "10"]));
                }
                _ => {
                    e.execute(&mut s, &cmd(["RPUSH", &key, "a"]));
                    e.execute(&mut s, &cmd(["LPOP", &key]));
                }
            }
            if i == 25_000 {
                e.execute(&mut s, &cmd(["FLUSHALL"]));
            }
        }
        e.set_time_ms(2_000);
        while !e.active_expire_cycle(1_000).is_empty() {}
        let db = &e.db;
        assert!(db.entries.is_empty());
        assert!(db.key_list.is_empty());
        assert!(db.expires.is_empty());
        assert!(db.slot_counts.iter().all(|n| *n == 0));
    }

    #[test]
    fn positions_survive_interleaved_inserts_and_removes() {
        // Deterministic mixed workload against a model; the swap-remove
        // bookkeeping lives in `Entry::pos`, so SCAN, RANDOMKEY and the
        // slot views must agree with the model at every checkpoint.
        let mut db = Db::new();
        let mut model: std::collections::HashMap<Bytes, bool> = Default::default();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..6_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = b(&format!("{{t{}}}k{}", (x >> 40) % 37, (x >> 20) % 300));
            match x % 5 {
                0 | 1 => {
                    db.set_value(key.clone(), sval("v"));
                    model.insert(key, false);
                }
                2 => {
                    db.set_value(key.clone(), sval("v"));
                    db.set_expiry(&key, Some(10));
                    model.insert(key, true);
                }
                _ => {
                    assert_eq!(db.remove(&key).is_some(), model.remove(&key).is_some());
                }
            }
            if step % 500 == 499 {
                assert_consistent(&db);
                // SCAN pages through exactly the model's keys.
                let mut seen = HashSet::new();
                let mut cursor = 0;
                loop {
                    let (next, keys) = db.scan(cursor, 17, None);
                    for k in keys {
                        assert!(seen.insert(k), "SCAN repeated a key without mutation");
                    }
                    if next == 0 {
                        break;
                    }
                    cursor = next;
                }
                assert_eq!(seen, model.keys().cloned().collect());
                // RANDOMKEY reaches every listed position and only live keys.
                for idx in 0..db.len() {
                    assert!(model.contains_key(db.random_key(idx).unwrap()));
                }
                // Slot views agree with the model, slot by slot.
                for tag in 0..37 {
                    let slot = key_hash_slot(format!("t{tag}").as_bytes());
                    let want: HashSet<Bytes> = model
                        .keys()
                        .filter(|k| key_hash_slot(k) == slot)
                        .cloned()
                        .collect();
                    assert_eq!(db.count_keys_in_slot(slot), want.len());
                    let got: HashSet<Bytes> = db.keys_in_slot(slot).into_iter().collect();
                    assert_eq!(got, want);
                }
            }
        }
        // delete_slot removes exactly that slot's keys.
        let slot = key_hash_slot(b"t5");
        let doomed = db.count_keys_in_slot(slot);
        assert!(doomed > 0);
        let before = db.len();
        assert_eq!(db.delete_slot(slot), doomed);
        assert_eq!(db.len(), before - doomed);
        assert_eq!(db.count_keys_in_slot(slot), 0);
        assert!(db.keys_in_slot(slot).is_empty());
        assert_consistent(&db);
    }

    #[test]
    fn expiry_on_missing_key() {
        let mut db = Db::new();
        assert!(!db.set_expiry(b"nope", Some(1)));
    }

    #[test]
    fn expired_keys_sampling() {
        let mut db = Db::new();
        for i in 0..10 {
            let k = b(&format!("k{i}"));
            db.set_value(k.clone(), sval("v"));
            db.set_expiry(&k, Some(if i < 4 { 10 } else { 1000 }));
        }
        let expired = db.expired_keys(50, 100);
        assert_eq!(expired.len(), 4);
        assert!(db.expired_keys(5, 100).is_empty());
    }

    #[test]
    fn versions_bump_on_modification() {
        let mut db = Db::new();
        assert_eq!(db.version(b"k"), 0);
        db.set_value(b("k"), sval("v"));
        let v1 = db.version(b"k");
        assert!(v1 > 0);
        db.signal_modified(b"k");
        assert!(db.version(b"k") > v1);
        // Removal is a modification too.
        let v2 = db.version(b"k");
        db.remove(b"k");
        assert!(db.version(b"k") > v2);
    }

    #[test]
    fn flush_bumps_versions() {
        let mut db = Db::new();
        db.set_value(b("k"), sval("v"));
        let v = db.version(b"k");
        db.flush();
        assert!(db.version(b"k") > v);
        assert!(db.is_empty());
    }

    #[test]
    fn scan_pages_through_all_keys() {
        let mut db = Db::new();
        for i in 0..25 {
            db.set_value(b(&format!("k{i}")), sval("v"));
        }
        let mut seen = std::collections::HashSet::new();
        let mut cursor = 0;
        loop {
            let (next, keys) = db.scan(cursor, 7, None);
            seen.extend(keys);
            if next == 0 {
                break;
            }
            cursor = next;
        }
        assert_eq!(seen.len(), 25);
    }

    #[test]
    fn scan_with_pattern() {
        let mut db = Db::new();
        db.set_value(b("user:1"), sval("a"));
        db.set_value(b("user:2"), sval("b"));
        db.set_value(b("order:1"), sval("c"));
        let (_, keys) = db.scan(0, 100, Some(b"user:*"));
        assert_eq!(keys.len(), 2);
    }

    #[test]
    fn slot_index_tracks_keys() {
        let mut db = Db::new();
        db.set_value(b("{tag}a"), sval("1"));
        db.set_value(b("{tag}b"), sval("2"));
        let slot = crate::slots::key_hash_slot(b"{tag}a");
        assert_eq!(db.count_keys_in_slot(slot), 2);
        assert_eq!(db.keys_in_slot(slot).len(), 2);
        db.remove(b"{tag}a");
        assert_eq!(db.count_keys_in_slot(slot), 1);
        assert_eq!(db.delete_slot(slot), 1);
        assert!(db.is_empty());
    }

    #[test]
    fn random_key_none_when_empty() {
        let db = Db::new();
        assert!(db.random_key(3).is_none());
        let mut db = Db::new();
        db.set_value(b("only"), sval("v"));
        assert_eq!(db.random_key(12345), Some(&b("only")));
    }

    #[test]
    fn used_memory_reflects_content() {
        let mut db = Db::new();
        let base = db.used_memory();
        db.set_value(b("k"), Value::Str(Bytes::from(vec![0u8; 1024])));
        assert!(db.used_memory() > base + 1024);
    }

    #[test]
    fn glob_literals_and_wildcards() {
        assert!(glob_match(b"hello", b"hello"));
        assert!(!glob_match(b"hello", b"hell"));
        assert!(glob_match(b"*", b"anything"));
        assert!(glob_match(b"*", b""));
        assert!(glob_match(b"h*o", b"hello"));
        assert!(glob_match(b"h*llo*", b"hello"));
        assert!(!glob_match(b"h*z", b"hello"));
        assert!(glob_match(b"h?llo", b"hello"));
        assert!(!glob_match(b"h?llo", b"hllo"));
    }

    #[test]
    fn glob_classes() {
        assert!(glob_match(b"[abc]x", b"bx"));
        assert!(!glob_match(b"[abc]x", b"dx"));
        assert!(glob_match(b"[^abc]x", b"dx"));
        assert!(!glob_match(b"[^abc]x", b"ax"));
        assert!(glob_match(b"[a-c]x", b"bx"));
        assert!(!glob_match(b"[a-c]x", b"dx"));
        assert!(!glob_match(b"[ab", b"a")); // unterminated class
    }

    #[test]
    fn glob_escapes() {
        assert!(glob_match(b"a\\*b", b"a*b"));
        assert!(!glob_match(b"a\\*b", b"axb"));
        assert!(glob_match(b"a\\?b", b"a?b"));
    }

    #[test]
    fn entry_or_insert_with_reaps_expired() {
        let mut db = Db::new();
        db.set_value(b("k"), sval("old"));
        db.set_expiry(b"k", Some(5));
        // At t=10 the key is expired; the default should be inserted fresh.
        let v = db.entry_or_insert_with(&b("k"), 10, || sval("fresh"));
        assert_eq!(v, &sval("fresh"));
        assert_eq!(db.expiry(b"k"), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_glob_never_panics(pattern in proptest::collection::vec(any::<u8>(), 0..32),
                                  text in proptest::collection::vec(any::<u8>(), 0..32)) {
            let _ = glob_match(&pattern, &text);
        }

        #[test]
        fn prop_literal_patterns_match_exactly(text in proptest::collection::vec(any::<u8>(), 0..24)) {
            // A pattern with every byte escaped matches exactly its text.
            let mut pattern = Vec::new();
            for &b in &text {
                pattern.push(b'\\');
                pattern.push(b);
            }
            prop_assert!(glob_match(&pattern, &text));
            let mut other = text.clone();
            other.push(b'x');
            prop_assert!(!glob_match(&pattern, &other));
        }

        #[test]
        fn prop_star_matches_everything(text in proptest::collection::vec(any::<u8>(), 0..32)) {
            prop_assert!(glob_match(b"*", &text));
        }
    }
}
