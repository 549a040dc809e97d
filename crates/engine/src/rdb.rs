//! RDB-like binary snapshot format with CRC64 integrity.
//!
//! MemoryDB snapshots (paper §4.2) serialize the keyspace into a compact
//! binary form stored in the object store. The format is canonical — hash
//! and set members are sorted — so identical keyspaces always serialize to
//! identical bytes, which is what makes the running-checksum verification of
//! §7.2.1 meaningful.

use crate::db::Db;
use crate::ds::hll::Hll;
use crate::ds::stream::{Stream, StreamId};
use crate::ds::zset::ZSet;
use crate::value::Value;
use bytes::Bytes;
use std::collections::{HashMap, HashSet, VecDeque};

const MAGIC: &[u8; 4] = b"MDBR";
const FORMAT_VERSION: u32 = 1;

/// Errors from snapshot deserialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdbError {
    /// Bad magic bytes.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// The trailing CRC64 does not match the payload.
    ChecksumMismatch,
    /// Structurally invalid payload.
    Corrupt(&'static str),
}

impl std::fmt::Display for RdbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RdbError::BadMagic => write!(f, "bad snapshot magic"),
            RdbError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            RdbError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            RdbError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for RdbError {}

// --- CRC64 (ECMA-182, the polynomial Redis uses for RDB) ------------------

/// Slice-by-8 tables: `CRC64_TABLES[0]` is the classic byte-at-a-time table
/// and `CRC64_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight input bytes fold into the state with eight independent
/// lookups. Same polynomial, same digest as the one-table loop.
const CRC64_TABLES: [[u64; 256]; 8] = {
    const POLY: u64 = 0xad93d23594c935a9; // reflected ECMA-182
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Streaming CRC64 (Jones/Redis variant): feed chunks, read the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc64 {
    state: u64,
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc64 {
    /// Fresh hasher.
    pub fn new() -> Crc64 {
        Crc64 { state: 0 }
    }

    /// Absorbs bytes, eight at a time while they last.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC64_TABLES;
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            let w = crc ^ u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
            crc = t[7][(w & 0xFF) as usize]
                ^ t[6][((w >> 8) & 0xFF) as usize]
                ^ t[5][((w >> 16) & 0xFF) as usize]
                ^ t[4][((w >> 24) & 0xFF) as usize]
                ^ t[3][((w >> 32) & 0xFF) as usize]
                ^ t[2][((w >> 40) & 0xFF) as usize]
                ^ t[1][((w >> 48) & 0xFF) as usize]
                ^ t[0][(w >> 56) as usize];
        }
        for &b in words.remainder() {
            crc = t[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Current digest.
    pub fn digest(&self) -> u64 {
        self.state
    }
}

/// One-shot CRC64 of a byte slice.
pub fn crc64(data: &[u8]) -> u64 {
    let mut c = Crc64::new();
    c.update(data);
    c.digest()
}

// --- primitives ------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, RdbError> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or(RdbError::Corrupt("truncated u8"))?;
        self.pos += 1;
        Ok(b)
    }
    fn u32(&mut self) -> Result<u32, RdbError> {
        let end = self.pos + 4;
        let raw: [u8; 4] = self
            .data
            .get(self.pos..end)
            .ok_or(RdbError::Corrupt("truncated u32"))?
            .try_into()
            .expect("length checked");
        self.pos = end;
        Ok(u32::from_le_bytes(raw))
    }
    fn u64(&mut self) -> Result<u64, RdbError> {
        let end = self.pos + 8;
        let raw: [u8; 8] = self
            .data
            .get(self.pos..end)
            .ok_or(RdbError::Corrupt("truncated u64"))?
            .try_into()
            .expect("length checked");
        self.pos = end;
        Ok(u64::from_le_bytes(raw))
    }
    fn f64(&mut self) -> Result<f64, RdbError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bytes(&mut self) -> Result<Bytes, RdbError> {
        let len = self.u32()? as usize;
        let end = self
            .pos
            .checked_add(len)
            .ok_or(RdbError::Corrupt("length overflow"))?;
        let out = self
            .data
            .get(self.pos..end)
            .ok_or(RdbError::Corrupt("truncated bytes"))?;
        self.pos = end;
        Ok(Bytes::copy_from_slice(out))
    }
}

// --- value (de)serialization ------------------------------------------------

const TAG_STR: u8 = 0;
const TAG_LIST: u8 = 1;
const TAG_HASH: u8 = 2;
const TAG_SET: u8 = 3;
const TAG_ZSET: u8 = 4;
const TAG_STREAM: u8 = 5;
const TAG_HLL: u8 = 6;

fn write_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Str(b) => {
            w.u8(TAG_STR);
            w.bytes(b);
        }
        Value::List(l) => {
            w.u8(TAG_LIST);
            w.u32(l.len() as u32);
            for item in l {
                w.bytes(item);
            }
        }
        Value::Hash(h) => {
            w.u8(TAG_HASH);
            w.u32(h.len() as u32);
            let mut fields: Vec<_> = h.iter().collect();
            fields.sort_by(|a, b| a.0.cmp(b.0));
            for (f, val) in fields {
                w.bytes(f);
                w.bytes(val);
            }
        }
        Value::Set(s) => {
            w.u8(TAG_SET);
            w.u32(s.len() as u32);
            let mut members: Vec<_> = s.iter().collect();
            members.sort();
            for m in members {
                w.bytes(m);
            }
        }
        Value::ZSet(z) => {
            w.u8(TAG_ZSET);
            w.u32(z.len() as u32);
            for (m, score) in z.iter() {
                w.bytes(m);
                w.f64(score);
            }
        }
        Value::Stream(s) => {
            w.u8(TAG_STREAM);
            w.u64(s.last_id.ms);
            w.u64(s.last_id.seq);
            w.u64(s.entries_added);
            w.u64(s.max_deleted_id.ms);
            w.u64(s.max_deleted_id.seq);
            w.u32(s.len() as u32);
            for (id, entry) in s.range(StreamId::MIN, StreamId::MAX, None) {
                w.u64(id.ms);
                w.u64(id.seq);
                w.u32(entry.len() as u32);
                for (f, v) in entry {
                    w.bytes(&f);
                    w.bytes(&v);
                }
            }
            // Consumer groups (BTreeMap iteration is already canonical).
            w.u32(s.groups.len() as u32);
            for (name, g) in &s.groups {
                w.bytes(name);
                w.u64(g.last_delivered.ms);
                w.u64(g.last_delivered.seq);
                w.u32(g.pending.len() as u32);
                for (id, p) in &g.pending {
                    w.u64(id.ms);
                    w.u64(id.seq);
                    w.bytes(&p.consumer);
                    w.u64(p.delivery_time_ms);
                    w.u64(p.delivery_count);
                }
                w.u32(g.consumers.len() as u32);
                for c in &g.consumers {
                    w.bytes(c);
                }
            }
        }
        Value::Hll(h) => {
            w.u8(TAG_HLL);
            w.bytes(&h.to_bytes());
        }
    }
}

fn read_value(r: &mut Reader<'_>) -> Result<Value, RdbError> {
    match r.u8()? {
        TAG_STR => Ok(Value::Str(r.bytes()?)),
        TAG_LIST => {
            let n = r.u32()? as usize;
            let mut l = VecDeque::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                l.push_back(r.bytes()?);
            }
            Ok(Value::List(l))
        }
        TAG_HASH => {
            let n = r.u32()? as usize;
            let mut h = HashMap::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let f = r.bytes()?;
                let v = r.bytes()?;
                h.insert(f, v);
            }
            Ok(Value::Hash(h))
        }
        TAG_SET => {
            let n = r.u32()? as usize;
            let mut s = HashSet::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                s.insert(r.bytes()?);
            }
            Ok(Value::Set(s))
        }
        TAG_ZSET => {
            let n = r.u32()? as usize;
            let mut z = ZSet::new();
            for _ in 0..n {
                let m = r.bytes()?;
                let score = r.f64()?;
                if score.is_nan() {
                    return Err(RdbError::Corrupt("NaN zset score"));
                }
                z.insert(m, score);
            }
            Ok(Value::ZSet(Box::new(z)))
        }
        TAG_STREAM => {
            let mut s = Stream::new();
            let last = StreamId {
                ms: r.u64()?,
                seq: r.u64()?,
            };
            let entries_added = r.u64()?;
            let max_deleted = StreamId {
                ms: r.u64()?,
                seq: r.u64()?,
            };
            let n = r.u32()? as usize;
            for _ in 0..n {
                let id = StreamId {
                    ms: r.u64()?,
                    seq: r.u64()?,
                };
                let fc = r.u32()? as usize;
                let mut entry = Vec::with_capacity(fc.min(1 << 16));
                for _ in 0..fc {
                    let f = r.bytes()?;
                    let v = r.bytes()?;
                    entry.push((f, v));
                }
                s.add(id, entry)
                    .map_err(|_| RdbError::Corrupt("stream ids out of order"))?;
            }
            s.last_id = last;
            s.entries_added = entries_added;
            s.max_deleted_id = max_deleted;
            let ngroups = r.u32()? as usize;
            for _ in 0..ngroups {
                let name = r.bytes()?;
                let mut group = crate::ds::stream::ConsumerGroup {
                    last_delivered: StreamId {
                        ms: r.u64()?,
                        seq: r.u64()?,
                    },
                    ..Default::default()
                };
                let npending = r.u32()? as usize;
                for _ in 0..npending {
                    let id = StreamId {
                        ms: r.u64()?,
                        seq: r.u64()?,
                    };
                    let consumer = r.bytes()?;
                    let delivery_time_ms = r.u64()?;
                    let delivery_count = r.u64()?;
                    group.pending.insert(
                        id,
                        crate::ds::stream::PendingEntry {
                            consumer,
                            delivery_time_ms,
                            delivery_count,
                        },
                    );
                }
                let nconsumers = r.u32()? as usize;
                for _ in 0..nconsumers {
                    group.consumers.insert(r.bytes()?);
                }
                s.groups.insert(name, group);
            }
            Ok(Value::Stream(Box::new(s)))
        }
        TAG_HLL => {
            let raw = r.bytes()?;
            Hll::from_bytes(&raw)
                .map(Value::Hll)
                .ok_or(RdbError::Corrupt("bad HLL payload"))
        }
        _ => Err(RdbError::Corrupt("unknown value tag")),
    }
}

/// Serializes a single (value, expiry) pair — the unit slot migration moves
/// between shards (paper §5.2).
pub fn serialize_entry(value: &Value, expire_at: Option<u64>) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    match expire_at {
        Some(at) => {
            w.u8(1);
            w.u64(at);
        }
        None => w.u8(0),
    }
    write_value(&mut w, value);
    w.buf
}

/// Inverse of [`serialize_entry`].
pub fn deserialize_entry(data: &[u8]) -> Result<(Value, Option<u64>), RdbError> {
    let mut r = Reader { data, pos: 0 };
    let expire_at = match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        _ => return Err(RdbError::Corrupt("bad expiry tag")),
    };
    let v = read_value(&mut r)?;
    if r.pos != data.len() {
        return Err(RdbError::Corrupt("trailing bytes"));
    }
    Ok((v, expire_at))
}

/// Shared body of the dump variants: sorts the entries by key and emits the
/// canonical `MAGIC | version | count | entries | crc64` envelope.
fn dump_entries(mut entries: Vec<(&Bytes, &crate::db::Entry)>) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    w.buf.extend_from_slice(MAGIC);
    w.u32(FORMAT_VERSION);
    entries.sort_by(|a, b| a.0.cmp(b.0));
    w.u64(entries.len() as u64);
    for (key, entry) in entries {
        w.bytes(key);
        match entry.expire_at {
            Some(at) => {
                w.u8(1);
                w.u64(at);
            }
            None => w.u8(0),
        }
        write_value(&mut w, &entry.value);
    }
    let crc = crc64(&w.buf);
    w.u64(crc);
    w.buf
}

/// Serializes a whole keyspace into the snapshot format.
///
/// Layout: `MAGIC | version u32 | count u64 | entries... | crc64 u64` where
/// each entry is `key | expiry-tag(+ms) | value`. Keys are emitted in sorted
/// order so equal keyspaces produce byte-identical snapshots.
pub fn dump(db: &Db) -> Vec<u8> {
    dump_entries(db.iter_entries().collect())
}

/// Serializes only the keys whose hash slot falls in `lo..=hi`. This is the
/// payload of one incremental-snapshot chunk: the same envelope as [`dump`],
/// so [`load`] decodes it unchanged, but restricted to a slot range so deltas
/// ship only dirtied slots.
pub fn dump_slot_range(db: &Db, lo: u16, hi: u16) -> Vec<u8> {
    dump_slot_ranges(db, &[(lo, hi)]).pop().unwrap_or_default()
}

/// [`dump_slot_range`] for every range of `ranges` (ascending, disjoint) in
/// one pass over the keyspace: each key's slot is computed once and the
/// entry lands in the bucket of the range holding it, or nowhere.
pub fn dump_slot_ranges(db: &Db, ranges: &[(u16, u16)]) -> Vec<Vec<u8>> {
    let mut buckets: Vec<Vec<(&Bytes, &crate::db::Entry)>> = vec![Vec::new(); ranges.len()];
    for (key, entry) in db.iter_entries() {
        let slot = crate::slots::key_hash_slot(key);
        let i = ranges.partition_point(|r| r.1 < slot);
        if let (Some(r), Some(bucket)) = (ranges.get(i), buckets.get_mut(i)) {
            if r.0 <= slot {
                bucket.push((key, entry));
            }
        }
    }
    buckets.into_iter().map(dump_entries).collect()
}

/// The one snapshot decoder: checks the envelope of a blob produced by
/// [`dump`] (length, CRC64 trailer, magic, version) up front, then yields
/// its `(key, value, expiry)` entries one at a time. Nothing is indexed
/// here — [`load`] feeds a [`Db`], the chunked restore feeds its slot
/// partitions, the snapshot rehearsal only counts.
pub struct Entries<'a> {
    r: Reader<'a>,
    left: u64,
    payload_crc: u64,
}

impl<'a> Entries<'a> {
    /// Verifies the envelope of `data` and positions at the first entry.
    /// The blob's bytes are checksummed here, once.
    pub fn open(data: &'a [u8]) -> Result<Entries<'a>, RdbError> {
        if data.len() < MAGIC.len() + 4 + 8 + 8 {
            return Err(RdbError::Corrupt("too short"));
        }
        let (payload, trailer) = data.split_at(data.len() - 8);
        let payload_crc = crc64(payload);
        if payload_crc.to_le_bytes() != trailer {
            return Err(RdbError::ChecksumMismatch);
        }
        if &payload[..4] != MAGIC {
            return Err(RdbError::BadMagic);
        }
        let mut r = Reader {
            data: payload,
            pos: 4,
        };
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(RdbError::BadVersion(version));
        }
        let left = r.u64()?;
        Ok(Entries {
            r,
            left,
            payload_crc,
        })
    }

    /// Entries still to come by the header's count, capped like every
    /// other length read from input, so pre-sizing from it cannot reserve
    /// unbounded memory for a hostile count.
    pub fn size_hint_capped(&self) -> usize {
        self.left.min(1 << 20) as usize
    }

    /// CRC64 of the payload (everything before the trailer), as verified
    /// against the trailer by [`Entries::open`] — what a manifest's chunk
    /// reference records, so binding a chunk costs no second pass.
    pub fn payload_crc(&self) -> u64 {
        self.payload_crc
    }

    fn read_entry(&mut self) -> Result<(Bytes, Value, Option<u64>), RdbError> {
        let key = self.r.bytes()?;
        let expire_at = match self.r.u8()? {
            0 => None,
            1 => Some(self.r.u64()?),
            _ => return Err(RdbError::Corrupt("bad expiry tag")),
        };
        Ok((key, read_value(&mut self.r)?, expire_at))
    }
}

impl Iterator for Entries<'_> {
    type Item = Result<(Bytes, Value, Option<u64>), RdbError>;

    /// The next entry; after the declared count, one last check that the
    /// payload is exhausted. Any error ends the iteration.
    fn next(&mut self) -> Option<Self::Item> {
        let item = if self.left > 0 {
            self.left -= 1;
            self.read_entry()
        } else if self.r.pos != self.r.data.len() {
            Err(RdbError::Corrupt("trailing bytes"))
        } else {
            return None;
        };
        if item.is_err() {
            self.left = 0;
            self.r.pos = self.r.data.len();
        }
        Some(item)
    }
}

/// Loads a snapshot produced by [`dump`], verifying the CRC64 trailer.
pub fn load(data: &[u8]) -> Result<Db, RdbError> {
    let entries = Entries::open(data)?;
    let mut db = Db::with_capacity(entries.size_hint_capped());
    for entry in entries {
        let (key, value, expire_at) = entry?;
        db.insert_loaded(key, value, expire_at);
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd;
    use crate::exec::{Engine, Role, SessionState};

    fn populated_engine() -> Engine {
        let mut e = Engine::new(Role::Primary);
        e.set_time_ms(1_000);
        let mut s = SessionState::new();
        for c in [
            cmd(["SET", "str", "hello"]),
            cmd(["SET", "expiring", "v", "PXAT", "999999"]),
            cmd(["RPUSH", "list", "a", "b", "c"]),
            cmd(["HSET", "hash", "f1", "v1", "f2", "v2"]),
            cmd(["SADD", "set", "x", "y", "z"]),
            cmd(["ZADD", "zset", "1.5", "m1", "-2", "m2"]),
            cmd(["XADD", "stream", "5-1", "f", "v"]),
            cmd(["XADD", "stream", "6-0", "g", "w"]),
            cmd(["PFADD", "hll", "a", "b", "c"]),
        ] {
            let out = e.execute(&mut s, &c);
            assert!(!out.reply.is_error(), "{:?} -> {:?}", c, out.reply);
        }
        e
    }

    #[test]
    fn dump_load_roundtrip_all_types() {
        let e = populated_engine();
        let snapshot = dump(&e.db);
        let restored = load(&snapshot).unwrap();
        assert_eq!(restored.len(), e.db.len());
        for (key, entry) in e.db.iter_entries() {
            assert_eq!(restored.lookup(key, 0), Some(&entry.value), "key {key:?}");
            assert_eq!(restored.expiry(key), entry.expire_at, "expiry of {key:?}");
        }
    }

    #[test]
    fn canonical_bytes_for_equal_keyspaces() {
        // Same logical content inserted in different orders must serialize
        // identically (sorted keys, sorted hash fields / set members).
        let mut e1 = Engine::new(Role::Primary);
        let mut e2 = Engine::new(Role::Primary);
        let mut s = SessionState::new();
        e1.execute(&mut s, &cmd(["HSET", "h", "a", "1", "b", "2"]));
        e1.execute(&mut s, &cmd(["SADD", "s", "x", "y"]));
        e2.execute(&mut s, &cmd(["SADD", "s", "y", "x"]));
        e2.execute(&mut s, &cmd(["HSET", "h", "b", "2", "a", "1"]));
        assert_eq!(dump(&e1.db), dump(&e2.db));
    }

    #[test]
    fn dump_slot_range_partitions_cover_dump() {
        let e = populated_engine();
        // Disjoint ranges covering the whole slot space must together hold
        // exactly the keys of the full dump, each loadable via plain load().
        let ranges = [(0u16, 4095u16), (4096, 8191), (8192, 12287), (12288, 16383)];
        let mut total = 0usize;
        for (lo, hi) in ranges {
            let chunk = dump_slot_range(&e.db, lo, hi);
            let part = load(&chunk).unwrap();
            for (key, entry) in part.iter_entries() {
                let slot = crate::slots::key_hash_slot(key);
                assert!((lo..=hi).contains(&slot), "key {key:?} outside {lo}..={hi}");
                assert_eq!(e.db.lookup(key, 0), Some(&entry.value));
                assert_eq!(e.db.expiry(key), entry.expire_at);
            }
            total += part.len();
        }
        assert_eq!(total, e.db.len());
        // The full slot range is byte-identical to a plain dump.
        assert_eq!(
            dump_slot_range(&e.db, 0, crate::slots::NUM_SLOTS - 1),
            dump(&e.db)
        );
    }

    #[test]
    fn dump_slot_ranges_buckets_like_a_filter_per_range() {
        let e = populated_engine();
        // Gaps between ranges, a single-slot range, and slots no key has.
        let ranges = [(0u16, 900u16), (5061, 5061), (6000, 12000), (12183, 16383)];
        let blobs = dump_slot_ranges(&e.db, &ranges);
        assert_eq!(blobs.len(), ranges.len());
        let mut held = 0;
        for (&(lo, hi), blob) in ranges.iter().zip(&blobs) {
            let mut want = Db::new();
            for (key, entry) in e.db.iter_entries() {
                if (lo..=hi).contains(&crate::slots::key_hash_slot(key)) {
                    want.insert_loaded(key.clone(), entry.value.clone(), entry.expire_at);
                }
            }
            assert_eq!(blob, &dump(&want), "range {lo}..={hi}");
            assert_eq!(blob, &dump_slot_range(&e.db, lo, hi));
            held += want.len();
        }
        assert!(
            held > 0 && held < e.db.len(),
            "ranges must hold some keys, not all"
        );
        assert!(dump_slot_ranges(&e.db, &[]).is_empty());
    }

    #[test]
    fn entries_stream_what_load_indexes_and_check_the_payload_end() {
        let e = populated_engine();
        let snapshot = dump(&e.db);
        let entries = Entries::open(&snapshot).unwrap();
        assert_eq!(entries.size_hint_capped(), e.db.len());
        assert_eq!(
            entries.payload_crc(),
            crc64(&snapshot[..snapshot.len() - 8])
        );
        let mut n = 0;
        for entry in entries {
            let (key, value, expire_at) = entry.unwrap();
            assert_eq!(e.db.lookup(&key, 0), Some(&value));
            assert_eq!(e.db.expiry(&key), expire_at);
            n += 1;
        }
        assert_eq!(n, e.db.len());

        // A header that declares one entry fewer leaves bytes behind; one
        // more runs off the end. Both fail, once, then the stream ends.
        for delta in [-1i64, 1] {
            let mut forged = snapshot.clone();
            let count = (e.db.len() as i64 + delta) as u64;
            forged[8..16].copy_from_slice(&count.to_le_bytes());
            let len = forged.len();
            let crc = crc64(&forged[..len - 8]);
            forged[len - 8..].copy_from_slice(&crc.to_le_bytes());
            let mut entries = Entries::open(&forged).unwrap();
            let err = entries.find_map(Result::err).expect("must fail");
            assert!(matches!(err, RdbError::Corrupt(_)), "{err}");
            assert!(entries.next().is_none(), "an error ends the stream");
            assert!(load(&forged).is_err());
        }
        // A hostile count cannot drive the pre-sizing.
        let mut forged = snapshot.clone();
        forged[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let len = forged.len();
        let crc = crc64(&forged[..len - 8]);
        forged[len - 8..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(Entries::open(&forged).unwrap().size_hint_capped(), 1 << 20);
        assert!(load(&forged).is_err());
    }

    #[test]
    fn checksum_detects_corruption() {
        let e = populated_engine();
        let mut snapshot = dump(&e.db);
        // Flip one payload byte.
        let mid = snapshot.len() / 2;
        snapshot[mid] ^= 0xFF;
        assert_eq!(load(&snapshot).err(), Some(RdbError::ChecksumMismatch));
    }

    #[test]
    fn truncation_detected() {
        let e = populated_engine();
        let snapshot = dump(&e.db);
        assert!(load(&snapshot[..snapshot.len() - 3]).is_err());
        assert!(load(b"tiny").is_err());
    }

    #[test]
    fn bad_magic_and_version() {
        let e = populated_engine();
        let mut snapshot = dump(&e.db);
        snapshot[0] = b'X';
        // Fix up the CRC so magic is the first failure observed.
        let len = snapshot.len();
        let crc = crc64(&snapshot[..len - 8]);
        snapshot[len - 8..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(load(&snapshot).err(), Some(RdbError::BadMagic));
    }

    #[test]
    fn empty_db_roundtrip() {
        let db = Db::new();
        let snapshot = dump(&db);
        let restored = load(&snapshot).unwrap();
        assert_eq!(restored.len(), 0);
    }

    #[test]
    fn entry_roundtrip_for_migration() {
        let e = populated_engine();
        for (key, entry) in e.db.iter_entries() {
            let raw = serialize_entry(&entry.value, entry.expire_at);
            let (v, at) = deserialize_entry(&raw).unwrap();
            assert_eq!(&v, &entry.value, "key {key:?}");
            assert_eq!(at, entry.expire_at);
        }
        assert!(deserialize_entry(&[9]).is_err());
    }

    #[test]
    fn crc64_stable_known_values() {
        // Self-consistency vectors (guards against accidental table edits).
        assert_eq!(crc64(b""), 0);
        let a = crc64(b"123456789");
        let b = crc64(b"123456789");
        assert_eq!(a, b);
        assert_ne!(crc64(b"123456789"), crc64(b"123456780"));
        // Streaming equals one-shot.
        let mut c = Crc64::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.digest(), a);
    }

    #[test]
    fn crc64_slice_by_8_matches_the_bytewise_loop() {
        fn bytewise(data: &[u8]) -> u64 {
            data.iter().fold(0u64, |crc, &b| {
                CRC64_TABLES[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8)
            })
        }
        let data: Vec<u8> = (0..257u32).map(|i| (i * 131 + i / 7) as u8).collect();
        for start in 0..9 {
            for len in [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 200] {
                let piece = &data[start..start + len];
                assert_eq!(crc64(piece), bytewise(piece), "start {start} len {len}");
            }
        }
    }
}
