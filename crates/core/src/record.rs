//! The shard's transaction-log record format.
//!
//! Every payload MemoryDB appends to the transaction log is one of these
//! records, serialized as one CRC-checked frame ([`Record::encode_framed`] /
//! [`Record::decode_framed`] — there is no other encoding). `Effects` carries the intercepted replication stream (paper
//! §3.1); the remaining variants implement leader election (§4.1), snapshot
//! verification (§7.2.1), and the slot-migration 2PC (§5.2).

use bytes::Bytes;
use memorydb_engine::effects::{
    decode_effect_batch, effect_batch_encoded_len, encode_effect_batch_into, EffectCmd,
};
use memorydb_engine::EngineVersion;

/// Identifier of a node within a cluster.
pub type NodeId = u64;

/// Identifier of a shard within a cluster.
pub type ShardId = u32;

/// One record in a shard's transaction log.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// An atomic batch of deterministic effects, stamped with the engine
    /// version that produced it (upgrade protection, §7.1).
    Effects {
        /// Version of the engine that generated this stream segment.
        version: EngineVersion,
        /// The effect commands, applied in order.
        effects: Vec<EffectCmd>,
    },
    /// A leadership claim: appending this (conditionally, at the log tail)
    /// is how a caught-up replica becomes primary (§4.1.1).
    LeaderClaim {
        /// The claiming node.
        node: NodeId,
        /// New leadership epoch (monotone per shard).
        epoch: u64,
        /// Lease duration granted by this claim, in milliseconds.
        lease_ms: u64,
    },
    /// Periodic lease renewal/heartbeat from the current primary (§4.1.3).
    LeaseRenewal {
        /// The renewing primary.
        node: NodeId,
        /// Its epoch.
        epoch: u64,
        /// Lease duration from the moment a replica observes this entry.
        lease_ms: u64,
    },
    /// Voluntary lease release for collaborative leadership transfer during
    /// N+1 scaling (§5.2): observers may campaign immediately.
    LeaseRelease {
        /// The releasing primary.
        node: NodeId,
        /// Its epoch.
        epoch: u64,
    },
    /// The current running checksum, injected periodically so verifiers can
    /// cross-check snapshots against the log prefix (§7.2.1).
    ChecksumProbe {
        /// Running CRC64 over all prior record payloads.
        crc: u64,
    },
    /// Slot-migration 2PC: the source has durably decided to hand `slot` to
    /// `target` (written to the SOURCE shard's log).
    MigrationPrepare {
        /// Slot being transferred.
        slot: u16,
        /// Receiving shard.
        target: ShardId,
    },
    /// Slot-migration 2PC: the target durably accepts ownership of `slot`
    /// (written to the TARGET shard's log).
    MigrationCommit {
        /// Slot received.
        slot: u16,
        /// Originating shard.
        source: ShardId,
    },
    /// Slot-migration 2PC: the source records completion and relinquishes
    /// ownership (written to the SOURCE shard's log).
    MigrationDone {
        /// Slot released.
        slot: u16,
    },
    /// Slot-migration abort: the transfer was abandoned before the
    /// ownership handoff; the source keeps the slot and resumes writes
    /// (written to the SOURCE shard's log).
    MigrationAbort {
        /// Slot retained.
        slot: u16,
    },
    /// Initial/explicit statement of slot ownership (written at shard
    /// creation so ownership is recoverable from the log alone).
    SlotOwnership {
        /// Slots owned by this shard, as inclusive ranges.
        ranges: Vec<(u16, u16)>,
    },
}

/// First byte of every log record. Body tags are `1..=10`, so an unframed
/// body can never be mistaken for a frame: it fails the magic check.
pub const FRAME_MAGIC: u8 = 0xD2;

/// Fixed overhead of a frame: magic byte, `u32` body length, `u32` CRC.
pub const FRAME_HEADER_LEN: usize = 9;

/// Typed failure decoding a framed record.
///
/// Corruption is reported per record: a bad CRC names the exact frame, and
/// streaming readers can use the length prefix to skip past it rather than
/// aborting the whole stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The first byte is not the frame magic.
    BadMagic,
    /// The buffer ends before the frame header or body does.
    Truncated,
    /// The per-record CRC32 does not match the body.
    CrcMismatch {
        /// CRC stored in the frame header.
        expected: u32,
        /// CRC computed over the received body.
        actual: u32,
    },
    /// Framing was intact but the body is not a valid record.
    Undecodable,
    /// A whole-payload decode found bytes after the first frame.
    TrailingBytes,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad record magic"),
            FrameError::Truncated => write!(f, "truncated record frame"),
            FrameError::CrcMismatch { expected, actual } => write!(
                f,
                "record crc mismatch (expected {expected:#010x}, got {actual:#010x})"
            ),
            FrameError::Undecodable => write!(f, "undecodable record body"),
            FrameError::TrailingBytes => write!(f, "trailing bytes after record frame"),
        }
    }
}

const CRC32_POLY: u32 = 0xEDB8_8320;

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC32_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE 802.3, reflected) over `data`. Used as the per-record
/// integrity check in the frame; cheap enough for the hot append path.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = u32::MAX;
    for &b in data {
        let idx = ((c ^ b as u32) & 0xFF) as usize;
        c = CRC32_TABLE.get(idx).copied().unwrap_or(0) ^ (c >> 8);
    }
    c ^ u32::MAX
}

const TAG_EFFECTS: u8 = 1;
const TAG_CLAIM: u8 = 2;
const TAG_RENEWAL: u8 = 3;
const TAG_RELEASE: u8 = 4;
const TAG_CHECKSUM: u8 = 5;
const TAG_MIG_PREPARE: u8 = 6;
const TAG_MIG_COMMIT: u8 = 7;
const TAG_MIG_DONE: u8 = 8;
const TAG_SLOTS: u8 = 9;
const TAG_MIG_ABORT: u8 = 10;

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Rd<'a> {
    d: &'a [u8],
    p: usize,
}

impl<'a> Rd<'a> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.d.get(self.p)?;
        self.p += 1;
        Some(v)
    }
    fn u16(&mut self) -> Option<u16> {
        let raw: [u8; 2] = self.d.get(self.p..self.p + 2)?.try_into().ok()?;
        self.p += 2;
        Some(u16::from_le_bytes(raw))
    }
    fn u32(&mut self) -> Option<u32> {
        let raw: [u8; 4] = self.d.get(self.p..self.p + 4)?.try_into().ok()?;
        self.p += 4;
        Some(u32::from_le_bytes(raw))
    }
    fn u64(&mut self) -> Option<u64> {
        let raw: [u8; 8] = self.d.get(self.p..self.p + 8)?.try_into().ok()?;
        self.p += 8;
        Some(u64::from_le_bytes(raw))
    }
    fn rest(&self) -> &'a [u8] {
        &self.d[self.p..]
    }
    fn at_end(&self) -> bool {
        self.p == self.d.len()
    }
}

impl Record {
    /// Exact body size for `Effects` (the hot-path record), a small upper
    /// bound for the fixed-size control records — sizing one buffer up
    /// front keeps the append path to a single allocation.
    fn encoded_len_hint(&self) -> usize {
        match self {
            Record::Effects { effects, .. } => 7 + effect_batch_encoded_len(effects),
            Record::SlotOwnership { ranges } => 5 + ranges.len() * 4,
            _ => 32,
        }
    }

    /// Appends the body serialization (tag + fields) to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Record::Effects { version, effects } => {
                out.push(TAG_EFFECTS);
                push_u16(out, version.major);
                push_u16(out, version.minor);
                push_u16(out, version.patch);
                encode_effect_batch_into(effects, out);
            }
            Record::LeaderClaim {
                node,
                epoch,
                lease_ms,
            } => {
                out.push(TAG_CLAIM);
                push_u64(out, *node);
                push_u64(out, *epoch);
                push_u64(out, *lease_ms);
            }
            Record::LeaseRenewal {
                node,
                epoch,
                lease_ms,
            } => {
                out.push(TAG_RENEWAL);
                push_u64(out, *node);
                push_u64(out, *epoch);
                push_u64(out, *lease_ms);
            }
            Record::LeaseRelease { node, epoch } => {
                out.push(TAG_RELEASE);
                push_u64(out, *node);
                push_u64(out, *epoch);
            }
            Record::ChecksumProbe { crc } => {
                out.push(TAG_CHECKSUM);
                push_u64(out, *crc);
            }
            Record::MigrationPrepare { slot, target } => {
                out.push(TAG_MIG_PREPARE);
                push_u16(out, *slot);
                push_u32(out, *target);
            }
            Record::MigrationCommit { slot, source } => {
                out.push(TAG_MIG_COMMIT);
                push_u16(out, *slot);
                push_u32(out, *source);
            }
            Record::MigrationDone { slot } => {
                out.push(TAG_MIG_DONE);
                push_u16(out, *slot);
            }
            Record::MigrationAbort { slot } => {
                out.push(TAG_MIG_ABORT);
                push_u16(out, *slot);
            }
            Record::SlotOwnership { ranges } => {
                out.push(TAG_SLOTS);
                push_u32(out, ranges.len() as u32);
                for (lo, hi) in ranges {
                    push_u16(out, *lo);
                    push_u16(out, *hi);
                }
            }
        }
    }

    /// Deserializes a frame body (tag + fields).
    fn decode_body(data: &[u8]) -> Option<Record> {
        let mut r = Rd { d: data, p: 0 };
        let rec = match r.u8()? {
            TAG_EFFECTS => {
                let version = EngineVersion::new(r.u16()?, r.u16()?, r.u16()?);
                let effects = decode_effect_batch(r.rest())?;
                return Some(Record::Effects { version, effects });
            }
            TAG_CLAIM => Record::LeaderClaim {
                node: r.u64()?,
                epoch: r.u64()?,
                lease_ms: r.u64()?,
            },
            TAG_RENEWAL => Record::LeaseRenewal {
                node: r.u64()?,
                epoch: r.u64()?,
                lease_ms: r.u64()?,
            },
            TAG_RELEASE => Record::LeaseRelease {
                node: r.u64()?,
                epoch: r.u64()?,
            },
            TAG_CHECKSUM => Record::ChecksumProbe { crc: r.u64()? },
            TAG_MIG_PREPARE => Record::MigrationPrepare {
                slot: r.u16()?,
                target: r.u32()?,
            },
            TAG_MIG_COMMIT => Record::MigrationCommit {
                slot: r.u16()?,
                source: r.u32()?,
            },
            TAG_MIG_DONE => Record::MigrationDone { slot: r.u16()? },
            TAG_MIG_ABORT => Record::MigrationAbort { slot: r.u16()? },
            TAG_SLOTS => {
                let n = r.u32()? as usize;
                let mut ranges = Vec::with_capacity(n.min(16384));
                for _ in 0..n {
                    ranges.push((r.u16()?, r.u16()?));
                }
                Record::SlotOwnership { ranges }
            }
            _ => return None,
        };
        if r.at_end() {
            Some(rec)
        } else {
            None
        }
    }

    /// Serializes the record as a frame: `[magic][len u32][crc32 u32][body]`
    /// where `body` is the tag-level encoding. The per-record CRC replaces
    /// the chained full-entry checksum on the hot append path; chain
    /// checksums are still folded at batch boundaries for stream integrity.
    pub fn encode_framed(&self) -> Bytes {
        // One pre-sized buffer: reserve the header, encode the body in
        // place, then back-patch length and CRC — the whole frame is a
        // single allocation instead of body + copy.
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + self.encoded_len_hint());
        out.resize(FRAME_HEADER_LEN, 0);
        self.encode_into(&mut out);
        let body_len = out.len() - FRAME_HEADER_LEN;
        let crc = crc32(out.get(FRAME_HEADER_LEN..).unwrap_or(&[]));
        if let Some(h) = out.first_mut() {
            *h = FRAME_MAGIC;
        }
        if let Some(h) = out.get_mut(1..5) {
            h.copy_from_slice(&(body_len as u32).to_le_bytes());
        }
        if let Some(h) = out.get_mut(5..9) {
            h.copy_from_slice(&crc.to_le_bytes());
        }
        Bytes::from(out)
    }

    /// Splits one frame off the front of `data`, verifies its CRC, and
    /// decodes the body. Returns the record and the remaining bytes, so
    /// callers can walk a concatenated stream of frames.
    pub fn decode_framed_prefix(data: &[u8]) -> Result<(Record, &[u8]), FrameError> {
        let (expected, body, rest) = Self::split_frame(data)?;
        let actual = crc32(body);
        if actual != expected {
            return Err(FrameError::CrcMismatch { expected, actual });
        }
        let rec = Record::decode_body(body).ok_or(FrameError::Undecodable)?;
        Ok((rec, rest))
    }

    /// Length-prefix walk: returns the stored CRC, the body slice, and the
    /// bytes after the frame WITHOUT checking the CRC, so streaming readers
    /// can skip a corrupt record and keep going.
    pub fn split_frame(data: &[u8]) -> Result<(u32, &[u8], &[u8]), FrameError> {
        let mut r = Rd { d: data, p: 0 };
        match r.u8() {
            Some(m) if m == FRAME_MAGIC => {}
            Some(_) => return Err(FrameError::BadMagic),
            None => return Err(FrameError::Truncated),
        }
        let len = r.u32().ok_or(FrameError::Truncated)? as usize;
        let crc = r.u32().ok_or(FrameError::Truncated)?;
        let body = data
            .get(FRAME_HEADER_LEN..FRAME_HEADER_LEN + len)
            .ok_or(FrameError::Truncated)?;
        let rest = data.get(FRAME_HEADER_LEN + len..).unwrap_or(&[]);
        Ok((crc, body, rest))
    }

    /// Decodes a whole payload that must be exactly one frame — the only
    /// way a log entry is read.
    pub fn decode_framed(data: &[u8]) -> Result<Record, FrameError> {
        let (rec, rest) = Self::decode_framed_prefix(data)?;
        if rest.is_empty() {
            Ok(rec)
        } else {
            Err(FrameError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memorydb_engine::cmd;

    fn roundtrip(rec: Record) {
        let encoded = rec.encode_framed();
        assert_eq!(Record::decode_framed(&encoded), Ok(rec));
    }

    /// The tag-level body alone — what a v1 log entry held.
    fn body(rec: &Record) -> Vec<u8> {
        let mut out = Vec::new();
        rec.encode_into(&mut out);
        out
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Record::Effects {
            version: EngineVersion::CURRENT,
            effects: vec![cmd(["SET", "k", "v"]), cmd(["DEL", "x"])],
        });
        roundtrip(Record::Effects {
            version: EngineVersion::new(8, 1, 2),
            effects: vec![],
        });
        roundtrip(Record::LeaderClaim {
            node: 42,
            epoch: 7,
            lease_ms: 2000,
        });
        roundtrip(Record::LeaseRenewal {
            node: 42,
            epoch: 7,
            lease_ms: 2000,
        });
        roundtrip(Record::LeaseRelease { node: 1, epoch: 2 });
        roundtrip(Record::ChecksumProbe { crc: 0xDEADBEEF });
        roundtrip(Record::MigrationPrepare {
            slot: 100,
            target: 3,
        });
        roundtrip(Record::MigrationCommit {
            slot: 100,
            source: 1,
        });
        roundtrip(Record::MigrationDone { slot: 100 });
        roundtrip(Record::MigrationAbort { slot: 100 });
        roundtrip(Record::SlotOwnership {
            ranges: vec![(0, 8191), (10000, 16383)],
        });
    }

    #[test]
    fn frame_starts_with_magic_and_unframed_body_is_rejected() {
        let rec = Record::Effects {
            version: EngineVersion::CURRENT,
            effects: vec![cmd(["SET", "k", "v"]), cmd(["DEL", "x"])],
        };
        let framed = rec.encode_framed();
        assert_eq!(framed.first(), Some(&FRAME_MAGIC));
        assert_eq!(framed.get(FRAME_HEADER_LEN..), Some(&body(&rec)[..]));
        assert_eq!(Record::decode_framed(&framed), Ok(rec.clone()));
        assert_eq!(
            Record::decode_framed(&body(&rec)),
            Err(FrameError::BadMagic)
        );
    }

    #[test]
    fn framed_decode_reports_typed_errors() {
        let rec = Record::ChecksumProbe { crc: 7 };
        let mut framed = rec.encode_framed().to_vec();
        // Flip a body byte: CRC mismatch, naming both checksums.
        let last = framed.len() - 1;
        if let Some(b) = framed.get_mut(last) {
            *b ^= 0xFF;
        }
        assert!(matches!(
            Record::decode_framed(&framed),
            Err(FrameError::CrcMismatch { .. })
        ));
        // Truncation inside the body.
        let ok = rec.encode_framed();
        assert_eq!(
            Record::decode_framed(&ok[..ok.len() - 2]),
            Err(FrameError::Truncated)
        );
        // Trailing bytes after a complete frame.
        let mut trailing = ok.to_vec();
        trailing.push(0);
        assert_eq!(
            Record::decode_framed(&trailing),
            Err(FrameError::TrailingBytes)
        );
        assert_eq!(
            Record::decode_framed(&[99, 1, 2]),
            Err(FrameError::BadMagic)
        );
        assert_eq!(Record::decode_framed(&[]), Err(FrameError::Truncated));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn corrupt_frame_in_stream_is_isolated_not_fatal() {
        // Three framed records concatenated; corrupt the middle one's body.
        let recs = [
            Record::ChecksumProbe { crc: 1 },
            Record::LeaseRelease { node: 9, epoch: 4 },
            Record::MigrationDone { slot: 12 },
        ];
        let mut stream = Vec::new();
        let mut offsets = Vec::new();
        for r in &recs {
            offsets.push(stream.len());
            stream.extend_from_slice(&r.encode_framed());
        }
        // Flip a byte inside record 1's body (skip its 9-byte header).
        if let Some(b) = stream.get_mut(offsets[1] + FRAME_HEADER_LEN) {
            *b ^= 0x55;
        }
        // Walk the stream with the length prefix: record 0 decodes, record 1
        // fails with a typed CRC error at exactly that frame, record 2 still
        // decodes — corruption does not abort the stream.
        let mut cursor: &[u8] = &stream;
        let (r0, rest) = Record::decode_framed_prefix(cursor).unwrap();
        assert_eq!(r0, recs[0]);
        cursor = rest;
        let err = Record::decode_framed_prefix(cursor).unwrap_err();
        assert!(matches!(err, FrameError::CrcMismatch { .. }));
        let (_, _, rest) = Record::split_frame(cursor).unwrap();
        cursor = rest;
        let (r2, rest) = Record::decode_framed_prefix(cursor).unwrap();
        assert_eq!(r2, recs[2]);
        assert!(rest.is_empty());
    }

    #[test]
    fn body_decode_rejects_garbage() {
        assert_eq!(Record::decode_body(&[]), None);
        assert_eq!(Record::decode_body(&[99, 1, 2, 3]), None);
        // Truncated claim.
        assert_eq!(Record::decode_body(&[2, 1, 0, 0]), None);
        // Trailing garbage after a fixed-size record.
        let mut ok = body(&Record::ChecksumProbe { crc: 1 });
        ok.push(0);
        assert_eq!(Record::decode_body(&ok), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_effect() -> impl Strategy<Value = Vec<bytes::Bytes>> {
        proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..24).prop_map(bytes::Bytes::from),
            0..6,
        )
    }

    fn arb_record() -> impl Strategy<Value = Record> {
        prop_oneof![
            (
                any::<(u16, u16, u16)>(),
                proptest::collection::vec(arb_effect(), 0..4)
            )
                .prop_map(|((ma, mi, pa), effects)| Record::Effects {
                    version: EngineVersion::new(ma, mi, pa),
                    effects,
                }),
            (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(node, epoch, lease_ms)| {
                Record::LeaderClaim {
                    node,
                    epoch,
                    lease_ms,
                }
            }),
            (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(node, epoch, lease_ms)| {
                Record::LeaseRenewal {
                    node,
                    epoch,
                    lease_ms,
                }
            }),
            (any::<u64>(), any::<u64>())
                .prop_map(|(node, epoch)| Record::LeaseRelease { node, epoch }),
            any::<u64>().prop_map(|crc| Record::ChecksumProbe { crc }),
            (any::<u16>(), any::<u32>()).prop_map(|(slot, target)| Record::MigrationPrepare {
                slot: slot % 16384,
                target
            }),
            (any::<u16>(), any::<u32>()).prop_map(|(slot, source)| Record::MigrationCommit {
                slot: slot % 16384,
                source
            }),
            any::<u16>().prop_map(|slot| Record::MigrationDone { slot: slot % 16384 }),
            any::<u16>().prop_map(|slot| Record::MigrationAbort { slot: slot % 16384 }),
            proptest::collection::vec((any::<u16>(), any::<u16>()), 0..8).prop_map(|pairs| {
                Record::SlotOwnership {
                    ranges: pairs
                        .into_iter()
                        .map(|(a, b)| (a.min(b) % 16384, a.max(b) % 16384))
                        .collect(),
                }
            }),
        ]
    }

    proptest! {
        #[test]
        fn prop_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = Record::decode_body(&data);
            let _ = Record::decode_framed(&data);
        }

        #[test]
        fn prop_framed_roundtrip(rec in arb_record()) {
            let framed = rec.encode_framed();
            prop_assert_eq!(Record::decode_framed(&framed), Ok(rec.clone()));
            // The bare body of the same record is not a log record.
            prop_assert_eq!(
                Record::decode_framed(framed.get(FRAME_HEADER_LEN..).unwrap_or(&[])),
                Err(FrameError::BadMagic)
            );
        }

        #[test]
        fn prop_corrupted_crc_detected_at_exact_record(
            recs in proptest::collection::vec(arb_record(), 1..5),
            victim_seed in any::<usize>(),
            flip in 1u8..=255,
        ) {
            // Concatenate framed records, corrupt one body byte in one
            // record, and verify the walk pinpoints exactly that record with
            // a typed CrcMismatch while every other record still decodes.
            let victim = victim_seed % recs.len();
            let mut stream = Vec::new();
            let mut corrupt_at = None;
            for (i, r) in recs.iter().enumerate() {
                let frame = r.encode_framed();
                if i == victim && frame.len() > FRAME_HEADER_LEN {
                    corrupt_at = Some(stream.len() + FRAME_HEADER_LEN);
                }
                stream.extend_from_slice(&frame);
            }
            if let Some(at) = corrupt_at {
                if let Some(b) = stream.get_mut(at) {
                    *b ^= flip;
                }
            }
            let mut cursor: &[u8] = &stream;
            for (i, r) in recs.iter().enumerate() {
                match Record::decode_framed_prefix(cursor) {
                    Ok((got, rest)) => {
                        prop_assert!(corrupt_at.is_none() || i != victim);
                        prop_assert_eq!(&got, r);
                        cursor = rest;
                    }
                    Err(e) => {
                        prop_assert_eq!(i, victim);
                        prop_assert!(matches!(e, FrameError::CrcMismatch { .. }));
                        let split = Record::split_frame(cursor);
                        prop_assert!(split.is_ok(), "frame header must stay intact");
                        if let Ok((_, _, rest)) = split {
                            cursor = rest;
                        }
                    }
                }
            }
            prop_assert!(cursor.is_empty());
        }

        #[test]
        fn prop_truncation_never_roundtrips_to_wrong_record(rec in arb_record(), cut in 1usize..8) {
            let mut encoded = Vec::new();
            rec.encode_into(&mut encoded);
            if encoded.len() > cut {
                let truncated = &encoded[..encoded.len() - cut];
                // Truncated Effects bodies must not decode to a DIFFERENT
                // valid record of the same kind silently... most truncations
                // fail; any that succeed must not equal the original.
                if let Some(other) = Record::decode_body(truncated) {
                    prop_assert_ne!(other, rec);
                }
            }
        }
    }
}
