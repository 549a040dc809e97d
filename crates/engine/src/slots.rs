//! Cluster key-space: CRC16 slot mapping with hash-tag support.
//!
//! Redis splits the flat key space into 16384 slots using CRC16-CCITT
//! (paper §2.1). If a key contains a `{...}` hash tag, only the tag is
//! hashed, letting applications pin related keys to one slot so multi-key
//! transactions stay within one shard.

/// Total number of cluster slots.
pub const NUM_SLOTS: u16 = 16384;

/// Byte-at-a-time lookup table for [`crc16`], built at compile time from
/// the polynomial so the table and the bitwise definition cannot drift.
const CRC16_TABLE: [u16; 256] = {
    const POLY: u16 = 0x1021;
    let mut table = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC16-CCITT (XModem variant, polynomial 0x1021), the exact function
/// Redis Cluster specifies.
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0;
    for &byte in data {
        crc = (crc << 8) ^ CRC16_TABLE[((crc >> 8) as u8 ^ byte) as usize];
    }
    crc
}

/// Maps a key to its cluster slot, honouring `{hash tags}`.
pub fn key_hash_slot(key: &[u8]) -> u16 {
    let effective = hash_tag(key).unwrap_or(key);
    crc16(effective) % NUM_SLOTS
}

/// Extracts the hash tag from a key, if present: the content of the first
/// `{...}` pair, provided it is non-empty.
fn hash_tag(key: &[u8]) -> Option<&[u8]> {
    let open = key.iter().position(|&b| b == b'{')?;
    let close_rel = key[open + 1..].iter().position(|&b| b == b'}')?;
    if close_rel == 0 {
        None // "{}" — empty tag, hash the whole key
    } else {
        Some(&key[open + 1..open + 1 + close_rel])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_known_vectors() {
        // Vector from the Redis Cluster specification.
        assert_eq!(crc16(b"123456789"), 0x31C3);
        assert_eq!(crc16(b""), 0x0000);
    }

    #[test]
    fn table_matches_bitwise_definition() {
        fn bitwise(data: &[u8]) -> u16 {
            let mut crc: u16 = 0;
            for &byte in data {
                crc ^= (byte as u16) << 8;
                for _ in 0..8 {
                    crc = if crc & 0x8000 != 0 {
                        (crc << 1) ^ 0x1021
                    } else {
                        crc << 1
                    };
                }
            }
            crc
        }
        let data: Vec<u8> = (0..600u32).map(|i| (i * 7 + i / 13) as u8).collect();
        for len in [0, 1, 2, 3, 9, 64, 255, 600] {
            assert_eq!(crc16(&data[..len]), bitwise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn known_slot_assignments() {
        // Published values from the Redis Cluster spec & widely used tests.
        assert_eq!(key_hash_slot(b"123456789"), 0x31C3 % NUM_SLOTS);
        assert_eq!(key_hash_slot(b"foo"), 12182);
        assert_eq!(key_hash_slot(b"bar"), 5061);
        assert_eq!(key_hash_slot(b"hello"), 866);
    }

    #[test]
    fn hash_tags_group_keys() {
        assert_eq!(
            key_hash_slot(b"{user1}.following"),
            key_hash_slot(b"{user1}.followers")
        );
        assert_eq!(key_hash_slot(b"{user1}.x"), key_hash_slot(b"user1"));
        // Only the first tag counts.
        assert_eq!(key_hash_slot(b"{a}{b}"), key_hash_slot(b"a"));
        // Empty tag — whole key hashed.
        assert_ne!(key_hash_slot(b"{}different"), key_hash_slot(b""));
        assert_eq!(key_hash_slot(b"{}x"), crc16(b"{}x") % NUM_SLOTS);
        // Unclosed brace — whole key hashed.
        assert_eq!(key_hash_slot(b"{open"), crc16(b"{open") % NUM_SLOTS);
    }

    #[test]
    fn all_slots_reachable() {
        // Sanity: hashing a spread of keys covers many distinct slots.
        let mut seen = std::collections::HashSet::new();
        for i in 0..100_000 {
            seen.insert(key_hash_slot(format!("key:{i}").as_bytes()));
        }
        assert!(seen.len() > 16000, "only {} slots hit", seen.len());
    }
}
