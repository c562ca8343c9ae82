//! The string → label table behind dictionary encoding.
//!
//! Encoding every CSV cell is one lookup in its column's dictionary, and on
//! row-heavy data the dictionaries grow to ~100k keys, so the lookup is a
//! cache miss more often than not. A `HashMap<String, u32>` pays up to
//! three of them per lookup (control bytes, bucket, heap string) plus one
//! allocation per key. [`Dictionary`] is an open-addressing table of 16-byte
//! slots that stores keys of up to 8 bytes inline in the slot and longer
//! ones in one shared byte arena, so a hit on a short key touches a single
//! slot and no key allocates.
//!
//! Keys come from outside the program (CSV files, protocol delta rows), so
//! they are hashed with std's randomly keyed SipHash rather than the
//! unkeyed FxHash of the internal tables: crafted values cannot force the
//! probe sequences to collide.

use std::hash::{BuildHasher, RandomState};

/// Marks an unused slot (no real label reaches `u32::MAX`: labels are
/// bounded by the row count, which fits `u32` with room to spare).
const EMPTY: u32 = u32::MAX;

/// Keys of at most this many bytes live inline in their slot.
const INLINE: usize = 8;

#[derive(Clone, Copy, Debug)]
struct Slot {
    /// The key's bytes, zero-padded little-endian, if it is inline;
    /// otherwise its offset in the arena.
    key: u64,
    /// The key's length, saturated at `u32::MAX` (exact for inline keys;
    /// an arena key's exact length is stored in the arena).
    len: u32,
    label: u32,
}

const FREE: Slot = Slot { key: 0, len: 0, label: EMPTY };

/// A string → label map with linear probing at load ≤ 1/2.
#[derive(Clone, Debug)]
pub(crate) struct Dictionary {
    /// Power-of-two slot table.
    slots: Vec<Slot>,
    /// The keys longer than [`INLINE`], each as its length (8 bytes,
    /// little-endian) followed by its bytes.
    arena: Vec<u8>,
    len: usize,
    /// `64 - log2(slots.len())`: a hash's top bits pick its home slot.
    shift: u32,
    hasher: RandomState,
}

impl Default for Dictionary {
    fn default() -> Self {
        Dictionary {
            slots: vec![FREE; 16],
            arena: Vec::new(),
            len: 0,
            shift: 60,
            hasher: RandomState::new(),
        }
    }
}

fn pack(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

impl Dictionary {
    /// Number of keys.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The label of `value`, inserting it with label `fresh()` if absent.
    pub(crate) fn get_or_insert_with(&mut self, value: &str, fresh: impl FnOnce() -> u32) -> u32 {
        let bytes = value.as_bytes();
        let len = u32::try_from(bytes.len()).unwrap_or(u32::MAX);
        let inline = bytes.len() <= INLINE;
        let packed = if inline { pack(bytes) } else { 0 };
        let mask = self.slots.len() - 1;
        let mut i = (self.hasher.hash_one(bytes) >> self.shift) as usize;
        loop {
            let slot = self.slots[i];
            if slot.label == EMPTY {
                break;
            }
            let same = slot.len == len
                && if inline { slot.key == packed } else { self.key(&slot) == bytes };
            if same {
                return slot.label;
            }
            i = (i + 1) & mask;
        }
        let label = fresh();
        debug_assert_ne!(label, EMPTY);
        let key = if inline {
            packed
        } else {
            let offset = self.arena.len() as u64;
            self.arena.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            self.arena.extend_from_slice(bytes);
            offset
        };
        self.slots[i] = Slot { key, len, label };
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            self.grow();
        }
        label
    }

    /// The bytes of an arena-stored key.
    fn key(&self, slot: &Slot) -> &[u8] {
        let start = slot.key as usize + 8;
        let mut len = [0u8; 8];
        len.copy_from_slice(&self.arena[start - 8..start]);
        &self.arena[start..start + u64::from_le_bytes(len) as usize]
    }

    /// Doubles the table and re-homes every key.
    fn grow(&mut self) {
        let doubled = vec![FREE; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|s| s.label != EMPTY) {
            let h = if slot.len as usize <= INLINE {
                self.hasher.hash_one(&slot.key.to_le_bytes()[..slot.len as usize])
            } else {
                self.hasher.hash_one(self.key(&slot))
            };
            let mut i = (h >> self.shift) as usize;
            while self.slots[i].label != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn matches_a_hash_map_across_growth_and_key_lengths() {
        let mut dict = Dictionary::default();
        let mut oracle: HashMap<String, u32> = HashMap::new();
        // Inline/arena boundary keys, zero-padding look-alikes, empty and
        // non-ASCII keys, then enough distinct keys to grow many times.
        let mut keys: Vec<String> =
            ["", "a", "a\0", "\0", "12345678", "123456789", "日本語", "é", "12345678\0"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        keys.extend((0..5000u32).map(|i| format!("{}", i.wrapping_mul(2654435761) % 7000)));
        keys.extend((0..300u32).map(|i| format!("long-key-number-{i}")));
        for key in keys.iter().chain(keys.iter().rev()) {
            let next = oracle.len() as u32;
            let expect = *oracle.entry(key.clone()).or_insert(next);
            assert_eq!(dict.get_or_insert_with(key, || next), expect, "key {key:?}");
        }
        assert_eq!(dict.len(), oracle.len());
    }
}
