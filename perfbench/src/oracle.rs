//! Correctness oracles. Every value the key-value generator writes
//! encodes its key and version, so a GET reply or a snapshot entry can be
//! checked against the version history the generator kept. The
//! fork-invocation oracle is a pure function of the address.

use std::io::Write as _;

use crate::rng::mix;

/// Bytes of the `{key:08x}{version:08x}` header that opens every value.
const HEADER: usize = 16;

/// Key bytes for key `id`.
pub(crate) fn key_bytes(id: u32) -> Vec<u8> {
    format!("key:{id:08}").into_bytes()
}

/// The key id encoded in `key`, if it is one of [`key_bytes`]'s.
fn key_id(key: &[u8]) -> Option<u32> {
    let digits = key.strip_prefix(b"key:")?;
    if digits.len() != 8 {
        return None;
    }
    std::str::from_utf8(digits).ok()?.parse().ok()
}

/// Writes the `len`-byte value of (`key`, `version`) into `out`: a hex
/// header naming both, then filler derived from both, so a value of
/// another key or version differs in its header and its body.
pub(crate) fn value_into(key: u32, version: u32, len: usize, out: &mut Vec<u8>) {
    out.clear();
    push_value(key, version, len, out);
}

/// Appends the value of (`key`, `version`) to `out`.
fn push_value(key: u32, version: u32, len: usize, out: &mut Vec<u8>) {
    assert!(len >= HEADER, "values hold at least the header");
    let end = out.len() + len;
    write!(out, "{key:08x}{version:08x}").expect("write to a Vec");
    let word = mix((u64::from(key) << 32) | u64::from(version)).to_le_bytes();
    while out.len() < end {
        let n = (end - out.len()).min(word.len());
        out.extend_from_slice(&word[..n]);
    }
}

/// The (key, version) a value's header names.
fn decode_header(value: &[u8]) -> Option<(u32, u32)> {
    let hex = |b: &[u8]| u32::from_str_radix(std::str::from_utf8(b).ok()?, 16).ok();
    Some((hex(value.get(..8)?)?, hex(value.get(8..HEADER)?)?))
}

/// Whether `reply` is the RESP bulk reply holding exactly the value of
/// (`key`, `version`). A GET is sent after every earlier command on its
/// key, on the same connection, so the reply must carry the last version
/// sent before it: an older one is stale, a missing one lost.
pub(crate) fn check_get(
    reply: &[u8],
    key: u32,
    version: u32,
    len: usize,
    scratch: &mut Vec<u8>,
) -> bool {
    scratch.clear();
    write!(scratch, "${len}\r\n").expect("write to a Vec");
    push_value(key, version, len, scratch);
    scratch.extend_from_slice(b"\r\n");
    reply == scratch.as_slice()
}

/// Checks the per-shard dumps of one snapshot: every key appears exactly
/// once, with a well-formed value whose version lies in
/// `lower[key]..=upper[key]` — at least the last version acknowledged
/// before the BGSAVE was sent, at most the last version sent before its
/// reply arrived.
pub(crate) fn check_dump(
    dumps: &[Vec<u8>],
    lower: &[u32],
    upper: &[u32],
    len: usize,
) -> Result<(), String> {
    let mut seen = vec![false; lower.len()];
    let mut scratch = Vec::with_capacity(len);
    for (shard, dump) in dumps.iter().enumerate() {
        let mut at = 8;
        let count = dump
            .get(..8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            .ok_or(format!("shard {shard}: truncated dump header"))?;
        for _ in 0..count {
            let field = |at: usize| -> Option<usize> {
                let b = dump.get(at..at + 4)?;
                Some(u32::from_le_bytes(b.try_into().ok()?) as usize)
            };
            let (Some(klen), Some(vlen)) = (field(at), field(at + 4)) else {
                return Err(format!("shard {shard}: truncated entry at byte {at}"));
            };
            let key = dump.get(at + 8..at + 8 + klen);
            let value = dump.get(at + 8 + klen..at + 8 + klen + vlen);
            let (Some(key), Some(value)) = (key, value) else {
                return Err(format!("shard {shard}: truncated entry at byte {at}"));
            };
            at += 8 + klen + vlen;
            let id = key_id(key)
                .filter(|&id| (id as usize) < lower.len())
                .ok_or_else(|| format!("unknown key {}", String::from_utf8_lossy(key)))?;
            if std::mem::replace(&mut seen[id as usize], true) {
                return Err(format!("key {id} appears twice"));
            }
            let (kid, version) = decode_header(value)
                .ok_or_else(|| format!("key {id}: value has no version header"))?;
            value_into(kid, version, len, &mut scratch);
            if kid != id || value != scratch.as_slice() {
                return Err(format!("key {id}: value is not one the generator wrote"));
            }
            let (lo, hi) = (lower[id as usize], upper[id as usize]);
            if !(lo..=hi).contains(&version) {
                return Err(format!(
                    "key {id}: version {version} outside {lo}..={hi} (stale or from the future)"
                ));
            }
        }
        if at != dump.len() {
            return Err(format!(
                "shard {shard}: trailing bytes after {count} entries"
            ));
        }
    }
    match seen.iter().position(|&s| !s) {
        Some(id) => Err(format!("key {id} missing from the snapshot")),
        None => Ok(()),
    }
}

/// The word the fork-invocation parent holds at `addr` before any child
/// runs.
pub(crate) fn pattern(addr: u64) -> u64 {
    mix(addr ^ 0x6f64_665f_6265_6e63)
}

/// The word a child must read at `addr` after its own `writes`.
pub(crate) fn child_word(addr: u64, writes: &[(u64, u64)]) -> u64 {
    writes
        .iter()
        .rev()
        .find(|&&(a, _)| a == addr)
        .map_or_else(|| pattern(addr), |&(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bulk(value: &[u8]) -> Vec<u8> {
        let mut r = format!("${}\r\n", value.len()).into_bytes();
        r.extend_from_slice(value);
        r.extend_from_slice(b"\r\n");
        r
    }

    fn value(key: u32, version: u32, len: usize) -> Vec<u8> {
        let mut v = Vec::new();
        value_into(key, version, len, &mut v);
        v
    }

    #[test]
    fn values_name_their_key_and_version() {
        let v = value(12, 34, 64);
        assert_eq!(v.len(), 64);
        assert_eq!(decode_header(&v), Some((12, 34)));
        assert_ne!(v[HEADER..], value(12, 35, 64)[HEADER..]);
        assert_eq!(key_id(&key_bytes(4_321)), Some(4_321));
        assert_eq!(key_id(b"key:12"), None);
    }

    #[test]
    fn get_oracle_rejects_stale_missing_and_foreign_values() {
        let mut s = Vec::new();
        assert!(check_get(&bulk(&value(5, 3, 64)), 5, 3, 64, &mut s));
        assert!(
            !check_get(&bulk(&value(5, 2, 64)), 5, 3, 64, &mut s),
            "stale"
        );
        assert!(
            !check_get(&bulk(&value(6, 3, 64)), 5, 3, 64, &mut s),
            "other key"
        );
        assert!(!check_get(b"$-1\r\n", 5, 3, 64, &mut s), "missing");
        assert!(!check_get(b"-ERR boom\r\n", 5, 3, 64, &mut s), "error");
        let mut torn = bulk(&value(5, 3, 64));
        torn[40] ^= 1;
        assert!(!check_get(&torn, 5, 3, 64, &mut s), "corrupted body");
    }

    /// A one-shard dump holding `entries` as (key, version) pairs.
    fn dump(entries: &[(u32, u32)], len: usize) -> Vec<Vec<u8>> {
        let mut d = (entries.len() as u64).to_le_bytes().to_vec();
        for &(k, v) in entries {
            let key = key_bytes(k);
            d.extend_from_slice(&(key.len() as u32).to_le_bytes());
            d.extend_from_slice(&(len as u32).to_le_bytes());
            d.extend_from_slice(&key);
            d.extend_from_slice(&value(k, v, len));
        }
        vec![d]
    }

    #[test]
    fn dump_oracle_accepts_versions_within_bounds() {
        let (lower, upper) = ([1, 0, 2], [3, 0, 2]);
        assert_eq!(
            check_dump(&dump(&[(0, 2), (1, 0), (2, 2)], 32), &lower, &upper, 32),
            Ok(())
        );
        // Shards split the keys between them.
        let mut two = dump(&[(0, 1)], 32);
        two.extend(dump(&[(2, 2), (1, 0)], 32));
        assert_eq!(check_dump(&two, &lower, &upper, 32), Ok(()));
    }

    #[test]
    fn dump_oracle_rejects_stale_future_missing_and_duplicate_keys() {
        let (lower, upper) = ([1, 0, 2], [3, 0, 2]);
        let check = |entries: &[(u32, u32)]| check_dump(&dump(entries, 32), &lower, &upper, 32);
        assert!(check(&[(0, 0), (1, 0), (2, 2)])
            .unwrap_err()
            .contains("stale"));
        assert!(check(&[(0, 4), (1, 0), (2, 2)]).is_err(), "not yet sent");
        assert!(check(&[(0, 1), (2, 2)]).unwrap_err().contains("missing"));
        assert!(check(&[(0, 1), (1, 0), (1, 0), (2, 2)])
            .unwrap_err()
            .contains("twice"));
        let mut torn = dump(&[(0, 1), (1, 0), (2, 2)], 32);
        let last = torn[0].len() - 1;
        torn[0][last] ^= 1;
        assert!(
            check_dump(&torn, &lower, &upper, 32).is_err(),
            "corrupted body"
        );
        torn[0].truncate(last);
        assert!(check_dump(&torn, &lower, &upper, 32).is_err(), "truncated");
    }

    #[test]
    fn child_words_follow_the_childs_own_writes() {
        let writes = [(64, 1), (128, 2), (64, 3)];
        assert_eq!(child_word(64, &writes), 3);
        assert_eq!(child_word(128, &writes), 2);
        assert_eq!(child_word(192, &writes), pattern(192));
        assert_ne!(pattern(192), pattern(200));
    }
}
