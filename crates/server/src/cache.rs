//! Content-addressed result cache.
//!
//! Keys are FNV-1a-64 fingerprints of the canonical request text
//! (operation, lattice, binding spec, flags, source). The canonical
//! text is retained in each entry and compared on lookup, so a 64-bit
//! fingerprint collision degrades to a miss instead of serving a wrong
//! result. Eviction is exact LRU via a recency index.

use std::collections::{BTreeMap, HashMap};

use crate::json::Json;
use crate::protocol::{error_field, ErrorKind};

pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a over one byte chunk, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A cache key: fingerprint plus the canonical text it fingerprints.
#[derive(Clone, Debug)]
pub struct CacheKey {
    /// FNV-1a-64 of `canon`.
    pub hash: u64,
    /// The canonical request text (collision guard).
    pub canon: String,
}

impl CacheKey {
    /// Fingerprints the canonical parts of a request. Parts are length-
    /// prefixed so concatenation ambiguity cannot alias two keys.
    pub fn of(parts: &[&str]) -> CacheKey {
        let mut canon = String::new();
        let mut hash = FNV_OFFSET;
        for part in parts {
            let prefix = format!("{}:", part.len());
            hash = fnv1a(hash, prefix.as_bytes());
            hash = fnv1a(hash, part.as_bytes());
            canon.push_str(&prefix);
            canon.push_str(part);
            canon.push('\x1f');
        }
        CacheKey { hash, canon }
    }
}

/// Re-derives the fingerprint of a canonical key text by replaying the
/// [`CacheKey::of`] construction over its length-prefixed parts.
/// Returns `None` when `canon` is not well-formed canonical text — a
/// truncated part, a missing separator, a bad length prefix.
///
/// This is the integrity check for entries that arrive over the wire
/// (`peer-sync` journal shipping): a peer-supplied record whose claimed
/// hash disagrees with `canon_hash(canon)` is forged or corrupt, and
/// accepting it would poison the content-addressed cache.
pub fn canon_hash(canon: &str) -> Option<u64> {
    let bytes = canon.as_bytes();
    let mut hash = FNV_OFFSET;
    let mut at = 0;
    while at < bytes.len() {
        let colon = bytes[at..].iter().position(|&b| b == b':')? + at;
        let len: usize = canon.get(at..colon)?.parse().ok()?;
        let end = (colon + 1).checked_add(len)?;
        if end >= bytes.len() || bytes[end] != 0x1f {
            return None; // truncated part or missing separator
        }
        hash = fnv1a(hash, &bytes[at..end]);
        at = end + 1;
    }
    Some(hash)
}

/// A cached response payload: the fields to splice into a `Response`,
/// plus whether the original run succeeded.
#[derive(Clone, Debug)]
pub struct CachedResult {
    /// `ok` of the original response.
    pub ok: bool,
    /// Response fields other than `id`/`ok`/`op`/`cached`.
    pub fields: Vec<(String, Json)>,
}

impl CachedResult {
    /// Bytes of text in the fields, names and string values: about
    /// what rendering the reply copies and escapes.
    pub(crate) fn text_len(&self) -> usize {
        fn text(v: &Json) -> usize {
            match v {
                Json::Str(s) => s.len(),
                Json::Arr(items) => items.iter().map(text).sum(),
                Json::Obj(fields) => fields.iter().map(|(k, v)| k.len() + text(v)).sum(),
                _ => 0,
            }
        }
        self.fields.iter().map(|(k, v)| k.len() + text(v)).sum()
    }

    /// A failure result: one `error` field with `kind` and `message`.
    pub(crate) fn error(kind: ErrorKind, message: &str) -> CachedResult {
        CachedResult {
            ok: false,
            fields: vec![error_field(kind, message)],
        }
    }
}

struct Entry {
    canon: String,
    value: CachedResult,
    stamp: u64,
}

/// Bounded LRU map from request fingerprints to results.
pub struct ResultCache {
    capacity: usize,
    map: HashMap<u64, Entry>,
    recency: BTreeMap<u64, u64>, // stamp -> hash, oldest first
    clock: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` results (0 disables caching).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            map: HashMap::new(),
            recency: BTreeMap::new(),
            clock: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<CachedResult> {
        let entry = self.map.get_mut(&key.hash)?;
        if entry.canon != key.canon {
            return None; // fingerprint collision: treat as a miss
        }
        self.recency.remove(&entry.stamp);
        self.clock += 1;
        entry.stamp = self.clock;
        self.recency.insert(entry.stamp, key.hash);
        Some(entry.value.clone())
    }

    /// The result under `key`, without refreshing its recency or
    /// copying it.
    pub(crate) fn peek(&self, key: &CacheKey) -> Option<&CachedResult> {
        self.map
            .get(&key.hash)
            .filter(|e| e.canon == key.canon)
            .map(|e| &e.value)
    }

    /// Whether `key` is present (exact canon match), without refreshing
    /// recency — the idempotence check for replica installs, which must
    /// not perturb LRU order or look like traffic.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.map
            .get(&key.hash)
            .is_some_and(|e| e.canon == key.canon)
    }

    /// XOR of every live entry's fingerprint: an order-independent
    /// shard digest. Two nodes with equal digests hold the same entry
    /// set (up to the 64-bit collision odds the cache already accepts),
    /// so anti-entropy can compare shards in O(1) wire bytes.
    pub fn digest(&self) -> u64 {
        self.map.keys().fold(0u64, |acc, h| acc ^ h)
    }

    /// Every live entry as `(hash, canon, value)`, least recently used
    /// first — the order compaction writes them, so a bounded replay
    /// keeps the hottest entries (see [`crate::persist`]).
    pub fn entries(&self) -> Vec<(u64, String, CachedResult)> {
        self.page(0, usize::MAX)
    }

    /// At most `limit` entries of the [`entries`](Self::entries) order,
    /// starting at position `cursor`. Only the page is cloned, so a
    /// paged `peer-sync` of the whole cache clones each entry once.
    pub fn page(&self, cursor: usize, limit: usize) -> Vec<(u64, String, CachedResult)> {
        self.recency
            .values()
            .skip(cursor)
            .take(limit)
            .filter_map(|hash| {
                let entry = self.map.get(hash)?;
                Some((*hash, entry.canon.clone(), entry.value.clone()))
            })
            .collect()
    }

    /// Inserts `value` under `key`, evicting the least recently used
    /// entry if the cache is full.
    pub fn put(&mut self, key: &CacheKey, value: CachedResult) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        if let Some(old) = self.map.remove(&key.hash) {
            self.recency.remove(&old.stamp);
        } else if self.map.len() >= self.capacity {
            if let Some((&oldest, &victim)) = self.recency.iter().next() {
                self.recency.remove(&oldest);
                self.map.remove(&victim);
            }
        }
        self.map.insert(
            key.hash,
            Entry {
                canon: key.canon.clone(),
                value,
                stamp: self.clock,
            },
        );
        self.recency.insert(self.clock, key.hash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(tag: &str) -> CachedResult {
        CachedResult {
            ok: true,
            fields: vec![("tag".to_string(), Json::Str(tag.to_string()))],
        }
    }

    #[test]
    fn fingerprint_is_stable_and_separator_safe() {
        let a = CacheKey::of(&["ab", "c"]);
        let b = CacheKey::of(&["ab", "c"]);
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.canon, b.canon);
        // Same concatenation, different split — must not alias.
        let c = CacheKey::of(&["a", "bc"]);
        assert_ne!(a.canon, c.canon);
        assert_ne!(a.hash, c.hash);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut cache = ResultCache::new(2);
        let (k1, k2, k3) = (
            CacheKey::of(&["1"]),
            CacheKey::of(&["2"]),
            CacheKey::of(&["3"]),
        );
        cache.put(&k1, result("1"));
        cache.put(&k2, result("2"));
        assert!(cache.get(&k1).is_some()); // refresh k1: k2 is now LRU
        cache.put(&k3, result("3"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&k1).is_some());
        assert!(cache.get(&k2).is_none());
        assert!(cache.get(&k3).is_some());
    }

    #[test]
    fn canon_hash_replays_the_fingerprint() {
        let key = CacheKey::of(&["certify", "two", "var x : integer; x := 0"]);
        assert_eq!(canon_hash(&key.canon), Some(key.hash));
        assert_eq!(canon_hash(""), Some(CacheKey::of(&[]).hash));

        // Malformed canonical text never yields a fingerprint.
        assert_eq!(canon_hash("no-prefix"), None);
        assert_eq!(canon_hash("5:abc\x1f"), None); // length lies
        assert_eq!(canon_hash(&key.canon[..key.canon.len() - 1]), None); // truncated
        assert_eq!(canon_hash("3:abc"), None); // separator missing

        // A doctored part changes the fingerprint (forgery detection).
        let doctored = key.canon.replace("certify", "certifz");
        assert_ne!(canon_hash(&doctored), Some(key.hash));
    }

    #[test]
    fn digest_is_order_independent_and_contains_matches_canon() {
        let mut a = ResultCache::new(8);
        let mut b = ResultCache::new(8);
        let keys = [
            CacheKey::of(&["1"]),
            CacheKey::of(&["2"]),
            CacheKey::of(&["3"]),
        ];
        assert_eq!(a.digest(), 0);
        for k in &keys {
            a.put(k, result("x"));
        }
        for k in keys.iter().rev() {
            b.put(k, result("x"));
        }
        assert_eq!(a.digest(), b.digest(), "digest ignores insertion order");
        b.put(&CacheKey::of(&["4"]), result("y"));
        assert_ne!(a.digest(), b.digest(), "digest sees the extra entry");

        assert!(a.contains(&keys[0]));
        let forged = CacheKey {
            hash: keys[0].hash,
            canon: "different".to_string(),
        };
        assert!(!a.contains(&forged), "contains checks the canon text");
        assert!(!a.contains(&CacheKey::of(&["missing"])));
    }

    #[test]
    fn collisions_degrade_to_misses() {
        let mut cache = ResultCache::new(4);
        let real = CacheKey::of(&["x"]);
        cache.put(&real, result("x"));
        let forged = CacheKey {
            hash: real.hash,
            canon: "different".to_string(),
        };
        assert!(cache.get(&forged).is_none());
        assert!(cache.get(&real).is_some());
    }

    #[test]
    fn pages_walk_the_cache_in_entries_order() {
        let mut cache = ResultCache::new(8);
        let keys: Vec<CacheKey> = (0..10).map(|i| CacheKey::of(&[&i.to_string()])).collect();
        for (i, k) in keys.iter().enumerate() {
            cache.put(k, result(&i.to_string()));
        }
        // 0 and 1 were evicted; refreshing 4 and 2 makes them the most
        // recently used, in that order.
        cache.get(&keys[4]).unwrap();
        cache.get(&keys[2]).unwrap();
        let expected: Vec<u64> = [3, 5, 6, 7, 8, 9, 4, 2]
            .iter()
            .map(|&i| keys[i].hash)
            .collect();

        let mut paged = Vec::new();
        let mut cursor = 0;
        loop {
            let page = cache.page(cursor, 3);
            assert!(page.len() <= 3);
            if page.is_empty() {
                break;
            }
            cursor += page.len();
            paged.extend(page);
        }
        let hashes = |entries: &[(u64, String, CachedResult)]| -> Vec<u64> {
            entries.iter().map(|(h, _, _)| *h).collect()
        };
        assert_eq!(hashes(&paged), expected);
        assert_eq!(hashes(&cache.entries()), expected);
        assert!(cache.page(8, 3).is_empty(), "a cursor at the end is empty");
        assert!(cache.page(usize::MAX, 3).is_empty());
    }

    #[test]
    fn zero_capacity_disables() {
        let mut cache = ResultCache::new(0);
        let k = CacheKey::of(&["k"]);
        cache.put(&k, result("k"));
        assert!(cache.is_empty());
        assert!(cache.get(&k).is_none());
    }
}
