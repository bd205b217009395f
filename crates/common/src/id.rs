//! Identifier types: primary keys, subscription ids, tenants, query hashes.

use crate::partition::{fmix64, fnv1a64, Fnv1a};
use crate::value::{canonical_cmp, CanonicalSink, Value};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Primary key of a stored record.
///
/// Like MongoDB's `_id`, a key may be any scalar value (strings and integers
/// in practice). `Key` wraps [`Value`] with total `Ord`/`Eq`/`Hash`
/// implementations based on the canonical comparison, so `Key(Int(1))` and
/// `Key(Float(1.0))` are the same key and hash to the same write partition.
#[derive(Debug, Clone)]
pub struct Key(pub Value);

impl Key {
    /// Convenience constructor from anything convertible to a [`Value`].
    pub fn of(v: impl Into<Value>) -> Self {
        Key(v.into())
    }

    /// Canonical byte encoding, collected. Hashing and partitioning stream
    /// the same bytes without collecting them ([`Key::stable_hash`],
    /// `impl Hash`); this owned form is for whoever has to *keep* the bytes,
    /// and the oracle the streamed hashes are tested against.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.0.write_canonical(&mut out);
        out
    }

    /// Stable 64-bit hash of this key: `stable_hash64` of the canonical
    /// encoding, computed as the encoding is produced.
    pub fn stable_hash(&self) -> u64 {
        let mut hash = Fnv1a::new();
        self.0.write_canonical(&mut hash);
        fmix64(hash.finish())
    }
}

/// Feeds a canonical encoding to a [`Hasher`] piece by piece.
struct HasherSink<'a, H: Hasher>(&'a mut H);

impl<H: Hasher> CanonicalSink for HasherSink<'_, H> {
    fn put(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        canonical_cmp(&self.0, &other.0) == Ordering::Equal
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        canonical_cmp(&self.0, &other.0)
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash the canonical encoding so Eq and Hash agree across numeric
        // representations.
        self.0.write_canonical(&mut HasherSink(state));
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key(Value::String(s.into()))
    }
}
impl From<String> for Key {
    fn from(s: String) -> Self {
        Key(Value::String(s.into()))
    }
}
impl From<i64> for Key {
    fn from(i: i64) -> Self {
        Key(Value::Int(i))
    }
}

/// Identifier of one real-time query subscription.
///
/// Generated by the *client* (paper §5, footnote 2) so that an application
/// server can tag change notifications and clients can demultiplex them over
/// a shared connection. Randomness is simulated with a process-wide counter
/// mixed through FNV so ids are unique and non-sequential.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u64);

static NEXT_SUBSCRIPTION: AtomicU64 = AtomicU64::new(1);

impl SubscriptionId {
    /// Generates a fresh unique subscription id.
    pub fn generate() -> Self {
        let n = NEXT_SUBSCRIPTION.fetch_add(1, AtomicOrdering::Relaxed);
        // Mix so ids look random (the paper notes subscription ids are
        // randomly generated, which is why they are NOT usable for query
        // partitioning).
        SubscriptionId(fnv1a64(&n.to_be_bytes()))
    }
}

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub-{:016x}", self.0)
    }
}

/// Identifier of a tenant (one application). The InvaliDB cluster is
/// multi-tenant: a single cluster serves many application servers (§5).
///
/// Every message names its tenant and every layer keys state by it, so the
/// name is shared, not copied: a clone is a reference bump, and a map keyed
/// by `TenantId` is probed with a plain `&str`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// New tenant id from a name.
    pub fn new(name: &str) -> Self {
        TenantId(Arc::from(name))
    }

    /// The tenant's name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(s: &str) -> Self {
        TenantId::new(s)
    }
}

// `Arc<str>` hashes and compares as the `str` it holds, as `Borrow` requires.
impl Borrow<str> for TenantId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// Hands out one shared [`TenantId`] per distinct name, so a decoder that
/// reads the same few tenant names off the wire message after message
/// allocates each of them once.
#[derive(Debug, Default)]
pub struct TenantInterner {
    seen: HashSet<TenantId>,
}

impl TenantInterner {
    /// Names are wire input: past this many distinct ones the interner
    /// stops remembering new names rather than grow without bound.
    const CAPACITY: usize = 4096;

    /// The shared id for `name`.
    pub fn intern(&mut self, name: &str) -> TenantId {
        if let Some(known) = self.seen.get(name) {
            return known.clone();
        }
        let tenant = TenantId::new(name);
        if self.seen.len() < Self::CAPACITY {
            self.seen.insert(tenant.clone());
        }
        tenant
    }
}

/// Stable hash of a *normalized* query.
///
/// Computed from the query attributes (not the subscription id!) when the
/// subscription request is received, so distinct subscriptions to the same
/// query always route to the same query partition (§5.1). Application
/// servers memoize this value per subscription and attach it to all
/// follow-up requests (cancellation, TTL extension) because it cannot be
/// recomputed from those requests alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryHash(pub u64);

impl fmt::Display for QueryHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q-{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(k: &Key) -> u64 {
        let mut h = DefaultHasher::new();
        k.hash(&mut h);
        h.finish()
    }

    #[test]
    fn numeric_keys_unify() {
        let a = Key::of(7i64);
        let b = Key(Value::Float(7.0));
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(a.stable_hash(), b.stable_hash());
    }

    #[test]
    fn distinct_keys_differ() {
        assert_ne!(Key::of("a"), Key::of("b"));
        assert_ne!(Key::of(1i64), Key::of(2i64));
        assert_ne!(Key::of("1"), Key::of(1i64));
    }

    #[test]
    fn subscription_ids_unique() {
        let a = SubscriptionId::generate();
        let b = SubscriptionId::generate();
        assert_ne!(a, b);
    }

    #[test]
    fn key_ordering_follows_canonical() {
        let mut keys = [Key::of("b"), Key::of(10i64), Key::of("a"), Key::of(2i64)];
        keys.sort();
        let shown: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        assert_eq!(shown, vec!["2", "10", "\"a\"", "\"b\""]);
    }
}
