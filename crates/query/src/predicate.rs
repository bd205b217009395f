//! Conjunctive filter decomposition — the shared vocabulary of the
//! multi-query optimizations (the thesis's "multi-query optimizations";
//! SharedDB-style shared predicate evaluation).
//!
//! A filter is decomposed into its canonical set of **atoms**: the smallest
//! conjuncts whose AND is exactly the original filter.
//! `{status: "open", price: {$gt: 10, $lt: 100}}` becomes three atoms —
//! `{status: "open"}`, `{price: {$gt: 10}}` and `{price: {$lt: 100}}`.
//! Each atom carries a stable [`PredicateHash`] over its canonical byte
//! encoding, so the *same* predicate appearing in a thousand different
//! subscriptions is recognized as one — the filtering stage then evaluates
//! it once per write, not once per query.
//!
//! Splitting a multi-operator condition is exact under MongoDB semantics:
//! `{a: {$gt: 5, $lt: 9}}` parses to a conjunction of predicates that are
//! each evaluated independently over the same resolved values (implicit
//! array fan-out included), which is precisely what
//! `{$and: [{a: {$gt: 5}}, {a: {$lt: 9}}]}` parses to. The only operators
//! that must stay together are the coupled pairs `$regex`/`$options` and
//! `$nearSphere`/`$maxDistance` — the modifier is consumed by its partner
//! at parse time and is not a standalone predicate.

use crate::normalize::conjuncts_of;
use invalidb_common::partition::fmix64;
use invalidb_common::{stable_hash64, Document, Fnv1a};

/// Stable identity of one atomic predicate: the hash of the canonical byte
/// encoding of its single-conjunct filter document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredicateHash(pub u64);

/// Stable identity of a whole filter: the hash of its sorted atom hashes.
/// Two filters with the same `FilterHash` are the same conjunction, however
/// they were spelled (`$and` nesting, operator grouping, key order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FilterHash(pub u64);

/// One atomic conjunct in canonical, standalone filter-document form.
#[derive(Debug, Clone)]
pub struct Atom {
    /// The conjunct as a filter document that can be parsed on its own.
    pub doc: Document,
    /// Hash-consed identity of this predicate.
    pub hash: PredicateHash,
}

/// Hashes a single-conjunct filter document into its predicate identity.
pub fn predicate_hash(conjunct: &Document) -> PredicateHash {
    let mut hash = Fnv1a::new();
    conjunct.write_canonical(&mut hash);
    PredicateHash(fmix64(hash.finish()))
}

/// Decomposes a filter into its canonical atom set (sorted, deduplicated).
/// The conjunction of the returned atoms is semantically identical to the
/// input filter; an empty set means the filter matches everything.
pub fn decompose(filter: &Document) -> Vec<Atom> {
    conjuncts_of(filter)
        .into_iter()
        .map(|doc| {
            let hash = predicate_hash(&doc);
            Atom { doc, hash }
        })
        .collect()
}

/// The filter identity of an atom set produced by [`decompose`] (whose
/// output is already canonically sorted).
pub fn filter_hash(atoms: &[Atom]) -> FilterHash {
    let mut bytes = Vec::with_capacity(atoms.len() * 8);
    for atom in atoms {
        bytes.extend_from_slice(&atom.hash.0.to_be_bytes());
    }
    FilterHash(stable_hash64(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::{doc, Value};

    fn hashes(filter: &Document) -> Vec<PredicateHash> {
        decompose(filter).iter().map(|a| a.hash).collect()
    }

    #[test]
    fn conjunction_splits_into_atoms() {
        let atoms = decompose(&doc! {
            "status" => "open",
            "price" => doc! { "$gt" => 10i64, "$lt" => 100i64 },
        });
        assert_eq!(atoms.len(), 3);
        // Every atom parses standalone.
        for atom in &atoms {
            crate::parse::parse_filter(&atom.doc).expect("atom parses");
        }
    }

    #[test]
    fn identical_predicates_hash_identically_across_spellings() {
        // The shared predicate appears inside different filters with
        // different spellings; its atom hash must be the same everywhere.
        let a = decompose(&doc! { "status" => "open", "n" => doc! { "$lt" => 5i64 } });
        let b = decompose(&doc! { "$and" => vec![
            Value::Object(doc! { "status" => doc! { "$eq" => "open" } }),
            Value::Object(doc! { "m" => 1i64 }),
        ]});
        let shared = predicate_hash(&doc! { "status" => "open" });
        assert!(a.iter().any(|at| at.hash == shared));
        assert!(b.iter().any(|at| at.hash == shared));
    }

    #[test]
    fn filter_hash_is_spelling_invariant() {
        let a = decompose(&doc! { "a" => doc! { "$gt" => 5i64, "$lt" => 9i64 }, "b" => 1i64 });
        let b = decompose(&doc! { "$and" => vec![
            Value::Object(doc! { "b" => doc! { "$eq" => 1i64 } }),
            Value::Object(doc! { "$and" => vec![
                Value::Object(doc! { "a" => doc! { "$lt" => 9i64 } }),
                Value::Object(doc! { "a" => doc! { "$gt" => 5i64 } }),
            ]}),
        ]});
        assert_eq!(filter_hash(&a), filter_hash(&b));
        let c = decompose(&doc! { "a" => doc! { "$gt" => 5i64 } });
        assert_ne!(filter_hash(&a), filter_hash(&c));
    }

    #[test]
    fn coupled_operators_stay_together() {
        let atoms = decompose(&doc! {
            "name" => doc! { "$regex" => "^ab", "$options" => "i" },
            "loc" => doc! { "$nearSphere" => vec![10.0, 53.5], "$maxDistance" => 500.0 },
        });
        assert_eq!(atoms.len(), 2, "coupled conditions are single atoms");
        for atom in &atoms {
            crate::parse::parse_filter(&atom.doc).expect("coupled atom parses standalone");
        }
    }

    #[test]
    fn a_streamed_hash_is_the_hash_of_the_collected_bytes() {
        for atom in decompose(&doc! {
            "status" => "open",
            "price" => doc! { "$gt" => 10i64, "$lt" => 100.5 },
            "tags" => doc! { "$in" => vec!["a", "b"] },
        }) {
            let mut bytes = Vec::new();
            Value::Object(atom.doc.clone()).write_canonical(&mut bytes);
            assert_eq!(atom.hash, PredicateHash(stable_hash64(&bytes)), "{}", atom.doc);
        }
    }

    #[test]
    fn empty_filter_has_no_atoms() {
        assert!(decompose(&doc! {}).is_empty());
    }

    #[test]
    fn duplicate_conjuncts_collapse() {
        let atoms = decompose(&doc! { "$and" => vec![
            Value::Object(doc! { "a" => 1i64 }),
            Value::Object(doc! { "a" => doc! { "$eq" => 1i64 } }),
        ]});
        assert_eq!(atoms.len(), 1);
        assert_eq!(hashes(&doc! { "a" => 1i64 }), atoms.iter().map(|a| a.hash).collect::<Vec<_>>());
    }
}
