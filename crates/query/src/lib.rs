//! Pluggable, MongoDB-compatible real-time query engine (paper §5.3/§5.4).
//!
//! This crate contains everything needed to decide *"does this after-image
//! match this query, and where does it sort?"*:
//!
//! * [`filter`] — the predicate AST and its evaluation semantics (implicit
//!   array traversal, type-bracketed comparisons, null-vs-missing);
//! * [`parse`] — the MongoDB filter-document dialect;
//! * [`regex`] — a from-scratch backtracking regex engine for `$regex`;
//! * [`text`] — `$text` full-text search;
//! * [`geo`] — `$geoWithin` / `$nearSphere`;
//! * [`sort`] — multi-attribute ordering with primary-key tiebreak;
//! * [`normalize`] — canonicalization for stable query hashing;
//! * [`predicate`] — conjunctive decomposition into hash-consed atoms
//!   (the currency of the multi-query optimizations);
//! * [`engine`] — the [`QueryEngine`] plug-in interface, which compiles a
//!   filter into a [`PreparedFilter`] and a query into a [`PreparedQuery`],
//!   with the full [`MongoQueryEngine`] and a minimal [`KvQueryEngine`].

pub mod engine;
pub mod filter;
pub mod geo;
pub mod normalize;
pub mod parse;
pub mod path;
pub mod predicate;
pub mod regex;
pub mod sort;
pub mod text;

pub use engine::{
    EngineError, KvQueryEngine, MongoQueryEngine, PreparedAtom, PreparedFilter, PreparedQuery,
    QueryEngine,
};
pub use filter::{FieldPred, Filter};
pub use normalize::{normalize_filter, normalize_spec};
pub use parse::{parse_filter, FilterParseError};
pub use predicate::{decompose, filter_hash, predicate_hash, Atom, FilterHash, PredicateHash};
pub use sort::{compare_items, compare_keys, sort_value, SortKey};
