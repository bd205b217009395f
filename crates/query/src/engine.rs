//! The pluggable query engine (§5.3).
//!
//! InvaliDB is database-agnostic: everything specific to the underlying
//! datastore's query language lives behind the [`QueryEngine`] trait —
//! (1) parsing queries, (2) interpreting after-images, (3) computing the
//! matching decision, and (4) sorting results according to database
//! semantics. The cluster, event layer and partitioning scheme only ever
//! see [`QuerySpec`]s, [`PreparedFilter`]s and [`PreparedQuery`] handles.
//!
//! A filter is compiled once, into the one form its reader uses: a filter
//! that decomposes into atoms is kept as those atoms and nothing else (their
//! conjunction *is* the filter), so the filtering stage, which holds one
//! compiled filter per live query, holds no second copy of it.
//!
//! Two implementations ship with the workspace:
//!
//! * [`MongoQueryEngine`] — the full MongoDB-compatible engine (filters,
//!   regex, text, geo, multi-attribute sort);
//! * [`KvQueryEngine`] — a deliberately minimal engine supporting only
//!   conjunctive equality, demonstrating that a different datastore's
//!   semantics can be plugged in without touching the cluster.

use crate::filter::{pred_holds, FieldPred, Filter};
use crate::parse::{parse_filter, FilterParseError};
use crate::predicate::{decompose, predicate_hash, PredicateHash};
use crate::sort::compare_items;
use invalidb_common::{canonical_eq, Document, Key, QuerySpec, Record, Str, Value};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Error preparing a query for execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The filter document is malformed.
    Parse(FilterParseError),
    /// The engine does not support this query shape.
    Unsupported(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Unsupported(what) => write!(f, "unsupported by this engine: {what}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<FilterParseError> for EngineError {
    fn from(e: FilterParseError) -> Self {
        EngineError::Parse(e)
    }
}

/// One compiled atomic conjunct of a prepared filter, evaluable standalone.
/// Atoms with equal [`PredicateHash`]es compute the same function (within
/// one engine), which is what lets the filtering stage evaluate a predicate
/// once per write no matter how many queries contain it.
pub struct PreparedAtom {
    hash: PredicateHash,
    eval: AtomEval,
}

/// How an atom decides. Most atoms are one operator on one top-level field
/// (`{price: {$lt: 100}}`, `{status: "open"}`) and are kept as exactly that.
enum AtomEval {
    /// One operator on a top-level field.
    Field { path: Str, pred: FieldPred },
    /// Any other conjunct (a dotted path, `$or`, `$text`, ...), parsed whole.
    Filter(Filter),
    /// An engine's own test.
    Test(Box<dyn Fn(&Document) -> bool + Send + Sync>),
}

impl PreparedAtom {
    /// Compiles a parsed single-conjunct filter.
    fn compiled(hash: PredicateHash, filter: Filter) -> Self {
        let eval = match filter {
            Filter::Field { path, mut preds } if preds.len() == 1 && !path.contains('.') => {
                AtomEval::Field { path: path.into(), pred: preds.pop().expect("one predicate") }
            }
            other => AtomEval::Filter(other),
        };
        Self { hash, eval }
    }

    /// Hash-consed identity of this predicate (see [`crate::predicate`]).
    pub fn hash(&self) -> PredicateHash {
        self.hash
    }

    /// Evaluates just this conjunct against a document.
    pub fn matches(&self, doc: &Document) -> bool {
        self.matches_in(doc)
    }

    /// [`PreparedAtom::matches`] over a record held anywhere: a one-field
    /// atom reads its one attribute (so a record read in place decodes
    /// that attribute alone), any other atom the whole record.
    pub fn matches_in(&self, record: &(impl Record + ?Sized)) -> bool {
        match &self.eval {
            AtomEval::Field { path, pred } => match record.attr(path) {
                Some(value) => pred_holds(pred, &[&value]),
                None => pred_holds(pred, &[]),
            },
            AtomEval::Filter(filter) => filter.matches(record.document()),
            AtomEval::Test(test) => test(record.document()),
        }
    }
}

impl fmt::Debug for PreparedAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PreparedAtom({:#018x})", self.hash.0)
    }
}

/// A filter compiled for repeated evaluation against after-images: all the
/// filtering stage keeps of a query's predicate.
pub trait PreparedFilter: Send + Sync {
    /// Does the document match the filter?
    fn matches(&self, doc: &Document) -> bool;

    /// The filter as compiled atomic conjuncts, when the engine supports
    /// shared predicate evaluation: `matches(doc)` is exactly
    /// `conjuncts().iter().all(|a| a.matches(doc))` (an empty slice matches
    /// everything). `None` opts out — the filter is only evaluable whole.
    fn conjuncts(&self) -> Option<&[PreparedAtom]> {
        None
    }
}

/// A filter kept as its atoms, the one compiled form of both engines: it
/// matches when every atom does.
struct Conjunction(Box<[PreparedAtom]>);

impl PreparedFilter for Conjunction {
    fn matches(&self, doc: &Document) -> bool {
        self.0.iter().all(|atom| atom.matches(doc))
    }

    fn conjuncts(&self) -> Option<&[PreparedAtom]> {
        Some(&self.0)
    }
}

/// A query compiled for repeated evaluation against after-images.
pub trait PreparedQuery: Send + Sync {
    /// The wire-form query this was prepared from.
    fn spec(&self) -> &QuerySpec;

    /// Does the document match the query's filter predicates?
    fn matches(&self, doc: &Document) -> bool;

    /// [`PreparedQuery::matches`] over a record held anywhere: a record
    /// read in place decodes only what its atoms read
    /// ([`PreparedAtom::matches_in`]).
    fn matches_in(&self, record: &dyn Record) -> bool;

    /// Orders two result items according to the query's sort specification
    /// (with the primary key as unambiguous final tiebreak).
    fn cmp_items(&self, a: (&Key, &Document), b: (&Key, &Document)) -> Ordering;
}

/// Factory for [`PreparedFilter`] and [`PreparedQuery`] values — one
/// implementation per supported database dialect.
pub trait QueryEngine: Send + Sync {
    /// Engine name (for logs and capability matrices).
    fn name(&self) -> &'static str;

    /// Compiles a filter document, parsing it once.
    fn prepare_filter(&self, filter: &Document) -> Result<Box<dyn PreparedFilter>, EngineError>;

    /// Compiles a wire-form query: its spec and [`QueryEngine::prepare_filter`].
    fn prepare(&self, spec: &QuerySpec) -> Result<Arc<dyn PreparedQuery>, EngineError>;
}

/// A query as both engines prepare it: its compiled filter, held in place
/// (evaluating it follows no pointer more than the filter alone does), and
/// its spec. The kv engine accepts no sort, so the spec's (empty) sort
/// orders its items by primary key.
struct Prepared {
    filter: Conjunction,
    spec: QuerySpec,
}

impl PreparedQuery for Prepared {
    fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    fn matches(&self, doc: &Document) -> bool {
        self.filter.matches(doc)
    }

    fn matches_in(&self, record: &dyn Record) -> bool {
        self.filter.0.iter().all(|atom| atom.matches_in(record))
    }

    fn cmp_items(&self, a: (&Key, &Document), b: (&Key, &Document)) -> Ordering {
        compare_items(&self.spec.sort, a, b)
    }
}

/// The MongoDB-compatible engine used by the production deployment (§5.4).
#[derive(Debug, Default, Clone, Copy)]
pub struct MongoQueryEngine;

impl MongoQueryEngine {
    /// Compiles a filter, parsing it once: into its canonical conjuncts,
    /// which together are the filter and which shared predicate evaluation
    /// needs. Normalization never turns an invalid filter into a valid one,
    /// so a conjunct that does not parse means the filter does not either;
    /// parsing it whole then reports the filter's own error (or, should it
    /// parse after all, keeps the whole filter as its one atom).
    fn compile(filter: &Document) -> Result<Conjunction, EngineError> {
        let decomposed = decompose(filter);
        let mut atoms = Vec::with_capacity(decomposed.len());
        for atom in decomposed {
            match parse_filter(&atom.doc) {
                Ok(parsed) => atoms.push(PreparedAtom::compiled(atom.hash, parsed)),
                Err(_) => {
                    let whole = PreparedAtom::compiled(predicate_hash(filter), parse_filter(filter)?);
                    return Ok(Conjunction(Box::new([whole])));
                }
            }
        }
        Ok(Conjunction(atoms.into_boxed_slice()))
    }
}

impl QueryEngine for MongoQueryEngine {
    fn name(&self) -> &'static str {
        "mongo"
    }

    fn prepare_filter(&self, filter: &Document) -> Result<Box<dyn PreparedFilter>, EngineError> {
        Ok(Box::new(Self::compile(filter)?))
    }

    fn prepare(&self, spec: &QuerySpec) -> Result<Arc<dyn PreparedQuery>, EngineError> {
        let spec = spec.clone();
        Ok(Arc::new(Prepared { filter: Self::compile(&spec.filter)?, spec }))
    }
}

/// A minimal key-value-style engine: conjunctive top-level equality only,
/// no sort/limit/offset. Exists to prove engine pluggability end to end.
#[derive(Debug, Default, Clone, Copy)]
pub struct KvQueryEngine;

impl KvQueryEngine {
    /// Each equality condition is one atom, and the atoms are the whole
    /// filter; atom hashes are only ever compared within one engine, so kv
    /// semantics (strict path lookup, no array fan-out) never mix with
    /// mongo's for the same document.
    fn compile(filter: &Document) -> Result<Conjunction, EngineError> {
        let mut atoms = Vec::with_capacity(filter.len());
        for (path, want) in filter.iter() {
            if path.starts_with('$') {
                return Err(EngineError::Unsupported(format!("operator `{path}`")));
            }
            if matches!(want, Value::Object(_) | Value::Array(_)) {
                return Err(EngineError::Unsupported("non-scalar equality".into()));
            }
            let mut single = Document::with_capacity(1);
            single.insert(path, want.clone());
            let (path, want) = (Str::new(path), want.clone());
            atoms.push(PreparedAtom {
                hash: predicate_hash(&single),
                eval: AtomEval::Test(Box::new(move |doc: &Document| {
                    doc.get_path(&path).is_some_and(|got| canonical_eq(got, &want))
                })),
            });
        }
        Ok(Conjunction(atoms.into_boxed_slice()))
    }
}

impl QueryEngine for KvQueryEngine {
    fn name(&self) -> &'static str {
        "kv"
    }

    fn prepare_filter(&self, filter: &Document) -> Result<Box<dyn PreparedFilter>, EngineError> {
        Ok(Box::new(Self::compile(filter)?))
    }

    fn prepare(&self, spec: &QuerySpec) -> Result<Arc<dyn PreparedQuery>, EngineError> {
        if spec.needs_sorting_stage() {
            return Err(EngineError::Unsupported("sort/limit/offset".into()));
        }
        Ok(Arc::new(Prepared { filter: Self::compile(&spec.filter)?, spec: spec.clone() }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::{doc, SortDirection};

    #[test]
    fn mongo_engine_prepares_and_matches() {
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 10i64 } });
        let q = MongoQueryEngine.prepare(&spec).unwrap();
        assert!(q.matches(&doc! { "n" => 15i64 }));
        assert!(!q.matches(&doc! { "n" => 5i64 }));
        assert_eq!(q.spec(), &spec);
        let f = MongoQueryEngine.prepare_filter(&spec.filter).unwrap();
        assert!(f.matches(&doc! { "n" => 15i64 }));
        assert!(!f.matches(&doc! { "n" => 5i64 }));
    }

    #[test]
    fn mongo_engine_rejects_bad_filters() {
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$bogus" => 1i64 } });
        assert!(matches!(MongoQueryEngine.prepare(&spec), Err(EngineError::Parse(_))));
    }

    #[test]
    fn mongo_engine_sorts_with_pk_tiebreak() {
        let spec = QuerySpec::filter("t", doc! {}).sorted_by("year", SortDirection::Desc);
        let q = MongoQueryEngine.prepare(&spec).unwrap();
        let (ka, da) = (Key::of(1i64), doc! { "year" => 2018i64 });
        let (kb, db) = (Key::of(2i64), doc! { "year" => 2018i64 });
        assert_eq!(q.cmp_items((&ka, &da), (&kb, &db)), Ordering::Less);
    }

    #[test]
    fn kv_engine_supports_only_flat_equality() {
        let ok = QuerySpec::filter("t", doc! { "a" => 1i64, "b" => "x" });
        let q = KvQueryEngine.prepare(&ok).unwrap();
        assert!(q.matches(&doc! { "a" => 1i64, "b" => "x", "extra" => 0i64 }));
        assert!(!q.matches(&doc! { "a" => 2i64, "b" => "x" }));

        let sorted = QuerySpec::filter("t", doc! {}).sorted_by("a", SortDirection::Asc);
        assert!(matches!(KvQueryEngine.prepare(&sorted), Err(EngineError::Unsupported(_))));
        let op = QuerySpec::filter("t", doc! { "a" => doc! { "$gt" => 1i64 } });
        assert!(KvQueryEngine.prepare(&op).is_err());
        let top = QuerySpec::filter("t", doc! { "$or" => Vec::<Value>::new() });
        assert!(KvQueryEngine.prepare(&top).is_err());
        // A filter alone carries no sort: only the query is refused for it.
        assert!(KvQueryEngine.prepare_filter(&sorted.filter).is_ok());
        assert!(KvQueryEngine.prepare_filter(&op.filter).is_err());
    }

    #[test]
    fn conjunct_product_equals_whole_filter() {
        let filters = [
            doc! { "status" => "open", "price" => doc! { "$gt" => 10i64, "$lt" => 100i64 } },
            doc! { "a" => doc! { "$in" => vec![1i64, 2, 3] }, "b" => doc! { "$exists" => true } },
            doc! { "$or" => vec![
                Value::Object(doc! { "x" => 1i64 }),
                Value::Object(doc! { "y" => doc! { "$gte" => 5i64 } }),
            ], "z" => doc! { "$ne" => 0i64 } },
            doc! { "name" => doc! { "$regex" => "^ab", "$options" => "i" } },
            doc! { "user.age" => doc! { "$gte" => 18i64 }, "a" => Value::Null },
            doc! { "a" => doc! { "$not" => doc! { "$gt" => 2i64 } }, "price" => doc! { "$nin" => vec![5i64] } },
            doc! {},
        ];
        let docs = [
            doc! { "status" => "open", "price" => 50i64, "a" => 2i64, "b" => 1i64, "z" => 1i64 },
            doc! { "status" => "open", "price" => 200i64, "x" => 1i64, "z" => 0i64 },
            doc! { "price" => Value::from(vec![5i64, 50]), "y" => 7i64, "name" => "Abel", "z" => 3i64 },
            doc! { "a" => Value::from(vec![3i64]), "b" => Value::Null },
            doc! { "user" => doc! { "age" => 30i64 }, "price" => 6i64 },
        ];
        for f in &filters {
            let truth = parse_filter(f).unwrap();
            let filter = MongoQueryEngine.prepare_filter(f).unwrap();
            let query = MongoQueryEngine.prepare(&QuerySpec::filter("t", f.clone())).unwrap();
            let atoms = filter.conjuncts().expect("mongo filters decompose");
            for d in &docs {
                let whole = truth.matches(d);
                assert_eq!(filter.matches(d), whole, "filter {f} doc {d}");
                assert_eq!(query.matches(d), whole, "query {f} doc {d}");
                assert_eq!(atoms.iter().all(|a| a.matches(d)), whole, "atoms of {f} doc {d}");
            }
        }
        // Kv engine: same invariant under its own semantics.
        let f = doc! { "a" => 1i64, "b" => "x", "c.d" => 2i64 };
        let filter = KvQueryEngine.prepare_filter(&f).unwrap();
        let query = KvQueryEngine.prepare(&QuerySpec::filter("t", f)).unwrap();
        let atoms = filter.conjuncts().unwrap();
        assert_eq!(atoms.len(), 3);
        for d in [
            doc! { "a" => 1i64, "b" => "x", "c" => doc! { "d" => 2i64 } },
            doc! { "a" => 1i64, "b" => "x", "c" => Value::from(vec![Value::Object(doc! { "d" => 2i64 })]) },
            doc! { "a" => 1i64 },
            doc! {},
        ] {
            let strict = d.get("a").is_some_and(|v| canonical_eq(v, &1i64.into()))
                && d.get("b").is_some_and(|v| canonical_eq(v, &"x".into()))
                && d.get_path("c.d").is_some_and(|v| canonical_eq(v, &2i64.into()));
            assert_eq!(filter.matches(&d), strict, "doc {d}");
            assert_eq!(query.matches(&d), strict, "doc {d}");
            assert_eq!(atoms.iter().all(|a| a.matches(&d)), strict, "doc {d}");
        }
    }

    #[test]
    fn a_filter_and_its_query_are_rejected_alike() {
        for bad in [
            doc! { "n" => doc! { "$bogus" => 1i64 } },
            doc! { "$or" => Vec::<Value>::new() },
            doc! { "$and" => 3i64, "a" => 1i64 },
            doc! { "a" => 1i64, "$where" => "x" },
        ] {
            let whole = parse_filter(&bad).unwrap_err();
            let filter = MongoQueryEngine.prepare_filter(&bad).err().expect("rejected");
            let query = MongoQueryEngine.prepare(&QuerySpec::filter("t", bad.clone())).err();
            assert_eq!(filter, EngineError::Parse(whole), "filter {bad}");
            assert_eq!(query, Some(filter), "query {bad}");
        }
    }

    #[test]
    fn a_one_operator_atom_keeps_its_field_and_predicate_only() {
        let filter = MongoQueryEngine
            .prepare_filter(&doc! { "random" => doc! { "$gte" => 5i64, "$lt" => 9i64 }, "u.v" => 1i64 })
            .unwrap();
        let kinds: Vec<&str> = filter
            .conjuncts()
            .unwrap()
            .iter()
            .map(|a| match a.eval {
                AtomEval::Field { .. } => "field",
                AtomEval::Filter(_) => "filter",
                AtomEval::Test(_) => "test",
            })
            .collect();
        assert_eq!(kinds.iter().filter(|k| **k == "field").count(), 2, "{kinds:?}");
        assert_eq!(kinds.iter().filter(|k| **k == "filter").count(), 1, "a dotted path: {kinds:?}");
    }

    #[test]
    fn engines_are_object_safe() {
        let engines: Vec<Box<dyn QueryEngine>> =
            vec![Box::new(MongoQueryEngine), Box::new(KvQueryEngine)];
        let spec = QuerySpec::filter("t", doc! { "a" => 1i64 });
        for e in &engines {
            let q = e.prepare(&spec).unwrap();
            assert!(q.matches(&doc! { "a" => 1i64 }));
        }
        assert_eq!(engines[0].name(), "mongo");
        assert_eq!(engines[1].name(), "kv");
    }
}
