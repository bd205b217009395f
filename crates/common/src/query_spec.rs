//! Wire-level query representation.
//!
//! The event layer and the partitioning scheme treat queries opaquely; only
//! the pluggable query engine (`invalidb-query`) parses the filter document.
//! `QuerySpec` is therefore the *transport* form of a query: a collection
//! name, a MongoDB-style filter document, an optional sort specification and
//! limit/offset clauses.

use crate::document::Document;
use crate::id::QueryHash;
use crate::partition::stable_hash64;
use crate::value::Value;
use std::fmt;

/// Sort direction for one sort key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDirection {
    /// Ascending (`1` in MongoDB syntax).
    Asc,
    /// Descending (`-1`).
    Desc,
}

impl SortDirection {
    /// Numeric wire encoding.
    pub fn as_i64(self) -> i64 {
        match self {
            SortDirection::Asc => 1,
            SortDirection::Desc => -1,
        }
    }

    /// Parses the numeric wire encoding.
    pub fn from_i64(v: i64) -> Option<Self> {
        match v {
            1 => Some(SortDirection::Asc),
            -1 => Some(SortDirection::Desc),
            _ => None,
        }
    }
}

/// Ordered list of `(field path, direction)` sort keys.
pub type SortSpec = Vec<(String, SortDirection)>;

/// Aggregation function for real-time aggregate queries (an *extension*
/// beyond the paper's production scope — §8.1 names aggregations as future
/// work to be added "through additional processing stages").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateOp {
    /// Number of matching records.
    Count,
    /// Sum of a numeric field over matching records.
    Sum,
    /// Arithmetic mean of a numeric field.
    Avg,
    /// Smallest value of a field (canonical order).
    Min,
    /// Largest value of a field (canonical order).
    Max,
}

impl AggregateOp {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            AggregateOp::Count => "count",
            AggregateOp::Sum => "sum",
            AggregateOp::Avg => "avg",
            AggregateOp::Min => "min",
            AggregateOp::Max => "max",
        }
    }

    /// Parses the wire name.
    pub fn parse_str(s: &str) -> Option<Self> {
        match s {
            "count" => Some(AggregateOp::Count),
            "sum" => Some(AggregateOp::Sum),
            "avg" => Some(AggregateOp::Avg),
            "min" => Some(AggregateOp::Min),
            "max" => Some(AggregateOp::Max),
            _ => None,
        }
    }
}

/// A real-time aggregate over the matching set of a filter query.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateSpec {
    /// The aggregation function.
    pub op: AggregateOp,
    /// Field the function applies to (`None` only for `Count`).
    pub field: Option<String>,
}

/// A collection-based query in wire form.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Target collection.
    pub collection: String,
    /// MongoDB-style filter document (`{}` matches everything).
    pub filter: Document,
    /// Explicit ordering; empty for unsorted queries.
    pub sort: SortSpec,
    /// Maximum number of results, if bounded.
    pub limit: Option<u64>,
    /// Number of leading results to skip.
    pub offset: u64,
    /// Real-time aggregate over the matching set (extension, §8.1); mutually
    /// exclusive with sort/limit/offset.
    pub aggregate: Option<AggregateSpec>,
}

impl QuerySpec {
    /// Unsorted filter query over a collection.
    pub fn filter(collection: impl Into<String>, filter: Document) -> Self {
        Self {
            collection: collection.into(),
            filter,
            sort: Vec::new(),
            limit: None,
            offset: 0,
            aggregate: None,
        }
    }

    /// Turns the query into a real-time aggregate (builder style). Use
    /// `field: None` only with [`AggregateOp::Count`].
    pub fn aggregated(mut self, op: AggregateOp, field: Option<&str>) -> Self {
        self.aggregate = Some(AggregateSpec { op, field: field.map(str::to_owned) });
        self
    }

    /// Whether the query needs the aggregation stage (extension, §8.1).
    pub fn needs_aggregation_stage(&self) -> bool {
        self.aggregate.is_some()
    }

    /// Adds a sort key (builder style).
    pub fn sorted_by(mut self, field: impl Into<String>, dir: SortDirection) -> Self {
        self.sort.push((field.into(), dir));
        self
    }

    /// Sets the limit clause (builder style).
    pub fn with_limit(mut self, limit: u64) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Sets the offset clause (builder style).
    pub fn with_offset(mut self, offset: u64) -> Self {
        self.offset = offset;
        self
    }

    /// Whether the query needs the sorting stage (§5.2): explicitly ordered
    /// queries and queries with limit or offset clauses; plain filter
    /// queries are self-maintainable within the filtering stage.
    pub fn needs_sorting_stage(&self) -> bool {
        !self.sort.is_empty() || self.limit.is_some() || self.offset > 0
    }

    /// Stable hash over the normalized query attributes (§5.1).
    ///
    /// Computed from the query itself — *not* the (random) subscription id —
    /// so all subscriptions to one query land on the same query partition,
    /// even when received by different application servers.
    pub fn stable_hash(&self) -> QueryHash {
        let mut bytes = Vec::with_capacity(64);
        bytes.extend_from_slice(self.collection.as_bytes());
        bytes.push(0);
        self.filter.write_canonical(&mut bytes);
        for (field, dir) in &self.sort {
            bytes.extend_from_slice(field.as_bytes());
            bytes.push(match dir {
                SortDirection::Asc => 1,
                SortDirection::Desc => 2,
            });
        }
        bytes.extend_from_slice(&self.limit.unwrap_or(u64::MAX).to_be_bytes());
        bytes.extend_from_slice(&self.offset.to_be_bytes());
        if let Some(agg) = &self.aggregate {
            bytes.extend_from_slice(agg.op.as_str().as_bytes());
            if let Some(field) = &agg.field {
                bytes.extend_from_slice(field.as_bytes());
            }
        }
        QueryHash(stable_hash64(&bytes))
    }

    /// Rewrites the bootstrap query for sorted real-time maintenance
    /// (§5.2, "Sorted Filter Queries"): the offset clause is removed so the
    /// initial result contains the items *in* the offset, and the limit is
    /// extended by the offset and `slack` extra items beyond the limit.
    /// Unbounded queries are returned unchanged.
    pub fn rewrite_for_bootstrap(&self, slack: u64) -> QuerySpec {
        let mut q = self.clone();
        if let Some(limit) = self.limit {
            q.limit = Some(limit.saturating_add(self.offset).saturating_add(slack));
        }
        q.offset = 0;
        q
    }

    /// Encodes the spec as a document (for transport inside envelopes).
    pub fn to_document(&self) -> Document {
        let mut d = Document::with_capacity(5);
        d.insert("collection", self.collection.clone());
        d.insert("filter", self.filter.clone());
        if !self.sort.is_empty() {
            let mut sort = Document::with_capacity(self.sort.len());
            for (field, dir) in &self.sort {
                sort.insert(field.clone(), dir.as_i64());
            }
            d.insert("sort", sort);
        }
        if let Some(limit) = self.limit {
            d.insert("limit", limit as i64);
        }
        if self.offset > 0 {
            d.insert("offset", self.offset as i64);
        }
        if let Some(agg) = &self.aggregate {
            let mut a = Document::with_capacity(2);
            a.insert("op", agg.op.as_str());
            if let Some(field) = &agg.field {
                a.insert("field", field.clone());
            }
            d.insert("aggregate", a);
        }
        d
    }

    /// Decodes a spec from its document encoding.
    pub fn from_document(d: &Document) -> Result<Self, SpecError> {
        let collection = d
            .get("collection")
            .and_then(Value::as_str)
            .ok_or(SpecError::new("missing `collection`"))?
            .to_owned();
        let filter = d
            .get("filter")
            .and_then(Value::as_object)
            .cloned()
            .ok_or(SpecError::new("missing `filter`"))?;
        let mut sort = Vec::new();
        if let Some(sort_doc) = d.get("sort") {
            let sort_doc = sort_doc.as_object().ok_or(SpecError::new("`sort` must be an object"))?;
            for (field, dir) in sort_doc.iter() {
                let dir = dir
                    .as_i64()
                    .and_then(SortDirection::from_i64)
                    .ok_or(SpecError::new("sort direction must be 1 or -1"))?;
                sort.push((field.to_owned(), dir));
            }
        }
        let limit = match d.get("limit") {
            None => None,
            Some(v) => Some(
                v.as_i64()
                    .filter(|l| *l >= 0)
                    .ok_or(SpecError::new("`limit` must be a non-negative integer"))?
                    as u64,
            ),
        };
        let offset = match d.get("offset") {
            None => 0,
            Some(v) => v
                .as_i64()
                .filter(|o| *o >= 0)
                .ok_or(SpecError::new("`offset` must be a non-negative integer"))?
                as u64,
        };
        let aggregate = match d.get("aggregate") {
            None => None,
            Some(v) => {
                let a = v.as_object().ok_or(SpecError::new("`aggregate` must be an object"))?;
                let op = a
                    .get("op")
                    .and_then(Value::as_str)
                    .and_then(AggregateOp::parse_str)
                    .ok_or(SpecError::new("unknown aggregate op"))?;
                let field = a.get("field").and_then(Value::as_str).map(str::to_owned);
                if field.is_none() && op != AggregateOp::Count {
                    return Err(SpecError::new("aggregate op requires a `field`"));
                }
                Some(AggregateSpec { op, field })
            }
        };
        Ok(Self { collection, filter, sort, limit, offset, aggregate })
    }
}

impl fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT * FROM {} WHERE {}", self.collection, self.filter)?;
        if !self.sort.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, (field, dir)) in self.sort.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{field} {}", if *dir == SortDirection::Asc { "ASC" } else { "DESC" })?;
            }
        }
        if self.offset > 0 {
            write!(f, " OFFSET {}", self.offset)?;
        }
        if let Some(limit) = self.limit {
            write!(f, " LIMIT {limit}")?;
        }
        Ok(())
    }
}

/// Error decoding a [`QuerySpec`] from its wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What went wrong.
    pub message: String,
}

impl SpecError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid query spec: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    fn sample() -> QuerySpec {
        QuerySpec::filter("articles", doc! { "year" => doc! { "$gte" => 2016i64 } })
            .sorted_by("year", SortDirection::Desc)
            .with_limit(3)
            .with_offset(2)
    }

    #[test]
    fn roundtrip_through_document() {
        let q = sample();
        let d = q.to_document();
        let back = QuerySpec::from_document(&d).unwrap();
        assert_eq!(q, back);
    }

    #[test]
    fn roundtrip_minimal() {
        let q = QuerySpec::filter("t", Document::new());
        let back = QuerySpec::from_document(&q.to_document()).unwrap();
        assert_eq!(q, back);
        assert!(!q.needs_sorting_stage());
    }

    #[test]
    fn hash_ignores_subscription_identity_but_not_attributes() {
        let a = sample();
        let b = sample();
        assert_eq!(a.stable_hash(), b.stable_hash());
        let c = sample().with_limit(4);
        assert_ne!(a.stable_hash(), c.stable_hash());
        let mut d = sample();
        d.collection = "other".into();
        assert_ne!(a.stable_hash(), d.stable_hash());
    }

    #[test]
    fn bootstrap_rewrite_extends_limit_and_zeroes_offset() {
        let q = sample(); // offset 2, limit 3
        let r = q.rewrite_for_bootstrap(3);
        assert_eq!(r.offset, 0);
        assert_eq!(r.limit, Some(3 + 2 + 3));
        assert_eq!(r.sort, q.sort);

        let unbounded = QuerySpec::filter("t", Document::new()).with_offset(5);
        let r = unbounded.rewrite_for_bootstrap(3);
        assert_eq!(r.offset, 0);
        assert_eq!(r.limit, None, "unbounded queries keep no limit");
    }

    #[test]
    fn needs_sorting_stage_detection() {
        assert!(!QuerySpec::filter("t", Document::new()).needs_sorting_stage());
        assert!(QuerySpec::filter("t", Document::new())
            .sorted_by("a", SortDirection::Asc)
            .needs_sorting_stage());
        assert!(QuerySpec::filter("t", Document::new()).with_limit(1).needs_sorting_stage());
        assert!(QuerySpec::filter("t", Document::new()).with_offset(1).needs_sorting_stage());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(QuerySpec::from_document(&Document::new()).is_err());
        let d = doc! { "collection" => "t", "filter" => doc! {}, "limit" => -1i64 };
        assert!(QuerySpec::from_document(&d).is_err());
        let d = doc! { "collection" => "t", "filter" => doc! {}, "sort" => doc! { "a" => 7i64 } };
        assert!(QuerySpec::from_document(&d).is_err());
    }

    #[test]
    fn sql_like_display() {
        let q = sample();
        assert_eq!(
            q.to_string(),
            "SELECT * FROM articles WHERE {year: {$gte: 2016}} ORDER BY year DESC OFFSET 2 LIMIT 3"
        );
    }
}
