//! Stage tracing for the notification pipeline.
//!
//! A [`TraceContext`] is a lightweight trace id plus an ordered list of
//! stage timestamps. It rides inside the message envelopes (`ClusterMessage`
//! on the way in, `Notification` on the way out) so a single write can be
//! followed app-server → broker → ingestion → matching → sorting →
//! delivery, and every notification can report a per-stage latency
//! breakdown. Tracing is sampled (typically 1-in-N writes) and the context
//! is `Option`-al everywhere, so the untraced fast path carries only a
//! `None` discriminant.
//!
//! All stamps use the wall clock (unix-epoch microseconds) because a trace
//! crosses process boundaries over the TCP transport; within one host this
//! is the common clock domain the existing `written_at` latency measurement
//! already relies on.

use crate::document::Document;
use crate::query_spec::SpecError;
use crate::value::Value;
use std::time::{SystemTime, UNIX_EPOCH};

/// A stage of the notification pipeline, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// The application server accepted the write and built the after-image.
    AppServer,
    /// The event layer accepted the publish (TCP transport only; the
    /// in-process broker is too cheap to stamp separately).
    Broker,
    /// A cluster ingestion node decoded the envelope off the event layer.
    Ingestion,
    /// A matching node evaluated the write against its query partition.
    Matching,
    /// A sorting task updated the maintained result.
    Sorting,
    /// The notifier serialized the notification onto the event layer.
    Notifier,
    /// The application server delivered the event to the subscriber.
    Delivery,
}

/// Every stage, in pipeline order. Useful for rendering breakdown tables.
pub const ALL_STAGES: [Stage; 7] = [
    Stage::AppServer,
    Stage::Broker,
    Stage::Ingestion,
    Stage::Matching,
    Stage::Sorting,
    Stage::Notifier,
    Stage::Delivery,
];

impl Stage {
    /// Stable wire name (also used as the metrics-key suffix).
    pub fn as_str(&self) -> &'static str {
        match self {
            Stage::AppServer => "appServer",
            Stage::Broker => "broker",
            Stage::Ingestion => "ingestion",
            Stage::Matching => "matching",
            Stage::Sorting => "sorting",
            Stage::Notifier => "notifier",
            Stage::Delivery => "delivery",
        }
    }

    /// Parses a wire name produced by [`Stage::as_str`].
    pub fn parse_str(s: &str) -> Option<Stage> {
        Some(match s {
            "appServer" => Stage::AppServer,
            "broker" => Stage::Broker,
            "ingestion" => Stage::Ingestion,
            "matching" => Stage::Matching,
            "sorting" => Stage::Sorting,
            "notifier" => Stage::Notifier,
            "delivery" => Stage::Delivery,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One timestamped pipeline hop inside a [`TraceContext`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStamp {
    /// Which stage took the stamp.
    pub stage: Stage,
    /// Unix-epoch microseconds at the time of the stamp.
    pub at_micros: u64,
    /// Name of the worker process that took the stamp, when the stage ran
    /// inside a cluster worker (`None` for in-process and legacy stamps).
    pub worker: Option<String>,
    /// Assignment epoch the worker was serving when it stamped, so a trace
    /// that straddles a failover shows which epoch matched the write.
    pub epoch: Option<u64>,
}

impl StageStamp {
    /// A plain stamp with no worker annotation.
    pub fn new(stage: Stage, at_micros: u64) -> StageStamp {
        StageStamp { stage, at_micros, worker: None, epoch: None }
    }
}

/// Hop deltas above this are treated as clock skew, not latency. A single
/// hop inside one pipeline taking a minute of wall-clock time means the
/// clocks disagree, not that the hop was slow.
pub const MAX_PLAUSIBLE_HOP_MICROS: u64 = 60_000_000;

/// A sampled end-to-end trace of one write through the pipeline.
///
/// Stamps are appended in processing order; [`TraceContext::breakdown`]
/// turns them into per-hop latencies.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Correlates stamps across processes; assigned by the app server.
    pub trace_id: u64,
    /// Stage stamps in the order the pipeline appended them.
    pub stamps: Vec<StageStamp>,
}

/// Unix-epoch microseconds from the wall clock — the clock domain all
/// trace stamps (and `AfterImage::written_at`) share.
pub fn now_micros() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0)
}

impl TraceContext {
    /// Starts a trace, stamping [`Stage::AppServer`] at the current time.
    pub fn start(trace_id: u64) -> TraceContext {
        let mut t = TraceContext { trace_id, stamps: Vec::with_capacity(ALL_STAGES.len()) };
        t.stamp(Stage::AppServer);
        t
    }

    /// Appends a stamp for `stage` at the current wall-clock time.
    pub fn stamp(&mut self, stage: Stage) {
        self.stamp_at(stage, now_micros());
    }

    /// Appends a stamp for `stage` at an explicit time (tests, transports
    /// that captured the time earlier).
    pub fn stamp_at(&mut self, stage: Stage, at_micros: u64) {
        self.stamps.push(StageStamp::new(stage, at_micros));
    }

    /// Appends a stamp for `stage` annotated with the identity of the
    /// cluster worker (and the assignment epoch it was serving) that
    /// executed the stage. Used by `workerd`-hosted cells so a distributed
    /// trace shows *which* process matched the write.
    pub fn stamp_worker(&mut self, stage: Stage, worker: &str, epoch: u64) {
        self.stamps.push(StageStamp {
            stage,
            at_micros: now_micros(),
            worker: Some(worker.to_string()),
            epoch: Some(epoch),
        });
    }

    /// The first stamp carrying a worker annotation, if any.
    pub fn worker_stamp(&self) -> Option<&StageStamp> {
        self.stamps.iter().find(|s| s.worker.is_some())
    }

    /// The timestamp of the first stamp recorded for `stage`, if any.
    pub fn at(&self, stage: Stage) -> Option<u64> {
        self.stamps.iter().find(|s| s.stage == stage).map(|s| s.at_micros)
    }

    /// Total microseconds between the first and last stamp.
    pub fn elapsed_micros(&self) -> u64 {
        match (self.stamps.first(), self.stamps.last()) {
            (Some(first), Some(last)) => last.at_micros.saturating_sub(first.at_micros),
            _ => 0,
        }
    }

    /// Per-hop latency: for each consecutive pair of stamps, the source
    /// stage, destination stage, and microseconds between them.
    pub fn breakdown(&self) -> Vec<(Stage, Stage, u64)> {
        self.stamps
            .windows(2)
            .map(|w| (w[0].stage, w[1].stage, w[1].at_micros.saturating_sub(w[0].at_micros)))
            .collect()
    }

    /// Per-hop *signed* latency. Consecutive stamps may come from different
    /// hosts whose clocks disagree, so a hop can legitimately compute as
    /// negative; unlike [`TraceContext::breakdown`] (which saturates to
    /// zero), this preserves the sign so consumers can count skewed hops
    /// instead of folding them into the stage tables as zero-latency hops.
    pub fn hops(&self) -> Vec<(Stage, Stage, i64)> {
        self.stamps
            .windows(2)
            .map(|w| (w[0].stage, w[1].stage, w[1].at_micros as i64 - w[0].at_micros as i64))
            .collect()
    }

    /// Encodes the trace for the event layer.
    pub fn to_document(&self) -> Document {
        let mut d = Document::with_capacity(2);
        d.insert("id", self.trace_id as i64);
        d.insert(
            "stamps",
            Value::Array(
                self.stamps
                    .iter()
                    .map(|s| {
                        let mut sd = Document::with_capacity(4);
                        sd.insert("s", s.stage.as_str());
                        sd.insert("t", s.at_micros as i64);
                        // Worker annotations are optional keys so legacy
                        // decoders (and unannotated stamps) stay compact.
                        if let Some(worker) = &s.worker {
                            sd.insert("w", worker.as_str());
                        }
                        if let Some(epoch) = s.epoch {
                            sd.insert("e", epoch as i64);
                        }
                        Value::Object(sd)
                    })
                    .collect(),
            ),
        );
        d
    }

    /// Decodes a trace from its document encoding.
    pub fn from_document(d: &Document) -> Result<TraceContext, SpecError> {
        let trace_id =
            d.get("id").and_then(Value::as_i64).ok_or_else(|| SpecError::new("trace missing `id`"))?
                as u64;
        let stamps = d
            .get("stamps")
            .and_then(Value::as_array)
            .ok_or_else(|| SpecError::new("trace missing `stamps`"))?
            .iter()
            .map(|v| {
                let sd = v.as_object().ok_or_else(|| SpecError::new("stamp must be object"))?;
                let stage = sd
                    .get("s")
                    .and_then(Value::as_str)
                    .and_then(Stage::parse_str)
                    .ok_or_else(|| SpecError::new("stamp missing `s`"))?;
                let at_micros =
                    sd.get("t")
                        .and_then(Value::as_i64)
                        .ok_or_else(|| SpecError::new("stamp missing `t`"))? as u64;
                let worker = sd.get("w").and_then(Value::as_str).map(str::to_string);
                let epoch = sd.get("e").and_then(Value::as_i64).map(|e| e as u64);
                Ok(StageStamp { stage, at_micros, worker, epoch })
            })
            .collect::<Result<Vec<_>, SpecError>>()?;
        Ok(TraceContext { trace_id, stamps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_roundtrip() {
        for stage in ALL_STAGES {
            assert_eq!(Stage::parse_str(stage.as_str()), Some(stage));
        }
        assert_eq!(Stage::parse_str("warp-drive"), None);
    }

    #[test]
    fn document_roundtrip() {
        let mut t = TraceContext { trace_id: 42, stamps: Vec::new() };
        t.stamp_at(Stage::AppServer, 100);
        t.stamp_at(Stage::Ingestion, 140);
        t.stamp_at(Stage::Matching, 190);
        t.stamp_at(Stage::Delivery, 400);
        let decoded = TraceContext::from_document(&t.to_document()).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn breakdown_and_elapsed() {
        let mut t = TraceContext { trace_id: 1, stamps: Vec::new() };
        t.stamp_at(Stage::AppServer, 1_000);
        t.stamp_at(Stage::Ingestion, 1_030);
        t.stamp_at(Stage::Matching, 1_100);
        assert_eq!(t.elapsed_micros(), 100);
        assert_eq!(
            t.breakdown(),
            vec![(Stage::AppServer, Stage::Ingestion, 30), (Stage::Ingestion, Stage::Matching, 70)]
        );
        // Per-hop deltas always sum to the end-to-end elapsed time.
        let sum: u64 = t.breakdown().iter().map(|(_, _, d)| d).sum();
        assert_eq!(sum, t.elapsed_micros());
    }

    #[test]
    fn start_stamps_app_server() {
        let t = TraceContext::start(7);
        assert_eq!(t.trace_id, 7);
        assert_eq!(t.stamps.len(), 1);
        assert_eq!(t.stamps[0].stage, Stage::AppServer);
        assert!(t.stamps[0].at_micros > 0);
    }

    #[test]
    fn worker_annotations_roundtrip() {
        let mut t = TraceContext { trace_id: 9, stamps: Vec::new() };
        t.stamp_at(Stage::AppServer, 100);
        t.stamps.push(StageStamp {
            stage: Stage::Matching,
            at_micros: 150,
            worker: Some("w1".into()),
            epoch: Some(3),
        });
        let decoded = TraceContext::from_document(&t.to_document()).unwrap();
        assert_eq!(decoded, t);
        let stamp = decoded.worker_stamp().expect("worker stamp survives the wire");
        assert_eq!(stamp.worker.as_deref(), Some("w1"));
        assert_eq!(stamp.epoch, Some(3));
        // Unannotated stamps stay unannotated.
        assert!(decoded.stamps[0].worker.is_none());
    }

    #[test]
    fn hops_preserve_negative_deltas() {
        let mut t = TraceContext { trace_id: 2, stamps: Vec::new() };
        t.stamp_at(Stage::AppServer, 1_000);
        t.stamp_at(Stage::Broker, 900); // remote clock running behind
        t.stamp_at(Stage::Delivery, 1_200);
        assert_eq!(t.hops()[0].2, -100);
        assert_eq!(t.hops()[1].2, 300);
        // breakdown() saturates — the skew is invisible there.
        assert_eq!(t.breakdown()[0].2, 0);
    }

    #[test]
    fn malformed_documents_rejected() {
        let d = Document::new();
        assert!(TraceContext::from_document(&d).is_err());
        let mut d = Document::new();
        d.insert("id", 1i64);
        assert!(TraceContext::from_document(&d).is_err());
    }
}
