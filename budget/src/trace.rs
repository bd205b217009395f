//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Kept in memory; written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One span. `parent` is the index of the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<u32>,
    /// Spans of one write share its `seq`.
    pub seq: Option<u64>,
    /// Subscription index (notify spans) or item count (replay spans).
    pub n: Option<u64>,
}

/// All spans of one run, times relative to the tracer's creation.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its index.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        seq: Option<u64>,
        n: Option<u64>,
    ) -> u32 {
        let span = Span { name, start_us: self.at(start), end_us: self.at(end), parent, seq, n };
        self.spans.push(span);
        self.spans.len() as u32 - 1
    }

    /// Ends an open span (one recorded with `end == start`) now.
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_us = self.at(Instant::now());
    }

    /// The spans of one write: `write` (issue → last expectation met) with
    /// children `client.save` (the `AppServer::save` call) and one `notify`
    /// per expectation (save returned → the subscription's result reflects
    /// the write).
    pub fn write_spans(
        &mut self,
        block: u32,
        seq: u64,
        issued: Instant,
        saved: Instant,
        met: &[(u32, Instant)],
    ) {
        let end = met.iter().map(|&(_, t)| t).max().unwrap_or(saved);
        let root = self.span("write", issued, end, Some(block), Some(seq), None);
        self.span("client.save", issued, saved, Some(root), Some(seq), None);
        for &(sub, t) in met {
            self.span("notify", saved, t, Some(root), Some(seq), Some(sub as u64));
        }
    }

    /// `{<stamp>, "spans": [...]}` with one object per span.
    pub fn to_json(&self, stamp: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 256);
        let _ = writeln!(out, "{{{stamp},\"spans\":[");
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"seq\":{},\"n\":{}}}",
                s.name,
                s.start_us,
                s.end_us,
                opt(s.parent.map(u64::from)),
                opt(s.seq),
                opt(s.n)
            );
            out.push_str(if id + 1 == self.spans.len() { "\n" } else { ",\n" });
        }
        out.push_str("]}\n");
        out
    }
}
