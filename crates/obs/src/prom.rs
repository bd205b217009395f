//! Prometheus text exposition (format 0.0.4) for [`MetricsSnapshot`].
//!
//! InvaliDB metric names are dotted paths (`appserver.renewals`,
//! `stage.matching`), which are not legal Prometheus metric names. Rather
//! than mangle dots into underscores (lossy: `a.b_c` and `a.b.c` would
//! collide), the exposition uses fixed metric families with the original
//! name carried as a label:
//!
//! ```text
//! invalidb_counter_total{name="appserver.renewals"} 3
//! invalidb_gauge{name="net.client.heartbeat_stale_ms"} 12
//! invalidb_histogram_us_bucket{name="stage.matching",le="47"} 4
//! invalidb_histogram_us_bucket{name="stage.matching",le="+Inf"} 5
//! invalidb_histogram_us_sum{name="stage.matching"} 200
//! invalidb_histogram_us_count{name="stage.matching"} 5
//! invalidb_histogram_us_stat{name="stage.matching",stat="p99"} 130
//! ```
//!
//! Histograms are exposed as *native* Prometheus histograms: cumulative
//! `le`-labeled bucket series derived from the log-linear buckets, plus
//! `_sum` and `_count`. The precomputed summary statistics (mean and
//! quantiles, which Prometheus cannot recover exactly from buckets) ride
//! in a separate `_stat` gauge family.
//!
//! Every number is the same `u64` the JSON renderer emits, so the
//! exposition parses back into a [`MetricsSnapshot`] that is equal to the
//! one `to_json` serializes — the admin endpoint's golden-file test relies
//! on this round-trip.
//!
//! For federation, [`to_prometheus_federated`] renders one exposition for
//! a whole fleet: the coordinator's own series unlabeled, each worker's
//! series carrying a `worker="<name>"` label. The inverse,
//! [`from_prometheus_federated`], splits such a document back into
//! per-worker snapshots (key `""` holds the unlabeled series).

use crate::snapshot::MetricsSnapshot;
use std::collections::BTreeMap;

/// Metric family carrying counters.
pub const COUNTER_FAMILY: &str = "invalidb_counter_total";
/// Metric family carrying gauges.
pub const GAUGE_FAMILY: &str = "invalidb_gauge";
/// Metric family carrying native histograms (microseconds): rendered as
/// `_bucket`/`_sum`/`_count` series.
pub const HISTOGRAM_FAMILY: &str = "invalidb_histogram_us";
/// Metric family carrying histogram summary statistics (mean and
/// quantiles) that buckets alone cannot reproduce exactly.
pub const HISTOGRAM_STAT_FAMILY: &str = "invalidb_histogram_us_stat";

const HIST_STATS: [&str; 6] = ["mean", "p50", "p99", "p999", "min", "max"];

/// Renders a snapshot in Prometheus text exposition format 0.0.4.
pub fn to_prometheus(snap: &MetricsSnapshot) -> String {
    render(&[(snap, Vec::new())])
}

/// Renders one exposition document for a whole fleet: `local`'s series
/// unlabeled, then each `(worker name, snapshot)` with a `worker` label.
/// Family headers appear exactly once.
pub fn to_prometheus_federated(
    local: &MetricsSnapshot,
    workers: &[(String, MetricsSnapshot)],
) -> String {
    let mut parts: Vec<(&MetricsSnapshot, Vec<(String, String)>)> = vec![(local, Vec::new())];
    for (name, snap) in workers {
        parts.push((snap, vec![("worker".to_string(), name.clone())]));
    }
    render(&parts)
}

fn render(parts: &[(&MetricsSnapshot, Vec<(String, String)>)]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# HELP {COUNTER_FAMILY} InvaliDB monotonic counters, keyed by dotted metric name.\n"
    ));
    out.push_str(&format!("# TYPE {COUNTER_FAMILY} counter\n"));
    for (snap, extra) in parts {
        for (name, v) in &snap.counters {
            out.push_str(&format!("{COUNTER_FAMILY}{{{}}} {v}\n", labels(name, extra, &[])));
        }
    }
    out.push_str(&format!(
        "# HELP {GAUGE_FAMILY} InvaliDB gauges (levels), keyed by dotted metric name.\n"
    ));
    out.push_str(&format!("# TYPE {GAUGE_FAMILY} gauge\n"));
    for (snap, extra) in parts {
        for (name, v) in &snap.gauges {
            out.push_str(&format!("{GAUGE_FAMILY}{{{}}} {v}\n", labels(name, extra, &[])));
        }
    }
    out.push_str(&format!("# HELP {HISTOGRAM_FAMILY} InvaliDB latency histograms in microseconds.\n"));
    out.push_str(&format!("# TYPE {HISTOGRAM_FAMILY} histogram\n"));
    for (snap, extra) in parts {
        for (name, h) in &snap.hists {
            let mut cumulative = 0u64;
            for (le, n) in &h.buckets {
                cumulative += n;
                out.push_str(&format!(
                    "{HISTOGRAM_FAMILY}_bucket{{{}}} {cumulative}\n",
                    labels(name, extra, &[("le", &le.to_string())])
                ));
            }
            out.push_str(&format!(
                "{HISTOGRAM_FAMILY}_bucket{{{}}} {}\n",
                labels(name, extra, &[("le", "+Inf")]),
                h.count
            ));
            out.push_str(&format!("{HISTOGRAM_FAMILY}_sum{{{}}} {}\n", labels(name, extra, &[]), h.sum));
            out.push_str(&format!(
                "{HISTOGRAM_FAMILY}_count{{{}}} {}\n",
                labels(name, extra, &[]),
                h.count
            ));
        }
    }
    out.push_str(&format!(
        "# HELP {HISTOGRAM_STAT_FAMILY} InvaliDB histogram summary statistics (microseconds).\n"
    ));
    out.push_str(&format!("# TYPE {HISTOGRAM_STAT_FAMILY} gauge\n"));
    for (snap, extra) in parts {
        for (name, h) in &snap.hists {
            for (stat, v) in HIST_STATS.iter().zip([h.mean, h.p50, h.p99, h.p999, h.min, h.max]) {
                out.push_str(&format!(
                    "{HISTOGRAM_STAT_FAMILY}{{{}}} {v}\n",
                    labels(name, extra, &[("stat", stat)])
                ));
            }
        }
    }
    out
}

/// Renders the label set of one series: the `name` label, then any extra
/// (federation) labels, then series-specific labels like `le`/`stat`.
fn labels(name: &str, extra: &[(String, String)], more: &[(&str, &str)]) -> String {
    let mut s = format!("name=\"{}\"", escape_label(name));
    for (k, v) in extra {
        s.push_str(&format!(",{k}=\"{}\"", escape_label(v)));
    }
    for (k, v) in more {
        s.push_str(&format!(",{k}=\"{}\"", escape_label(v)));
    }
    s
}

/// Parses text produced by [`to_prometheus`] back into a snapshot.
///
/// Returns `None` on any malformed sample line; unknown families and
/// comment lines are ignored (so the parser tolerates future additions).
/// Series carrying a `worker` label are ignored here — use
/// [`from_prometheus_federated`] to split a federated document.
pub fn from_prometheus(text: &str) -> Option<MetricsSnapshot> {
    let mut fleet = from_prometheus_federated(text)?;
    Some(fleet.remove("").unwrap_or_default())
}

/// Parses a (possibly federated) exposition into per-worker snapshots,
/// keyed by the `worker` label value; unlabeled series land under `""`.
pub fn from_prometheus_federated(text: &str) -> Option<BTreeMap<String, MetricsSnapshot>> {
    let bucket_family = format!("{HISTOGRAM_FAMILY}_bucket");
    let sum_family = format!("{HISTOGRAM_FAMILY}_sum");
    let count_family = format!("{HISTOGRAM_FAMILY}_count");
    let mut fleet: BTreeMap<String, MetricsSnapshot> = BTreeMap::new();
    // Cumulative bucket counts per (worker, metric name), de-cumulated at
    // the end once every bucket line for the series has been seen.
    let mut cumulative: BTreeMap<(String, String), BTreeMap<u64, u64>> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (family, rest) = line.split_once('{')?;
        let (labels, value) = rest.split_once('}')?;
        let labels = parse_labels(labels)?;
        let name = labels.iter().find(|(k, _)| k == "name").map(|(_, v)| v.clone())?;
        let worker =
            labels.iter().find(|(k, _)| k == "worker").map(|(_, v)| v.clone()).unwrap_or_default();
        let snap = fleet.entry(worker.clone()).or_default();
        if family == bucket_family {
            let le = labels.iter().find(|(k, _)| k == "le").map(|(_, v)| v.clone())?;
            if le == "+Inf" {
                continue; // the +Inf count duplicates `_count`
            }
            let value: u64 = value.trim().parse().ok()?;
            cumulative.entry((worker, name)).or_default().insert(le.parse().ok()?, value);
            continue;
        }
        let value: u64 = value.trim().parse().ok()?;
        if family == COUNTER_FAMILY {
            snap.counters.insert(name, value);
        } else if family == GAUGE_FAMILY {
            snap.gauges.insert(name, value);
        } else if family == sum_family {
            snap.hists.entry(name).or_default().sum = value;
        } else if family == count_family {
            snap.hists.entry(name).or_default().count = value;
        } else if family == HISTOGRAM_STAT_FAMILY {
            let stat = labels.iter().find(|(k, _)| k == "stat").map(|(_, v)| v.clone())?;
            let h = snap.hists.entry(name).or_default();
            match stat.as_str() {
                "mean" => h.mean = value,
                "p50" => h.p50 = value,
                "p99" => h.p99 = value,
                "p999" => h.p999 = value,
                "min" => h.min = value,
                "max" => h.max = value,
                _ => return None,
            }
        }
    }
    for ((worker, name), cums) in cumulative {
        let mut prev = 0u64;
        let buckets = cums
            .into_iter()
            .map(|(le, cum)| {
                let n = cum.saturating_sub(prev);
                prev = cum;
                (le, n)
            })
            .collect();
        fleet.entry(worker).or_default().hists.entry(name).or_default().buckets = buckets;
    }
    Some(fleet)
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Parses `k="v",k2="v2"` into pairs, unescaping label values.
fn parse_labels(s: &str) -> Option<Vec<(String, String)>> {
    let mut pairs = Vec::new();
    let mut rest = s;
    while !rest.is_empty() {
        let (key, after_key) = rest.split_once("=\"")?;
        let mut value = String::new();
        let mut chars = after_key.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, c2)) => value.push(c2),
                    None => return None,
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end?;
        pairs.push((key.trim_start_matches(',').to_owned(), value));
        rest = &after_key[end + 1..];
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    Some(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::HistogramSummary;

    fn sample() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("appserver.renewals".into(), 3);
        snap.counters.insert("matching.matched".into(), 70);
        snap.gauges.insert("net.client.heartbeat_stale_ms".into(), 12);
        snap.hists.insert(
            "stage.matching".into(),
            HistogramSummary {
                count: 5,
                sum: 200,
                mean: 40,
                p50: 32,
                p99: 130,
                p999: 130,
                min: 10,
                max: 130,
                buckets: vec![(10, 1), (33, 2), (47, 1), (131, 1)],
            },
        );
        snap.hists.insert(
            "stage.total".into(),
            HistogramSummary {
                count: 5,
                sum: 4500,
                mean: 900,
                p50: 800,
                p99: 2100,
                p999: 2100,
                min: 300,
                max: 2100,
                buckets: vec![(319, 1), (831, 2), (1087, 1), (2175, 1)],
            },
        );
        snap
    }

    #[test]
    fn roundtrip_is_lossless() {
        let snap = sample();
        let text = to_prometheus(&snap);
        let back = from_prometheus(&text).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn same_numbers_as_json() {
        let snap = sample();
        let via_prom = from_prometheus(&to_prometheus(&snap)).unwrap();
        let via_json = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(via_prom, via_json);
    }

    #[test]
    fn label_escaping_survives() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("weird\"name\\with\nstuff".into(), 1);
        let back = from_prometheus(&to_prometheus(&snap)).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn families_are_typed() {
        let text = to_prometheus(&sample());
        assert!(text.contains("# TYPE invalidb_counter_total counter"));
        assert!(text.contains("# TYPE invalidb_gauge gauge"));
        assert!(text.contains("# TYPE invalidb_histogram_us histogram"));
        assert!(text.contains("# TYPE invalidb_histogram_us_stat gauge"));
        assert!(text.contains("invalidb_counter_total{name=\"appserver.renewals\"} 3"));
        assert!(text.contains("invalidb_histogram_us_stat{name=\"stage.matching\",stat=\"p99\"} 130"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_sum_and_count() {
        let text = to_prometheus(&sample());
        // Per-bucket counts 1,2,1,1 render cumulatively as 1,3,4,5.
        assert!(text.contains("invalidb_histogram_us_bucket{name=\"stage.matching\",le=\"10\"} 1"));
        assert!(text.contains("invalidb_histogram_us_bucket{name=\"stage.matching\",le=\"33\"} 3"));
        assert!(text.contains("invalidb_histogram_us_bucket{name=\"stage.matching\",le=\"47\"} 4"));
        assert!(text.contains("invalidb_histogram_us_bucket{name=\"stage.matching\",le=\"131\"} 5"));
        assert!(text.contains("invalidb_histogram_us_bucket{name=\"stage.matching\",le=\"+Inf\"} 5"));
        assert!(text.contains("invalidb_histogram_us_sum{name=\"stage.matching\"} 200"));
        assert!(text.contains("invalidb_histogram_us_count{name=\"stage.matching\"} 5"));
    }

    #[test]
    fn real_histogram_roundtrips_through_exposition() {
        // End to end: record into a real log-linear histogram, snapshot,
        // render, parse — the parsed summary equals the original.
        let mut h = invalidb_common::Histogram::new();
        for v in [3u64, 17, 17, 450, 12_000, 900_000] {
            h.record(v);
        }
        let mut snap = MetricsSnapshot::default();
        snap.hists.insert("lat".into(), HistogramSummary::of(&h));
        let back = from_prometheus(&to_prometheus(&snap)).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn federated_document_splits_back_into_per_worker_snapshots() {
        let local = {
            let mut s = MetricsSnapshot::default();
            s.gauges.insert("cluster.workers_alive".into(), 2);
            s
        };
        let w1 = sample();
        let mut w2 = sample();
        w2.counters.insert("matching.matched".into(), 99);
        let text = to_prometheus_federated(
            &local,
            &[("w1".to_string(), w1.clone()), ("w2".to_string(), w2.clone())],
        );
        let fleet = from_prometheus_federated(&text).unwrap();
        assert_eq!(fleet[""], local);
        assert_eq!(fleet["w1"], w1);
        assert_eq!(fleet["w2"], w2);
        // Headers appear exactly once in the federated document.
        assert_eq!(text.matches("# TYPE invalidb_counter_total counter").count(), 1);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = MetricsSnapshot::default();
        let back = from_prometheus(&to_prometheus(&snap)).unwrap();
        assert_eq!(snap, back);
    }
}
