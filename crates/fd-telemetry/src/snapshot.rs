//! Point-in-time export of the registry: a versioned, serializable
//! [`TelemetrySnapshot`] with a hand-rolled JSON writer (the workspace has
//! no serde) and a human-readable summary table.
//!
//! # Schema (`fd-telemetry/v1`)
//!
//! ```json
//! {
//!   "schema": "fd-telemetry/v1",
//!   "version": 1,
//!   "compiled": true,
//!   "enabled": true,
//!   "counters": {"euler.sampler.pairs_compared": 120943},
//!   "histograms": {
//!     "span.euler.phase.sample.ns": {
//!       "count": 4, "sum": 812345, "max": 402111,
//!       "buckets": [[18, 3], [19, 1]]
//!     }
//!   },
//!   "events": [{"name": "euler.cycle", "fields": {"cycle": 0, "gr_pcover": 0.8}}],
//!   "events_dropped": 0
//! }
//! ```
//!
//! `buckets` lists only occupied log2 buckets as `[bucket_index, count]`;
//! bucket `b` covers `[2^(b-1), 2^b)` with bucket 0 reserved for exact
//! zeros. Consumers must ignore unknown keys: additions bump `version`,
//! removals or meaning changes bump the `schema` string itself.

use crate::registry::{bucket_upper_bound, registry, Event, HIST_BUCKETS};

/// The schema identifier written to every export.
pub const SCHEMA: &str = "fd-telemetry/v1";

/// The schema version written to every export. Bumped on additive changes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Aggregates of one histogram at snapshot time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Occupied log2 buckets as `(bucket_index, count)`, ascending.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty, never NaN).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `p`-quantile (`p` clamped to `[0, 1]`) from the log2
    /// buckets: the target rank's bucket is located by cumulative count and
    /// the value is linearly interpolated across the bucket's `[2^(b-1),
    /// 2^b)` range at the rank's midpoint. An empty histogram yields 0; the
    /// estimate is clamped to the observed `max`, so `quantile(1.0)` never
    /// overshoots reality by a bucket width.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        // 1-based target rank; p=0 maps to the first observation.
        let target = (p * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(b, c) in &self.buckets {
            if seen + c >= target {
                let lower = match b {
                    0 => 0.0,
                    b => (1u128 << (b - 1)) as f64,
                };
                let upper = bucket_upper_bound(b as usize) as f64;
                // Midpoint of the rank's slot inside the bucket.
                let frac = (((target - seen) as f64 - 0.5) / c as f64).clamp(0.0, 1.0);
                let estimate = lower + frac * (upper - lower);
                return estimate.min(self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// Folds another snapshot's observations into this one (bucket-wise
    /// sum, `max` of maxima). The time-series layer uses this to merge
    /// per-window deltas into one aggregated window.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for &(b, c) in &other.buckets {
            match self.buckets.binary_search_by_key(&b, |&(sb, _)| sb) {
                Ok(i) => self.buckets[i].1 += c,
                Err(i) => self.buckets.insert(i, (b, c)),
            }
        }
    }
}

/// One buffered structured event, with owned strings for the export.
#[derive(Clone, Debug, PartialEq)]
pub struct EventSnapshot {
    /// Event name.
    pub name: String,
    /// Field key/value pairs in emission order.
    pub fields: Vec<(String, f64)>,
}

/// A full point-in-time copy of the telemetry registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Schema version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Whether the `telemetry` feature was compiled in.
    pub compiled: bool,
    /// Whether recording was enabled at snapshot time.
    pub enabled: bool,
    /// `(name, total)` per counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, aggregates)` per histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Buffered events in emission order.
    pub events: Vec<EventSnapshot>,
    /// Events discarded because the buffer was full.
    pub events_dropped: u64,
}

impl TelemetrySnapshot {
    /// Captures the current registry state.
    pub fn capture() -> TelemetrySnapshot {
        let r = registry();
        let mut counters = r.counter_values();
        counters.sort();
        let mut histograms: Vec<(String, HistogramSnapshot)> = r
            .histogram_names()
            .into_iter()
            .map(|(name, id)| {
                let h = r.histogram(id);
                let (count, sum, max) = h.totals();
                let buckets = (0..HIST_BUCKETS)
                    .filter_map(|i| {
                        let c = h.bucket(i);
                        (c > 0).then_some((i as u8, c))
                    })
                    .collect();
                (name, HistogramSnapshot { count, sum, max, buckets })
            })
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        let events = r
            .events()
            .into_iter()
            .map(|Event { name, fields }| EventSnapshot {
                name: name.to_string(),
                fields: fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            })
            .collect();
        TelemetrySnapshot {
            version: SNAPSHOT_VERSION,
            compiled: crate::compiled(),
            enabled: crate::is_enabled(),
            counters,
            histograms,
            events,
            events_dropped: r.events_dropped(),
        }
    }

    /// The difference of this snapshot against an earlier `baseline`:
    /// counters and histogram totals become `self − baseline` (saturating,
    /// so a registry reset between the two captures degrades to the later
    /// absolute values instead of wrapping), and only entries with non-zero
    /// deltas are kept. Events are not diffed — the shared ring buffer has
    /// no per-capture identity — so `events` is empty and `events_dropped`
    /// is the saturating difference.
    ///
    /// This is the per-job scoping primitive for a shared registry: capture
    /// a baseline when the job starts, capture again when it ends, export
    /// the delta. Under concurrent jobs the delta is **approximate** —
    /// counters incremented by overlapping jobs land in every overlapping
    /// window — but single-writer counters (and any serial execution) diff
    /// exactly.
    ///
    /// Histogram deltas keep `max` as the later absolute maximum (a running
    /// max cannot be subtracted); occupied-bucket counts are diffed
    /// per-bucket.
    pub fn delta_since(&self, baseline: &TelemetrySnapshot) -> TelemetrySnapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(name, v)| {
                let before = baseline.counter(name).unwrap_or(0);
                let d = v.saturating_sub(before);
                (d > 0).then(|| (name.clone(), d))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|(name, h)| {
                let empty = HistogramSnapshot::default();
                let before = baseline.histogram(name).unwrap_or(&empty);
                let count = h.count.saturating_sub(before.count);
                if count == 0 {
                    return None;
                }
                let buckets = h
                    .buckets
                    .iter()
                    .filter_map(|&(b, c)| {
                        let prev = before
                            .buckets
                            .iter()
                            .find(|&&(pb, _)| pb == b)
                            .map_or(0, |&(_, pc)| pc);
                        let d = c.saturating_sub(prev);
                        (d > 0).then_some((b, d))
                    })
                    .collect();
                Some((
                    name.clone(),
                    HistogramSnapshot {
                        count,
                        sum: h.sum.saturating_sub(before.sum),
                        max: h.max,
                        buckets,
                    },
                ))
            })
            .collect();
        TelemetrySnapshot {
            version: self.version,
            compiled: self.compiled,
            enabled: self.enabled,
            counters,
            histograms,
            events: Vec::new(),
            events_dropped: self.events_dropped.saturating_sub(baseline.events_dropped),
        }
    }

    /// The total of a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The aggregates of a histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Events with the given name, in emission order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a EventSnapshot> {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// Serializes the snapshot as `fd-telemetry/v1` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json_string(SCHEMA)));
        out.push_str(&format!("  \"version\": {},\n", self.version));
        out.push_str(&format!("  \"compiled\": {},\n", self.compiled));
        out.push_str(&format!("  \"enabled\": {},\n", self.enabled));
        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_string(name), v));
        }
        out.push_str(if self.counters.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [",
                json_string(name),
                h.count,
                h.sum,
                h.max
            ));
            for (j, (b, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{b}, {c}]"));
            }
            out.push_str("]}");
        }
        out.push_str(if self.histograms.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {{\"name\": {}, \"fields\": {{", json_string(&e.name)));
            for (j, (k, v)) in e.fields.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json_string(k), json_number(*v)));
            }
            out.push_str("}}");
        }
        out.push_str(if self.events.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str(&format!("  \"events_dropped\": {}\n}}\n", self.events_dropped));
        out
    }

    /// Renders a human-readable summary table (the `--metrics-summary` view).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "telemetry summary (schema {SCHEMA}, compiled: {}, enabled: {})\n",
            self.compiled, self.enabled
        ));
        if !self.counters.is_empty() {
            out.push_str("\ncounters:\n");
            let width = self.counters.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<width$}  {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("\nhistograms (log2 buckets):\n");
            let width = self.histograms.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
            for (name, h) in &self.histograms {
                let unit = if name.ends_with(".ns") { "ns" } else { "" };
                out.push_str(&format!(
                    "  {name:<width$}  count {:<8} mean {:<12.1} max {} {unit}\n",
                    h.count,
                    h.mean(),
                    h.max
                ));
                for &(b, c) in &h.buckets {
                    out.push_str(&format!(
                        "  {:<width$}    ≤{:<20} {c}\n",
                        "",
                        bucket_upper_bound(b as usize)
                    ));
                }
            }
        }
        if !self.events.is_empty() {
            out.push_str(&format!("\nevents: {} buffered", self.events.len()));
            if self.events_dropped > 0 {
                out.push_str(&format!(" ({} dropped)", self.events_dropped));
            }
            out.push('\n');
            for e in self.events.iter().take(10) {
                out.push_str(&format!("  {}:", e.name));
                for (k, v) in &e.fields {
                    out.push_str(&format!(" {k}={}", json_number(*v)));
                }
                out.push('\n');
            }
            if self.events.len() > 10 {
                out.push_str(&format!("  … and {} more\n", self.events.len() - 10));
            }
        }
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): counters as `counter`, histograms as `summary`
    /// (p50/p95/p99 quantiles plus `_sum`/`_count`), and the caller's
    /// `gauges` as `gauge`. Metric names are sanitized (`fd_` prefix,
    /// non-alphanumerics to `_`). Events are not exposed — they have no
    /// Prometheus shape.
    pub fn to_prometheus(&self, gauges: &[(String, f64)]) -> String {
        let mut out = String::with_capacity(4096);
        for (name, v) in &self.counters {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (label, p) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
                out.push_str(&format!("{n}{{quantile=\"{label}\"}} {}\n", json_number(h.quantile(p))));
            }
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        for (name, v) in gauges {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", json_number(*v)));
        }
        out
    }
}

/// Sanitizes a metric name for Prometheus: `fd_` prefix, every character
/// outside `[A-Za-z0-9]` replaced by `_`.
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("fd_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Escapes a string as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number; non-finite values become `null`
/// (JSON has no NaN/Infinity).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_number_handles_non_finite() {
        assert_eq!(json_number(1.0), "1");
        assert_eq!(json_number(0.25), "0.25");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn empty_snapshot_serializes_with_all_required_keys() {
        let snap = TelemetrySnapshot { version: SNAPSHOT_VERSION, ..Default::default() };
        let json = snap.to_json();
        for key in
            ["\"schema\"", "\"version\"", "\"compiled\"", "\"enabled\"", "\"counters\"",
             "\"histograms\"", "\"events\"", "\"events_dropped\""]
        {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("fd-telemetry/v1"));
    }

    #[test]
    fn delta_since_diffs_counters_and_histograms() {
        let baseline = TelemetrySnapshot {
            version: 1,
            counters: vec![("a".into(), 3), ("gone".into(), 2)],
            histograms: vec![(
                "h".into(),
                HistogramSnapshot { count: 2, sum: 10, max: 8, buckets: vec![(4, 2)] },
            )],
            events_dropped: 1,
            ..Default::default()
        };
        let later = TelemetrySnapshot {
            version: 1,
            counters: vec![("a".into(), 7), ("fresh".into(), 5), ("gone".into(), 2)],
            histograms: vec![(
                "h".into(),
                HistogramSnapshot { count: 5, sum: 25, max: 9, buckets: vec![(3, 1), (4, 4)] },
            )],
            events_dropped: 1,
            ..Default::default()
        };
        let d = later.delta_since(&baseline);
        assert_eq!(d.counter("a"), Some(4));
        assert_eq!(d.counter("fresh"), Some(5));
        assert_eq!(d.counter("gone"), None, "zero deltas are dropped");
        let h = d.histogram("h").expect("histogram delta");
        assert_eq!((h.count, h.sum, h.max), (3, 15, 9));
        assert_eq!(h.buckets, vec![(3, 1), (4, 2)]);
        assert_eq!(d.events_dropped, 0);
        // Self-diff is empty.
        let zero = later.delta_since(&later);
        assert!(zero.counters.is_empty() && zero.histograms.is_empty());
    }

    #[test]
    fn empty_histogram_mean_and_quantile_are_zero_not_nan() {
        let h = HistogramSnapshot::default();
        assert_eq!(h.mean(), 0.0);
        assert!(!h.mean().is_nan());
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(1.0), 0.0);
    }

    #[test]
    fn quantile_interpolates_within_log2_buckets() {
        // 10 observations of exactly 100: bucket 7 covers [64, 128).
        let h = HistogramSnapshot { count: 10, sum: 1000, max: 100, buckets: vec![(7, 10)] };
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let q = h.quantile(p);
            assert!((64.0..=100.0).contains(&q), "p{p}: {q} outside bucket/max range");
        }
        // Median must land at/under the bucket midpoint region, p99 above it.
        assert!(h.quantile(0.5) < h.quantile(0.99));
        // Clamped to the observed max, never the bucket upper bound (128).
        assert_eq!(h.quantile(1.0), 100.0);

        // Two buckets: 9 fast observations (bucket 4: [8,16)) and 1 slow
        // (bucket 10: [512,1024)). The p50 sits in the fast bucket; the p99
        // reaches the slow one.
        let h = HistogramSnapshot {
            count: 10,
            sum: 9 * 10 + 600,
            max: 600,
            buckets: vec![(4, 9), (10, 1)],
        };
        assert!(h.quantile(0.5) < 16.0, "p50 {} must stay in the fast bucket", h.quantile(0.5));
        assert!(h.quantile(0.99) >= 512.0, "p99 {} must reach the slow bucket", h.quantile(0.99));
        // Out-of-range and NaN p clamp instead of panicking.
        assert!(h.quantile(-1.0) <= h.quantile(2.0));
        assert!(!h.quantile(f64::NAN).is_nan());
    }

    #[test]
    fn quantile_of_zeros_bucket_is_zero() {
        let h = HistogramSnapshot { count: 4, sum: 0, max: 0, buckets: vec![(0, 4)] };
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(1.0), 0.0);
    }

    #[test]
    fn merge_folds_counts_buckets_and_max() {
        let mut a = HistogramSnapshot { count: 2, sum: 10, max: 8, buckets: vec![(2, 1), (4, 1)] };
        let b = HistogramSnapshot { count: 3, sum: 30, max: 16, buckets: vec![(4, 2), (5, 1)] };
        a.merge(&b);
        assert_eq!((a.count, a.sum, a.max), (5, 40, 16));
        assert_eq!(a.buckets, vec![(2, 1), (4, 3), (5, 1)]);
        // Merging an empty histogram is a no-op.
        let before = a.clone();
        a.merge(&HistogramSnapshot::default());
        assert_eq!(a, before);
    }

    #[test]
    fn prometheus_exposition_renders_counters_summaries_and_gauges() {
        let snap = TelemetrySnapshot {
            version: 1,
            counters: vec![("server.jobs_completed".into(), 7)],
            histograms: vec![(
                "span.server.job.ns".into(),
                HistogramSnapshot { count: 2, sum: 300, max: 200, buckets: vec![(8, 2)] },
            )],
            ..Default::default()
        };
        let gauges = vec![("queue_depth".into(), 3.0)];
        let text = snap.to_prometheus(&gauges);
        assert!(text.contains("# TYPE fd_server_jobs_completed counter\n"));
        assert!(text.contains("fd_server_jobs_completed 7\n"));
        assert!(text.contains("# TYPE fd_span_server_job_ns summary\n"));
        for q in ["0.5", "0.95", "0.99"] {
            assert!(text.contains(&format!("fd_span_server_job_ns{{quantile=\"{q}\"}} ")));
        }
        assert!(text.contains("fd_span_server_job_ns_sum 300\n"));
        assert!(text.contains("fd_span_server_job_ns_count 2\n"));
        assert!(text.contains("# TYPE fd_queue_depth gauge\nfd_queue_depth 3\n"));
        // Every line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.splitn(2, ' ').count() == 2,
                "malformed exposition line: {line}"
            );
        }
    }

    #[test]
    fn prom_name_sanitizes() {
        assert_eq!(prom_name("server.jobs_completed"), "fd_server_jobs_completed");
        assert_eq!(prom_name("a-b c"), "fd_a_b_c");
    }

    #[test]
    fn snapshot_lookup_helpers_work() {
        let snap = TelemetrySnapshot {
            version: 1,
            counters: vec![("a".into(), 3)],
            histograms: vec![(
                "h".into(),
                HistogramSnapshot { count: 2, sum: 10, max: 8, buckets: vec![(2, 1), (4, 1)] },
            )],
            ..Default::default()
        };
        assert_eq!(snap.counter("a"), Some(3));
        assert_eq!(snap.counter("b"), None);
        assert_eq!(snap.histogram("h").map(|h| h.count), Some(2));
        assert!((snap.histogram("h").map(HistogramSnapshot::mean).unwrap() - 5.0).abs() < 1e-12);
    }
}
