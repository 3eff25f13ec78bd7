//! What the staged server measures around the broker: the fixed-bucket
//! [`LatencyHisto`] behind its per-stage latency gauges, the
//! [`ServerStats`] that keep them beside the admission and restart
//! counts, and the [`ServingMetrics`] a metrics poll returns, with the
//! JSON writer for the wire `Metrics` frame.

use std::fmt::Write as _;

use pubsub_core::{ChurnCounters, CostReport, MetricsSnapshot, PipelineCounters, RecoveryCounters};

/// Number of power-of-two buckets in a [`LatencyHisto`]: bucket `i`
/// covers `[2^i, 2^(i+1))` nanoseconds, so 40 buckets span 1 ns to
/// ~18 minutes — more than any per-stage latency the server can see.
pub const HISTO_BUCKETS: usize = 40;

/// A cheap fixed-bucket log₂ latency histogram.
///
/// Recording is one `leading_zeros` and one array increment — cheap
/// enough to sit on the per-batch serving hot path. Quantiles are read
/// back with [`LatencyHisto::quantile_ns`], which interpolates linearly
/// inside the winning power-of-two bucket (so the answer is exact to
/// within a factor of 2, plenty for p50/p99/p999 gauges; the serving
/// bench keeps exact end-to-end latencies separately).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LatencyHisto {
    /// Sample counts per power-of-two bucket; see [`HISTO_BUCKETS`].
    pub buckets: [u64; HISTO_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values (ns), for mean latency.
    pub total_ns: u64,
}

// `[u64; 40]` has no std `Default` (arrays stop at 32), so spell it out.
impl Default for LatencyHisto {
    fn default() -> Self {
        LatencyHisto {
            buckets: [0; HISTO_BUCKETS],
            count: 0,
            total_ns: 0,
        }
    }
}

impl LatencyHisto {
    /// Records one latency sample in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        let idx = (63 - ns.max(1).leading_zeros() as usize).min(HISTO_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) in nanoseconds, interpolated
    /// linearly within the winning bucket. Returns 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = (1u64 << i) as f64;
                let within = (rank - seen) as f64 / n as f64;
                return lo + lo * within;
            }
            seen += n;
        }
        // Unreachable: counts sum to `count`. Keep a sane fallback.
        (1u64 << (HISTO_BUCKETS - 1)) as f64
    }
}

/// Aggregate serving statistics: the server's half of a
/// [`ServingMetrics`] poll, and what
/// [`StagedServer::stop`](crate::StagedServer::stop) returns.
///
/// The server keeps each of these once, where it happens: the ingest
/// queue counts admissions, and the fold thread records the stage
/// histograms, the delivery counts and its own restarts (they survive a
/// fold recovery). A metrics poll and `stop` read the same fold-side
/// copy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServerStats {
    /// Submissions accepted (each produced exactly one sink record).
    pub accepted: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Accepted events whose outcome was a successful publish.
    pub delivered: u64,
    /// Accepted events the engine refused (fault-plan aborts etc.); their
    /// records carry the error.
    pub failed: u64,
    /// Batches the pipeline processed.
    pub batches: u64,
    /// High-water mark of the ingest queue, in cut work items (batches
    /// and control ops); the open batch, which the fold takes whole,
    /// never counts.
    pub ingest_queue_max_depth: u64,
    /// Fold restarts after a crash (a chaos kill, a panicking sink, an
    /// engine bug); 0 on a healthy run.
    pub restarts: u64,
    /// In-flight work items salvaged and replayed across fold restarts.
    pub replayed_batches: u64,
    /// Per-event ingest-stage latency (submission → fold dequeue): the
    /// sum of the two splits below, kept whole for cross-version
    /// comparability.
    pub stage_ingest: LatencyHisto,
    /// Ingest split, per event: submission → cut, the time spent in the
    /// open batch. The fold's take, a full batch or a control op cuts
    /// it, so this is mostly the wait for the pass in flight to end;
    /// near zero while the pipeline is idle.
    pub stage_batcher: LatencyHisto,
    /// Ingest split, per event: cut → fold dequeue — time spent queued
    /// as a cut batch. Zero for a batch the fold took whole.
    pub stage_queue_wait: LatencyHisto,
    /// Per-batch pipeline-stage latency: fold dequeue → publish pass
    /// complete (the fused match → cost pass and the fold that decides).
    pub stage_pipeline: LatencyHisto,
    /// Per-batch egress latency: fold complete → last record stamped
    /// and handed to the sink.
    pub stage_egress: LatencyHisto,
}

/// One metrics poll of a running server — what
/// [`IngestHandle::metrics`](crate::IngestHandle::metrics) returns and
/// what a wire `Metrics` frame carries as JSON.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ServingMetrics {
    /// The broker's own counters (`Broker::metrics_snapshot`).
    pub broker: MetricsSnapshot,
    /// What the server measured around the broker.
    pub server: ServerStats,
}

impl ServingMetrics {
    /// The JSON a wire `Metrics` frame carries: one compact object with
    /// every field under its own name, in declaration order, nested
    /// structs as nested objects. A float prints with a `.0` when it is
    /// integral and below 1e16, in shortest form otherwise, and as
    /// `null` when it is not finite. Pollers find keys by name, so
    /// renaming a field changes the wire format.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        self.write_json(&mut out);
        out
    }
}

/// Appends a value's JSON form to a string.
trait WriteJson {
    fn write_json(&self, out: &mut String);
}

impl WriteJson for u64 {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl WriteJson for usize {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl WriteJson for f64 {
    fn write_json(&self, out: &mut String) {
        let v = *self;
        let _ = if !v.is_finite() {
            write!(out, "null")
        } else if v.fract() == 0.0 && v.abs() < 1e16 {
            write!(out, "{v:.1}")
        } else {
            write!(out, "{v}")
        };
    }
}

impl<const N: usize> WriteJson for [u64; N] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

/// Implements [`WriteJson`] for structs as objects of their fields in
/// the order listed. The listing destructures the struct without `..`,
/// so a field added to one of them fails to compile here instead of
/// going missing from the frame.
macro_rules! json_object {
    ($($ty:ident { $first:ident $(, $rest:ident)* $(,)? })*) => {$(
        impl WriteJson for $ty {
            fn write_json(&self, out: &mut String) {
                let $ty { $first $(, $rest)* } = self;
                out.push_str(concat!("{\"", stringify!($first), "\":"));
                $first.write_json(out);
                $(
                    out.push_str(concat!(",\"", stringify!($rest), "\":"));
                    $rest.write_json(out);
                )*
                out.push('}');
            }
        }
    )*};
}

json_object! {
    ServingMetrics { broker, server }
    MetricsSnapshot { epoch, report, churn, pipeline, scheme_cost_walks, recovery }
    CostReport {
        messages,
        dropped,
        unicasts,
        multicasts,
        partial_multicasts,
        scheme_cost,
        unicast_cost,
        ideal_cost,
        wasted_deliveries,
        unreachable_skipped,
    }
    ChurnCounters { epoch, subscribes, unsubscribes, recompiles, overlay_len, tombstone_len }
    PipelineCounters {
        batches,
        pooled_batches,
        inline_batches,
        events,
        max_workers,
        arena_growths,
        quarantined_workers,
        retried_batches,
        match_candidates,
        match_words,
        fault_segments,
        degraded_segments,
    }
    RecoveryCounters { truncated_records, recovery_ms, replayed_ops, stale_ops }
    ServerStats {
        accepted,
        rejected,
        delivered,
        failed,
        batches,
        ingest_queue_max_depth,
        restarts,
        replayed_batches,
        stage_ingest,
        stage_batcher,
        stage_queue_wait,
        stage_pipeline,
        stage_egress,
    }
    LatencyHisto { buckets, count, total_ns }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histo_records_into_log2_buckets() {
        let mut h = LatencyHisto::default();
        h.record(0); // clamps to 1 → bucket 0
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.total_ns, 1 + 2 + 3 + 1024);
        // A sample beyond the last bucket clamps instead of panicking.
        h.record(u64::MAX);
        assert_eq!(h.buckets[HISTO_BUCKETS - 1], 1);
    }

    #[test]
    fn histo_quantiles_bracket_the_samples() {
        let mut h = LatencyHisto::default();
        for _ in 0..99 {
            h.record(1000);
        }
        h.record(1_000_000);
        // p50 lives in the 1000ns bucket [512, 1024); p999 in the
        // millisecond-ish bucket.
        let p50 = h.quantile_ns(0.50);
        assert!((512.0..=1024.0).contains(&p50), "p50 = {p50}");
        let p999 = h.quantile_ns(0.999);
        assert!((524_288.0..=1_048_576.0).contains(&p999), "p999 = {p999}");
        assert!(h.quantile_ns(0.0) >= 512.0);
        assert_eq!(LatencyHisto::default().quantile_ns(0.5), 0.0);
    }

    #[test]
    fn empty_histo_quantiles_are_zero() {
        let h = LatencyHisto::default();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile_ns(q), 0.0, "q={q} on an empty histogram");
        }
    }

    #[test]
    fn single_sample_histo_quantiles_share_one_bucket() {
        let mut h = LatencyHisto::default();
        h.record(1_000);
        assert_eq!(h.count(), 1);
        // Every quantile of a single sample resolves in its bucket
        // [512, 1024): above the bucket floor, at most the next power.
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            let v = h.quantile_ns(q);
            assert!((512.0..=1024.0).contains(&v), "q={q} gave {v}");
        }
        // A zero-ns sample clamps to the first bucket instead of
        // underflowing the log2 index.
        let mut h = LatencyHisto::default();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert!(h.quantile_ns(0.5) >= 1.0);
    }

    #[test]
    fn values_beyond_the_top_bucket_clamp() {
        let mut h = LatencyHisto::default();
        // 2^63 ns is far past the top bucket (index HISTO_BUCKETS - 1 =
        // 39); the sample must clamp there, not index out of bounds.
        h.record(u64::MAX);
        h.record(1u64 << 62);
        assert_eq!(h.count(), 2);
        let top_floor = (1u64 << (HISTO_BUCKETS - 1)) as f64;
        assert!(h.quantile_ns(0.5) >= top_floor);
        assert!(h.quantile_ns(1.0) <= 2.0 * top_floor);
        // total_ns saturates instead of wrapping.
        assert_eq!(h.total_ns, u64::MAX);
    }

    #[test]
    fn quantiles_are_monotone_across_p50_p99_p999() {
        let mut h = LatencyHisto::default();
        // A spread of magnitudes, heavily skewed to the low end.
        for i in 0..1000u64 {
            h.record(100 + i);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        h.record(500_000_000);
        let p50 = h.quantile_ns(0.5);
        let p99 = h.quantile_ns(0.99);
        let p999 = h.quantile_ns(0.999);
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        assert!(p99 <= p999, "p99 {p99} > p999 {p999}");
        assert!((64.0..=2048.0).contains(&p50), "p50 {p50} off the data");
        assert!(p999 >= p50);
        // Degenerate quantile arguments clamp instead of panicking.
        assert!(h.quantile_ns(-1.0) <= h.quantile_ns(2.0));
    }

    /// A `ServingMetrics` with a distinct non-zero value in every field.
    fn golden() -> ServingMetrics {
        let histo = |base: u64| {
            let mut buckets = [0u64; HISTO_BUCKETS];
            for (i, b) in buckets.iter_mut().enumerate() {
                *b = base * 100 + i as u64 + 1;
            }
            LatencyHisto {
                buckets,
                count: base * 1000 + 1,
                total_ns: base * 1000 + 2,
            }
        };
        ServingMetrics {
            broker: MetricsSnapshot {
                epoch: 1,
                report: CostReport {
                    messages: 2,
                    dropped: 3,
                    unicasts: 4,
                    multicasts: 5,
                    partial_multicasts: 6,
                    scheme_cost: f64::INFINITY,
                    unicast_cost: 1234.5678,
                    ideal_cost: 2.5e16,
                    wasted_deliveries: 7,
                    unreachable_skipped: 8,
                },
                churn: ChurnCounters {
                    epoch: 9,
                    subscribes: 10,
                    unsubscribes: 11,
                    recompiles: 12,
                    overlay_len: 13,
                    tombstone_len: 14,
                },
                pipeline: PipelineCounters {
                    batches: 15,
                    pooled_batches: 16,
                    inline_batches: 17,
                    events: 18,
                    max_workers: 19,
                    arena_growths: 20,
                    quarantined_workers: 21,
                    retried_batches: 22,
                    match_candidates: 23,
                    match_words: 24,
                    fault_segments: 25,
                    degraded_segments: 26,
                },
                scheme_cost_walks: 27,
                recovery: RecoveryCounters {
                    truncated_records: 28,
                    recovery_ms: 29,
                    replayed_ops: 30,
                    stale_ops: 31,
                },
            },
            server: ServerStats {
                accepted: 32,
                rejected: 33,
                delivered: 34,
                failed: 35,
                batches: 36,
                ingest_queue_max_depth: 37,
                restarts: 38,
                replayed_batches: 39,
                stage_ingest: histo(1),
                stage_batcher: histo(2),
                stage_queue_wait: histo(3),
                stage_pipeline: histo(4),
                stage_egress: histo(5),
            },
        }
    }

    /// The metrics frame byte for byte, as pollers read it: they find
    /// keys by name, so any change to this literal is a wire change.
    #[test]
    fn to_json_matches_the_serde_frame() {
        let frame = concat!(
            r#"{"broker":{"epoch":1,"#,
            r#""report":{"messages":2,"dropped":3,"unicasts":4,"multicasts":5,"#,
            r#""partial_multicasts":6,"scheme_cost":null,"unicast_cost":1234.5678,"#,
            r#""ideal_cost":25000000000000000,"wasted_deliveries":7,"#,
            r#""unreachable_skipped":8},"#,
            r#""churn":{"epoch":9,"subscribes":10,"unsubscribes":11,"recompiles":12,"#,
            r#""overlay_len":13,"tombstone_len":14},"#,
            r#""pipeline":{"batches":15,"pooled_batches":16,"inline_batches":17,"#,
            r#""events":18,"max_workers":19,"arena_growths":20,"quarantined_workers":21,"#,
            r#""retried_batches":22,"match_candidates":23,"match_words":24,"#,
            r#""fault_segments":25,"degraded_segments":26},"#,
            r#""scheme_cost_walks":27,"recovery":{"truncated_records":28,"recovery_ms":29,"#,
            r#""replayed_ops":30,"stale_ops":31}},"#,
            r#""server":{"accepted":32,"rejected":33,"delivered":34,"failed":35,"#,
            r#""batches":36,"ingest_queue_max_depth":37,"restarts":38,"#,
            r#""replayed_batches":39,"#,
            r#""stage_ingest":{"buckets":[101,102,103,104,105,106,107,108,109,110,111,112,"#,
            r#"113,114,115,116,117,118,119,120,121,122,123,124,125,126,127,128,129,130,131,"#,
            r#"132,133,134,135,136,137,138,139,140],"count":1001,"total_ns":1002},"#,
            r#""stage_batcher":{"buckets":[201,202,203,204,205,206,207,208,209,210,211,212,"#,
            r#"213,214,215,216,217,218,219,220,221,222,223,224,225,226,227,228,229,230,231,"#,
            r#"232,233,234,235,236,237,238,239,240],"count":2001,"total_ns":2002},"#,
            r#""stage_queue_wait":{"buckets":[301,302,303,304,305,306,307,308,309,310,311,"#,
            r#"312,313,314,315,316,317,318,319,320,321,322,323,324,325,326,327,328,329,330,"#,
            r#"331,332,333,334,335,336,337,338,339,340],"count":3001,"total_ns":3002},"#,
            r#""stage_pipeline":{"buckets":[401,402,403,404,405,406,407,408,409,410,411,"#,
            r#"412,413,414,415,416,417,418,419,420,421,422,423,424,425,426,427,428,429,430,"#,
            r#"431,432,433,434,435,436,437,438,439,440],"count":4001,"total_ns":4002},"#,
            r#""stage_egress":{"buckets":[501,502,503,504,505,506,507,508,509,510,511,512,"#,
            r#"513,514,515,516,517,518,519,520,521,522,523,524,525,526,527,528,529,530,531,"#,
            r#"532,533,534,535,536,537,538,539,540],"count":5001,"total_ns":5002}}}"#,
        );
        assert_eq!(golden().to_json(), frame);
        // Each float rule, on one field: integral below 1e16 keeps a
        // `.0`, anything else prints in shortest form, non-finite is null.
        for (v, text) in [
            (4096.0, "4096.0"),
            (-7.0, "-7.0"),
            (-0.0, "-0.0"),
            (0.1, "0.1"),
            (1e-7, "0.0000001"),
            (123456789.125, "123456789.125"),
            (9999999999999998.0, "9999999999999998.0"),
            (1e16, "10000000000000000"),
            (f64::NAN, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            let mut m = golden();
            m.broker.report.unicast_cost = v;
            let want = frame.replace("1234.5678", text);
            assert_eq!(m.to_json(), want, "unicast_cost = {v:?}");
        }
    }
}
