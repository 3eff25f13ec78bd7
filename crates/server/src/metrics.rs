//! What the staged server measures around the broker: the fixed-bucket
//! [`LatencyHisto`] behind its per-stage latency gauges, the
//! [`ServerStats`] that keep them beside the admission and restart
//! counts, and the [`ServingMetrics`] a metrics poll returns.

use pubsub_core::MetricsSnapshot;
use serde::{Deserialize, Serialize};

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
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
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

    /// Mean recorded latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
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
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
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
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct ServingMetrics {
    /// The broker's own counters (`Broker::metrics_snapshot`).
    pub broker: MetricsSnapshot,
    /// What the server measured around the broker.
    pub server: ServerStats,
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
        assert!((h.mean_ns() - (99.0 * 1000.0 + 1_000_000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histo_quantiles_are_zero() {
        let h = LatencyHisto::default();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile_ns(q), 0.0, "q={q} on an empty histogram");
        }
    }

    #[test]
    fn single_sample_histo_quantiles_share_one_bucket() {
        let mut h = LatencyHisto::default();
        h.record(1_000);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean_ns(), 1_000.0);
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
        assert_eq!(h.mean_ns(), u64::MAX as f64 / 2.0);
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

    #[test]
    fn stats_with_histos_roundtrip_serde() {
        let mut stats = ServerStats {
            rejected: 3,
            ingest_queue_max_depth: 7,
            ..ServerStats::default()
        };
        stats.stage_pipeline.record(12_345);
        let json = serde_json::to_string(&stats).expect("serialize");
        let back: ServerStats = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, stats);
    }
}
