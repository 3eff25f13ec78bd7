//! Cost accounting and the paper's improvement-percentage metric (§5.2),
//! plus the serving-path observability types: the fixed-bucket
//! [`LatencyHisto`] behind the per-stage latency gauges and the combined
//! [`MetricsSnapshot`] returned by `Broker::metrics_snapshot`.

use serde::{Deserialize, Serialize};

/// Number of power-of-two buckets in a [`LatencyHisto`]: bucket `i`
/// covers `[2^i, 2^(i+1))` nanoseconds, so 40 buckets span 1 ns to
/// ~18 minutes — more than any per-stage latency the broker can see.
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

    /// Folds another histogram into this one (used to merge per-stage
    /// histograms kept by other threads back into the broker's counters
    /// at shutdown).
    pub fn merge(&mut self, other: &LatencyHisto) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
    }
}

/// The three costs of delivering one publication.
#[derive(Clone, Copy, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct MessageCosts {
    /// What the configured scheme actually paid.
    pub scheme: f64,
    /// What pure unicast to the interested set would have paid (the 0%
    /// reference).
    pub unicast: f64,
    /// What a dedicated multicast group of exactly the interested
    /// subscribers would have paid (the 100% reference; the paper notes
    /// achieving it in general needs `O(k^N)` groups).
    pub ideal: f64,
}

/// Aggregated delivery statistics over a stream of publications.
///
/// The improvement percentage is computed on aggregated costs,
/// `100·(ΣC_unicast − ΣC_scheme)/(ΣC_unicast − ΣC_ideal)`, which avoids
/// the per-message singularity when a message has a single receiver
/// (unicast cost = ideal cost); see DESIGN.md choice 7.
#[derive(Clone, Copy, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct CostReport {
    /// Publications processed.
    pub messages: u64,
    /// Publications dropped (no interested subscribers).
    pub dropped: u64,
    /// Publications delivered by unicast.
    pub unicasts: u64,
    /// Publications delivered by multicast.
    pub multicasts: u64,
    /// Publications delivered by partial multicast — a fault-degraded
    /// group send covering only the reachable members.
    #[serde(default)]
    pub partial_multicasts: u64,
    /// Total cost paid by the scheme.
    pub scheme_cost: f64,
    /// Total cost pure unicast would have paid.
    pub unicast_cost: f64,
    /// Total cost of ideal per-message multicast.
    pub ideal_cost: f64,
    /// Total deliveries to uninterested group members (filtered at the
    /// receiver) — the realized "waste" the EW distance estimates.
    pub wasted_deliveries: u64,
    /// Total matched subscribers that were skipped because the fault
    /// state made them unreachable from the publisher. Zero on a
    /// fault-free broker.
    #[serde(default)]
    pub unreachable_skipped: u64,
}

impl CostReport {
    /// Folds one message's outcome into the report. `unreachable` is the
    /// number of matched subscribers skipped as unreachable under the
    /// current fault state (0 on a fault-free broker).
    pub fn record(
        &mut self,
        costs: MessageCosts,
        delivered: Delivery,
        wasted: u64,
        unreachable: u64,
    ) {
        self.messages += 1;
        match delivered {
            Delivery::Dropped { .. } => self.dropped += 1,
            Delivery::Unicast => self.unicasts += 1,
            Delivery::Multicast => self.multicasts += 1,
            Delivery::PartialMulticast => self.partial_multicasts += 1,
        }
        self.scheme_cost += costs.scheme;
        self.unicast_cost += costs.unicast;
        self.ideal_cost += costs.ideal;
        self.wasted_deliveries += wasted;
        self.unreachable_skipped += unreachable;
    }

    /// The improvement over pure unicast on the paper's scale: 0% means
    /// the scheme paid what unicast pays, 100% means it paid what ideal
    /// per-message multicast pays. Negative values mean the scheme was
    /// *worse* than unicast (possible with a bad threshold). Returns 0
    /// when there is no headroom (`ΣC_unicast == ΣC_ideal`).
    pub fn improvement_percent(&self) -> f64 {
        let headroom = self.unicast_cost - self.ideal_cost;
        if headroom <= f64::EPSILON {
            return 0.0;
        }
        100.0 * (self.unicast_cost - self.scheme_cost) / headroom
    }

    /// Mean scheme cost per message (0 if no messages).
    pub fn avg_cost(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.scheme_cost / self.messages as f64
        }
    }
}

/// Counters describing the broker's churn machinery: how the live
/// subscription set has been mutated and how the engine kept up.
/// Assembled by `Broker::churn_counters`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct ChurnCounters {
    /// Current engine-snapshot epoch (bumps on every snapshot swap:
    /// recompiles, churn-driven group updates, local partition refreshes).
    pub epoch: u64,
    /// Subscriptions added via `subscribe` since construction.
    pub subscribes: u64,
    /// Subscriptions removed via `unsubscribe` since construction.
    pub unsubscribes: u64,
    /// Full engine recompiles (drift-triggered, explicit `recompile`, or
    /// `set_clustering`).
    pub recompiles: u64,
    /// Local partition refreshes (incremental-clusterer local updates
    /// folded into the snapshot without a recompile).
    pub local_refreshes: u64,
    /// Subscriptions currently in the delta overlay (added since the last
    /// recompile).
    pub overlay_len: usize,
    /// Compiled subscriptions currently tombstoned (removed since the
    /// last recompile).
    pub tombstone_len: usize,
}

/// Counters describing the fused batch-publish pipeline: how batches
/// were dispatched on the persistent worker pool and whether the
/// per-worker arenas are being reused (steady state) or still growing.
/// Assembled by `Broker::pipeline_counters`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct PipelineCounters {
    /// Passes through the publish pipeline: every `publish_batch` /
    /// `publish_batch_stats` call (one per fault-clock segment under a
    /// fault plan), every single `publish` / `publish_from` — a
    /// one-event batch — and every staged batch folded by
    /// `Broker::fold_staged`.
    pub batches: u64,
    /// Batches fanned out on the persistent worker pool (> 1 worker).
    pub pooled_batches: u64,
    /// Batches run inline on the caller's thread (1 worker or at most
    /// one block of events).
    pub inline_batches: u64,
    /// Events pushed through the pipeline.
    pub events: u64,
    /// Largest worker count any batch used.
    pub max_workers: u64,
    /// Batches in which some worker's arena or metadata buffer had to
    /// reallocate. Stops increasing once the states are warm — the
    /// steady-state batch path performs no per-event allocation.
    pub arena_growths: u64,
    /// Workers whose fused pass panicked and were quarantined; their
    /// blocks were recomputed inline so the batch still completed.
    #[serde(default)]
    pub quarantined_workers: u64,
    /// Batches that needed at least one inline quarantine retry.
    #[serde(default)]
    pub retried_batches: u64,
    /// Event blocks dispatched through the SIMD block-mode matcher
    /// (events are matched 8 per block).
    #[serde(default)]
    pub match_blocks: u64,
    /// Blocks matched by a runtime-detected SIMD kernel (SSE2 or AVX2).
    #[serde(default)]
    pub simd_blocks: u64,
    /// Blocks matched by the portable scalar fallback kernels (non-x86
    /// hosts or `PUBSUB_NO_SIMD`).
    #[serde(default)]
    pub scalar_blocks: u64,
    /// Active event lanes summed over all blocks; lane utilization is
    /// `match_lanes / (8 × match_blocks)`.
    #[serde(default)]
    pub match_lanes: u64,
    /// Fault-clock segments dispatched by batches under an installed
    /// fault plan (each segment is one pipeline pass).
    #[serde(default)]
    pub fault_segments: u64,
    /// Fault-clock segments that ran in degraded (reachability-masked)
    /// mode.
    #[serde(default)]
    pub degraded_segments: u64,
    /// High-water mark of the staged serving path's ingest queue (in
    /// queued work items). 0 until a serving front-end reports it via
    /// `Broker::note_queue_depth`.
    #[serde(default)]
    pub ingest_queue_max_depth: u64,
    /// Submissions the serving front-end rejected under backpressure
    /// (full ingest queue ⇒ explicit reject ack). 0 on the synchronous
    /// path.
    #[serde(default)]
    pub ingest_rejected: u64,
    /// Per-event ingest-stage latency (submission → dequeue by the
    /// pipeline stage), recorded by the serving path. The sum of the two
    /// split histograms below, kept for cross-PR comparability.
    #[serde(default)]
    pub stage_ingest: LatencyHisto,
    /// Ingest split, per event: submission → shard-batcher flush — how
    /// long the event waited for the size-or-deadline trigger. This is
    /// the number adaptive batching shrinks when the queue is shallow.
    #[serde(default)]
    pub stage_batcher: LatencyHisto,
    /// Ingest split, per event: batcher flush → dequeue by a pipeline
    /// executor — time spent in the bounded ingest queue. This is the
    /// backlog signal adaptive batching grows the deadline under.
    #[serde(default)]
    pub stage_queue_wait: LatencyHisto,
    /// Per-batch pipeline-stage latency (the fused match → cost → decide
    /// pass plus the sequential fold), recorded by the serving path.
    #[serde(default)]
    pub stage_pipeline: LatencyHisto,
    /// Per-batch egress-stage latency (delivery fan-out and record
    /// stamping), recorded by the serving path.
    #[serde(default)]
    pub stage_egress: LatencyHisto,
}

/// Which serving stage a latency sample belongs to — the index of the
/// `stage_*` histograms in [`PipelineCounters`]; see
/// `Broker::note_stage_latency`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StageKind {
    /// Transport-in: submission → dequeue by the pipeline stage
    /// (per-event queueing delay in the ingest queue). The sum of
    /// [`StageKind::Batcher`] and [`StageKind::QueueWait`], kept whole
    /// for cross-version comparability.
    Ingest,
    /// Transport-in split: submission → shard-batcher flush (per-event
    /// residency under the size-or-deadline trigger).
    Batcher,
    /// Transport-in split: batcher flush → dequeue by a pipeline
    /// executor (per-event wait in the bounded ingest queue).
    QueueWait,
    /// The fused match → cost → decide pass plus the in-order fold
    /// (per-batch).
    Pipeline,
    /// Transport-out: delivery fan-out and record stamping (per-batch).
    Egress,
}

/// Counters describing crash-recovery activity: journal replays at
/// `Broker::recover` time and supervised stage restarts reported by a
/// serving supervisor. All-zero on a broker that has never recovered.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct RecoveryCounters {
    /// Supervised stage restarts (executor/fold/egress threads replaced
    /// after a panic).
    pub restarts: u64,
    /// In-flight batches salvaged from a dead stage and replayed.
    pub replayed_batches: u64,
    /// Torn trailing journal records discarded during the last recovery.
    pub truncated_records: u64,
    /// Wall-clock milliseconds the last `Broker::recover` took (journal
    /// load + registry restore + engine compile).
    pub recovery_ms: u64,
    /// Journal tail operations replayed by the last recovery (ops after
    /// the last snapshot).
    pub replayed_ops: u64,
    /// Stale journal records the last recovery skipped because the
    /// snapshot had already folded them — a crash landed between the
    /// snapshot rename and the WAL truncation.
    #[serde(default)]
    pub stale_ops: u64,
}

/// One coherent view of every broker-side counter family, assembled by
/// `Broker::metrics_snapshot` — what a serving front-end or benchmark
/// polls instead of stitching the individual accessors together.
#[derive(Clone, Copy, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Current engine-snapshot epoch.
    pub epoch: u64,
    /// Cumulative delivery-cost report.
    pub report: CostReport,
    /// Churn machinery counters.
    pub churn: ChurnCounters,
    /// Batch-pipeline and serving-stage counters.
    pub pipeline: PipelineCounters,
    /// Scheme-cost memo misses (cost walks actually performed).
    pub scheme_cost_walks: u64,
    /// Crash-recovery counters (journal replays, supervised restarts).
    #[serde(default)]
    pub recovery: RecoveryCounters,
}

/// How a message ended up being delivered (for accounting).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Delivery {
    /// Not sent at all — nobody matched, or every matched subscriber was
    /// unreachable under the current fault state.
    Dropped {
        /// Matched subscribers that could not be reached (0 when the
        /// event simply matched nobody).
        unreachable: u32,
    },
    /// Sent as per-receiver unicasts.
    Unicast,
    /// Sent as one group multicast.
    Multicast,
    /// Sent as one multicast over the reachable subset of a
    /// fault-degraded group's tree.
    PartialMulticast,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_accumulates() {
        let mut r = CostReport::default();
        r.record(
            MessageCosts {
                scheme: 5.0,
                unicast: 10.0,
                ideal: 4.0,
            },
            Delivery::Multicast,
            2,
            0,
        );
        r.record(
            MessageCosts {
                scheme: 3.0,
                unicast: 3.0,
                ideal: 2.0,
            },
            Delivery::Unicast,
            0,
            0,
        );
        r.record(
            MessageCosts::default(),
            Delivery::Dropped { unreachable: 0 },
            0,
            0,
        );
        assert_eq!(r.messages, 3);
        assert_eq!(r.multicasts, 1);
        assert_eq!(r.unicasts, 1);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.wasted_deliveries, 2);
        assert_eq!(r.scheme_cost, 8.0);
        // improvement = 100*(13-8)/(13-6) = 71.43%
        assert!((r.improvement_percent() - 100.0 * 5.0 / 7.0).abs() < 1e-9);
        assert!((r.avg_cost() - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn improvement_bounds() {
        let mut r = CostReport::default();
        // Scheme == unicast -> 0%.
        r.record(
            MessageCosts {
                scheme: 10.0,
                unicast: 10.0,
                ideal: 5.0,
            },
            Delivery::Unicast,
            0,
            0,
        );
        assert_eq!(r.improvement_percent(), 0.0);
        // Scheme == ideal -> 100%.
        let mut r = CostReport::default();
        r.record(
            MessageCosts {
                scheme: 5.0,
                unicast: 10.0,
                ideal: 5.0,
            },
            Delivery::Multicast,
            0,
            0,
        );
        assert_eq!(r.improvement_percent(), 100.0);
        // Scheme worse than unicast -> negative.
        let mut r = CostReport::default();
        r.record(
            MessageCosts {
                scheme: 12.0,
                unicast: 10.0,
                ideal: 5.0,
            },
            Delivery::Multicast,
            3,
            0,
        );
        assert!(r.improvement_percent() < 0.0);
    }

    #[test]
    fn no_headroom_is_zero() {
        let mut r = CostReport::default();
        r.record(
            MessageCosts {
                scheme: 7.0,
                unicast: 7.0,
                ideal: 7.0,
            },
            Delivery::Unicast,
            0,
            0,
        );
        assert_eq!(r.improvement_percent(), 0.0);
        assert_eq!(CostReport::default().improvement_percent(), 0.0);
        assert_eq!(CostReport::default().avg_cost(), 0.0);
    }

    #[test]
    fn degraded_deliveries_are_accounted() {
        let mut r = CostReport::default();
        r.record(
            MessageCosts {
                scheme: 4.0,
                unicast: 6.0,
                ideal: 3.0,
            },
            Delivery::PartialMulticast,
            1,
            2,
        );
        r.record(
            MessageCosts::default(),
            Delivery::Dropped { unreachable: 3 },
            0,
            3,
        );
        assert_eq!(r.messages, 2);
        assert_eq!(r.partial_multicasts, 1);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.multicasts, 0);
        assert_eq!(r.wasted_deliveries, 1);
        assert_eq!(r.unreachable_skipped, 5);
    }

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
    fn histo_merge_adds_counts() {
        let mut a = LatencyHisto::default();
        let mut b = LatencyHisto::default();
        a.record(10);
        b.record(10);
        b.record(100_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.buckets[3], 2);
        assert_eq!(a.total_ns, 10 + 10 + 100_000);
    }

    #[test]
    fn counters_with_histos_roundtrip_serde() {
        let mut c = PipelineCounters {
            ingest_queue_max_depth: 7,
            ingest_rejected: 3,
            ..PipelineCounters::default()
        };
        c.stage_pipeline.record(12_345);
        let json = serde_json::to_string(&c).expect("serialize");
        let back: PipelineCounters = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, c);
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
}
