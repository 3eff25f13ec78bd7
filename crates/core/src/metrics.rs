//! Cost accounting and the paper's improvement-percentage metric (§5.2),
//! plus the broker's own counters, read as one [`MetricsSnapshot`]
//! through `Broker::metrics_snapshot`. What a serving front-end measures
//! around the broker (stage latencies, queue gauges, restarts) is the
//! front-end's to keep.

/// The three costs of delivering one publication.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
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
#[derive(Clone, Copy, PartialEq, Debug, Default)]
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
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ChurnCounters {
    /// Current engine-snapshot epoch (bumps on every snapshot swap:
    /// recompiles and churn-driven group updates).
    pub epoch: u64,
    /// Subscriptions added via `subscribe` since construction.
    pub subscribes: u64,
    /// Subscriptions removed via `unsubscribe` since construction.
    pub unsubscribes: u64,
    /// Full engine recompiles (drift-triggered or explicit `recompile`).
    pub recompiles: u64,
    /// Live subscriptions added since the last recompile (the name
    /// predates in-place churn, when they sat in a delta overlay).
    pub overlay_len: usize,
    /// Subscriptions the last recompile numbered that have been removed
    /// since (the name predates in-place churn, when a tombstone bitset
    /// masked them).
    pub tombstone_len: usize,
}

/// Counters describing the fused batch-publish pipeline: how batches
/// were dispatched on the persistent worker pool and whether the
/// per-worker arenas are being reused (steady state) or still growing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PipelineCounters {
    /// Passes through the publish pipeline: every `publish_batch` /
    /// `publish_batch_stats` call (one per fault-clock segment under a
    /// fault plan) and every single `publish` / `publish_from` — a
    /// one-event batch.
    pub batches: u64,
    /// Batches fanned out on the persistent worker pool (> 1 worker).
    pub pooled_batches: u64,
    /// Batches run inline on the caller's thread (1 worker or fewer than
    /// two blocks of events).
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
    pub quarantined_workers: u64,
    /// Batches that needed at least one inline quarantine retry.
    pub retried_batches: u64,
    /// Representatives the matcher's slab filter passed to the exact
    /// test (`CoveringTable::hit_runs`), summed over events.
    pub match_candidates: u64,
    /// Slab-filter words ANDed — summary words plus the bitmap words
    /// the summaries let through — summed over events.
    pub match_words: u64,
    /// Fault-clock segments dispatched by batches under an installed
    /// fault plan (each segment is one pipeline pass).
    pub fault_segments: u64,
    /// Fault-clock segments that ran in degraded (reachability-masked)
    /// mode.
    pub degraded_segments: u64,
}

/// Counters describing the journal recovery that produced this broker
/// (`BrokerBuilder::recover`). All-zero on a broker built fresh.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RecoveryCounters {
    /// Torn trailing journal records discarded during the last recovery.
    pub truncated_records: u64,
    /// Wall-clock milliseconds the last recovery took (journal
    /// load + registry restore + engine compile).
    pub recovery_ms: u64,
    /// Journal tail operations replayed by the last recovery (ops after
    /// the last snapshot).
    pub replayed_ops: u64,
    /// Stale journal records the last recovery skipped because the
    /// snapshot had already folded them — a crash landed between the
    /// snapshot rename and the WAL truncation.
    pub stale_ops: u64,
}

/// One coherent view of every broker-side counter family — the only
/// way to read them, through `Broker::metrics_snapshot`.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct MetricsSnapshot {
    /// Current engine-snapshot epoch.
    pub epoch: u64,
    /// Cumulative delivery-cost report.
    pub report: CostReport,
    /// Churn machinery counters.
    pub churn: ChurnCounters,
    /// Batch-pipeline counters.
    pub pipeline: PipelineCounters,
    /// Scheme-cost memo misses (cost walks actually performed).
    pub scheme_cost_walks: u64,
    /// Journal-recovery counters.
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
}
