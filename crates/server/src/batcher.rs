//! Size-or-wait batching for the transport-in stage.
//!
//! Each connection shard owns one [`EventBatcher`]: submissions
//! accumulate until the batch is full (size trigger, checked at submit),
//! the pipeline has nothing in flight (checked at submit and when the
//! fold finishes its last item), or the oldest buffered item has waited
//! longer than the flush deadline (checked by the server's flusher
//! tick). Batching amortizes per-batch pipeline cost only against a pass
//! already in flight, so events wait only while the pipeline is busy,
//! and the deadline is just the ceiling on what a sparse client pays.

use std::time::{Duration, Instant};

use pubsub_geom::Point;

/// Per-event submission bookkeeping carried alongside the payload from
/// ingest to egress: who sent it and when, so the egress record can
/// stamp end-to-end and per-stage latencies.
#[derive(Clone, Copy, Debug)]
pub struct SubmitMeta {
    /// The submitting client.
    pub client: u32,
    /// The client's sequence number for the event.
    pub seq: u64,
    /// Open-loop scheduled arrival — the end-to-end latency origin.
    pub scheduled: Instant,
    /// When `submit` accepted the event.
    pub submitted: Instant,
}

/// One flushed shard batch in flight through the pipeline: submission
/// metadata and the owned events.
#[derive(Debug)]
pub struct EventBatch {
    /// Per-event submission bookkeeping, in submission order.
    pub meta: Vec<SubmitMeta>,
    /// The events, parallel to `meta`.
    pub points: Vec<Point>,
    /// When the batch was flushed into the ingest queue (queue-wait
    /// latency basis). Meaningless until [`EventBatcher::take`] stamps
    /// it.
    pub enqueued: Instant,
}

impl EventBatch {
    /// Events in the batch.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }
}

/// The shard batcher of the staged server: a bounded buffer that reports
/// when it should flush (full, or its oldest event has waited out the
/// deadline).
#[derive(Debug)]
pub struct EventBatcher {
    meta: Vec<SubmitMeta>,
    points: Vec<Point>,
    /// Arrival instant of the oldest buffered event (deadline basis).
    oldest: Option<Instant>,
    max: usize,
    dims: usize,
}

impl EventBatcher {
    /// A batcher flushing at `max` events (minimum 1) in a `dims`-
    /// dimensional event space.
    pub fn new(max: usize, dims: usize) -> Self {
        EventBatcher {
            meta: Vec::new(),
            points: Vec::new(),
            oldest: None,
            max: max.max(1),
            dims,
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Whether the buffer is at the size trigger — the caller must flush
    /// (or reject the submission) before pushing more.
    pub fn is_full(&self) -> bool {
        self.meta.len() >= self.max
    }

    /// Buffers one event that arrived at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the batcher [`EventBatcher::is_full`] (the caller owns
    /// the flush-or-reject decision) or the event's dimensionality does
    /// not match the batcher's (the server validates at submit).
    pub fn push(&mut self, meta: SubmitMeta, event: Point, now: Instant) {
        assert!(!self.is_full(), "push into a full batcher");
        assert_eq!(event.dims(), self.dims, "event dimensionality");
        if self.meta.is_empty() {
            self.oldest = Some(now);
        }
        self.points.push(event);
        self.meta.push(meta);
    }

    /// Whether the deadline trigger has fired: something is buffered and
    /// the oldest event has waited at least `interval`.
    pub fn due(&self, now: Instant, interval: Duration) -> bool {
        match self.oldest {
            Some(oldest) => now.saturating_duration_since(oldest) >= interval,
            None => false,
        }
    }

    /// Takes the buffered batch, stamped as enqueued at `now`, leaving
    /// the batcher empty. The backing allocations move out with the
    /// batch (the pipeline consumes them), so a fresh buffer starts
    /// small and regrows only under load.
    pub fn take(&mut self, now: Instant) -> EventBatch {
        self.oldest = None;
        EventBatch {
            meta: std::mem::take(&mut self.meta),
            points: std::mem::take(&mut self.points),
            enqueued: now,
        }
    }

    /// Puts a just-taken batch back (a flush whose queue push was
    /// rejected); `oldest` restarts at `now`, which only ever *delays*
    /// the deadline — acceptable, the queue was full anyway.
    pub fn restore(&mut self, batch: EventBatch, now: Instant) {
        debug_assert!(self.meta.is_empty(), "restore over buffered events");
        if !batch.is_empty() {
            self.oldest = Some(now);
        }
        self.meta = batch.meta;
        self.points = batch.points;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One buffered event whose only distinguishing mark is `seq`.
    fn push(b: &mut EventBatcher, seq: u64, now: Instant) {
        b.push(meta(seq), Point::new(vec![0.0, 0.0]).expect("point"), now);
    }

    fn seqs(batch: &EventBatch) -> Vec<u64> {
        batch.meta.iter().map(|m| m.seq).collect()
    }

    #[test]
    fn size_trigger_fires_at_max() {
        let mut b = EventBatcher::new(3, 2);
        let now = Instant::now();
        assert!(b.is_empty());
        push(&mut b, 1, now);
        push(&mut b, 2, now);
        assert!(!b.is_full());
        push(&mut b, 3, now);
        assert!(b.is_full());
        assert_eq!(seqs(&b.take(now)), vec![1, 2, 3]);
        assert!(b.is_empty() && !b.is_full());
    }

    #[test]
    #[should_panic(expected = "push into a full batcher")]
    fn push_into_full_panics() {
        let mut b = EventBatcher::new(1, 2);
        let now = Instant::now();
        push(&mut b, 1, now);
        push(&mut b, 2, now);
    }

    #[test]
    fn deadline_trigger_tracks_oldest() {
        let mut b = EventBatcher::new(10, 2);
        let t0 = Instant::now();
        let interval = Duration::from_millis(5);
        assert!(!b.due(t0, interval), "empty batcher is never due");
        push(&mut b, 1, t0);
        assert!(!b.due(t0, interval));
        assert!(b.due(t0 + Duration::from_millis(5), interval));
        // A later push does not reset the deadline basis.
        push(&mut b, 2, t0 + Duration::from_millis(4));
        assert!(b.due(t0 + Duration::from_millis(5), interval));
        b.take(t0);
        assert!(!b.due(t0 + Duration::from_secs(1), interval));
    }

    #[test]
    fn restore_rearms_deadline() {
        let mut b = EventBatcher::new(10, 2);
        let t0 = Instant::now();
        push(&mut b, 7, t0);
        let batch = b.take(t0);
        let t1 = t0 + Duration::from_millis(3);
        b.restore(batch, t1);
        assert_eq!(b.len(), 1);
        let interval = Duration::from_millis(5);
        assert!(!b.due(t1 + Duration::from_millis(4), interval));
        assert!(b.due(t1 + Duration::from_millis(5), interval));
    }

    fn meta(seq: u64) -> SubmitMeta {
        let now = Instant::now();
        SubmitMeta {
            client: 0,
            seq,
            scheduled: now,
            submitted: now,
        }
    }
}
