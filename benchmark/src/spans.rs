//! Spans recorded by the benchmark around its own calls into the
//! product. The end-to-end binary instantiates every driver with
//! [`Off`], whose methods compile to nothing; the trace binary uses
//! [`Recorder`] and writes the spans out when it ends.

use std::io::Write;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One span. `id` is the event sequence number or batch index the span
/// belongs to, so the spans of one request share it.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer and operation, e.g. `"broker.publish_batch"`.
    pub name: &'static str,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Event or batch identifier.
    pub id: u64,
}

/// Where a driver reports spans.
pub trait Spans {
    /// Whether spans are kept (lets drivers skip work that only feeds
    /// them).
    const ON: bool;
    /// Records a span and returns its index, for children to name as
    /// their parent.
    fn span(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: u32, id: u64)
        -> u32;
}

/// Tracing off.
#[derive(Debug, Default)]
pub struct Off;

impl Spans for Off {
    const ON: bool = false;
    #[inline(always)]
    fn span(&mut self, _: &'static str, _: u64, _: u64, _: u32, _: u64) -> u32 {
        ROOT
    }
}

/// Tracing on: spans kept in memory until [`Recorder::write_jsonl`].
#[derive(Debug)]
pub struct Recorder {
    /// The spans, in recording order.
    pub spans: Vec<Span>,
    /// Spans kept at most; the metrics never depend on the span list
    /// being complete, and a saturated closed-loop run would otherwise
    /// write a gigabyte of them.
    pub limit: usize,
    /// Spans not kept because `limit` was reached.
    pub dropped: u64,
}

impl Recorder {
    /// An empty recorder keeping at most `limit` spans.
    pub fn new(limit: usize) -> Self {
        Recorder {
            spans: Vec::new(),
            limit,
            dropped: 0,
        }
    }
}

impl Spans for Recorder {
    const ON: bool = true;
    fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        id: u64,
    ) -> u32 {
        if self.spans.len() >= self.limit {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        (self.spans.len() - 1) as u32
    }
}

impl Recorder {
    /// Total self time per span name: a span's duration minus the part
    /// of it its children cover, summed by name. Returns
    /// `(name, spans, self_ns)` sorted by name.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name = std::collections::BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(*child);
            let e = by_name.entry(s.name).or_insert((0u64, 0u64));
            e.0 += 1;
            e.1 += own;
        }
        by_name.into_iter().map(|(n, (c, t))| (n, c, t)).collect()
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.id
            )?;
        }
        w.flush()
    }
}
