//! Churn primitives for compiled indexes: a linear-scan delta overlay and
//! a tombstone bitset.
//!
//! A compiled index ([`crate::STree`], [`crate::CompactSTree`]) is
//! immutable: its excellent bulk packing is exactly what makes in-place
//! updates impractical. Live systems absorb churn *beside* the compiled
//! structure instead:
//!
//! * inserts land in a [`DeltaOverlay`] — a small entry list scanned
//!   linearly per query (a handful of rectangle tests, cheap until the
//!   overlay grows past a few hundred entries);
//! * removals of compiled entries are masked by [`Tombstones`] — one bit
//!   per entry id, filtered out of every hit list.
//!
//! Periodically the owner recompiles the index over the surviving entries
//! and clears both structures. `pubsub_core::Broker` merges the pair with
//! its compiled matcher between engine-snapshot recompiles.

use pubsub_geom::{Point, Rect};

use crate::{Entry, EntryId, IndexError};

/// A mask over compiled entry ids: removed entries stay in the compiled
/// arrays but are filtered out of query results.
///
/// Storage is one bit per id up to the largest tombstoned id, so this is
/// intended for the dense, small ids a compiled index assigns — not for
/// sparse ids drawn from the whole `u32` range.
#[derive(Debug, Clone, Default)]
pub struct Tombstones {
    words: Vec<u64>,
    dead: usize,
}

impl Tombstones {
    /// Creates an empty mask.
    pub fn new() -> Self {
        Tombstones::default()
    }

    /// Marks an entry id dead. Returns `false` if it was already dead.
    pub fn insert(&mut self, id: EntryId) -> bool {
        let (word, bit) = (id.0 as usize / 64, id.0 % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        if self.words[word] & (1 << bit) != 0 {
            return false;
        }
        self.words[word] |= 1 << bit;
        self.dead += 1;
        true
    }

    /// `true` if the id has been tombstoned.
    pub fn contains(&self, id: EntryId) -> bool {
        self.words
            .get(id.0 as usize / 64)
            .is_some_and(|w| w & (1 << (id.0 % 64)) != 0)
    }

    /// Number of tombstoned ids.
    pub fn len(&self) -> usize {
        self.dead
    }

    /// `true` if nothing is tombstoned.
    pub fn is_empty(&self) -> bool {
        self.dead == 0
    }

    /// Clears every tombstone (after a recompile).
    pub fn clear(&mut self) {
        self.words.clear();
        self.dead = 0;
    }
}

/// The insert-side churn buffer: entries added since the last recompile,
/// scanned linearly per query.
///
/// Entry ids are the caller's; they are *not* required to be dense (the
/// broker hands out ids past the compiled range), only unique among live
/// entries.
#[derive(Debug, Clone, Default)]
pub struct DeltaOverlay {
    entries: Vec<Entry>,
}

impl DeltaOverlay {
    /// Creates an empty overlay.
    pub fn new() -> Self {
        DeltaOverlay::default()
    }

    /// Adds one entry.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::QueryDimensionMismatch`] if the rectangle
    /// disagrees with the entries already buffered.
    pub fn insert(&mut self, entry: Entry) -> Result<(), IndexError> {
        if let Some(first) = self.entries.first() {
            if first.rect.dims() != entry.rect.dims() {
                return Err(IndexError::QueryDimensionMismatch {
                    expected: first.rect.dims(),
                    got: entry.rect.dims(),
                });
            }
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Removes the entry with the given id. Returns `false` if it is not
    /// buffered here.
    pub fn remove(&mut self, id: EntryId) -> bool {
        match self.entries.iter().position(|e| e.id == id) {
            Some(pos) => {
                self.entries.swap_remove(pos);
                true
            }
            None => false,
        }
    }

    /// Number of buffered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the overlay is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The buffered entries (arbitrary order after removals).
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Drains the buffered entries (for a recompile).
    pub fn drain(&mut self) -> Vec<Entry> {
        std::mem::take(&mut self.entries)
    }

    /// Clears the overlay without returning the entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Appends the ids of every buffered entry containing `p` (half-open
    /// per-dimension containment, matching the compiled indexes).
    pub fn query_point_into(&self, p: &Point, out: &mut Vec<EntryId>) {
        for e in &self.entries {
            if e.rect.contains_point(p) {
                out.push(e.id);
            }
        }
    }

    /// Appends the ids of every buffered entry intersecting `r`.
    pub fn query_region_into(&self, r: &Rect, out: &mut Vec<EntryId>) {
        for e in &self.entries {
            if e.rect.intersects(r) {
                out.push(e.id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: u32, lo: f64, hi: f64) -> Entry {
        Entry::new(Rect::from_corners(&[lo], &[hi]).unwrap(), EntryId(i))
    }

    #[test]
    fn tombstones_mask_and_filter() {
        let mut t = Tombstones::new();
        assert!(t.is_empty());
        assert!(t.insert(EntryId(3)));
        assert!(t.insert(EntryId(130)));
        assert!(!t.insert(EntryId(3)), "double-kill is idempotent");
        assert_eq!(t.len(), 2);
        assert!(t.contains(EntryId(3)));
        assert!(!t.contains(EntryId(4)));
        assert!(!t.contains(EntryId(9999)), "beyond storage is live");

        t.clear();
        assert!(t.is_empty());
        assert!(!t.contains(EntryId(3)));
    }

    #[test]
    fn overlay_scan_and_removal() {
        let mut o = DeltaOverlay::new();
        o.insert(entry(10, 0.0, 5.0)).unwrap();
        o.insert(entry(11, 3.0, 8.0)).unwrap();
        o.insert(entry(12, 7.0, 9.0)).unwrap();
        assert_eq!(o.len(), 3);

        let mut out = Vec::new();
        o.query_point_into(&Point::new(vec![4.0]).unwrap(), &mut out);
        out.sort();
        assert_eq!(out, vec![EntryId(10), EntryId(11)]);

        assert!(o.remove(EntryId(10)));
        assert!(!o.remove(EntryId(10)));
        out.clear();
        o.query_point_into(&Point::new(vec![4.0]).unwrap(), &mut out);
        assert_eq!(out, vec![EntryId(11)]);

        out.clear();
        o.query_region_into(&Rect::from_corners(&[6.0], &[10.0]).unwrap(), &mut out);
        out.sort();
        assert_eq!(out, vec![EntryId(11), EntryId(12)]);

        let drained = o.drain();
        assert_eq!(drained.len(), 2);
        assert!(o.is_empty());
    }

    #[test]
    fn overlay_rejects_dimension_mixes() {
        let mut o = DeltaOverlay::new();
        o.insert(entry(0, 0.0, 1.0)).unwrap();
        let e2 = Entry::new(
            Rect::from_corners(&[0.0, 0.0], &[1.0, 1.0]).unwrap(),
            EntryId(1),
        );
        assert!(matches!(
            o.insert(e2),
            Err(IndexError::QueryDimensionMismatch { .. })
        ));
    }

    #[test]
    fn overlay_containment_is_half_open() {
        let mut o = DeltaOverlay::new();
        o.insert(entry(0, 0.0, 5.0)).unwrap();
        let mut out = Vec::new();
        // `(lo, hi]`: the lower edge is out, the upper edge is in.
        o.query_point_into(&Point::new(vec![0.0]).unwrap(), &mut out);
        assert!(out.is_empty());
        o.query_point_into(&Point::new(vec![5.0]).unwrap(), &mut out);
        assert_eq!(out, vec![EntryId(0)]);
    }
}
