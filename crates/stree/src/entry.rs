use std::fmt;

use pubsub_geom::Rect;

/// Identifier carried by an index entry — in the pub-sub application this is
/// the subscription identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EntryId(pub u32);

impl fmt::Display for EntryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "entry#{}", self.0)
    }
}

/// A leaf record of a spatial index: `(I, subscription-identifier)` in the
/// paper's notation, where `I` is the subscription rectangle.
///
/// This is passive compound data, so the fields are public.
#[derive(Clone, PartialEq, Debug)]
pub struct Entry {
    /// The subscription rectangle.
    pub rect: Rect,
    /// The identifier reported by queries.
    pub id: EntryId,
}

impl Entry {
    /// Creates an entry pairing a rectangle with its identifier.
    pub fn new(rect: Rect, id: EntryId) -> Self {
        Entry { rect, id }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_ordering() {
        assert_eq!(EntryId(7).to_string(), "entry#7");
        assert!(EntryId(1) < EntryId(2));
    }

    #[test]
    fn entry_construction() {
        let r = Rect::from_corners(&[0.0], &[1.0]).unwrap();
        let e = Entry::new(r.clone(), EntryId(3));
        assert_eq!(e.rect, r);
        assert_eq!(e.id, EntryId(3));
    }
}
