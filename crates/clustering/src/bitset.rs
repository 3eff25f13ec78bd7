/// A fixed-capacity bitset over subscriber indices.
///
/// Cell membership lists `l(g)` and group membership unions are sets of
/// subscriber nodes; the expected-waste distance needs fast
/// `|A \ B|`-style counts, which popcounts over packed words provide.
///
/// # Example
///
/// ```
/// use pubsub_clustering::SubscriberSet;
///
/// let mut a = SubscriberSet::new(100);
/// a.insert(3);
/// a.insert(64);
/// let mut b = SubscriberSet::new(100);
/// b.insert(64);
/// assert_eq!(a.len(), 2);
/// assert_eq!(a.diff_count(&b), 1); // {3}
/// assert_eq!(b.diff_count(&a), 0);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SubscriberSet {
    words: Vec<u64>,
    capacity: usize,
}

impl SubscriberSet {
    /// Creates an empty set that can hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        SubscriberSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Adopts `words` (bit `i % 64` of word `i / 64` is index `i`) as a
    /// set of the given capacity. No bit at or past `capacity` may be set.
    pub(crate) fn from_words(words: Vec<u64>, capacity: usize) -> Self {
        debug_assert_eq!(words.len(), capacity.div_ceil(64));
        SubscriberSet { words, capacity }
    }

    /// The packed words, bit `i % 64` of word `i / 64` being index `i`.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The capacity the set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts an index; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(index < self.capacity, "index {index} out of capacity");
        let (w, b) = (index / 64, index % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Membership test (indices beyond capacity are simply absent).
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.capacity {
            return false;
        }
        self.words[index / 64] & (1 << (index % 64)) != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `|self \ other|`: members of `self` absent from `other`.
    ///
    /// # Panics
    ///
    /// Panics (debug) on capacity mismatch.
    pub fn diff_count(&self, other: &SubscriberSet) -> usize {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Adds every member of `other` to `self`.
    ///
    /// # Panics
    ///
    /// Panics (debug) on capacity mismatch.
    pub fn union_with(&mut self, other: &SubscriberSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Iterates over member indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64)
                .filter(move |b| w & (1 << b) != 0)
                .map(move |b| wi * 64 + b)
        })
    }
}

impl FromIterator<usize> for SubscriberSet {
    /// Collects indices into a set sized to the largest index.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let indices: Vec<usize> = iter.into_iter().collect();
        let capacity = indices.iter().max().map_or(0, |&m| m + 1);
        let mut set = SubscriberSet::new(capacity);
        for i in indices {
            set.insert(i);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_len() {
        let mut s = SubscriberSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert_eq!(s.len(), 2);
        assert!(s.contains(0) && s.contains(129));
        assert!(!s.contains(1));
        assert!(!s.contains(5000));
        assert_eq!(s.capacity(), 130);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_beyond_capacity_panics() {
        SubscriberSet::new(4).insert(4);
    }

    #[test]
    fn diff_and_union() {
        let a: SubscriberSet = [1usize, 2, 3, 70].into_iter().collect();
        let mut b = SubscriberSet::new(71);
        b.insert(2);
        b.insert(70);
        // Capacities differ (71 vs 71): from_iter sized a to 71 too.
        assert_eq!(a.capacity(), 71);
        assert_eq!(a.diff_count(&b), 2); // {1, 3}
        assert_eq!(b.diff_count(&a), 0);
        b.union_with(&a);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn iter_ascending() {
        let s: SubscriberSet = [64usize, 1, 127].into_iter().collect();
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![1, 64, 127]);
    }

    #[test]
    fn empty_from_iter() {
        let s: SubscriberSet = std::iter::empty().collect();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 0);
        assert_eq!(s.len(), 0);
    }
}
