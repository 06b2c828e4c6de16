//! Token vectors (markings) of a Petri net.

use std::fmt;

/// A marking: the number of tokens in each place, indexed by [`crate::net::PlaceId`].
///
/// # Example
///
/// ```
/// use nvp_petri::marking::Marking;
///
/// let m = Marking::new(vec![2, 0, 1]);
/// assert_eq!(m.tokens(0), 2);
/// assert_eq!(m.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Marking(Vec<u32>);

impl Marking {
    /// Creates a marking from per-place token counts.
    pub fn new(tokens: Vec<u32>) -> Self {
        Marking(tokens)
    }

    /// Number of places covered by this marking.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the marking covers zero places.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Token count of place `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn tokens(&self, idx: usize) -> u32 {
        self.0[idx]
    }

    /// Removes `count` tokens from place `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds or the place holds fewer than
    /// `count` tokens (an internal invariant violation: enabling must be
    /// checked before firing).
    #[inline]
    pub fn remove(&mut self, idx: usize, count: u32) {
        let have = self.0[idx];
        assert!(
            have >= count,
            "cannot remove {count} tokens from place {idx} holding {have}"
        );
        self.0[idx] = have - count;
    }

    /// Adds `count` tokens to place `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds or the token count overflows.
    #[inline]
    pub fn add(&mut self, idx: usize, count: u32) {
        self.0[idx] = self.0[idx]
            .checked_add(count)
            .expect("token count overflow");
    }

    /// Total number of tokens across all places.
    pub fn total(&self) -> u64 {
        self.0.iter().map(|&t| u64::from(t)).sum()
    }

    /// Iterates over per-place token counts.
    pub fn iter(&self) -> std::slice::Iter<'_, u32> {
        self.0.iter()
    }

    /// Borrows the underlying token counts.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }
}

impl fmt::Display for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<u32>> for Marking {
    fn from(tokens: Vec<u32>) -> Self {
        Marking::new(tokens)
    }
}

impl FromIterator<u32> for Marking {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Marking(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_roundtrip() {
        let mut m = Marking::new(vec![1, 2]);
        m.add(0, 3);
        assert_eq!(m.tokens(0), 4);
        m.remove(0, 2);
        assert_eq!(m.tokens(0), 2);
        assert_eq!(m.total(), 4);
    }

    #[test]
    #[should_panic(expected = "cannot remove")]
    fn remove_too_many_panics() {
        let mut m = Marking::new(vec![1]);
        m.remove(0, 2);
    }

    #[test]
    fn display_format() {
        let m = Marking::new(vec![1, 0, 3]);
        assert_eq!(m.to_string(), "(1, 0, 3)");
        assert_eq!(Marking::new(vec![]).to_string(), "()");
    }

    #[test]
    fn equality_and_hash_work_as_map_keys() {
        use std::collections::HashMap;
        let mut map = HashMap::new();
        map.insert(Marking::new(vec![1, 2]), "a");
        assert_eq!(map.get(&Marking::new(vec![1, 2])), Some(&"a"));
        assert_eq!(map.get(&Marking::new(vec![2, 1])), None);
    }

    #[test]
    fn from_iterator() {
        let m: Marking = (0..3).collect();
        assert_eq!(m.as_slice(), &[0, 1, 2]);
    }
}
