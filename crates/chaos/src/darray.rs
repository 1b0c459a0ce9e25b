//! Distributed arrays: the local section of a partitioned data array plus its ghost area.
//!
//! After index translation, every reference produced by the inspector is a [`LocalRef`]:
//! either an offset into the locally *owned* section (for on-processor elements) or a slot
//! in the *ghost* region appended after it (for copies of off-processor elements brought in
//! by `gather`).  This mirrors the PARTI/CHAOS convention of allocating a buffer area for
//! incoming off-processor data directly after the local section, so the executor loop can
//! index one flat array regardless of where an element lives.
//!
//! The layout is that convention taken literally: a [`DistArray`] is **one** contiguous
//! `Vec<T>` — `owned_len` owned elements, then the ghost slots — plus the split point.
//! `array[LocalRef(r)]` is therefore a single bounds-checked load with no owned-or-ghost
//! branch, the owned and ghost views are sub-slices of the same allocation (`as_slice` is
//! all of it, the flat lane CHARMM's force loop sweeps).  Growing the ghost region may
//! reallocate, which moves the owned section too: slices and raw pointers into an array do
//! not survive [`DistArray::ensure_ghost`], so the executor grows first and borrows after.

use std::ops::{Index, IndexMut};

/// A translated local reference: an index into the owned-followed-by-ghost address space of
/// one rank's [`DistArray`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalRef(pub usize);

impl LocalRef {
    /// The raw flat index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One rank's section of a distributed array: owned elements followed by a ghost region,
/// in one allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct DistArray<T> {
    /// `data[..owned_len]` is the owned section, `data[owned_len..]` the ghost region.
    data: Vec<T>,
    owned_len: usize,
}

impl<T: Clone + Default> DistArray<T> {
    /// Create a local section from its owned elements, with `ghost_len` default-initialised
    /// ghost slots.
    pub fn new(owned: Vec<T>, ghost_len: usize) -> Self {
        let (owned_len, mut data) = (owned.len(), owned);
        data.reserve_exact(ghost_len);
        data.resize(owned_len + ghost_len, T::default());
        Self { data, owned_len }
    }

    /// Create a local section of `owned_len` default-initialised owned elements and
    /// `ghost_len` ghost slots.
    pub fn zeroed(owned_len: usize, ghost_len: usize) -> Self {
        Self {
            data: vec![T::default(); owned_len + ghost_len],
            owned_len,
        }
    }

    /// Grow (never shrink) the ghost region to hold at least `ghost_len` slots.  Called
    /// when a new schedule needs more ghost slots than previous ones.  Growth may move the
    /// whole section to a new allocation; owned and existing ghost values move with it.
    pub fn ensure_ghost(&mut self, ghost_len: usize) {
        if self.ghost_len() < ghost_len {
            self.data.resize(self.owned_len + ghost_len, T::default());
        }
    }

    /// Reset every ghost slot to the default value (used between executor phases that
    /// accumulate into the ghost region before a `scatter_add`).
    pub fn clear_ghost(&mut self) {
        self.ghost_mut().fill(T::default());
    }
}

impl<T> DistArray<T> {
    /// Number of owned elements.
    pub fn owned_len(&self) -> usize {
        self.owned_len
    }

    /// Number of ghost slots.
    pub fn ghost_len(&self) -> usize {
        self.data.len() - self.owned_len
    }

    /// Total addressable length (owned + ghost).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the array has no owned elements and no ghost slots.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The owned section then the ghost region: the flat slice [`LocalRef::index`] addresses.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The flat owned-then-ghost slice, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// The owned section.
    pub fn owned(&self) -> &[T] {
        &self.data[..self.owned_len]
    }

    /// The owned section, mutably.
    pub fn owned_mut(&mut self) -> &mut [T] {
        &mut self.data[..self.owned_len]
    }

    /// The ghost region.
    pub fn ghost(&self) -> &[T] {
        &self.data[self.owned_len..]
    }

    /// The ghost region, mutably.
    pub fn ghost_mut(&mut self) -> &mut [T] {
        &mut self.data[self.owned_len..]
    }

    /// Consume the array and return its owned section.
    pub fn into_owned(mut self) -> Vec<T> {
        self.data.truncate(self.owned_len);
        self.data
    }
}

impl<T> Index<LocalRef> for DistArray<T> {
    type Output = T;

    #[inline]
    fn index(&self, r: LocalRef) -> &T {
        &self.data[r.0]
    }
}

impl<T> IndexMut<LocalRef> for DistArray<T> {
    #[inline]
    fn index_mut(&mut self, r: LocalRef) -> &mut T {
        &mut self.data[r.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_spans_owned_then_ghost() {
        let mut a = DistArray::new(vec![10, 20, 30], 2);
        assert_eq!(a.owned_len(), 3);
        assert_eq!(a.ghost_len(), 2);
        assert_eq!(a.len(), 5);
        assert_eq!(a[LocalRef(0)], 10);
        assert_eq!(a[LocalRef(2)], 30);
        assert_eq!(a[LocalRef(3)], 0);
        a[LocalRef(3)] = 99;
        a[LocalRef(1)] = 21;
        assert_eq!(a.ghost()[0], 99);
        assert_eq!(a.owned()[1], 21);
        a.as_mut_slice()[4] = 7;
        assert_eq!(a.as_slice(), &[10, 21, 30, 99, 7]);
    }

    #[test]
    fn ensure_ghost_only_grows() {
        let mut a: DistArray<f64> = DistArray::zeroed(2, 1);
        a.ensure_ghost(4);
        assert_eq!(a.ghost_len(), 4);
        a.ensure_ghost(2);
        assert_eq!(a.ghost_len(), 4);
    }

    #[test]
    fn clear_ghost_resets_only_ghost() {
        let mut a = DistArray::new(vec![1.0, 2.0], 3);
        a[LocalRef(3)] = 7.5;
        a.clear_ghost();
        assert_eq!(a.owned(), &[1.0, 2.0]);
        assert!(a.ghost().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn localref_ownership_test() {
        // References below the owned length name owned elements, the rest ghost slots.
        let mut a = DistArray::new(vec![1, 2, 3], 2);
        a[LocalRef(2)] = 30;
        a[LocalRef(3)] = 40;
        assert_eq!((a.owned(), a.ghost()), (&[1, 2, 30][..], &[40, 0][..]));
        assert_eq!(LocalRef(5).index(), 5);
    }

    #[test]
    #[should_panic]
    fn out_of_range_reference_panics() {
        let a: DistArray<i32> = DistArray::zeroed(2, 2);
        let _ = a[LocalRef(4)];
    }

    #[test]
    fn into_owned_returns_owned_section() {
        let mut a = DistArray::new(vec![4, 5, 6], 9);
        a[LocalRef(3)] = 7;
        assert_eq!(a.into_owned(), vec![4, 5, 6]);
        let no_ghost = DistArray::new(vec![1, 2], 0);
        assert_eq!(no_ghost.into_owned(), vec![1, 2]);
        let no_owned: DistArray<i32> = DistArray::zeroed(0, 3);
        assert_eq!(no_owned.into_owned(), Vec::<i32>::new());
    }

    #[test]
    fn split_borrows_are_adjacent_disjoint_slices() {
        let mut a = DistArray::new(vec![1, 2, 3], 4);
        let (owned, ghost) = (a.owned(), a.ghost());
        assert_eq!((owned.len(), ghost.len()), (3, 4));
        assert_eq!(owned.as_ptr_range().end, ghost.as_ptr_range().start);
        a.ghost_mut()[0] = a.owned()[2] * 10;
        a.owned_mut()[0] = a.ghost()[0] + 1;
        assert_eq!(a.owned(), &[31, 2, 3]);
        assert_eq!(a.ghost(), &[30, 0, 0, 0]);
    }

    #[test]
    fn zero_length_sections() {
        let mut no_owned: DistArray<u8> = DistArray::zeroed(0, 2);
        assert_eq!((no_owned.owned_len(), no_owned.ghost_len()), (0, 2));
        assert!(no_owned.owned().is_empty() && no_owned.owned_mut().is_empty());
        no_owned[LocalRef(1)] = 5;
        assert_eq!(no_owned.ghost(), &[0, 5]);

        let mut no_ghost = DistArray::new(vec![7u8, 8], 0);
        assert!(no_ghost.ghost().is_empty() && no_ghost.ghost_mut().is_empty());
        assert_eq!(no_ghost.owned(), &[7, 8]);
        no_ghost.clear_ghost();
        no_ghost.ensure_ghost(0);
        assert_eq!(no_ghost.len(), 2);

        let empty: DistArray<u8> = DistArray::zeroed(0, 0);
        assert!(empty.is_empty());
        assert!(!no_ghost.is_empty());
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn write_through_a_ghost_reference_of_a_ghostless_array_panics() {
        let mut a = DistArray::new(vec![1, 2], 0);
        a[LocalRef(2)] = 3;
    }
}
