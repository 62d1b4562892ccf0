//! [`InlineVec`]: the workspace's one small-vector type.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A vector whose first `N` elements live inside the value itself; only an
/// `N + 1`-th moves them all to the heap. It is for the short lists one
/// event or one commit builds — a resource's holders, a commit's writes,
/// a session's shards — whose usual length is 1–2: those then never
/// allocate. Unused inline slots hold `T::default()`, which is what lets
/// the type be written without `unsafe`.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize>(Store<T, N>);

#[derive(Clone)]
enum Store<T, const N: usize> {
    /// `len` elements in `buf[..len]`.
    Inline {
        len: usize,
        buf: [T; N],
    },
    Heap(Vec<T>),
}

impl<T: Default, const N: usize> InlineVec<T, N> {
    /// An empty vector; allocates nothing.
    #[must_use]
    pub fn new() -> Self {
        InlineVec(Store::Inline { len: 0, buf: std::array::from_fn(|_| T::default()) })
    }

    /// Appends `value`, moving every element to the heap if the inline
    /// slots are full.
    pub fn push(&mut self, value: T) {
        match &mut self.0 {
            Store::Inline { len, buf } if *len < N => {
                buf[*len] = value;
                *len += 1;
            }
            Store::Inline { buf, .. } => {
                let mut heap = Vec::with_capacity(2 * N + 1);
                heap.extend(buf.iter_mut().map(std::mem::take));
                heap.push(value);
                self.0 = Store::Heap(heap);
            }
            Store::Heap(heap) => heap.push(value),
        }
    }

    /// Inserts `value` at `at`, shifting the tail right.
    ///
    /// # Panics
    /// If `at > len`.
    pub fn insert(&mut self, at: usize, value: T) {
        assert!(at <= self.len(), "insert at {at} past the end ({})", self.len());
        self.push(value);
        self[at..].rotate_right(1);
    }

    /// Removes and returns the element at `at`, shifting the tail left.
    ///
    /// # Panics
    /// If `at >= len`.
    pub fn remove(&mut self, at: usize) -> T {
        self[at..].rotate_left(1);
        self.pop().expect("remove within the length")
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        match &mut self.0 {
            Store::Inline { len: 0, .. } => None,
            Store::Inline { len, buf } => {
                *len -= 1;
                Some(std::mem::take(&mut buf[*len]))
            }
            Store::Heap(heap) => heap.pop(),
        }
    }

    /// Removes every element, keeping any heap capacity.
    pub fn clear(&mut self) {
        while self.pop().is_some() {}
    }
}

/// Pairs kept in ascending key order: a small sorted map.
impl<K: Ord + Default, V: Default, const N: usize> InlineVec<(K, V), N> {
    /// Where `key`'s pair is, or would go.
    fn find(&self, key: &K) -> Result<usize, usize> {
        self.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value under `key`.
    pub fn get_key(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|at| &self[at].1)
    }

    /// The value under `key`, to update.
    pub fn get_key_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|at| &mut self[at].1)
    }

    /// Enters `value` under `key`, in key order, replacing the value there.
    pub fn insert_key(&mut self, key: K, value: V) {
        match self.find(&key) {
            Ok(at) => self[at].1 = value,
            Err(at) => self.insert(at, (key, value)),
        }
    }

    /// Takes the value under `key` out.
    pub fn remove_key(&mut self, key: &K) -> Option<V> {
        self.find(key).ok().map(|at| self.remove(at).1)
    }
}

impl<T: Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Store::Inline { len, buf } => &buf[..*len],
            Store::Heap(heap) => heap,
        }
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Store::Inline { len, buf } => &mut buf[..*len],
            Store::Heap(heap) => heap,
        }
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        for item in items {
            self.push(item);
        }
    }
}

impl<T: Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut v = InlineVec::new();
        v.extend(items);
        v
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;

    fn into_iter(self) -> IntoIter<T, N> {
        match self.0 {
            Store::Inline { len, buf } => IntoIter::Inline(buf.into_iter().take(len)),
            Store::Heap(heap) => IntoIter::Heap(heap.into_iter()),
        }
    }
}

/// [`InlineVec`]'s elements by value, front to back.
pub enum IntoIter<T, const N: usize> {
    /// From the inline slots.
    Inline(std::iter::Take<std::array::IntoIter<T, N>>),
    /// From the heap.
    Heap(std::vec::IntoIter<T>),
}

impl<T, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            IntoIter::Inline(it) => it.next(),
            IntoIter::Heap(it) => it.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever mix of pushes, inserts, removes and pops — across the
        /// spill to the heap — the vector holds what a `Vec` holds.
        #[test]
        fn prop_it_is_a_vec(ops in prop::collection::vec((0u8..4, any::<u16>()), 0..40)) {
            let mut inline: InlineVec<String, 2> = InlineVec::new();
            let mut vec: Vec<String> = Vec::new();
            for (op, x) in ops {
                let at = usize::from(x) % (vec.len() + 1);
                match op {
                    0 => {
                        inline.push(x.to_string());
                        vec.push(x.to_string());
                    }
                    1 => {
                        inline.insert(at, x.to_string());
                        vec.insert(at, x.to_string());
                    }
                    2 if at < vec.len() => prop_assert_eq!(inline.remove(at), vec.remove(at)),
                    _ => prop_assert_eq!(inline.pop(), vec.pop()),
                }
                prop_assert_eq!(&inline[..], &vec[..]);
            }
            prop_assert_eq!(inline.clone().into_iter().collect::<Vec<_>>(), vec.clone());
            inline.clear();
            prop_assert!(inline.is_empty());
        }
    }

    proptest! {
        /// Kept by key, the pairs are what a `BTreeMap` holds, in its
        /// order.
        #[test]
        fn prop_keyed_it_is_a_sorted_map(ops in prop::collection::vec((0u8..3, 0u8..6), 0..40)) {
            let mut inline: InlineVec<(u8, u32), 2> = InlineVec::new();
            let mut map = std::collections::BTreeMap::new();
            for (i, (op, key)) in ops.into_iter().enumerate() {
                match op {
                    0 => {
                        inline.insert_key(key, i as u32);
                        map.insert(key, i as u32);
                    }
                    1 => prop_assert_eq!(inline.remove_key(&key), map.remove(&key)),
                    _ => {
                        if let Some(v) = inline.get_key_mut(&key) {
                            *v += 1;
                        }
                        if let Some(v) = map.get_mut(&key) {
                            *v += 1;
                        }
                    }
                }
                prop_assert_eq!(inline.get_key(&key), map.get(&key));
                prop_assert!(inline.iter().map(|(k, v)| (k, v)).eq(map.iter()));
            }
        }
    }

    #[test]
    fn up_to_n_elements_stay_inline() {
        let mut v: InlineVec<u64, 2> = [1, 2].into_iter().collect();
        assert!(matches!(v.0, Store::Inline { len: 2, .. }));
        v.push(3);
        assert!(matches!(v.0, Store::Heap(_)));
        assert_eq!(v.iter().sum::<u64>(), 6);
    }
}
