//! A FIFO over one contiguous `Vec`, for the device's per-channel queues.

use std::ops::{Deref, DerefMut};

/// Queue whose live items are one plain slice: slots before `head` are
/// popped, so a pop only advances `head`, and reads see `items[head..]`
/// through `Deref` with no wrap-around index arithmetic. The dead prefix is
/// drained in place once it is [`Fifo::COMPACT_AT`] slots and half the
/// vector, which keeps pops O(1) amortized.
#[derive(Debug, Clone, Default)]
pub(crate) struct Fifo<T> {
    items: Vec<T>,
    head: usize,
}

impl<T> Fifo<T> {
    const COMPACT_AT: usize = 64;

    pub(crate) fn push_back(&mut self, item: T) {
        self.items.push(item);
    }

    /// Inserts `item` at live index `i`, shifting later items back.
    pub(crate) fn insert(&mut self, i: usize, item: T) {
        self.items.insert(self.head + i, item);
    }

    /// Removes and returns the item at live index `i`.
    pub(crate) fn remove(&mut self, i: usize) -> T {
        self.items.remove(self.head + i)
    }
}

impl<T: Copy> Fifo<T> {
    pub(crate) fn pop_front(&mut self) -> Option<T> {
        let item = *self.items.get(self.head)?;
        self.head += 1;
        if self.head >= Self::COMPACT_AT && 2 * self.head >= self.items.len() {
            self.items.drain(..self.head);
            self.head = 0;
        }
        Some(item)
    }
}

impl<T> Deref for Fifo<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[self.head..]
    }
}

impl<T> DerefMut for Fifo<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[self.head..]
    }
}

#[cfg(test)]
mod tests {
    use super::Fifo;

    #[test]
    fn pops_in_push_order_across_compaction() {
        let mut q = Fifo::default();
        for i in 0..1000u32 {
            q.push_back(i);
            if i % 3 != 0 {
                assert_eq!(q.pop_front(), Some(i / 3 * 2 + i % 3 - 1));
            }
        }
        assert_eq!(q.len(), 334);
        assert_eq!(q.first(), Some(&666));
        assert_eq!(q.last(), Some(&999));
    }

    #[test]
    fn insert_and_remove_index_the_live_items() {
        let mut q = Fifo::default();
        for i in 0..4u32 {
            q.push_back(i * 10);
        }
        assert_eq!(q.pop_front(), Some(0));
        q.insert(1, 15);
        assert_eq!(&q[..], &[10, 15, 20, 30]);
        assert_eq!(q.remove(2), 20);
        q[0] = 11;
        assert_eq!(&q[..], &[11, 15, 30]);
        assert_eq!(q.pop_front(), Some(11));
        assert_eq!(q.pop_front(), Some(15));
        assert_eq!(q.pop_front(), Some(30));
        assert_eq!(q.pop_front(), None);
    }
}
