//! A keyed store for values in flight between the instant an action is
//! scheduled and the instant it runs.
//!
//! A long-lived handler (an [`crate::Action`]) keeps what each of its
//! queued actions needs in a [`Slab`] and queues only the key, so the
//! queue entry holds no box. The first value is held inline and freed
//! slots are reused, so a slab that never holds two values at once never
//! allocates, and one whose occupancy has peaked allocates nothing more.

/// Values addressed by a `u64` key that [`Slab::insert`] hands out and
/// [`Slab::remove`] retires. Key 0 is the inline slot; key `i + 1` is
/// `slots[i]`.
#[derive(Debug)]
pub struct Slab<T> {
    inline: Option<T>,
    slots: Vec<Slot<T>>,
    /// Index of the first vacant slot in `slots`, or `NONE`; each vacant
    /// slot names the next.
    free: usize,
    len: usize,
}

#[derive(Debug)]
enum Slot<T> {
    Full(T),
    Vacant { next: usize },
}

const NONE: usize = usize::MAX;

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { inline: None, slots: Vec::new(), free: NONE, len: 0 }
    }
}

impl<T> Slab<T> {
    /// Store `value`; returns its key.
    pub fn insert(&mut self, value: T) -> u64 {
        self.len += 1;
        if self.inline.is_none() {
            self.inline = Some(value);
            return 0;
        }
        let i = self.free;
        if i == NONE {
            self.slots.push(Slot::Full(value));
            return self.slots.len() as u64;
        }
        match std::mem::replace(&mut self.slots[i], Slot::Full(value)) {
            Slot::Vacant { next } => self.free = next,
            Slot::Full(_) => unreachable!("the free list names only vacant slots"),
        }
        i as u64 + 1
    }

    /// Take the value stored under `key` out, freeing the key.
    ///
    /// # Panics
    ///
    /// If `key` holds no value.
    pub fn remove(&mut self, key: u64) -> T {
        let value = match key.checked_sub(1) {
            None => self.inline.take(),
            Some(i) => self.take_slot(i as usize),
        };
        let value = value.expect("slab key holds a value");
        self.len -= 1;
        value
    }

    /// Empty `slots[i]` onto the free list; `None` if it is not full.
    fn take_slot(&mut self, i: usize) -> Option<T> {
        let slot = self.slots.get_mut(i).filter(|slot| matches!(slot, Slot::Full(_)))?;
        let Slot::Full(value) = std::mem::replace(slot, Slot::Vacant { next: self.free }) else {
            unreachable!("the slot was full")
        };
        self.free = i;
        Some(value)
    }

    /// The value stored under `key`, if any.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        match key.checked_sub(1) {
            None => self.inline.as_mut(),
            Some(i) => match self.slots.get_mut(i as usize) {
                Some(Slot::Full(value)) => Some(value),
                _ => None,
            },
        }
    }

    /// Number of values stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no value is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::Slab;

    #[test]
    fn keys_are_reused_and_values_come_back() {
        let mut slab = Slab::default();
        let (a, b, c) = (slab.insert("a"), slab.insert("b"), slab.insert("c"));
        assert_eq!(slab.len(), 3);
        assert_eq!(slab.remove(b), "b");
        assert_eq!(slab.remove(a), "a");
        assert_eq!(slab.insert("d"), a, "the inline slot is taken first");
        assert_eq!(slab.insert("e"), b, "then a freed slot");
        assert_eq!(slab.get_mut(c).map(|v| *v), Some("c"));
        for (key, want) in [(c, "c"), (a, "d"), (b, "e")] {
            assert_eq!(slab.remove(key), want);
        }
        assert!(slab.is_empty());
        assert!(slab.get_mut(c).is_none());
    }

    #[test]
    fn one_value_at_a_time_never_allocates() {
        let mut slab = Slab::default();
        for i in 0..100 {
            let key = slab.insert(i);
            assert_eq!(slab.remove(key), i);
        }
        assert_eq!(slab.slots.capacity(), 0);
    }

    #[test]
    #[should_panic(expected = "slab key holds a value")]
    fn removing_a_vacant_key_panics() {
        let mut slab = Slab::default();
        let key = slab.insert(1);
        slab.remove(key);
        slab.remove(key);
    }
}
