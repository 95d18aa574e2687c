//! Keyed record slots: the state store of the incremental streaming
//! operators.
//!
//! A [`RecordSlab`] owns `(STObject, V)` records in reusable slots and
//! finds a record again from its value in O(1) expected time: a hash of
//! the [`STObject`] leads to the slots holding objects with that hash,
//! and the candidates are compared with `==` on both the object and the
//! value. That is the lookup every retraction needs — a retraction names
//! the exact `(object, value)` pair it corrects — so the operators built
//! on the slab ([`crate::IncrementalIndex`], and the stream crate's
//! delta join and window aggregator) retract in O(Δ) rather than by a
//! linear search of their state.
//!
//! The hash agrees with `PartialEq`: it reads the object's envelope and
//! temporal component with `-0.0` folded into `0.0`, so equal objects
//! always hash alike. An object with a NaN coordinate is never equal to
//! anything, itself included, so [`RecordSlab::find`] never returns it;
//! such a record can be inserted but never retracted, exactly as with a
//! linear `==` search.
//!
//! A [`SlotId`] carries the slot's generation, which moves on when its
//! record is removed. A handle kept elsewhere (an STR-tree entry, a
//! window's member list) therefore resolves to nothing once its record
//! is gone, even after the slot is reused: that is what lets the index
//! leave tombstones in its trees instead of rebuilding them.

use crate::stobject::STObject;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// End of a key chain.
const NIL: u32 = u32::MAX;

/// Generation-checked handle to one record of a [`RecordSlab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotId {
    index: u32,
    generation: u32,
}

struct Slot<V> {
    record: Option<(STObject, V)>,
    key: u64,
    /// Next slot whose object has the same key.
    next: u32,
}

/// The keys are already keyed SipHash outputs, so the chain map uses
/// them as they are.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// A slab of `(STObject, V)` records with lookup by value.
pub struct RecordSlab<V> {
    slots: Vec<Slot<V>>,
    /// Each slot's generation, kept apart from the records so liveness
    /// checks stay in cache.
    generations: Vec<u32>,
    free: Vec<u32>,
    /// First slot of each key's chain; the rest link through `Slot::next`.
    heads: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    /// Seeds the object hash per slab, so stream data cannot be crafted
    /// to pile every record onto one chain.
    hasher: RandomState,
    len: usize,
}

impl<V> Default for RecordSlab<V> {
    fn default() -> Self {
        RecordSlab {
            slots: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            heads: HashMap::default(),
            hasher: RandomState::new(),
            len: 0,
        }
    }
}

impl<V> RecordSlab<V> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn key(&self, obj: &STObject) -> u64 {
        let mut h = self.hasher.build_hasher();
        let env = obj.envelope();
        for c in [env.min_x(), env.min_y(), env.max_x(), env.max_y()] {
            // `+ 0.0` folds -0.0 into 0.0, which `==` treats as equal
            h.write_u64((c + 0.0).to_bits());
        }
        obj.time().hash(&mut h);
        h.finish()
    }

    /// Stores a record and returns its handle. Equal records may be
    /// stored more than once; each gets its own slot.
    pub fn insert(&mut self, obj: STObject, value: V) -> SlotId {
        let key = self.key(&obj);
        let index = match self.free.pop() {
            Some(i) => i,
            None => {
                let i = u32::try_from(self.slots.len()).expect("fewer than 2^32 live records");
                self.slots.push(Slot { record: None, key: 0, next: NIL });
                self.generations.push(0);
                i
            }
        };
        let next = self.heads.insert(key, index).unwrap_or(NIL);
        let slot = &mut self.slots[index as usize];
        slot.record = Some((obj, value));
        slot.key = key;
        slot.next = next;
        self.len += 1;
        SlotId { index, generation: self.generations[index as usize] }
    }

    /// Whether the record behind `id` is still held. A slot's generation
    /// moves on whenever its record leaves, so this reads no record.
    pub fn contains(&self, id: SlotId) -> bool {
        self.generations.get(id.index as usize) == Some(&id.generation)
    }

    /// The record behind `id`, or `None` once it has been removed.
    pub fn get(&self, id: SlotId) -> Option<&(STObject, V)> {
        if !self.contains(id) {
            return None;
        }
        self.slots[id.index as usize].record.as_ref()
    }

    /// A record equal to `(obj, value)`, if the slab holds one.
    pub fn find(&self, obj: &STObject, value: &V) -> Option<SlotId>
    where
        V: PartialEq,
    {
        let mut i = *self.heads.get(&self.key(obj))?;
        while i != NIL {
            let slot = &self.slots[i as usize];
            if let Some((o, v)) = &slot.record {
                if o == obj && v == value {
                    return Some(SlotId { index: i, generation: self.generations[i as usize] });
                }
            }
            i = slot.next;
        }
        None
    }

    /// Takes the record behind `id` out of the slab; `None` when it was
    /// already removed. The slot is reused by a later insert, under a
    /// new generation.
    pub fn remove(&mut self, id: SlotId) -> Option<(STObject, V)> {
        if !self.contains(id) {
            return None;
        }
        let slot = &mut self.slots[id.index as usize];
        let record = slot.record.take()?;
        let (key, next) = (slot.key, slot.next);
        let generation = &mut self.generations[id.index as usize];
        *generation = generation.wrapping_add(1);
        // unlink from the key chain; chains are as long as the number of
        // records sharing a key, which is one unless records repeat
        let head = self.heads.get_mut(&key).expect("a live slot is on its key's chain");
        if *head == id.index {
            if next == NIL {
                self.heads.remove(&key);
            } else {
                *head = next;
            }
        } else {
            let mut i = *head;
            while self.slots[i as usize].next != id.index {
                i = self.slots[i as usize].next;
            }
            self.slots[i as usize].next = next;
        }
        self.free.push(id.index);
        self.len -= 1;
        Some(record)
    }

    /// A record equal to `(obj, value)`, taken out of the slab.
    pub fn take(&mut self, obj: &STObject, value: &V) -> Option<(STObject, V)>
    where
        V: PartialEq,
    {
        let id = self.find(obj, value)?;
        self.remove(id)
    }

    /// Drops every record. Handles issued before stay dead.
    pub fn clear(&mut self) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.record.take().is_some() {
                self.generations[i] = self.generations[i].wrapping_add(1);
                self.free.push(i as u32);
            }
        }
        self.heads.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_agrees_with_equality() {
        let mut slab = RecordSlab::new();
        let a = slab.insert(STObject::point_at(1.0, 2.0, 5), 7u32);
        let zero = slab.insert(STObject::point_at(0.0, -0.0, 5), 1);
        slab.insert(STObject::point_at(f64::NAN, 2.0, 5), 9);
        assert_eq!(slab.find(&STObject::point_at(1.0, 2.0, 5), &7), Some(a));
        assert_eq!(slab.find(&STObject::point_at(1.0, 2.0, 5), &8), None);
        assert_eq!(slab.find(&STObject::point_at(1.0, 2.0, 6), &7), None);
        // -0.0 == 0.0, so the lookup must not care which one it was given
        assert_eq!(slab.find(&STObject::point_at(-0.0, 0.0, 5), &1), Some(zero));
        // NaN is equal to nothing, so the record is never found
        assert_eq!(slab.find(&STObject::point_at(f64::NAN, 2.0, 5), &9), None);
        assert_eq!(slab.len(), 3);
    }

    #[test]
    fn twins_are_removed_one_at_a_time_and_stale_handles_stay_dead() {
        let mut slab = RecordSlab::new();
        let rec = || STObject::point_at(3.0, 3.0, 1);
        let first = slab.insert(rec(), 'a');
        let second = slab.insert(rec(), 'a');
        let other = slab.insert(STObject::point_at(4.0, 3.0, 1), 'b');
        assert!(slab.take(&rec(), &'a').is_some());
        assert!(slab.take(&rec(), &'a').is_some());
        assert!(slab.take(&rec(), &'a').is_none());
        assert!(slab.get(first).is_none() && slab.get(second).is_none());
        // a reused slot does not revive an old handle
        let again = slab.insert(rec(), 'c');
        assert!(slab.get(first).is_none() && slab.get(second).is_none());
        assert_eq!(slab.get(again).map(|r| r.1), Some('c'));
        assert_eq!(slab.remove(first), None);
        assert_eq!(slab.get(other).map(|r| r.1), Some('b'));
        slab.clear();
        assert!(slab.is_empty() && slab.get(other).is_none() && slab.get(again).is_none());
    }
}
