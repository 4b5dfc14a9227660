//! Buffer pools for the simulation hot path.
//!
//! A packet in flight lives in the [`PacketArena`], not in its queued
//! event: the event queue moves 4-byte handles, an event is no larger
//! than its largest non-packet kind, and slots are recycled through a
//! free list, so steady-state delivery performs no allocator traffic at
//! all.
//!
//! [`BatchPool`] does the same for the handles: every delivery is queued
//! as a [`Batch`], a pooled `Vec` of arena handles for the packets that
//! enter one interface in one instant — usually one, a whole burst when
//! nothing else was scheduled in between (see `SimCore::deliver_packet`).

use crate::packet::Packet;

/// Slab of in-flight packets addressed by dense `u32` handles.
pub(crate) struct PacketArena {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
    recycled: u64,
}

impl PacketArena {
    pub(crate) fn new() -> Self {
        PacketArena {
            slots: Vec::new(),
            free: Vec::new(),
            recycled: 0,
        }
    }

    /// Stores a packet, returning its handle and whether a previously
    /// used slot was recycled (as opposed to growing the slab).
    pub(crate) fn insert(&mut self, pkt: Packet) -> (u32, bool) {
        if let Some(h) = self.free.pop() {
            self.recycled += 1;
            self.slots[h as usize] = Some(pkt);
            (h, true)
        } else {
            // punch-lint: allow(P001) arena capacity exceeding u32::MAX in-flight
            // packets is unreachable (memory exhaustion comes first); a cast
            // would silently alias slots.
            let h = u32::try_from(self.slots.len()).expect("packet arena overflow");
            self.slots.push(Some(pkt));
            (h, false)
        }
    }

    /// Removes and returns the packet behind `h`, freeing the slot.
    pub(crate) fn take(&mut self, h: u32) -> Packet {
        // punch-lint: allow(P001) a handle is taken exactly once, by the event
        // that queued it; a double-take is an engine bug worth crashing on.
        let pkt = self.slots[h as usize].take().expect("packet handle taken twice");
        self.free.push(h);
        pkt
    }

    /// Total slots ever allocated (the arena's high-water mark).
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// How many inserts reused a freed slot instead of allocating.
    pub(crate) fn recycled(&self) -> u64 {
        self.recycled
    }
}

/// One queued delivery batch: arena handles for packets that entered the
/// same link in the same instant, served in push order via `pos`.
pub(crate) struct Batch {
    pub(crate) items: Vec<u32>,
    pub(crate) pos: usize,
}

impl Batch {
    /// Packets not yet served.
    pub(crate) fn left(&self) -> usize {
        self.items.len() - self.pos
    }
}

/// Pool of [`Batch`] objects, recycled with their `Vec` capacity intact.
pub(crate) struct BatchPool {
    batches: Vec<Batch>,
    free: Vec<u32>,
}

impl BatchPool {
    pub(crate) fn new() -> Self {
        BatchPool {
            batches: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Returns an empty batch, reusing a released one when possible.
    pub(crate) fn alloc(&mut self) -> u32 {
        if let Some(id) = self.free.pop() {
            let b = &mut self.batches[id as usize];
            b.items.clear();
            b.pos = 0;
            id
        } else {
            // punch-lint: allow(P001) see PacketArena::insert — more than
            // u32::MAX live batches is unreachable.
            let id = u32::try_from(self.batches.len()).expect("batch pool overflow");
            self.batches.push(Batch {
                items: Vec::new(),
                pos: 0,
            });
            id
        }
    }

    pub(crate) fn get_mut(&mut self, id: u32) -> &mut Batch {
        &mut self.batches[id as usize]
    }

    /// Returns a batch to the free list; its `items` capacity is kept.
    pub(crate) fn release(&mut self, id: u32) {
        self.free.push(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::Endpoint;

    fn pkt() -> Packet {
        Packet::udp(
            Endpoint::from(([10, 0, 0, 1], 1)),
            Endpoint::from(([10, 0, 0, 2], 2)),
            b"x".as_ref(),
        )
    }

    #[test]
    fn arena_recycles_slots() {
        let mut a = PacketArena::new();
        let (h0, reused) = a.insert(pkt());
        assert!(!reused);
        let (h1, _) = a.insert(pkt());
        assert_ne!(h0, h1);
        let _ = a.take(h0);
        let (h2, reused) = a.insert(pkt());
        assert_eq!(h2, h0, "freed slot should be reused");
        assert!(reused);
        assert_eq!(a.slot_count(), 2);
        assert_eq!(a.recycled(), 1);
        let _ = a.take(h1);
        let _ = a.take(h2);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn arena_take_twice_panics() {
        let mut a = PacketArena::new();
        let (h, _) = a.insert(pkt());
        let _ = a.take(h);
        let _ = a.take(h);
    }

    #[test]
    fn batch_pool_reuses_released_batches() {
        let mut p = BatchPool::new();
        let b0 = p.alloc();
        p.get_mut(b0).items.extend([1, 2, 3]);
        p.get_mut(b0).pos = 2;
        p.release(b0);
        let b1 = p.alloc();
        assert_eq!(b1, b0);
        assert!(p.get_mut(b1).items.is_empty());
        assert_eq!(p.get_mut(b1).pos, 0);
    }
}
