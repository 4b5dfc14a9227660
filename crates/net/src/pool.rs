//! The packet arena of the simulation hot path.
//!
//! A packet in flight lives in the [`PacketArena`], not in its queued
//! event: the event queue moves 4-byte handles, an event is no larger
//! than its largest non-packet kind, and slots are recycled through a
//! free list, so steady-state delivery performs no allocator traffic at
//! all.
//!
//! Bursts chain through the arena too. The packets that enter one
//! interface in one instant — usually one, a whole burst when nothing
//! else was scheduled in between (see `SimCore::deliver_packet`) — are
//! one queued event holding the first packet's handle, and each slot
//! links to the next packet of its burst. A delivery reads and frees one
//! slot; a slot starts with no link every time it is filled, so a
//! recycled slot never carries its last burst into a new one.

use crate::packet::Packet;

/// The end of a burst: the last packet's `next`.
const NIL: u32 = u32::MAX;

struct Slot {
    pkt: Option<Packet>,
    /// The next packet of the same burst, or [`NIL`].
    next: u32,
}

/// Slab of in-flight packets addressed by dense `u32` handles.
pub(crate) struct PacketArena {
    slots: Vec<Slot>,
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

    /// Stores a packet with no successor, returning its handle and
    /// whether a previously used slot was recycled (as opposed to growing
    /// the slab).
    pub(crate) fn insert(&mut self, pkt: Packet) -> (u32, bool) {
        let slot = Slot { pkt: Some(pkt), next: NIL };
        if let Some(h) = self.free.pop() {
            self.recycled += 1;
            self.slots[h as usize] = slot;
            (h, true)
        } else {
            #[expect(clippy::expect_used, reason = "arena capacity exceeding u32::MAX - 1 in-flight packets is unreachable (memory exhaustion comes first); a cast would silently alias slots")]
            let h = u32::try_from(self.slots.len()).expect("packet arena overflow");
            self.slots.push(slot);
            (h, false)
        }
    }

    /// Makes `h` the packet after `tail` in its burst.
    pub(crate) fn link(&mut self, tail: u32, h: u32) {
        self.slots[tail as usize].next = h;
    }

    /// The packet after `h` in its burst, if any.
    pub(crate) fn next(&self, h: u32) -> Option<u32> {
        Some(self.slots[h as usize].next).filter(|&n| n != NIL)
    }

    /// Removes and returns the packet behind `h`, freeing the slot.
    pub(crate) fn take(&mut self, h: u32) -> Packet {
        #[expect(clippy::expect_used, reason = "a handle is taken exactly once, by the event that queued it; a double-take is an engine bug worth crashing on")]
        let pkt = self.slots[h as usize].pkt.take().expect("packet handle taken twice");
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
    fn a_recycled_slot_starts_with_no_next_link() {
        let mut a = PacketArena::new();
        let (h0, _) = a.insert(pkt());
        let (h1, _) = a.insert(pkt());
        a.link(h0, h1);
        assert_eq!(a.next(h0), Some(h1));
        assert_eq!(a.next(h1), None);
        // The burst's head is served first, with its link still set.
        let _ = a.take(h0);
        let (h2, reused) = a.insert(pkt());
        assert_eq!((h2, reused), (h0, true));
        assert_eq!(a.next(h2), None, "the recycled slot kept its old burst");
        let _ = a.take(h1);
        let _ = a.take(h2);
    }
}
