//! Per-channel state: virtual-channel buffers, credit/occupancy
//! bookkeeping, and full-interval (saturation) accounting.
//!
//! A VC buffer is an intrusive FIFO over the network's packet arena: the
//! queue itself is just a head/tail pair of arena indices, and each
//! [`Packet`](crate::packet::Packet) carries the index of the packet
//! behind it. A packet sits in at most one queue at a time (its current
//! channel's VC, or the source NIC), so one link per packet suffices.
//! Compared to the previous `VecDeque<PacketId>` per VC, this removes
//! `MAX_ROUTE_LEN` heap allocations per channel (thousands of channels x
//! twelve VCs on the Theta machine) and the pointer chase per operation —
//! push, pop, and front are all O(1) on the arena the event loop already
//! has hot.

use crate::packet::{Packet, PacketId, MAX_ROUTE_LEN, NO_PACKET};
use dfly_engine::{Bandwidth, Bytes, Ns};
use dfly_topology::{ChannelClass, ChannelId};
use std::collections::VecDeque;

/// One packet in flight on a channel's wire: it left the transmitter
/// earlier and lands in its next buffer (or delivers) at `at`, ordered
/// globally by the event sequence number reserved at transmission start.
///
/// A channel's in-flight packets arrive in strictly increasing `(at,
/// seq)` order — transmissions are serialized by the `busy` flag and
/// `arrival_extra` is a per-channel constant — so a plain FIFO holds
/// them and only the *head* needs a heap entry in the event queue (see
/// `Network::step`). This keeps the heap population proportional to
/// active channels rather than in-flight packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InFlight {
    pub(crate) pid: PacketId,
    pub(crate) at: Ns,
    pub(crate) seq: u64,
}

/// Intrusive FIFO of packets; links live in the packet arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PacketList {
    head: u32,
    tail: u32,
}

impl Default for PacketList {
    fn default() -> Self {
        PacketList {
            head: NO_PACKET,
            tail: NO_PACKET,
        }
    }
}

impl PacketList {
    /// The packet at the head, without removing it.
    #[inline]
    pub(crate) fn front(&self) -> Option<PacketId> {
        (self.head != NO_PACKET).then_some(PacketId(self.head))
    }

    /// Append `pid`, updating its intrusive link in `packets`.
    #[inline]
    pub(crate) fn push_back(&mut self, packets: &mut [Packet], pid: PacketId) {
        packets[pid.0 as usize].next = NO_PACKET;
        if self.tail == NO_PACKET {
            self.head = pid.0;
        } else {
            packets[self.tail as usize].next = pid.0;
        }
        self.tail = pid.0;
    }

    /// Detach and return the head packet.
    #[inline]
    pub(crate) fn pop_front(&mut self, packets: &[Packet]) -> Option<PacketId> {
        if self.head == NO_PACKET {
            return None;
        }
        let pid = self.head;
        self.head = packets[pid as usize].next;
        if self.head == NO_PACKET {
            self.tail = NO_PACKET;
        }
        Some(PacketId(pid))
    }

    /// Iterate front-to-back following the intrusive links. Used by the
    /// audit layer's structural sweep; callers must bound the walk
    /// themselves if the links may be corrupted (cycles never terminate).
    pub(crate) fn iter<'a>(&self, packets: &'a [Packet]) -> PacketListIter<'a> {
        PacketListIter {
            packets,
            cur: self.head,
        }
    }

    /// True if the stored tail matches the last packet reached by walking
    /// from the head (`None` for an empty walk). Audit-only.
    pub(crate) fn tail_agrees(&self, last: Option<PacketId>) -> bool {
        match last {
            None => self.head == NO_PACKET && self.tail == NO_PACKET,
            Some(pid) => self.tail == pid.0,
        }
    }
}

/// Iterator over a [`PacketList`]'s intrusive links (see
/// [`PacketList::iter`]).
pub(crate) struct PacketListIter<'a> {
    packets: &'a [Packet],
    cur: u32,
}

impl Iterator for PacketListIter<'_> {
    type Item = PacketId;

    fn next(&mut self) -> Option<PacketId> {
        if self.cur == NO_PACKET {
            return None;
        }
        let pid = self.cur;
        self.cur = self.packets[pid as usize].next;
        Some(PacketId(pid))
    }
}

/// One virtual-channel buffer: its queued packets, how many bytes they
/// (plus inbound reservations) occupy, and whether a reservation was
/// refused since space last freed.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct VcState {
    pub(crate) queue: PacketList,
    pub(crate) occupancy: Bytes,
    /// True once a reservation was refused; cleared when space frees.
    pub(crate) full: bool,
}

/// Mutable per-channel simulation state. The immutable half (endpoints,
/// class wiring) stays in the shared [`Topology`](dfly_topology::Topology).
pub(crate) struct ChannelState {
    pub(crate) class: ChannelClass,
    pub(crate) bandwidth: Bandwidth,
    /// Link propagation latency plus downstream router traversal latency.
    pub(crate) arrival_extra: Ns,
    /// One buffer per VC level; VC index = hop index, so `MAX_ROUTE_LEN`
    /// covers every reachable level. Fixed-size: no per-channel heap.
    pub(crate) vcs: [VcState; MAX_ROUTE_LEN],
    pub(crate) total_occupancy: Bytes,
    pub(crate) busy: bool,
    pub(crate) tx_vc: u8,
    pub(crate) rr_next: u8,
    /// Packets transmitted but not yet landed, in arrival order. Only
    /// the front has an `Arrive` entry in the event heap.
    pub(crate) inflight: VecDeque<InFlight>,
    /// Channels whose head packet is waiting for space in our buffers.
    pub(crate) waiters: Vec<ChannelId>,
    /// True while this channel sits on some other channel's `waiters`
    /// list. A blocked channel registers on at most one blocker at a
    /// time — any wakeup rescans all VCs — so one bit replaces the
    /// O(waiters) `contains` scan the arbiter used to do per attempt.
    pub(crate) in_waitlist: bool,
    /// True while this channel sits on the telemetry collector's active
    /// list (see [`crate::obs`]): set when its occupancy leaves zero or a
    /// VC is marked full, cleared by the window sweep once it is empty
    /// and not full again. Never set with telemetry off. Fits the
    /// struct's spare padding byte.
    pub(crate) in_active: bool,
    // --- metrics ---
    pub(crate) full_vcs: u16,
    pub(crate) full_start: Ns,
    pub(crate) saturated: Ns,
    pub(crate) traffic: Bytes,
    pub(crate) busy_time: Ns,
}

impl ChannelState {
    /// Fresh state for a channel of `class`.
    pub(crate) fn new(
        class: ChannelClass,
        bandwidth: Bandwidth,
        arrival_extra: Ns,
    ) -> ChannelState {
        ChannelState {
            class,
            bandwidth,
            arrival_extra,
            vcs: [VcState::default(); MAX_ROUTE_LEN],
            total_occupancy: 0,
            busy: false,
            tx_vc: 0,
            rr_next: 0,
            inflight: VecDeque::new(),
            waiters: Vec::new(),
            in_waitlist: false,
            in_active: false,
            full_vcs: 0,
            full_start: Ns::ZERO,
            saturated: Ns::ZERO,
            traffic: 0,
            busy_time: Ns::ZERO,
        }
    }

    /// Record that a reservation on VC `vc` was refused at `now`: opens
    /// the channel's saturated interval if it wasn't already open.
    pub(crate) fn mark_full(&mut self, vc: usize, now: Ns) {
        if !self.vcs[vc].full {
            self.vcs[vc].full = true;
            if self.full_vcs == 0 {
                self.full_start = now;
            }
            self.full_vcs += 1;
        }
    }

    /// Record that VC `vc` freed space at `now`: closes the saturated
    /// interval once no VC is full, accumulating it exactly once. Returns
    /// the length of the interval this call closed (zero if none), so
    /// telemetry can keep a running per-class total.
    pub(crate) fn clear_full(&mut self, vc: usize, now: Ns) -> Ns {
        if self.vcs[vc].full {
            self.vcs[vc].full = false;
            self.full_vcs -= 1;
            if self.full_vcs == 0 {
                let closed = now - self.full_start;
                self.saturated += closed;
                return closed;
            }
        }
        Ns::ZERO
    }

    /// Saturated time including a still-open full interval at `now`.
    ///
    /// `now` may precede `full_start` when telemetry back-fills aligned
    /// sample windows: an interval opened by the current event has not
    /// started yet at an earlier window boundary and contributes nothing.
    pub(crate) fn saturated_until(&self, now: Ns) -> Ns {
        self.saturated + self.open_saturation(now)
    }

    /// Length at `now` of the still-open full interval (zero when no VC
    /// is full, or when `now` precedes its start — see
    /// [`ChannelState::saturated_until`]).
    pub(crate) fn open_saturation(&self, now: Ns) -> Ns {
        if self.full_vcs > 0 {
            now.saturating_sub(self.full_start)
        } else {
            Ns::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{MessageId, Route};

    fn arena(n: usize) -> Vec<Packet> {
        (0..n)
            .map(|_| Packet {
                msg: MessageId(0),
                size: 1,
                hop: 0,
                routed: false,
                route: Route::from_slice(&[ChannelId(0), ChannelId(1)]),
                next: NO_PACKET,
            })
            .collect()
    }

    #[test]
    fn packet_list_fifo_order() {
        let mut packets = arena(4);
        let mut q = PacketList::default();
        assert_eq!(q.front(), None);
        for i in 0..4 {
            q.push_back(&mut packets, PacketId(i));
        }
        assert_eq!(q.front(), Some(PacketId(0)));
        for i in 0..4 {
            assert_eq!(q.pop_front(&packets), Some(PacketId(i)));
        }
        assert_eq!(q.pop_front(&packets), None);
        assert_eq!(q, PacketList::default());
    }

    #[test]
    fn packet_list_interleaved_push_pop() {
        let mut packets = arena(6);
        let mut q = PacketList::default();
        q.push_back(&mut packets, PacketId(0));
        q.push_back(&mut packets, PacketId(1));
        assert_eq!(q.pop_front(&packets), Some(PacketId(0)));
        q.push_back(&mut packets, PacketId(2));
        assert_eq!(q.pop_front(&packets), Some(PacketId(1)));
        assert_eq!(q.pop_front(&packets), Some(PacketId(2)));
        assert_eq!(q.pop_front(&packets), None);
        // Reusable after full drain.
        q.push_back(&mut packets, PacketId(5));
        assert_eq!(q.front(), Some(PacketId(5)));
    }

    #[test]
    fn full_interval_accounting_is_exactly_once() {
        let mut ch = ChannelState::new(
            ChannelClass::LocalRow,
            Bandwidth::from_gib_per_sec(1),
            Ns(0),
        );
        ch.mark_full(0, Ns(100));
        ch.mark_full(0, Ns(150)); // repeated refusal: no double-open
        ch.mark_full(2, Ns(200)); // second VC joins the open interval
        assert_eq!(ch.clear_full(0, Ns(300)), Ns::ZERO);
        assert_eq!(ch.saturated, Ns::ZERO, "interval still open via VC 2");
        assert_eq!(ch.clear_full(2, Ns(450)), Ns(350), "closed length");
        assert_eq!(ch.saturated, Ns(350));
        // Clearing an already-clear VC is a no-op.
        assert_eq!(ch.clear_full(1, Ns(500)), Ns::ZERO);
        assert_eq!(ch.saturated, Ns(350));
    }

    #[test]
    fn channel_state_stays_408_bytes() {
        // 649,696 of these back the 131k-node machine: the active-list
        // flag must ride the padding, not grow the struct.
        assert!(
            std::mem::size_of::<ChannelState>() <= 408,
            "ChannelState grew to {} bytes",
            std::mem::size_of::<ChannelState>()
        );
    }

    #[test]
    fn saturated_until_closes_open_interval() {
        let mut ch = ChannelState::new(ChannelClass::Global, Bandwidth::from_gib_per_sec(1), Ns(0));
        assert_eq!(ch.saturated_until(Ns(50)), Ns::ZERO);
        ch.mark_full(1, Ns(10));
        assert_eq!(ch.saturated_until(Ns(50)), Ns(40));
        ch.clear_full(1, Ns(60));
        assert_eq!(ch.saturated_until(Ns(90)), Ns(50));
    }
}
