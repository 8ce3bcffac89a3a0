//! A [`DriverNet`] wrapper that meters the driver ↔ network boundary.
//!
//! Every run passes its network to the rank driver through a [`Probe`].
//! Untraced, the probe only counts delivered bytes. Traced, it also times
//! every `send` and `poll` call and the gaps between calls, which are the
//! driver's own self time.

use dfly_core::mpi::DriverNet;
use dfly_engine::{Bytes, Ns};
use dfly_network::{MessageId, NetworkEvent};
use dfly_topology::NodeId;
use std::time::Instant;

/// Host time spent inside and between boundary calls (traced runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct CallTimes {
    /// Nanoseconds inside `poll`.
    pub poll_ns: u64,
    /// `poll` calls.
    pub polls: u64,
    /// Nanoseconds inside `send`.
    pub send_ns: u64,
    /// `send` calls.
    pub sends: u64,
    /// Nanoseconds between boundary calls: the driver's self time.
    pub gap_ns: u64,
}

struct CallTimer {
    times: CallTimes,
    last_exit: Instant,
}

impl CallTimer {
    fn enter(&mut self) -> Instant {
        let now = Instant::now();
        self.times.gap_ns += nanos(now - self.last_exit);
        now
    }

    fn exit(&mut self, entered: Instant) -> u64 {
        let now = Instant::now();
        self.last_exit = now;
        nanos(now - entered)
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The metering wrapper. Owns the network for the length of a run; take it
/// back with [`Probe::into_inner`].
pub struct Probe<N: DriverNet> {
    net: N,
    delivered_bytes: Bytes,
    calls: Option<CallTimer>,
}

impl<N: DriverNet> Probe<N> {
    /// Wrap `net`. `traced` turns on per-call timing.
    pub fn new(net: N, traced: bool) -> Probe<N> {
        Probe {
            net,
            delivered_bytes: 0,
            calls: traced.then(|| CallTimer {
                times: CallTimes::default(),
                last_exit: Instant::now(),
            }),
        }
    }

    /// Restart the self-time clock: call right before the driver starts,
    /// so set-up is not billed to the driver.
    pub fn start(&mut self) {
        if let Some(c) = &mut self.calls {
            c.last_exit = Instant::now();
        }
    }

    /// Close the self-time clock when the driver returns: the trailing gap
    /// is driver self time too.
    pub fn stop(&mut self) {
        if let Some(c) = &mut self.calls {
            let now = c.enter();
            c.last_exit = now;
        }
    }

    /// Message payload bytes delivered so far.
    pub fn delivered_bytes(&self) -> Bytes {
        self.delivered_bytes
    }

    /// Boundary call timings (traced probes only).
    pub fn call_times(&self) -> Option<CallTimes> {
        self.calls.as_ref().map(|c| c.times)
    }

    /// Unwrap the network.
    pub fn into_inner(self) -> N {
        self.net
    }
}

impl<N: DriverNet> DriverNet for Probe<N> {
    fn send(&mut self, at: Ns, src: NodeId, dst: NodeId, bytes: Bytes, tag: u64) -> MessageId {
        match &mut self.calls {
            None => self.net.send(at, src, dst, bytes, tag),
            Some(c) => {
                let t = c.enter();
                let id = self.net.send(at, src, dst, bytes, tag);
                c.times.send_ns += c.exit(t);
                c.times.sends += 1;
                id
            }
        }
    }

    fn poll(&mut self) -> Option<NetworkEvent> {
        let ev = match &mut self.calls {
            None => self.net.poll(),
            Some(c) => {
                let t = c.enter();
                let ev = self.net.poll();
                c.times.poll_ns += c.exit(t);
                c.times.polls += 1;
                ev
            }
        };
        if let Some(NetworkEvent::Delivery(d)) = &ev {
            self.delivered_bytes += d.bytes;
        }
        ev
    }

    fn now(&self) -> Ns {
        self.net.now()
    }

    fn schedule_wakeup(&mut self, at: Ns) {
        self.net.schedule_wakeup(at)
    }

    fn packets_for(&self, bytes: Bytes) -> u64 {
        self.net.packets_for(bytes)
    }

    fn total_nodes(&self) -> u32 {
        self.net.total_nodes()
    }

    fn total_queued_bytes(&self) -> Bytes {
        self.net.total_queued_bytes()
    }

    fn packets_in_flight(&self) -> usize {
        self.net.packets_in_flight()
    }
}
