//! Per-unit costs of two layers, timed in isolation: one route decision
//! (`RouteComputer::compute`) and one event-queue schedule + pop at a given
//! heap depth. Each is the median of several fixed-size batches.

use dfly_engine::{EventQueue, Ns, Xoshiro256};
use dfly_network::routing::RouteComputer;
use dfly_network::{NetworkParams, Routing};
use dfly_stats::percentile;
use dfly_topology::{ChannelId, NodeId, Topology, TopologyConfig};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 7;

fn median(v: Vec<f64>) -> f64 {
    percentile(&v, 50.0)
}

/// Nanoseconds per route decision under `routing`, over a fixed set of
/// 4096 node pairs on the Theta machine with a fixed synthetic occupancy.
pub fn route_ns(topo: &Topology, routing: Routing) -> f64 {
    assert_eq!(
        topo.config(),
        &TopologyConfig::theta(),
        "routes are timed on Theta"
    );
    let params = NetworkParams::default();
    let nodes = u64::from(topo.config().total_nodes());
    let mut rng = Xoshiro256::seed_from(0x0B0E);
    let pairs: Vec<(NodeId, NodeId)> = (0..4096)
        .map(|_| {
            let s = rng.range_inclusive(0, nodes - 1);
            let d = (s + rng.range_inclusive(1, nodes - 1)) % nodes;
            (NodeId(s as u32), NodeId(d as u32))
        })
        .collect();
    let mut rc = RouteComputer::new(routing, Xoshiro256::seed_from(99));
    let mut out = Vec::new();
    let occupancy = |ch: ChannelId| (u64::from(ch.0) * 37) % 5000;
    let passes = 8;
    let batches = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let mut hops = 0usize;
            for _ in 0..passes {
                for &(s, d) in &pairs {
                    out.clear();
                    rc.compute(topo, &params, s, d, occupancy, &mut out);
                    hops += out.len();
                }
            }
            black_box(hops);
            t.elapsed().as_nanos() as f64 / (passes * pairs.len()) as f64
        })
        .collect();
    median(batches)
}

/// Nanoseconds per `EventQueue` pop + schedule pair with `depth` events
/// pending (a steady-state heap of 16-byte payloads, each pop rescheduled
/// up to 1 µs ahead).
pub fn queue_ns(depth: usize) -> f64 {
    let depth = depth.max(1);
    let mut rng = Xoshiro256::seed_from(0x0E0E);
    let mut q: EventQueue<(u64, u64)> = EventQueue::with_capacity(depth + 1);
    for i in 0..depth as u64 {
        q.schedule(Ns(rng.range_inclusive(0, 1_000)), (i, i));
    }
    let ops = 200_000;
    let batches = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..ops {
                let ev = q.pop().expect("queue keeps its depth");
                let at = Ns(ev.time.0 + rng.range_inclusive(1, 1_000));
                q.schedule(at, black_box(ev.event));
            }
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(batches)
}
