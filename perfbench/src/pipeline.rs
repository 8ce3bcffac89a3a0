//! One run of a workload, rebuilt from the simulator's public calls.
//!
//! [`run_batch`] reconstructs `dfly_core::runner::execute_experiment` and
//! [`run_stream`] reconstructs `dfly_core::service::run_service`, call for
//! call and seed stream for seed stream, with a [`Span`] around each call
//! and a [`Probe`] between the rank driver and the network. The digests of
//! their simulated output must equal those of the library entry points on
//! the same inputs; the benchmark checks that on every run.

use crate::host;
use crate::probe::{CallTimes, Probe};
use crate::workload::{Scenario, ServiceSpec};
use dfly_core::config::{ExperimentConfig, Parallelism};
use dfly_core::mpi::{DriverNet, MpiDriver};
use dfly_core::runner::ExperimentResult;
use dfly_core::service::{
    tenant_slos, ServiceConfig, ServiceOutcome, ServiceSim, ServiceSubmission,
};
use dfly_engine::{Ns, Xoshiro256};
use dfly_network::{
    AuditReport, MetricsFilter, Network, NetworkMetrics, ObsReport, ShardParts, ShardedNetwork,
    SimArena,
};
use dfly_obs::EventKind;
use dfly_placement::NodePool;
use dfly_stats::Cdf;
use dfly_topology::{NodeId, RouterId, Topology};
use dfly_workloads::{generate, JobTrace};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The clock a run's spans read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Elapsed time: the traced run, whose per-layer figures include
    /// waiting and parallel workers.
    Wall,
    /// CPU time of the whole process ([`host::cpu_ns`]): the timed run,
    /// pinned to one CPU, where it equals elapsed time on a host the run
    /// has to itself and leaves out the time another tenant held the CPU.
    Cpu,
}

/// One timed interval of a run.
#[derive(Debug, Clone)]
pub struct Span {
    /// Which call or phase.
    pub name: &'static str,
    /// Index of the enclosing span in the same run.
    pub parent: Option<usize>,
    /// Start, nanoseconds of the run's [`Clock`] after the run began.
    pub start_ns: u64,
    /// End, nanoseconds after the run began.
    pub end_ns: u64,
}

/// The spans of one run, kept in memory until the benchmark ends.
#[derive(Debug)]
pub struct Spans {
    clock: Clock,
    epoch: Instant,
    cpu_epoch: u64,
    list: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new(clock: Clock) -> Spans {
        Spans {
            clock,
            epoch: Instant::now(),
            cpu_epoch: host::cpu_ns(),
            list: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        match self.clock {
            Clock::Wall => u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Clock::Cpu => host::cpu_ns() - self.cpu_epoch,
        }
    }

    /// Run `f` inside a span named `name`, nested in the open span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.list.len();
        let start_ns = self.now_ns();
        self.list.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.list[id].end_ns = self.now_ns();
        out
    }

    /// Total seconds of the spans named `name` (0 when there are none), by
    /// the run's [`Clock`].
    pub fn secs(&self, name: &str) -> f64 {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Every span, in start order.
    pub fn list(&self) -> &[Span] {
        &self.list
    }
}

/// Counters taken from the telemetry report, when telemetry was on.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsCounts {
    /// Handled events per kind, in [`EventKind::ALL`] order.
    pub events: [u64; 4],
    /// Deepest event heap the run reached (largest shard heap when
    /// sharded).
    pub queue_high_water: usize,
    /// UGAL decisions that kept the minimal route.
    pub minimal_taken: u64,
    /// UGAL decisions that diverted to a non-minimal route.
    pub nonminimal_taken: u64,
}

impl ObsCounts {
    fn of(report: &ObsReport) -> ObsCounts {
        ObsCounts {
            events: EventKind::ALL.map(|k| report.profile.counts[k.index()]),
            queue_high_water: report.profile.queue_high_water,
            minimal_taken: report.route.minimal_taken,
            nonminimal_taken: report.route.nonminimal_taken,
        }
    }
}

/// Everything one run measured and produced.
#[derive(Debug)]
pub struct RunRecord {
    /// Phase and call spans (`run` > `setup` / `sim` / `finalize` > ...).
    pub spans: Spans,
    /// Digest of the simulated output.
    pub digest: u64,
    /// Simulated events.
    pub events: u64,
    /// Message payload bytes delivered to the driver.
    pub delivered_bytes: u64,
    /// Host latency of each driver step of a stream, in ms: one
    /// `step_until` + `submit` per arrival (empty for a batch run).
    pub step_ms: Vec<f64>,
    /// Boundary call timings (traced runs).
    pub calls: Option<CallTimes>,
    /// Packets delivered by the engine.
    pub packets_delivered: u64,
    /// Arrivals the serial engine drained inline (not exposed by the
    /// sharded engine: 0 there).
    pub arrivals_coalesced: u64,
    /// Approximate bytes of the network's metric structures.
    pub metric_bytes: usize,
    /// Resident-set growth across network construction, MiB.
    pub build_rss_mb: f64,
    /// Process CPU seconds (all threads) during the simulation.
    pub sim_cpu_s: f64,
    /// Telemetry counters, when telemetry was on.
    pub obs: Option<ObsCounts>,
    /// Peak concurrent jobs and job slots (streams only).
    pub service_state: Option<(usize, usize)>,
}

impl RunRecord {
    /// Seconds of a phase or call, by the run's [`Clock`].
    pub fn secs(&self, name: &str) -> f64 {
        self.spans.secs(name)
    }
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of a batch run: placement, per-rank communication times, job
/// end and event count.
pub fn digest_experiment(placement: &[NodeId], comm: &[Ns], job_end: Ns, events: u64) -> u64 {
    let mut d = Digest::new();
    placement.iter().for_each(|n| d.word(u64::from(n.0)));
    comm.iter().for_each(|t| d.word(t.0));
    d.word(job_end.0);
    d.word(events);
    d.0
}

/// Digest of a stream run: every outcome's identity and schedule, the
/// makespan and the event count.
pub fn digest_service(outcomes: &[ServiceOutcome], makespan: Ns, events: u64) -> u64 {
    let mut d = Digest::new();
    for o in outcomes {
        for w in [
            o.uid,
            u64::from(o.tenant),
            u64::from(o.ranks),
            o.arrival.0,
            o.started_at.0,
            o.finished_at.0,
            u64::from(o.groups),
            u64::from(o.blast_radius),
        ] {
            d.word(w);
        }
    }
    d.word(makespan.0);
    d.word(events);
    d.0
}

/// The reports a finished engine hands back, with their calls timed.
struct Reports {
    metrics: NetworkMetrics,
    audit: Option<AuditReport>,
    obs: Option<ObsReport>,
    events: u64,
    packets_delivered: u64,
    arrivals_coalesced: u64,
    metric_bytes: usize,
}

/// An engine whose run is over, as the runner takes its reports.
trait Finished {
    fn reports(&mut self, s: &mut Spans) -> Reports;
}

impl Finished for Network {
    fn reports(&mut self, s: &mut Spans) -> Reports {
        let metrics = s.time("network.metrics", |_| self.metrics());
        let audit = self.audit_report();
        let obs = s.time("obs.report", |_| self.obs_report());
        Reports {
            metrics,
            audit,
            obs,
            events: self.events_processed(),
            packets_delivered: self.packets_delivered(),
            arrivals_coalesced: self.arrivals_coalesced(),
            metric_bytes: self.metric_bytes_approx(),
        }
    }
}

impl Finished for ShardParts {
    fn reports(&mut self, s: &mut Spans) -> Reports {
        let metrics = s.time("network.metrics", |_| self.metrics());
        let audit = self.audit_report();
        let obs = s.time("obs.report", |_| self.obs_report());
        Reports {
            metrics,
            audit,
            obs,
            events: self.events(),
            packets_delivered: self.packets_delivered(),
            arrivals_coalesced: 0,
            metric_bytes: self.metric_bytes_approx(),
        }
    }
}

/// The serial and sharded engines: `done` turns a drained engine into
/// its finished state (the sharded engine joins and merges its shards).
trait Engine: DriverNet + Sized {
    type Done: Finished;
    fn done(self, s: &mut Spans) -> Self::Done;
}

impl Engine for Network {
    type Done = Network;
    fn done(self, _: &mut Spans) -> Network {
        self
    }
}

impl Engine for ShardedNetwork {
    type Done = ShardParts;
    fn done(self, s: &mut Spans) -> ShardParts {
        s.time("shard.finish", |_| self.finish())
    }
}

/// The engine a batch workload runs on.
fn workers(cfg: &ExperimentConfig) -> Option<usize> {
    match cfg.parallelism {
        Parallelism::IntraRun(n) if cfg.topology.groups >= 2 => Some(n as usize),
        _ => None,
    }
}

fn serial_net(cfg: &ExperimentConfig) -> impl FnOnce(Arc<Topology>, u64) -> Network + '_ {
    |topo, seed| Network::with_arena(topo, cfg.network, cfg.routing, seed, &mut SimArena::new())
}

fn sharded_net(
    cfg: &ExperimentConfig,
    n: usize,
) -> impl FnOnce(Arc<Topology>, u64) -> ShardedNetwork + '_ {
    move |topo, seed| {
        ShardedNetwork::with_arenas(topo, cfg.network, cfg.routing, seed, n, &mut Vec::new())
    }
}

/// Run one batch workload, rebuilt from `execute_experiment`'s calls.
/// Each run starts from fresh arenas, as a single `execute_experiment`
/// call does.
pub fn run_batch(cfg: &ExperimentConfig, traced: bool, clock: Clock) -> RunRecord {
    match workers(cfg) {
        None => batch_on(cfg, traced, clock, serial_net(cfg)),
        Some(n) => batch_on(cfg, traced, clock, sharded_net(cfg, n)),
    }
}

/// Process CPU seconds of the set-up phase alone (built, then dropped
/// untimed).
pub fn setup_pass(scenario: &Scenario) -> f64 {
    let mut s = Spans::new(Clock::Cpu);
    match scenario {
        Scenario::Batch(b) => match workers(b) {
            None => drop(s.time("setup", |s| prepare_batch(s, b, serial_net(b)))),
            Some(n) => drop(s.time("setup", |s| prepare_batch(s, b, sharded_net(b, n)))),
        },
        Scenario::Service(spec) => drop(s.time("setup", |s| prepare_stream(s, spec))),
    }
    s.secs("setup")
}

/// A batch run's inputs and network, ready to simulate.
struct Batch<E> {
    net: E,
    topo: Arc<Topology>,
    placement: Vec<NodeId>,
    trace: JobTrace,
    build_rss_mb: f64,
}

fn prepare_batch<E: Engine>(
    s: &mut Spans,
    cfg: &ExperimentConfig,
    build: impl FnOnce(Arc<Topology>, u64) -> E,
) -> Batch<E> {
    assert!(
        cfg.background.is_none(),
        "batch workloads run without background traffic"
    );
    s.time("validate", |_| cfg.validate().expect("invalid workload"));
    let topo = s.time("topology.build", |_| {
        Arc::new(Topology::build(cfg.topology.clone()))
    });
    let mut master = Xoshiro256::seed_from(cfg.seed);
    let mut placement_rng = master.split(1);
    let workload_seed = master.split(2).next_u64();
    let routing_seed = master.split(3).next_u64();
    let placement = s.time("placement.allocate", |_| {
        let mut pool = NodePool::new(&topo);
        let allocation = cfg
            .placement
            .allocate(&topo, &mut pool, cfg.app.ranks(), &mut placement_rng)
            .expect("validated config cannot over-allocate");
        cfg.mapping.arrange(
            &allocation,
            cfg.topology.nodes_per_router,
            &mut placement_rng,
        )
    });
    let trace = s.time("workloads.generate", |_| {
        generate(&cfg.app.spec(cfg.msg_scale, workload_seed))
    });
    let rss0 = host::rss_kb();
    let net = s.time("network.build", |_| build(topo.clone(), routing_seed));
    Batch {
        net,
        topo,
        placement,
        trace,
        build_rss_mb: (host::rss_kb() as f64 - rss0 as f64) / 1024.0,
    }
}

/// Local and global traffic and saturation CDFs over all channels.
fn channel_cdfs(m: &NetworkMetrics) -> [Cdf; 4] {
    let all = MetricsFilter::All;
    let mb = |v: Vec<f64>| Cdf::from_samples(v.into_iter().map(|b| b / 1e6));
    [
        mb(m.local_traffic(&all)),
        mb(m.global_traffic(&all)),
        Cdf::from_samples(m.local_saturation_ms(&all)),
        Cdf::from_samples(m.global_saturation_ms(&all)),
    ]
}

fn batch_on<E: Engine>(
    cfg: &ExperimentConfig,
    traced: bool,
    clock: Clock,
    build: impl FnOnce(Arc<Topology>, u64) -> E,
) -> RunRecord {
    let mut spans = Spans::new(clock);
    let record = spans.time("run", |s| {
        let batch = s.time("setup", |s| prepare_batch(s, cfg, build));
        let (probe, result, sim_cpu_s) = s.time("sim", |s| {
            let cpu0 = host::cpu_ns();
            let mut probe = Probe::new(batch.net, traced);
            probe.start();
            let result = s.time("driver.run", |_| {
                MpiDriver::new(&mut probe, &batch.trace, &batch.placement, None).run()
            });
            probe.stop();
            (probe, result, (host::cpu_ns() - cpu0) as f64 * 1e-9)
        });
        let (calls, delivered_bytes) = (probe.call_times(), probe.delivered_bytes());
        let (record, leftovers) = s.time("finalize", |s| {
            let mut done = probe.into_inner().done(s);
            let f = done.reports(s);
            let app_routers: HashSet<RouterId> = batch
                .placement
                .iter()
                .map(|&n| batch.topo.node_router(n))
                .collect();
            let r = ExperimentResult {
                config: cfg.clone(),
                placement: batch.placement,
                rank_comm_times: result.rank_comm_time,
                rank_avg_hops: result.rank_avg_hops,
                metrics: f.metrics,
                app_routers,
                job_end: result.job_end,
                events: f.events,
                background_messages: result.background_messages,
                audit: f.audit,
                obs: f.obs,
            };
            let all = MetricsFilter::All;
            let cdfs = s.time("stats.cdf", |_| {
                black_box([
                    r.local_traffic_mb_cdf(&all),
                    r.global_traffic_mb_cdf(&all),
                    r.local_saturation_ms_cdf(&all),
                    r.global_saturation_ms_cdf(&all),
                ])
            });
            let record = RunRecord {
                spans: Spans::new(clock),
                digest: digest_experiment(&r.placement, &r.rank_comm_times, r.job_end, r.events),
                events: r.events,
                delivered_bytes,
                step_ms: Vec::new(),
                calls,
                packets_delivered: f.packets_delivered,
                arrivals_coalesced: f.arrivals_coalesced,
                metric_bytes: f.metric_bytes,
                build_rss_mb: batch.build_rss_mb,
                sim_cpu_s,
                obs: r.obs.as_ref().map(ObsCounts::of),
                service_state: None,
            };
            (record, (done, r, cdfs))
        });
        s.time("teardown", |_| drop((leftovers, batch.trace, batch.topo)));
        record
    });
    RunRecord { spans, ..record }
}

/// A stream run's inputs and network, ready to simulate.
struct Stream {
    net: Network,
    topo: Arc<Topology>,
    config: ServiceConfig,
    subs: Vec<ServiceSubmission>,
    build_rss_mb: f64,
}

fn prepare_stream(s: &mut Spans, spec: &ServiceSpec) -> Stream {
    let config = s.time("workloads.arrivals", |_| spec.config());
    s.time("validate", |_| config.validate().expect("invalid service"));
    assert_eq!(
        config.parallelism,
        Parallelism::Serial,
        "the service workload runs on the serial engine"
    );
    let topo = s.time("topology.build", |_| {
        Arc::new(Topology::build(config.topology.clone()))
    });
    let mut master = Xoshiro256::seed_from(config.seed);
    let _placement = master.split(1);
    let _workloads = master.split(2);
    let routing_seed = master.split(3).next_u64();
    let mut subs = config.submissions.clone();
    subs.sort_by_key(|s| s.arrival);
    let rss0 = host::rss_kb();
    let net = s.time("network.build", |_| {
        Network::with_arena(
            topo.clone(),
            config.network,
            config.routing,
            routing_seed,
            &mut SimArena::new(),
        )
    });
    Stream {
        net,
        topo,
        config,
        subs,
        build_rss_mb: (host::rss_kb() as f64 - rss0 as f64) / 1024.0,
    }
}

/// Run the service stream, rebuilt from `run_service`'s calls. The arrival
/// stream is generated inside the timed set-up. `run_service` itself
/// stops at the outcomes; the finalize phase then takes the same channel
/// report as a batch run plus the per-tenant SLO summary.
pub fn run_stream(spec: &ServiceSpec, traced: bool, clock: Clock) -> RunRecord {
    let mut spans = Spans::new(clock);
    let record = spans.time("run", |s| {
        let st = s.time("setup", |s| prepare_stream(s, spec));
        let mut step_ms = Vec::new();
        let (probe, outcomes, state, sim_cpu_s) = s.time("sim", |s| {
            let cpu0 = host::cpu_ns();
            let mut probe = Probe::new(st.net, traced);
            probe.start();
            let mut sim = ServiceSim::new(&mut probe, st.topo, st.config.admission, st.config.seed);
            s.time("service.arrivals", |_| {
                for sub in &st.subs {
                    let t = Instant::now();
                    sim.step_until(sub.arrival);
                    sim.submit(sub.job, sub.arrival)
                        .expect("validated submission");
                    step_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
            });
            s.time("service.drain", |_| sim.run_to_idle());
            let (outcomes, peak, slots) = sim.finish();
            probe.stop();
            (
                probe,
                outcomes,
                (peak, slots),
                (host::cpu_ns() - cpu0) as f64 * 1e-9,
            )
        });
        let (calls, delivered_bytes) = (probe.call_times(), probe.delivered_bytes());
        let (record, leftovers) = s.time("finalize", |s| {
            let mut net = probe.into_inner();
            let f = net.reports(s);
            let cdfs = s.time("stats.cdf", |_| black_box(channel_cdfs(&f.metrics)));
            let slos = s.time("stats.slo", |_| black_box(tenant_slos(&outcomes)));
            let makespan = outcomes
                .iter()
                .map(|o| o.finished_at)
                .max()
                .unwrap_or(Ns::ZERO);
            let record = RunRecord {
                spans: Spans::new(clock),
                digest: digest_service(&outcomes, makespan, f.events),
                events: f.events,
                delivered_bytes,
                step_ms,
                calls,
                packets_delivered: f.packets_delivered,
                arrivals_coalesced: f.arrivals_coalesced,
                metric_bytes: f.metric_bytes,
                build_rss_mb: st.build_rss_mb,
                sim_cpu_s,
                obs: f.obs.as_ref().map(ObsCounts::of),
                service_state: Some(state),
            };
            (record, (net, f, cdfs, slos, outcomes))
        });
        s.time("teardown", |_| drop((leftovers, st.subs, st.config)));
        record
    });
    RunRecord { spans, ..record }
}
