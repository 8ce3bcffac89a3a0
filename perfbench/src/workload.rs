//! The three reference workloads, generated from a seed.
//!
//! The benchmark builds every input itself: a configuration for the batch
//! workloads, an arrival plan for the service stream. `--seed n` offsets
//! each workload's default seed by `n`, so `--seed 0` is the default seed
//! whose simulated output is pinned in [`Workload::pinned_digest`].
//!
//! The seed drives placement, workload jitter and routing. The service
//! stream's arrival plan (job mix, sizes and arrival times) stays the
//! reference stream of the default seed: a different plan per seed moves
//! the amount of work by ±20%, which would swamp the host-time figures
//! the benchmark exists to compare.

use dfly_core::config::{AppSelection, ExperimentConfig, Parallelism, RoutingPolicy};
use dfly_core::service::{AdmissionPolicy, ServiceConfig, ServiceJob, ServiceSubmission};
use dfly_engine::Ns;
use dfly_network::{MetricsMode, NetworkParams};
use dfly_placement::PlacementPolicy;
use dfly_topology::TopologyConfig;
use dfly_workloads::{poisson_arrivals, AppKind, ArrivalPlan};

/// A named reference workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One fig3 cell on the Theta machine, on the group-sharded engine with
    /// one worker.
    ThetaPdes1,
    /// The 131,584-node canonic machine with telemetry and streaming
    /// metrics on.
    Canonic131k,
    /// A Poisson job stream through the incremental service driver.
    ServiceStream,
}

/// Which machine the workload runs on: the reference size, or the 64-node
/// test machine the smoke test uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// The sizes the benchmark measures.
    Reference,
    /// The 64-node `small_test` machine with proportionally small jobs.
    SmallTest,
}

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub enum Scenario {
    /// One job replayed to completion (`execute_experiment`).
    Batch(ExperimentConfig),
    /// A job stream (`run_service`).
    Service(ServiceSpec),
}

/// A service workload's inputs. The arrival stream is generated from
/// `plan` inside the timed set-up; [`ServiceSpec::config`] materializes it
/// for the library path.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Machine, network, policies and seed; `submissions` left empty.
    pub base: ServiceConfig,
    /// The Poisson arrival plan.
    pub plan: ArrivalPlan,
}

impl ServiceSpec {
    /// The submission stream the plan generates.
    pub fn submissions(&self) -> Vec<ServiceSubmission> {
        poisson_arrivals(&self.plan)
            .iter()
            .map(|a| ServiceSubmission {
                job: ServiceJob::from_arrival(a),
                arrival: a.at,
            })
            .collect()
    }

    /// The full service configuration, stream included.
    pub fn config(&self) -> ServiceConfig {
        ServiceConfig {
            submissions: self.submissions(),
            ..self.base.clone()
        }
    }
}

impl Scenario {
    /// Network parameters of the run.
    pub fn network_mut(&mut self) -> &mut NetworkParams {
        match self {
            Scenario::Batch(c) => &mut c.network,
            Scenario::Service(s) => &mut s.base.network,
        }
    }

    /// Execution engine of the run.
    pub fn parallelism_mut(&mut self) -> &mut Parallelism {
        match self {
            Scenario::Batch(c) => &mut c.parallelism,
            Scenario::Service(s) => &mut s.base.parallelism,
        }
    }

    /// Master seed of the run.
    pub fn seed(&self) -> u64 {
        match self {
            Scenario::Batch(c) => c.seed,
            Scenario::Service(s) => s.base.seed,
        }
    }
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ThetaPdes1,
        Workload::Canonic131k,
        Workload::ServiceStream,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ThetaPdes1 => "theta_pdes1",
            Workload::Canonic131k => "canonic_131k",
            Workload::ServiceStream => "service_stream",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seed of `--seed 0`.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::ThetaPdes1 => 0x5EED,
            Workload::Canonic131k => 0x5CA1E,
            Workload::ServiceStream => 0x5E21,
        }
    }

    /// Digest of the simulated output at the default seed on the reference
    /// machine (see [`crate::pipeline::digest_experiment`] and
    /// [`crate::pipeline::digest_service`]). For the sharded workload this
    /// is the two-worker output; its one-worker runs are compared with the
    /// two-worker twin on every run, not with this value directly.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::ThetaPdes1 => 0x0c3d_6b0f_fd19_495b,
            Workload::Canonic131k => 0x03a7_338e_36c6_59d9,
            Workload::ServiceStream => 0x97d4_00e5_4e66_8b1c,
        }
    }

    /// Generate the workload's inputs for `--seed offset`.
    pub fn scenario(self, offset: u64, machine: Machine) -> Scenario {
        let seed = self.default_seed().wrapping_add(offset);
        let small = machine == Machine::SmallTest;
        let mut network = NetworkParams {
            audit: false,
            obs: false,
            ..NetworkParams::default()
        };
        match self {
            Workload::ThetaPdes1 => {
                let mut config = ExperimentConfig::theta(AppKind::CrystalRouter);
                config.placement = PlacementPolicy::RandomNode;
                config.routing = RoutingPolicy::Adaptive;
                config.msg_scale = 0.25;
                config.seed = seed;
                config.network = network;
                if small {
                    config.topology = TopologyConfig::small_test();
                    config.app = AppSelection::CrystalRouter { ranks: 27 };
                }
                config.parallelism = Parallelism::IntraRun(1);
                Scenario::Batch(config)
            }
            Workload::Canonic131k => {
                network.obs = true;
                network.metrics = MetricsMode::Streaming { reservoir_k: 1024 };
                let mut config = ExperimentConfig::quick(AppKind::CrystalRouter);
                config.topology = if small {
                    TopologyConfig::small_test()
                } else {
                    TopologyConfig::canonical(16, 32, 16, 257)
                };
                config.app = AppSelection::CrystalRouter {
                    ranks: if small { 27 } else { 512 },
                };
                config.placement = PlacementPolicy::Contiguous;
                config.routing = RoutingPolicy::Adaptive;
                config.msg_scale = 0.25;
                config.seed = seed;
                config.network = network;
                Scenario::Batch(config)
            }
            Workload::ServiceStream => {
                let topology = if small {
                    TopologyConfig::small_test()
                } else {
                    TopologyConfig::quick()
                };
                let nodes = topology.total_nodes();
                let plan = ArrivalPlan {
                    rate_per_ms: 100.0,
                    duration: if small {
                        Ns::from_us(120)
                    } else {
                        Ns::from_ms(1)
                    },
                    min_jobs: if small { 12 } else { 100 },
                    background_share: 0.25,
                    min_ranks: 4,
                    max_ranks: (nodes / 3).clamp(4, 512),
                    msg_scale: if small { 0.05 } else { 0.125 },
                    seed: self.default_seed(),
                };
                Scenario::Service(ServiceSpec {
                    base: ServiceConfig {
                        topology,
                        network,
                        routing: RoutingPolicy::Minimal,
                        admission: AdmissionPolicy::EasyBackfill,
                        submissions: Vec::new(),
                        seed,
                        parallelism: Parallelism::Serial,
                    },
                    plan,
                })
            }
        }
    }
}
