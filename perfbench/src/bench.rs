//! The timed run (end-to-end metrics) and the traced run (per-layer
//! metrics) of one workload, each with its correctness gate.

use crate::host;
use crate::pipeline::{
    digest_experiment, digest_service, run_batch, run_stream, setup_pass, Clock, ObsCounts,
    RunRecord, Span,
};
use crate::report::{json_arr, json_obj, json_str, Summary, END_TO_END, PER_LAYER};
use crate::unit_costs;
use crate::workload::{Machine, Scenario, Workload};
use dfly_core::config::Parallelism;
use dfly_core::runner::{execute_experiment, prepare_topology};
use dfly_core::service::run_service;
use dfly_engine::Ns;
use dfly_network::Routing;
use dfly_stats::percentile;
use dfly_topology::{Topology, TopologyConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Fewest measured runs per run of the benchmark, whatever `--seconds`.
pub const MIN_REPEATS: usize = 3;

/// Wall time spent on set-up-only passes and their host-speed readings,
/// the sole source of `setup_s`. Set-up takes from well under a
/// millisecond (the stream) to about a tenth of a second (the 131k-node
/// machine), so a run takes from ten to thousands of samples, in about
/// six bursts: the host's speed changes from burst to burst, and the
/// median over fewer of them moved with it.
const SETUP_BUDGET: Duration = Duration::from_secs(4);

/// Time spent on set-up-only passes between two host-speed readings.
const SETUP_BURST: Duration = Duration::from_millis(400);

/// Fewest set-up-only passes per run, whatever [`SETUP_BUDGET`].
pub const MIN_SETUPS: usize = 5;

/// Whether another repeat fits: fewer than [`MIN_REPEATS`] done, or the
/// mean repeat so far predicts it ends within `budget`.
fn another(done: usize, start: Instant, budget: Duration) -> bool {
    if done < MIN_REPEATS {
        return true;
    }
    let elapsed = start.elapsed();
    elapsed + elapsed / done as u32 <= budget
}

/// Largest job-end deviation of the sharded engine from the serial loop
/// on the same inputs. The sharded engine quantizes injections to its
/// lookahead windows, so the two agree statistically, not exactly
/// (4–7% on this workload); the repository's own speed-up bench fails
/// past 25%.
pub const PDES_DEVIATION_BAND: f64 = 0.25;

/// One correctness check and its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Observed values.
    pub detail: String,
}

/// Checks made during a run; a panic inside a guarded call is a failed
/// check.
#[derive(Debug, Default)]
pub struct Gate {
    checks: Vec<Check>,
}

impl Gate {
    /// Record a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Run `f`; a panic is recorded as a failed check named `name`.
    pub fn guard<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(e) => {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                self.check(name, false, format!("panicked: {msg}"));
                None
            }
        }
    }
}

/// Simulated output of a library entry point.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Digest of the simulated output.
    pub digest: u64,
    /// Simulated events.
    pub events: u64,
    /// Last job completion.
    pub job_end: Ns,
    /// Whether the run moved bytes and processed events.
    pub nonzero: bool,
    /// Audit verdict, when auditing was on.
    pub audit_clean: Option<bool>,
}

/// Run `scenario` through `execute_experiment` or `run_service`.
pub fn library_run(scenario: &Scenario) -> Reference {
    match scenario {
        Scenario::Batch(c) => {
            let r = execute_experiment(c, prepare_topology(c));
            let bytes: u64 = r.metrics.channels().map(|c| c.traffic_bytes).sum();
            Reference {
                digest: digest_experiment(&r.placement, &r.rank_comm_times, r.job_end, r.events),
                events: r.events,
                job_end: r.job_end,
                nonzero: r.events > 0 && bytes > 0,
                audit_clean: r.audit.as_ref().map(|a| a.is_clean()),
            }
        }
        Scenario::Service(s) => {
            let r = run_service(&s.config());
            Reference {
                digest: digest_service(&r.outcomes, r.makespan, r.events),
                events: r.events,
                job_end: r.makespan,
                nonzero: r.events > 0 && !r.outcomes.is_empty() && r.makespan > Ns::ZERO,
                audit_clean: r.audit.as_ref().map(|a| a.is_clean()),
            }
        }
    }
}

/// Run `scenario` through the decomposed pipeline, its spans read on
/// `clock`.
pub fn decomposed_run(scenario: &Scenario, traced: bool, clock: Clock) -> RunRecord {
    match scenario {
        Scenario::Batch(b) => run_batch(b, traced, clock),
        Scenario::Service(s) => run_stream(s, traced, clock),
    }
}

/// Check one decomposed run against the library path: same digest, and
/// events and delivered bytes that are not zero.
fn check_match(gate: &mut Gate, name: &str, rec: &RunRecord, reference: Option<&Reference>) {
    let ok = reference.is_some_and(|r| r.digest == rec.digest)
        && rec.events > 0
        && rec.delivered_bytes > 0;
    gate.check(
        name,
        ok,
        format!(
            "digest {:#018x} vs {}, {} events, {} bytes delivered",
            rec.digest,
            reference.map_or("none".to_string(), |r| format!("{:#018x}", r.digest)),
            rec.events,
            rec.delivered_bytes
        ),
    );
}

/// What one run of the benchmark produced.
#[derive(Debug)]
pub struct Outcome {
    /// Correctness checks, in order.
    pub checks: Vec<Check>,
    /// Every metric of the run's kind, in declaration order.
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
    /// Master seed of the measured runs.
    pub config_seed: u64,
    /// Events of each measured run.
    pub events: Vec<u64>,
    /// Spans of every measured run, as JSON (traced runs only).
    pub spans_json: Option<String>,
    /// Host-speed readings the end-to-end times are scaled by, named by
    /// the window they cover (timed runs only; per-layer times are raw
    /// host time).
    pub calibrations: Vec<(&'static str, host::Calibration)>,
    /// The CPU the timed run was pinned to, if it was.
    pub pinned_cpu: Option<usize>,
}

impl Outcome {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The value of a metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, s)| s.median)
    }
}

/// One workload at one seed for one duration.
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// `--seed`: offset from the workload's default seed.
    pub seed: u64,
    /// How long the measured runs go on.
    pub seconds: f64,
    /// Reference machine, or the smoke test's small one.
    pub machine: Machine,
}

impl Bench {
    fn scenario(&self) -> Scenario {
        self.workload.scenario(self.seed, self.machine)
    }

    /// The library-path twin of the measured scenario. The sharded
    /// workload's twin runs at two workers, so matching it also shows that
    /// the output does not depend on the worker count.
    fn library_twin(&self, mut scenario: Scenario) -> Scenario {
        if self.workload == Workload::ThetaPdes1 {
            *scenario.parallelism_mut() = Parallelism::IntraRun(2);
        }
        scenario
    }

    /// One decomposed run, checked against the library reference.
    fn measured(
        &self,
        gate: &mut Gate,
        scenario: &Scenario,
        reference: Option<&Reference>,
        traced: bool,
        what: &str,
    ) -> Option<RunRecord> {
        let name = format!("{what} run matches the library path");
        let rec = gate.guard(&name, || decomposed_run(scenario, traced, Clock::Wall))?;
        check_match(gate, &name, &rec, reference);
        Some(rec)
    }

    fn reference(&self, gate: &mut Gate, scenario: &Scenario) -> Option<Reference> {
        let twin = self.library_twin(scenario.clone());
        let r = gate.guard("library path", || library_run(&twin))?;
        gate.check(
            "library path output is non-zero",
            r.nonzero,
            format!("{} events, digest {:#018x}", r.events, r.digest),
        );
        Some(r)
    }

    /// The untraced checks at the default seed: an audit-on library run
    /// must be clean and (on the reference machine) reproduce the pinned
    /// digest. For the sharded workload that run uses two workers, the
    /// library twin's worker count.
    fn default_seed_checks(&self, gate: &mut Gate) {
        let mut sc = self.library_twin(self.workload.scenario(0, self.machine));
        sc.network_mut().audit = true;
        let Some(r) = gate.guard("audit-on pass", || library_run(&sc)) else {
            return;
        };
        gate.check(
            "audit-on pass is clean",
            r.audit_clean == Some(true) && r.nonzero,
            format!("audit {:?}, {} events", r.audit_clean, r.events),
        );
        if self.machine == Machine::Reference {
            let pinned = self.workload.pinned_digest();
            gate.check(
                "default seed reproduces the pinned digest",
                r.digest == pinned,
                format!("{:#018x} vs pinned {pinned:#018x}", r.digest),
            );
        }
    }

    /// Job-end deviation of the sharded run from the serial loop on the
    /// same inputs (sharded workload only), checked against the band.
    fn serial_deviation(
        &self,
        gate: &mut Gate,
        scenario: &Scenario,
        sharded: Option<&Reference>,
    ) -> f64 {
        if self.workload != Workload::ThetaPdes1 {
            return 0.0;
        }
        let mut serial = scenario.clone();
        *serial.parallelism_mut() = Parallelism::Serial;
        let name = "sharded job end within the band of the serial loop";
        let (Some(s), Some(p)) = (gate.guard(name, || library_run(&serial)), sharded) else {
            return 0.0;
        };
        let serial_end = s.job_end.0 as f64;
        let dev = (p.job_end.0 as f64 - serial_end).abs() / serial_end.max(1.0);
        gate.check(
            name,
            dev < PDES_DEVIATION_BAND && s.nonzero,
            format!(
                "serial {} ns vs sharded {} ns: {dev:.4} (band {PDES_DEVIATION_BAND})",
                s.job_end.0, p.job_end.0
            ),
        );
        dev
    }

    /// The end-to-end run, pinned to one CPU and timed in process CPU time:
    /// measured repeats for `seconds`, peak RSS, then set-up-only passes
    /// for `setup_s`. Then, unpinned, the library reference the repeats
    /// must match and the untraced default-seed checks.
    pub fn timed(&self) -> Outcome {
        let mut gate = Gate::default();
        let scenario = self.scenario();
        let pinned = host::PinnedCpu::current();
        let budget = Duration::from_secs_f64(self.seconds);
        let start = Instant::now();
        let mut runs = Vec::new();
        let mut calibration = host::Calibration::default();
        let name = "measured run matches the library path";
        while another(runs.len(), start, budget) {
            calibration.sample();
            match gate.guard(name, || decomposed_run(&scenario, false, Clock::Cpu)) {
                Some(rec) => runs.push(rec),
                None => break,
            }
        }
        calibration.sample();
        // Read before anything else runs: the set-up passes start sharded
        // workers over and over, and the library path uses two workers,
        // which is not the measured configuration. The calibration
        // kernel's table was resident all along; it is not the workload's.
        let peak_rss_mb = host::peak_rss_kb() as f64 / 1024.0 - host::TABLE_MB as f64;
        // The set-up window gets its own host-speed reading, taken between
        // short bursts of passes, since the host can change speed between
        // the repeats and this window.
        let mut setups = Vec::new();
        let mut setup_calibration = host::Calibration::default();
        let setup_start = Instant::now();
        'window: while setups.len() < MIN_SETUPS || setup_start.elapsed() < SETUP_BUDGET {
            setup_calibration.sample();
            let reading = setup_calibration.len() - 1;
            let burst = Instant::now();
            while burst.elapsed() < SETUP_BURST {
                match gate.guard("set-up pass", || setup_pass(&scenario)) {
                    Some(t) => setups.push((reading, t)),
                    None => break 'window,
                }
            }
        }
        setup_calibration.sample();
        let pinned_cpu = pinned.cpu;
        drop(pinned);

        let reference = self.reference(&mut gate, &scenario);
        for rec in &runs {
            check_match(&mut gate, name, rec, reference.as_ref());
        }
        self.serial_deviation(&mut gate, &scenario, reference.as_ref());
        self.default_seed_checks(&mut gate);

        // Host times at nominal host speed: repeat `i` ran between
        // readings `i` and `i + 1` (see `host::Calibration`).
        let col = |g: &dyn Fn(&RunRecord, f64) -> f64| {
            let scaled: Vec<f64> = (runs.iter().enumerate())
                .map(|(i, r)| g(r, calibration.factor_after(i)))
                .collect();
            Summary::of(&scaled)
        };
        let values = [
            col(&|r, f| r.secs("run") * f),
            Summary::of(
                &(setups.iter())
                    .map(|&(i, t)| t * setup_calibration.factor_after(i))
                    .collect::<Vec<_>>(),
            ),
            col(&|r, f| r.secs("sim") * f),
            col(&|r, f| r.events as f64 / (r.secs("sim") * f)),
            Summary::once(peak_rss_mb),
        ];
        Outcome {
            checks: gate.checks,
            metrics: zip_metrics(END_TO_END, values.to_vec()),
            config_seed: scenario.seed(),
            events: runs.iter().map(|r| r.events).collect(),
            spans_json: None,
            calibrations: vec![("repeats", calibration), ("setup", setup_calibration)],
            pinned_cpu,
        }
    }

    /// The traced run: traced and untraced repeats interleaved for
    /// `seconds`, a telemetry pass for event counts and heap depth, the
    /// obs-off twin (telemetry workloads), the serial twin (sharded
    /// workload) and the unit-cost loops.
    pub fn traced(&self) -> Outcome {
        let mut gate = Gate::default();
        let scenario = self.scenario();
        let reference = self.reference(&mut gate, &scenario);
        let r = reference.as_ref();
        let budget = Duration::from_secs_f64(self.seconds);
        let start = Instant::now();
        let (mut traced, mut plain) = (Vec::new(), Vec::new());
        while another(plain.len(), start, budget) {
            let Some(t) = self.measured(&mut gate, &scenario, r, true, "traced") else {
                break;
            };
            traced.push(t);
            let Some(u) = self.measured(&mut gate, &scenario, r, false, "untraced") else {
                break;
            };
            plain.push(u);
        }

        // Telemetry is bit-neutral: a telemetry-on twin must match too.
        let obs_on = match &scenario {
            Scenario::Batch(c) => c.network.obs,
            Scenario::Service(s) => s.base.network.obs,
        };
        let (counts, twin) = if obs_on {
            let mut off = scenario.clone();
            off.network_mut().obs = false;
            let twin: Vec<RunRecord> = (0..MIN_REPEATS)
                .filter_map(|_| self.measured(&mut gate, &off, r, true, "telemetry-off twin"))
                .collect();
            (traced.first().and_then(|t| t.obs), twin)
        } else {
            let mut on = scenario.clone();
            on.network_mut().obs = true;
            let rec = self.measured(&mut gate, &on, r, true, "telemetry-on");
            (rec.and_then(|t| t.obs), Vec::new())
        };
        let counts = counts.unwrap_or_default();
        let deviation = self.serial_deviation(&mut gate, &scenario, r);
        // The sharded workload is measured at one worker (two workers swing
        // 2-3x with the host's load); its two-worker twin gives the
        // parallel figures.
        let workers2: Vec<RunRecord> = if self.workload == Workload::ThetaPdes1 {
            let mut two = scenario.clone();
            *two.parallelism_mut() = Parallelism::IntraRun(2);
            (0..MIN_REPEATS)
                .filter_map(|_| self.measured(&mut gate, &two, r, true, "two-worker twin"))
                .collect()
        } else {
            Vec::new()
        };

        let theta = Topology::build(TopologyConfig::theta());
        let adaptive_ns = unit_costs::route_ns(&theta, Routing::Adaptive);
        let minimal_ns = unit_costs::route_ns(&theta, Routing::Minimal);
        let queue_ns = unit_costs::queue_ns(counts.queue_high_water);

        let runs = TracedRuns {
            traced: &traced,
            plain: &plain,
            obs_twin: &twin,
            workers2: &workers2,
        };
        let values = layer_values(&runs, &counts, deviation, |name| match name {
            "routing.adaptive_ns_per_route" => adaptive_ns,
            "routing.minimal_ns_per_route" => minimal_ns,
            "engine.queue_ns_per_op" => queue_ns,
            _ => unreachable!("not a unit cost: {name}"),
        });
        let spans_json = json_arr(
            [
                ("traced", &traced),
                ("untraced", &plain),
                ("telemetry-off twin", &twin),
                ("two-worker twin", &workers2),
            ]
            .into_iter()
            .flat_map(|(kind, runs)| runs.iter().enumerate().map(move |(i, r)| (kind, i, r)))
            .map(|(kind, i, r)| {
                json_obj([
                    ("kind", json_str(kind)),
                    ("repeat", i.to_string()),
                    ("spans", json_arr(r.spans.list().iter().map(span_json))),
                ])
            }),
        );
        Outcome {
            checks: gate.checks,
            metrics: zip_metrics(PER_LAYER, values),
            config_seed: scenario.seed(),
            events: traced.iter().map(|r| r.events).collect(),
            spans_json: Some(spans_json),
            calibrations: Vec::new(),
            pinned_cpu: None,
        }
    }
}

/// The `p` percentile (0..100) of the stream's step latencies, pooled
/// over `runs`; 0 without steps. With ≥100 arrivals per run, p90 has ≥10
/// samples beyond it.
fn step_percentile(runs: &[RunRecord], p: f64) -> Summary {
    let steps: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.step_ms.iter().copied())
        .collect();
    if steps.is_empty() {
        return Summary::once(0.0);
    }
    Summary {
        n: steps.len(),
        ..Summary::once(percentile(&steps, p))
    }
}

fn span_json(s: &Span) -> String {
    json_obj([
        ("name", json_str(s.name)),
        (
            "parent",
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        ),
        ("start_ns", s.start_ns.to_string()),
        ("end_ns", s.end_ns.to_string()),
    ])
}

fn zip_metrics(
    defs: &'static [(&'static str, &'static str)],
    values: Vec<Summary>,
) -> Vec<(&'static str, &'static str, Summary)> {
    assert_eq!(defs.len(), values.len(), "one value per declared metric");
    defs.iter()
        .zip(values)
        .map(|(&(name, unit), s)| (name, unit, s))
        .collect()
}

/// The runs of one traced run of the benchmark.
struct TracedRuns<'a> {
    /// Traced repeats of the workload.
    traced: &'a [RunRecord],
    /// Untraced repeats interleaved with them.
    plain: &'a [RunRecord],
    /// Telemetry-off twin (workloads with telemetry on).
    obs_twin: &'a [RunRecord],
    /// Two-worker twin (the sharded workload).
    workers2: &'a [RunRecord],
}

/// The per-layer values, in [`PER_LAYER`] order.
fn layer_values(
    runs: &TracedRuns,
    counts: &ObsCounts,
    deviation: f64,
    unit_cost: impl Fn(&str) -> f64,
) -> Vec<Summary> {
    let TracedRuns {
        traced,
        plain,
        obs_twin: twin,
        workers2,
    } = *runs;
    let of = |runs: &[RunRecord], f: &dyn Fn(&RunRecord) -> f64| {
        Summary::of(&runs.iter().map(f).collect::<Vec<_>>())
    };
    let col = |f: &dyn Fn(&RunRecord) -> f64| of(traced, f);
    let calls = |r: &RunRecord| r.calls.unwrap_or_default();
    let secs = |name: &'static str| move |r: &RunRecord| r.secs(name);
    // Telemetry cost: the telemetry-on runs minus their telemetry-off twin.
    let overhead = |name: &'static str| {
        if twin.is_empty() {
            Summary::once(0.0)
        } else {
            Summary::once(of(traced, &secs(name)).median - of(twin, &secs(name)).median)
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, _)| match name {
            "topology.build_s" => col(&secs("topology.build")),
            "placement.allocate_s" => col(&secs("placement.allocate")),
            "workloads.generate_s" => {
                col(&|r| r.secs("workloads.generate") + r.secs("workloads.arrivals"))
            }
            "network.build_s" => col(&secs("network.build")),
            // The allocator keeps freed pages for later repeats to reuse,
            // so the cold (largest) growth is the construction's cost.
            "network.build_rss_mb" => {
                Summary::once(traced.iter().map(|r| r.build_rss_mb).fold(0.0, f64::max))
            }
            "network.metric_bytes" => col(&|r| r.metric_bytes as f64),
            "obs.build_overhead_s" => overhead("network.build"),
            "obs.sim_overhead_s" => overhead("sim"),
            "network.poll_s" => col(&|r| calls(r).poll_ns as f64 * 1e-9),
            "network.polls" => col(&|r| calls(r).polls as f64),
            "network.send_s" => col(&|r| calls(r).send_ns as f64 * 1e-9),
            "network.sends" => col(&|r| calls(r).sends as f64),
            "network.events" => col(&|r| r.events as f64),
            "network.ns_per_event" => {
                col(&|r| (calls(r).poll_ns + calls(r).send_ns) as f64 / r.events as f64)
            }
            "network.packets_delivered" => col(&|r| r.packets_delivered as f64),
            "network.arrivals_coalesced" => col(&|r| r.arrivals_coalesced as f64),
            "routing.adaptive_ns_per_route"
            | "routing.minimal_ns_per_route"
            | "engine.queue_ns_per_op" => Summary::once(unit_cost(name)),
            "engine.queue_depth" => Summary::once(counts.queue_high_water as f64),
            "obs.events.inject" => Summary::once(counts.events[0] as f64),
            "obs.events.txdone" => Summary::once(counts.events[1] as f64),
            "obs.events.arrive" => Summary::once(counts.events[2] as f64),
            "obs.events.wakeup" => Summary::once(counts.events[3] as f64),
            "route.minimal_taken" => Summary::once(counts.minimal_taken as f64),
            "route.nonminimal_taken" => Summary::once(counts.nonminimal_taken as f64),
            "driver.self_s" => col(&|r| calls(r).gap_ns as f64 * 1e-9),
            "driver.self_share" => col(&|r| calls(r).gap_ns as f64 * 1e-9 / r.secs("sim")),
            // Step latency from the untraced repeats: a user's view.
            "service.step_p50_ms" => step_percentile(plain, 50.0),
            "service.step_p90_ms" => step_percentile(plain, 90.0),
            "service.drain_s" => col(&secs("service.drain")),
            "service.peak_active_jobs" => col(&|r| r.service_state.map_or(0.0, |s| s.0 as f64)),
            "service.job_slots" => col(&|r| r.service_state.map_or(0.0, |s| s.1 as f64)),
            "pdes.cpu_per_wall" => col(&|r| r.sim_cpu_s / r.secs("sim")),
            "pdes.workers2_cpu_per_wall" => of(workers2, &|r| r.sim_cpu_s / r.secs("sim")),
            "pdes.workers2_speedup" => Summary::once(if workers2.is_empty() {
                0.0
            } else {
                of(traced, &secs("sim")).median / of(workers2, &secs("sim")).median
            }),
            "shard.finish_s" => col(&secs("shard.finish")),
            "pdes.schedule_deviation" => Summary::once(deviation),
            "finalize_s" => col(&secs("finalize")),
            "network.metrics_s" => col(&secs("network.metrics")),
            "obs.report_s" => col(&secs("obs.report")),
            "stats.cdf_s" => col(&secs("stats.cdf")),
            "stats.slo_s" => col(&secs("stats.slo")),
            "trace.overhead_share" => Summary::once(
                of(traced, &secs("run")).median / of(plain, &secs("run")).median - 1.0,
            ),
            "trace.split_coverage" => col(&|r| {
                let c = calls(r);
                (c.poll_ns + c.send_ns + c.gap_ns) as f64 * 1e-9 / r.secs("sim")
            }),
            other => unreachable!("per-layer metric without a value: {other}"),
        })
        .collect()
}
