//! Event-throughput gate: how much does `--obs` cost?
//!
//! Runs three fixed fig3 cells (CrystalRouter at scale 0.25, seed
//! 0x5EED) with telemetry off and on, interleaved A/B so machine drift
//! hits both sides equally, and reports the median events/sec of each
//! side. Two cells run on the 768-node quick machine (cont-min and
//! rand-adp); the third (cont-adp) runs on the 65-group canonic machine
//! `canonical(4,8,8,65)` (2,080 nodes, ~12k channels), so the gate also
//! covers a machine where almost every channel stays idle and a window
//! sweep that scaled with machine size would show. Two artifacts:
//!
//! * `obs_sampling_delta.csv` — one row per cell with the off/on medians
//!   and their ratio (the ISSUE 6 acceptance number: on/off <= 1.15x at
//!   the default stride).
//! * `BENCH_event_rate.json` — the same numbers in the machine-readable
//!   form CI archives per commit.
//!
//! `--gate RATIO` exits nonzero when any cell's obs-on slowdown exceeds
//! the ratio — the instrumented smoke job runs with `--gate 1.25`.
//!
//! Every obs-on run is also checked bit-identical to its obs-off twin
//! (same comm times), so the gate doubles as a determinism smoke test.

use dfly_bench::harness::{Mode, RunArgs, TopoSpec};
use dfly_core::config::{ExperimentConfig, RoutingPolicy};
use dfly_core::report::ConfigLabel;
use dfly_core::runner::{execute_experiment_with_arena, prepare_topology};
use dfly_network::SimArena;
use dfly_placement::PlacementPolicy;
use dfly_workloads::AppKind;
use std::time::Instant;

/// The fixed workload: deliberately NOT configurable (except stride and
/// clock, the knobs under test) so the JSON is comparable across commits.
const SEED: u64 = 0x5EED;
const SCALE: f64 = 0.25;

struct Cli {
    args: RunArgs,
    trials: usize,
    gate: Option<f64>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        args: RunArgs::new(Mode::Quick, "results"),
        trials: 5,
        gate: None,
    };
    cli.args.scale = SCALE;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => {
                cli.args.out_dir = args.next().expect("--out needs a directory").into();
            }
            "--trials" => {
                let v = args.next().expect("--trials needs a count");
                cli.trials = v.parse().expect("--trials needs an integer");
                assert!(cli.trials >= 1, "--trials must be >= 1");
            }
            "--gate" => {
                let v = args.next().expect("--gate needs a ratio");
                let g: f64 = v.parse().expect("--gate needs a number");
                assert!(g > 0.0, "--gate must be positive");
                cli.gate = Some(g);
            }
            "--obs-stride" => {
                let v = args.next().expect("--obs-stride needs a count");
                cli.args.obs_stride = Some(v.parse().expect("--obs-stride needs an integer"));
                assert!(cli.args.obs_stride != Some(0), "--obs-stride must be >= 1");
            }
            "--obs-coarse" => cli.args.obs_coarse = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: [--out DIR] [--trials N] [--gate RATIO] [--obs-stride N] [--obs-coarse]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    cli
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

struct CellOutcome {
    label: String,
    off_evps: f64,
    on_evps: f64,
    events: u64,
}

impl CellOutcome {
    fn ratio(&self) -> f64 {
        self.off_evps / self.on_evps
    }
}

/// The 65-group canonic machine of the third cell.
const CANONIC65: TopoSpec = TopoSpec::Canonical {
    p: 4,
    a: 8,
    h: 8,
    g: 65,
};

/// The fixed cells: a label and the obs-off config of each.
fn cells(args: &RunArgs) -> Vec<(String, ExperimentConfig)> {
    let cell = |topo: Option<TopoSpec>, placement, routing| {
        let mut a = args.clone();
        a.topo = topo;
        let mut cfg = a.base_config(AppKind::CrystalRouter);
        cfg.seed = SEED;
        cfg.placement = placement;
        cfg.routing = routing;
        let label = ConfigLabel { placement, routing }.to_string();
        match topo {
            Some(_) => (format!("canonic65-{label}"), cfg),
            None => (label, cfg),
        }
    };
    vec![
        cell(None, PlacementPolicy::Contiguous, RoutingPolicy::Minimal),
        cell(None, PlacementPolicy::RandomNode, RoutingPolicy::Adaptive),
        cell(
            Some(CANONIC65),
            PlacementPolicy::Contiguous,
            RoutingPolicy::Adaptive,
        ),
    ]
}

fn main() {
    let cli = parse_cli();
    let stride = {
        let mut probe = cli.args.clone();
        probe.obs = true;
        probe.base_config(AppKind::CrystalRouter).network.obs_stride
    };
    println!(
        "Event-rate A/B: CrystalRouter quick, scale {SCALE}, seed {SEED:#x}, \
         stride {stride}, coarse clock {}, {} trials/side",
        cli.args.obs_coarse, cli.trials
    );

    let mut arena = SimArena::new();
    let mut outcomes = Vec::new();
    for (label, off_cfg) in cells(&cli.args) {
        let topo = prepare_topology(&off_cfg);
        let mut on_cfg = off_cfg.clone();
        on_cfg.network.obs = true;
        if let Some(s) = cli.args.obs_stride {
            on_cfg.network.obs_stride = s;
        }
        on_cfg.network.obs_coarse_clock = cli.args.obs_coarse;

        // Warmup pair: populate the arena, fault in code and topology.
        let warm_off = execute_experiment_with_arena(&off_cfg, topo.clone(), &mut arena);
        let warm_on = execute_experiment_with_arena(&on_cfg, topo.clone(), &mut arena);
        assert_eq!(
            warm_off.rank_comm_times, warm_on.rank_comm_times,
            "obs-on run diverged from obs-off"
        );

        let mut off_rates = Vec::with_capacity(cli.trials);
        let mut on_rates = Vec::with_capacity(cli.trials);
        for _ in 0..cli.trials {
            let t0 = Instant::now();
            let off = execute_experiment_with_arena(&off_cfg, topo.clone(), &mut arena);
            off_rates.push(off.events as f64 / t0.elapsed().as_secs_f64());
            let t1 = Instant::now();
            let on = execute_experiment_with_arena(&on_cfg, topo.clone(), &mut arena);
            on_rates.push(on.events as f64 / t1.elapsed().as_secs_f64());
            assert_eq!(off.events, warm_off.events, "run not deterministic");
            assert_eq!(on.events, warm_off.events, "obs-on changed the event count");
        }
        let outcome = CellOutcome {
            label,
            off_evps: median(&mut off_rates),
            on_evps: median(&mut on_rates),
            events: warm_off.events,
        };
        println!(
            "{:>10}: obs-off {:.2} Mev/s, obs-on {:.2} Mev/s, on/off {:.3}x ({} events/run)",
            outcome.label,
            outcome.off_evps / 1e6,
            outcome.on_evps / 1e6,
            outcome.ratio(),
            outcome.events,
        );
        outcomes.push(outcome);
    }

    let mut csv = cli.args.csv(
        "obs_sampling_delta.csv",
        &[
            "scenario",
            "trials",
            "obs_off_median_evps",
            "obs_on_median_evps",
            "obs_on_over_off",
            "stride",
        ],
    );
    for o in &outcomes {
        csv.row(&[
            o.label.clone(),
            cli.trials.to_string(),
            format!("{:.0}", o.off_evps),
            format!("{:.0}", o.on_evps),
            format!("{:.4}", o.ratio()),
            stride.to_string(),
        ])
        .expect("csv write");
    }
    csv.finish().expect("csv flush");

    // Hand-formatted JSON: the workspace has no serde, and the schema is
    // three flat fields per scenario.
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": \"crystalrouter scale {SCALE} seed {SEED:#x}; quick machine, \
         canonic65 = canonical(4,8,8,65)\",\n"
    ));
    json.push_str(&format!("  \"stride\": {stride},\n"));
    json.push_str(&format!("  \"coarse_clock\": {},\n", cli.args.obs_coarse));
    json.push_str(&format!("  \"trials\": {},\n", cli.trials));
    json.push_str("  \"scenarios\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"events\": {}, \"obs_off_evps\": {:.0}, \
             \"obs_on_evps\": {:.0}, \"obs_on_over_off\": {:.4}}}{}\n",
            o.label,
            o.events,
            o.off_evps,
            o.on_evps,
            o.ratio(),
            if i + 1 < outcomes.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let json_path = cli.args.out_dir.join("BENCH_event_rate.json");
    std::fs::write(&json_path, json).unwrap_or_else(|e| panic!("cannot write {json_path:?}: {e}"));
    println!(
        "Wrote {} and {}",
        cli.args.out_dir.join("obs_sampling_delta.csv").display(),
        json_path.display()
    );

    if let Some(gate) = cli.gate {
        let worst = outcomes
            .iter()
            .max_by(|a, b| a.ratio().partial_cmp(&b.ratio()).expect("finite"))
            .expect("at least one cell");
        if worst.ratio() > gate {
            eprintln!(
                "FAIL: {} obs-on slowdown {:.3}x exceeds the {:.2}x gate",
                worst.label,
                worst.ratio(),
                gate
            );
            std::process::exit(1);
        }
        println!(
            "gate {:.2}x: ok (worst cell {} at {:.3}x)",
            gate,
            worst.label,
            worst.ratio()
        );
    }
}
