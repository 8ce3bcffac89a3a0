//! Golden-run regression suite: the figure pipelines and the rank-execution
//! drivers, end to end, against committed reference CSVs.
//!
//! Each figure test drives a real reproduction pipeline **in-process** (the
//! same `dfly_bench::figures` code the binaries call) at `--quick --scale
//! 0.05` with the default seed (0x5EED), then compares the produced CSV
//! **byte-for-byte** against the golden copy in `tests/golden/`. Any
//! behavioral drift anywhere in the stack — engine event ordering, routing
//! scores, placement draws, workload traces, stats formatting — shows up
//! as a byte diff here before it can silently reshape a figure.
//!
//! The driver tests do the same for the paths the figures do not reach,
//! on the 64-node test machine: a multi-job co-run, a co-run with
//! background traffic and the load sampler, a FCFS scheduler stream, and
//! an EASY-backfill service stream on the serial and the sharded engine.
//! Each renders every per-rank or per-job number it gets back (floats in
//! shortest round-trip form) so that any change in send order or phase
//! bookkeeping shows as a byte diff.
//!
//! ## Updating the goldens
//!
//! When a change *intentionally* alters results (a model fix, a new
//! default), regenerate the references and commit the diff:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test golden_figures
//! git diff tests/golden/   # review: every changed number is a changed result
//! ```
//!
//! The tests never write to `tests/golden/` unless `UPDATE_GOLDENS=1` is
//! set, and they fail (not update) on any mismatch otherwise.

use dfly_bench::figures;
use dfly_bench::{Mode, RunArgs};
use dfly_core::config::{AppSelection, Parallelism, RoutingPolicy};
use dfly_core::mpi::{BackgroundRunner, JobResult, MultiDriver};
use dfly_core::multijob::{run_multijob, JobSpec, MultiJobConfig};
use dfly_core::scheduler::{run_schedule, SchedulerConfig, Submission};
use dfly_core::service::{
    run_service, AdmissionPolicy, ServiceConfig, ServiceJob, ServiceSubmission,
};
use dfly_engine::Ns;
use dfly_network::{Network, NetworkParams};
use dfly_placement::PlacementPolicy;
use dfly_topology::{NodeId, Topology, TopologyConfig};
use dfly_workloads::{
    generate, poisson_arrivals, AppKind, ArrivalPlan, BackgroundSpec, BackgroundTraffic,
    WorkloadSpec,
};
use std::fmt::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The scale keeping a full ten-config grid per app affordable in a debug
/// test run while still exercising every pipeline stage.
const GOLDEN_SCALE: f64 = 0.05;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn run_args(out_tag: &str) -> RunArgs {
    let out = std::env::temp_dir().join(format!("dfly_golden_{out_tag}"));
    let _ = std::fs::remove_dir_all(&out);
    let mut args = RunArgs::new(Mode::Quick, out);
    args.scale = GOLDEN_SCALE;
    args
}

/// Byte-for-byte comparison of a pipeline's CSV file against its golden
/// copy, or regeneration under `UPDATE_GOLDENS=1`.
fn assert_matches_golden(produced: &Path, name: &str) {
    let produced_bytes =
        std::fs::read(produced).unwrap_or_else(|e| panic!("pipeline wrote no {produced:?}: {e}"));
    assert_bytes_match_golden(&produced_bytes, name);
}

/// Byte-for-byte comparison of produced bytes against a golden copy, or
/// regeneration under `UPDATE_GOLDENS=1`.
fn assert_bytes_match_golden(produced_bytes: &[u8], name: &str) {
    let golden_path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&golden_path, produced_bytes).unwrap();
        eprintln!("updated golden {golden_path:?}");
        return;
    }
    let golden_bytes = std::fs::read(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden {golden_path:?} ({e}); \
             run `UPDATE_GOLDENS=1 cargo test --test golden_figures` and commit it"
        )
    });
    if produced_bytes != golden_bytes {
        // Find the first differing line for a readable failure.
        let produced_text = String::from_utf8_lossy(produced_bytes);
        let golden_text = String::from_utf8_lossy(&golden_bytes);
        let mut detail = String::from("(no line-level diff: lengths differ in trailing data)");
        for (i, (p, g)) in produced_text.lines().zip(golden_text.lines()).enumerate() {
            if p != g {
                detail = format!(
                    "first diff at line {}:\n  golden:   {g}\n  produced: {p}",
                    i + 1
                );
                break;
            }
        }
        panic!(
            "{name} drifted from the golden reference ({} vs {} bytes)\n{detail}\n\
             If this change is intentional, regenerate with \
             `UPDATE_GOLDENS=1 cargo test --test golden_figures` and commit the diff.",
            produced_bytes.len(),
            golden_bytes.len(),
        );
    }
}

#[test]
fn fig3_pipeline_matches_golden() {
    let args = run_args("fig3");
    figures::fig3(&args);
    assert_matches_golden(
        &args.out_dir.join("fig3_comm_time.csv"),
        "fig3_comm_time.csv",
    );
    let _ = std::fs::remove_dir_all(&args.out_dir);
}

/// The streaming-metrics fig3 pipeline cannot be compared against the
/// dense goldens (its CDF sinks legitimately retain a reservoir subset),
/// but it must still be perfectly reproducible: two runs with the same
/// seed — telemetry on, so the obs sinks and the link digest are in play
/// — must produce byte-identical copies of every CSV artifact.
#[test]
fn fig3_streaming_pipeline_is_byte_reproducible() {
    use dfly_obs::MetricsMode;
    let run = |tag: &str| {
        let mut args = run_args(tag);
        args.obs = true;
        args.metrics = Some(MetricsMode::Streaming { reservoir_k: 64 });
        figures::fig3(&args);
        args.out_dir
    };
    let a = run("fig3_stream_a");
    let b = run("fig3_stream_b");
    let mut names: Vec<String> = std::fs::read_dir(&a)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        // The event-loop profile reports wall-clock throughput
        // (`events_per_sec`), which legitimately varies run to run;
        // every other sink is pure simulated-time data.
        .filter(|n| !n.starts_with("obs_profile"))
        .collect();
    names.sort();
    assert!(
        names.iter().any(|n| n.starts_with("obs_link_digest")),
        "streaming digest sink missing: {names:?}"
    );
    for name in &names {
        let ba = std::fs::read(a.join(name)).unwrap();
        let bb = std::fs::read(b.join(name))
            .unwrap_or_else(|e| panic!("second run did not write {name}: {e}"));
        assert_eq!(ba, bb, "{name} differs between identically-seeded runs");
    }
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

#[test]
fn table2_pipeline_matches_golden() {
    let args = run_args("table2");
    figures::table2(&args);
    assert_matches_golden(
        &args.out_dir.join("table2_background_load.csv"),
        "table2_background_load.csv",
    );
    let _ = std::fs::remove_dir_all(&args.out_dir);
}

/// `job,rank,comm_time_ns,avg_hops` rows for a driver's per-job results.
fn job_rows(out: &mut String, results: &[&JobResult]) {
    out.push_str("job,rank,comm_time_ns,avg_hops\n");
    for (job, r) in results.iter().enumerate() {
        for (rank, (t, h)) in r.rank_comm_time.iter().zip(&r.rank_avg_hops).enumerate() {
            writeln!(out, "{job},{rank},{},{h}", t.as_nanos()).unwrap();
        }
    }
}

#[test]
fn multijob_corun_matches_golden() {
    let job = |app, placement, msg_scale| JobSpec {
        app,
        placement,
        msg_scale,
    };
    let r = run_multijob(&MultiJobConfig {
        topology: TopologyConfig::small_test(),
        network: NetworkParams::default(),
        routing: RoutingPolicy::Adaptive,
        jobs: vec![
            job(
                AppSelection::CrystalRouter { ranks: 16 },
                PlacementPolicy::RandomNode,
                0.5,
            ),
            job(
                AppSelection::Amg { ranks: 27 },
                PlacementPolicy::RandomNode,
                1.0,
            ),
            job(
                AppSelection::FillBoundary { ranks: 8 },
                PlacementPolicy::Contiguous,
                0.5,
            ),
        ],
        seed: 0xB011,
    });
    let mut out = String::new();
    let results: Vec<&JobResult> = r.jobs.iter().map(|j| &j.result).collect();
    job_rows(&mut out, &results);
    writeln!(out, "makespan_ns,{}", r.makespan.as_nanos()).unwrap();
    assert_bytes_match_golden(out.as_bytes(), "multijob_corun.csv");
}

#[test]
fn multidriver_background_sampler_matches_golden() {
    let topo = Arc::new(Topology::build(TopologyConfig::small_test()));
    let mut net = Network::new(
        topo,
        NetworkParams::default(),
        RoutingPolicy::Adaptive,
        0x51,
    );
    let amg = generate(&WorkloadSpec {
        kind: AppKind::Amg,
        ranks: 8,
        msg_scale: 1.0,
        seed: 4,
    });
    let fb = generate(&WorkloadSpec {
        kind: AppKind::FillBoundary,
        ranks: 8,
        msg_scale: 0.5,
        seed: 5,
    });
    // The two jobs interleave on nodes 0..16; background fills the rest.
    let p_amg: Vec<NodeId> = (0..8).map(|i| NodeId(2 * i)).collect();
    let p_fb: Vec<NodeId> = (0..8).map(|i| NodeId(2 * i + 1)).collect();
    let bg_nodes: Vec<NodeId> = (16..64).map(NodeId).collect();
    let bg = BackgroundRunner::new(
        BackgroundTraffic::new(
            BackgroundSpec::uniform(64 * 1024, Ns::from_us(2), 77),
            bg_nodes.len() as u32,
        ),
        bg_nodes,
    );
    let (results, series) = MultiDriver::new(&mut net, &[(&amg, &p_amg), (&fb, &p_fb)], Some(bg))
        .with_sampler(Ns::from_us(5))
        .run_with_series();
    let mut out = String::new();
    job_rows(&mut out, &results.iter().collect::<Vec<_>>());
    writeln!(
        out,
        "background_messages,{}",
        results[0].background_messages
    )
    .unwrap();
    out.push_str("time_ns,queued_bytes,packets_in_flight\n");
    for ((t, q), p) in series
        .times
        .iter()
        .zip(&series.queued_bytes)
        .zip(&series.packets_in_flight)
    {
        writeln!(out, "{},{q},{p}", t.as_nanos()).unwrap();
    }
    assert_bytes_match_golden(out.as_bytes(), "multidriver_background_sampler.csv");
}

#[test]
fn schedule_fcfs_matches_golden() {
    let sub = |app, placement, arrival_us| Submission {
        job: JobSpec {
            app,
            placement,
            msg_scale: 0.5,
        },
        arrival: Ns::from_us(arrival_us),
    };
    let r = run_schedule(&SchedulerConfig {
        topology: TopologyConfig::small_test(),
        network: NetworkParams::default(),
        routing: RoutingPolicy::Adaptive,
        submissions: vec![
            sub(
                AppSelection::Amg { ranks: 27 },
                PlacementPolicy::Contiguous,
                0,
            ),
            sub(
                AppSelection::CrystalRouter { ranks: 32 },
                PlacementPolicy::RandomNode,
                5,
            ),
            sub(
                AppSelection::FillBoundary { ranks: 8 },
                PlacementPolicy::RandomChassis,
                10,
            ),
            sub(
                AppSelection::Amg { ranks: 8 },
                PlacementPolicy::RandomRouter,
                12,
            ),
            sub(
                AppSelection::CrystalRouter { ranks: 16 },
                PlacementPolicy::RandomCabinet,
                40,
            ),
        ],
        seed: 0x5C4E,
        parallelism: Parallelism::Serial,
    });
    let mut out = String::from("arrival_ns,started_ns,finished_ns,wait_ns,runtime_ns\n");
    for j in &r.jobs {
        writeln!(
            out,
            "{},{},{},{},{}",
            j.submission.arrival.as_nanos(),
            j.started_at.as_nanos(),
            j.finished_at.as_nanos(),
            j.wait.as_nanos(),
            j.runtime.as_nanos()
        )
        .unwrap();
    }
    writeln!(
        out,
        "makespan_ns,{},peak_active_jobs,{},job_slots,{}",
        r.makespan.as_nanos(),
        r.peak_active_jobs,
        r.job_slots
    )
    .unwrap();
    assert_bytes_match_golden(out.as_bytes(), "schedule_fcfs.csv");
}

#[test]
fn service_easy_stream_matches_golden() {
    let arrivals = poisson_arrivals(&ArrivalPlan {
        rate_per_ms: 40.0,
        duration: Ns::from_us(600),
        min_jobs: 24,
        background_share: 0.25,
        min_ranks: 4,
        max_ranks: 32,
        msg_scale: 0.25,
        seed: 0x6EA5,
    });
    let mut cfg = ServiceConfig {
        topology: TopologyConfig::small_test(),
        network: NetworkParams::default(),
        routing: RoutingPolicy::Adaptive,
        admission: AdmissionPolicy::EasyBackfill,
        submissions: arrivals
            .iter()
            .map(|a| ServiceSubmission {
                job: ServiceJob::from_arrival(a),
                arrival: a.at,
            })
            .collect(),
        seed: 0xEA5E,
        parallelism: Parallelism::Serial,
    };
    let mut out = String::new();
    for parallelism in [Parallelism::Serial, Parallelism::IntraRun(2)] {
        cfg.parallelism = parallelism;
        let r = run_service(&cfg);
        writeln!(out, "engine,{}", parallelism.label()).unwrap();
        out.push_str(
            "uid,tenant,label,ranks,arrival_ns,started_ns,finished_ns,placement,groups,blast_radius\n",
        );
        for o in &r.outcomes {
            writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{}",
                o.uid,
                o.tenant,
                o.label,
                o.ranks,
                o.arrival.as_nanos(),
                o.started_at.as_nanos(),
                o.finished_at.as_nanos(),
                o.placement.label(),
                o.groups,
                o.blast_radius
            )
            .unwrap();
        }
        writeln!(
            out,
            "makespan_ns,{},events,{},peak_active_jobs,{},job_slots,{}",
            r.makespan.as_nanos(),
            r.events,
            r.peak_active_jobs,
            r.job_slots
        )
        .unwrap();
    }
    assert_bytes_match_golden(out.as_bytes(), "service_easy_stream.csv");
}
