//! Smoke test on the 64-node `small_test` machine: every metric that
//! `BENCHMARK.json` names is emitted with its unit, every check passes, and
//! the decomposed pipeline reproduces the library entry points.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use dfly_core::config::Parallelism;
use dfly_perfbench::bench::{decomposed_run, library_run, Bench, Outcome};
use dfly_perfbench::pipeline::Clock;
use dfly_perfbench::report::{END_TO_END, PER_LAYER};
use dfly_perfbench::workload::{Machine, Workload};

/// `(name, unit)` of each entry of one metric list in `BENCHMARK.json`
/// (`unit` is empty for workload entries). The file keeps one flat object
/// per entry, which is all this reader handles.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let key = format!("\"{section}\"");
    let start = text.find(&key).expect("section present") + key.len();
    let body = &text[start..];
    let body = &body[body.find('[').expect("a list")..body.find(']').expect("closed list")];
    let field = |obj: &str, name: &str| -> String {
        let key = format!("\"{name}\"");
        obj.find(&key)
            .map(|i| {
                let rest = &obj[i + key.len()..];
                let open = rest.find('"').expect("string value") + 1;
                let len = rest[open..].find('"').expect("closed string");
                rest[open..open + len].to_string()
            })
            .unwrap_or_default()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn names(defs: &[(&str, &str)]) -> Vec<(String, String)> {
    defs.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn small(workload: Workload) -> Bench {
    Bench {
        workload,
        seed: 0,
        seconds: 0.0,
        machine: Machine::SmallTest,
    }
}

fn assert_emits(o: &Outcome, defs: &[(&str, &str)]) {
    let failed: Vec<_> = o.checks.iter().filter(|c| !c.ok).collect();
    assert!(failed.is_empty(), "failed checks: {failed:#?}");
    assert!(o.checks.len() >= 5, "too few checks: {:#?}", o.checks);
    let emitted: Vec<(String, String)> = o
        .metrics
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(emitted, names(defs));
    for (name, _, s) in &o.metrics {
        assert!(s.median.is_finite(), "{name} = {}", s.median);
    }
}

#[test]
fn benchmark_json_declares_the_emitted_metrics_and_workloads() {
    assert_eq!(declared("end_to_end"), names(END_TO_END));
    assert_eq!(declared("per_layer"), names(PER_LAYER));
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn decomposition_matches_the_library_entry_points() {
    for w in Workload::ALL {
        let sc = w.scenario(3, Machine::SmallTest);
        let mut lib = sc.clone();
        if w == Workload::ThetaPdes1 {
            *lib.parallelism_mut() = Parallelism::IntraRun(2);
        }
        let reference = library_run(&lib);
        assert!(reference.nonzero, "{}", w.name());
        for (traced, clock) in [(false, Clock::Cpu), (true, Clock::Wall)] {
            let rec = decomposed_run(&sc, traced, clock);
            assert_eq!(rec.digest, reference.digest, "{} traced={traced}", w.name());
            assert_eq!(rec.events, reference.events, "{}", w.name());
            assert!(rec.delivered_bytes > 0, "{}", w.name());
        }
    }
}

#[test]
fn timed_runs_emit_every_end_to_end_metric() {
    for w in Workload::ALL {
        let o = small(w).timed();
        assert_emits(&o, END_TO_END);
        for (name, _, s) in &o.metrics {
            assert!(s.median > 0.0, "{}: {name} reads 0", w.name());
        }
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    for w in Workload::ALL {
        let o = small(w).traced();
        assert_emits(&o, PER_LAYER);
        let v = |name| o.value(name).expect("emitted");
        assert!(v("network.polls") > 0.0, "{}", w.name());
        assert!(v("engine.queue_depth") > 0.0, "{}", w.name());
        assert!(v("routing.adaptive_ns_per_route") > 0.0);
        let coverage = v("trace.split_coverage");
        assert!((0.9..=1.01).contains(&coverage), "{}: {coverage}", w.name());
        if w == Workload::ServiceStream {
            assert!(v("service.peak_active_jobs") >= 1.0);
            assert!(v("service.step_p90_ms") >= v("service.step_p50_ms"));
            assert!(v("service.step_p50_ms") > 0.0);
        }
        if w == Workload::Canonic131k {
            assert!(v("obs.events.arrive") > 0.0);
        }
    }
}
