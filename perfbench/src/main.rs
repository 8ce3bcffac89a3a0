//! Command-line entry point: run one workload, write its manifest, and
//! print the result as the last line of standard output.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```

use dfly_perfbench::bench::{Bench, Outcome};
use dfly_perfbench::host;
use dfly_perfbench::report::{json_arr, json_num, json_obj, json_str};
use dfly_perfbench::workload::{Machine, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload theta_pdes1|canonic_131k|service_stream \
                     --seed N --seconds S --trace 0|1 [--out DIR]";

struct Args {
    bench: Bench,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                })
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        bench: Bench {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            machine: Machine::Reference,
        },
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// The run manifest: host, revision, seeds, event counts, every metric's
/// median, quartiles and sample count, and every check.
fn manifest(args: &Args, o: &Outcome) -> String {
    let b = &args.bench;
    let metrics = json_obj(o.metrics.iter().map(|(name, unit, s)| {
        (
            *name,
            json_obj([
                ("unit", json_str(unit)),
                ("median", json_num(s.median)),
                ("q1", json_num(s.q1)),
                ("q3", json_num(s.q3)),
                ("n", s.n.to_string()),
            ]),
        )
    }));
    let checks = json_arr(o.checks.iter().map(|c| {
        json_obj([
            ("name", json_str(&c.name)),
            ("ok", c.ok.to_string()),
            ("detail", json_str(&c.detail)),
        ])
    }));
    let calibration = json_obj(o.calibrations.iter().map(|(window, c)| {
        (
            *window,
            json_obj([
                ("table_mb", host::TABLE_MB.to_string()),
                ("kernel_median_s", json_num(c.median_s())),
                ("nominal_s", json_num(host::Calibration::NOMINAL_S)),
                ("readings", c.len().to_string()),
                ("factor", json_num(c.factor())),
            ]),
        )
    }));
    let revision = host::git_revision(Path::new("."));
    json_obj([
        ("workload", json_str(b.workload.name())),
        ("trace", args.trace.to_string()),
        ("seed", b.seed.to_string()),
        ("default_seed", b.workload.default_seed().to_string()),
        ("config_seed", o.config_seed.to_string()),
        ("seconds", json_num(b.seconds)),
        (
            "host",
            json_obj([
                ("nproc", host::nproc().to_string()),
                (
                    "git_revision",
                    revision.map_or("null".into(), |r| json_str(&r)),
                ),
            ]),
        ),
        ("calibration", calibration),
        (
            "pinned_cpu",
            o.pinned_cpu.map_or("null".into(), |c| c.to_string()),
        ),
        ("events", json_arr(o.events.iter().map(u64::to_string))),
        ("attempted", o.checks.len().to_string()),
        (
            "failed",
            o.checks.iter().filter(|c| !c.ok).count().to_string(),
        ),
        ("checks", checks),
        ("metrics", metrics),
    ])
}

fn write_outputs(args: &Args, o: &Outcome) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&args.out)?;
    let stem = format!(
        "{}-trace{}",
        args.bench.workload.name(),
        u8::from(args.trace)
    );
    let path = args.out.join(format!("{stem}-manifest.json"));
    std::fs::write(&path, manifest(args, o) + "\n")?;
    if let Some(spans) = &o.spans_json {
        std::fs::write(
            args.out.join(format!("{stem}-spans.json")),
            spans.clone() + "\n",
        )?;
    }
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        args.bench.traced()
    } else {
        args.bench.timed()
    };
    for c in &outcome.checks {
        if !c.ok {
            eprintln!("FAILED {}: {}", c.name, c.detail);
        }
    }
    for (name, unit, s) in &outcome.metrics {
        eprintln!(
            "{name:>32} = {:>14.6} {unit:<6} [q1 {:.6}, q3 {:.6}, n {}]",
            s.median, s.q1, s.q3, s.n
        );
    }
    match write_outputs(&args, &outcome) {
        Ok(path) => eprintln!("manifest: {}", path.display()),
        Err(e) => eprintln!(
            "cannot write the manifest under {}: {e}",
            args.out.display()
        ),
    }
    let failed = outcome.checks.iter().filter(|c| !c.ok).count();
    let metrics = json_obj(outcome.metrics.iter().map(|(name, unit, s)| {
        (
            *name,
            json_obj([("value", json_num(s.median)), ("unit", json_str(unit))]),
        )
    }));
    println!(
        "{}",
        json_obj([
            ("correct", outcome.correct().to_string()),
            ("attempted", outcome.checks.len().to_string()),
            ("failed", failed.to_string()),
            ("metrics", metrics),
        ])
    );
    ExitCode::SUCCESS
}
