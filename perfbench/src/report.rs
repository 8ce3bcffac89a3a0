//! Metric names, summaries and the JSON the benchmark writes.

use dfly_stats::BoxStats;

/// End-to-end metrics (untraced runs), with units. Times are process CPU
/// time of a run pinned to one CPU, scaled to nominal host speed.
pub const END_TO_END: &[(&str, &str)] = &[
    ("run_s", "s"),
    ("setup_s", "s"),
    ("sim_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), with units. A metric that does not
/// apply to a workload (no telemetry, no shards, no stream) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_s", "s"),
    ("placement.allocate_s", "s"),
    ("workloads.generate_s", "s"),
    ("network.build_s", "s"),
    ("network.build_rss_mb", "MB"),
    ("network.metric_bytes", "bytes"),
    ("obs.build_overhead_s", "s"),
    ("obs.sim_overhead_s", "s"),
    ("network.poll_s", "s"),
    ("network.polls", "count"),
    ("network.send_s", "s"),
    ("network.sends", "count"),
    ("network.events", "count"),
    ("network.ns_per_event", "ns"),
    ("network.packets_delivered", "count"),
    ("network.arrivals_coalesced", "count"),
    ("routing.adaptive_ns_per_route", "ns"),
    ("routing.minimal_ns_per_route", "ns"),
    ("engine.queue_depth", "count"),
    ("engine.queue_ns_per_op", "ns"),
    ("obs.events.inject", "count"),
    ("obs.events.txdone", "count"),
    ("obs.events.arrive", "count"),
    ("obs.events.wakeup", "count"),
    ("route.minimal_taken", "count"),
    ("route.nonminimal_taken", "count"),
    ("driver.self_s", "s"),
    ("driver.self_share", "ratio"),
    ("service.step_p50_ms", "ms"),
    ("service.step_p90_ms", "ms"),
    ("service.drain_s", "s"),
    ("service.peak_active_jobs", "count"),
    ("service.job_slots", "count"),
    ("pdes.cpu_per_wall", "ratio"),
    ("pdes.workers2_cpu_per_wall", "ratio"),
    ("pdes.workers2_speedup", "ratio"),
    ("shard.finish_s", "s"),
    ("pdes.schedule_deviation", "ratio"),
    ("finalize_s", "s"),
    ("network.metrics_s", "s"),
    ("obs.report_s", "s"),
    ("stats.cdf_s", "s"),
    ("stats.slo_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.split_coverage", "ratio"),
];

/// Median and quartiles of a metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples behind the value.
    pub n: usize,
}

impl Summary {
    /// Summarize `samples` (non-finite ones dropped): median and quartiles
    /// as [`BoxStats`] gives them. No samples gives 0.
    pub fn of(samples: &[f64]) -> Summary {
        let finite: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        match BoxStats::from_samples(&finite) {
            Some(b) => Summary {
                median: b.median,
                q1: b.q1,
                q3: b.q3,
                n: b.n,
            },
            None => Summary {
                median: 0.0,
                q1: 0.0,
                q3: 0.0,
                n: 0,
            },
        }
    }

    /// A single exact value (a count, or a reading taken once).
    pub fn once(value: f64) -> Summary {
        Summary::of(&[value])
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of `x` (non-finite values become 0).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A JSON object from already-encoded values.
pub fn json_obj<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON array from already-encoded values.
pub fn json_arr(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_obj([("k", json_num(1.5))]), "{\"k\": 1.5}");
    }
}
