//! Metric lines and the final JSON result line.

use std::fmt::Write as _;

use crate::common::{median, peak_rss_mb, percentile, Opts, Outcome};
use crate::trace;

/// Span names of the layers the traced run reports, each as `<name>_s`
/// (self time) and `<name>_share` (self time over the traced wall in
/// thread-seconds). A layer a workload never calls reports 0.
const LAYERS: [&str; 24] = [
    // Set-up.
    "domino.parse",
    "p4.parse",
    "p4.lower",
    "chipmunk.compile",
    "dgen.lanes.lower",
    // Oracles.
    "chipmunk.spec",
    "chipmunk.spec_new",
    "p4.exec",
    // Pipelines under test.
    "dgen.generate",
    "dsim.sim",
    "dgen.lanes.step",
    "dgen.mat.generate",
    "dgen.mat.exec",
    "drmt.schedule",
    "drmt.exec",
    // Harness layers.
    "dsim.traffic",
    "core.trace.compare",
    "dsim.verify.harness",
    "dsim.verify.scalar",
    "dsim.minimize",
    "dsim.fault.inject",
    "analysis.flag",
    "analysis.equiv",
    "dsim.snapshot.save",
];

/// Counters the traced run reports as they are.
const COUNTS: [(&str, &str); 7] = [
    ("chipmunk.spec_phvs", "count"),
    ("p4.exec_packets", "count"),
    ("dsim.sim_phvs", "count"),
    ("dgen.lanes.cases", "count"),
    ("dgen.generate_calls", "count"),
    ("dsim.minimize_calls", "count"),
    ("dsim.snapshot.bytes", "bytes"),
];

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn end_to_end(unit: &str, opts: &Opts, o: &Outcome) -> Metrics {
    let mut m = Metrics(Vec::new());
    m.push("setup_s", median(&o.setup_s), "s");
    m.push("checked_per_s", o.throughput(), "1/s");
    m.push("peak_rss_mb", peak_rss_mb(), "MB");

    // The workload's own name for its throughput, and the rest of the
    // eight end-to-end metrics, for the log.
    let rates = o.cycle_rates();
    println!(
        "{:<16} = {:.6} s (median of {} set-ups: {:?})",
        "setup_s",
        median(&o.setup_s),
        o.setup_s.len(),
        o.setup_s
    );
    for (_, name) in crate::WORKLOADS {
        if name == unit {
            println!(
                "{name:<16} = {:.1} 1/s (median of {} cycles; quartiles {:.1} .. {:.1}; seed {:#x})",
                o.throughput(),
                rates.len(),
                percentile(&rates, 25.0),
                percentile(&rates, 75.0),
                opts.seed
            );
            let cycles: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
            println!("{:<16}   per cycle: {}", "", cycles.join(" "));
        } else {
            println!("{name:<16} = n/a (another workload's unit)");
        }
    }
    match o.detection_rate {
        Some(r) => println!("{:<16} = {r:.4} ratio", "detection_rate"),
        None => println!("{:<16} = n/a (mutant_hunt only)", "detection_rate"),
    }
    println!(
        "{:<16} = {:.6} ratio ({} failed of {} checked)",
        "error_rate",
        ratio(o.failed as f64, o.attempted as f64),
        o.failed,
        o.attempted
    );
    println!("{:<16} = {:.1} MB", "peak_rss_mb", peak_rss_mb());
    m
}

fn per_layer(o: &Outcome) -> Metrics {
    let (layers, counts, capacity) = trace::snapshot();
    let mut m = Metrics(Vec::new());
    let mut attributed = 0.0;
    for name in LAYERS {
        let self_s = layers.get(name).copied().unwrap_or(0.0);
        attributed += self_s;
        m.push(format!("{name}_s"), self_s, "s");
        m.push(
            format!("{name}_share"),
            ratio(self_s, capacity.thread_s),
            "ratio",
        );
    }
    for (name, unit) in COUNTS {
        m.push(name, counts.get(name).copied().unwrap_or(0.0), unit);
    }
    let c = |k: &str| counts.get(k).copied().unwrap_or(0.0);
    m.push(
        "analysis.flagged_ratio",
        ratio(c("analysis.flagged"), c("analysis.flag_calls")),
        "ratio",
    );
    m.push(
        "dsim.fault.neutral_ratio",
        ratio(c("dsim.fault.neutral"), c("dsim.fault.screened")),
        "ratio",
    );
    let idle = (capacity.pool_thread_s - capacity.pool_busy_s).max(0.0);
    m.push(
        "dsim.runtime.utilization",
        ratio(capacity.pool_busy_s, capacity.pool_thread_s),
        "ratio",
    );
    m.push("dsim.runtime.idle_s", idle, "s");
    m.push("trace.wall_s", capacity.wall_s, "s");
    m.push("trace.thread_s", capacity.thread_s, "s");
    m.push("unattributed_s", capacity.thread_s - attributed - idle, "s");
    let overhead = o.traced_s.map_or(0.0, |t| ratio(t, o.measured_s()) - 1.0);
    m.push("trace.overhead", overhead, "ratio");

    // Per-evaluation latency of a hunt: the median, and the highest of
    // a few percentiles that leaves at least ten samples beyond it.
    let n = o.eval_s.len() as f64;
    let tail = [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    m.push("hunt.eval_p50_ms", percentile(&o.eval_s, 50.0) * 1e3, "ms");
    m.push("hunt.eval_tail_ms", percentile(&o.eval_s, tail) * 1e3, "ms");
    m.push("hunt.eval_tail_pct", if n > 0.0 { tail } else { 0.0 }, "%");
    m.push("hunt.eval_samples", n, "count");
    m
}

/// Print the metric lines and the final JSON line.
pub fn print(workload: &str, unit: &str, opts: &Opts, o: &Outcome) {
    println!(
        "workload {workload} (seed {:#x}, {} workers)",
        opts.seed, opts.workers
    );
    for f in &o.failures {
        println!("FAILED: {f}");
    }
    let metrics = if opts.trace {
        let m = per_layer(o);
        for (name, value, unit) in &m.0 {
            println!("{name:<28} = {value:.6} {unit}");
        }
        m
    } else {
        end_to_end(unit, opts, o)
    };
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.failed == 0 && o.attempted > 0,
        o.attempted.max(1),
        o.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
}
