//! Metric definitions and the `BENCHMARK.json` they generate.

use crate::workload::Workload;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// Printed by every run with `--trace 0`.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("throughput_per_s", "1/s", "higher", 0.25),
    e2e("p50_ms", "ms", "lower", 0.25),
    e2e("tail_ms", "ms", "lower", 0.25),
    e2e("peak_heap_mb", "MB", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Printed by every run with `--trace 1`. A workload that bypasses a
/// layer reports that layer's metrics as 0.
pub const PER_LAYER: [MetricDef; 27] = [
    layer("core.build_ms", "ms", "lower"),
    layer("core.states", "count", "lower"),
    layer("core.transitions", "count", "lower"),
    layer("mdp.compile_ms", "ms", "lower"),
    layer("mdp.scalarize_ms", "ms", "lower"),
    layer("mdp.ratio_ms", "ms", "lower"),
    layer("mdp.ratio_inner_solves", "count", "lower"),
    layer("mdp.ratio_ms_per_inner_solve", "ms", "lower"),
    layer("mdp.rvi_ms", "ms", "lower"),
    layer("mdp.rvi_iterations", "count", "lower"),
    layer("mdp.rvi_transition_visits", "count", "lower"),
    layer("mdp.rvi_ns_per_transition", "ns", "lower"),
    layer("sweep.op_ms", "ms", "lower"),
    layer("sweep.self_ms", "ms", "lower"),
    layer("sweep.retries", "count", "lower"),
    layer("serve.handle_us", "us", "lower"),
    layer("serve.transport_us", "us", "lower"),
    layer("serve.miss_ms", "ms", "lower"),
    layer("serve.cache_hits", "count", "higher"),
    layer("serve.cache_misses", "count", "lower"),
    layer("serve.solves", "count", "lower"),
    layer("serve.sheds", "count", "lower"),
    layer("serve.hit_ratio", "ratio", "higher"),
    layer("trace.coverage", "ratio", "higher"),
    layer("trace.throughput_per_s", "1/s", "higher"),
    layer("trace.untraced_throughput_per_s", "1/s", "higher"),
    layer("trace.overhead_pct", "%", "lower"),
];

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u32 = 30;

/// The benchmark command, run from the repository root.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "bvcbench/Cargo.toml",
    "--",
];

fn quoted(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metric_line(m: &MetricDef) -> String {
    let mut line = format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}",
        quoted(m.name),
        quoted(m.unit),
        quoted(m.better)
    );
    if let Some(bound) = m.bound {
        line.push_str(&format!(", \"bound\": {bound}"));
    }
    line.push('}');
    line
}

fn list(items: impl Iterator<Item = String>) -> String {
    let items: Vec<String> = items.map(|i| format!("    {i}")).collect();
    format!("[\n{}\n  ]", items.join(",\n"))
}

/// The full text of `BENCHMARK.json`.
pub fn render() -> String {
    let command: Vec<String> = COMMAND.iter().map(|c| quoted(c)).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"bvcbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        list(Workload::ALL.iter().map(|w| format!(
            "{{\"name\": {}, \"why\": {}}}",
            quoted(w.name()),
            quoted(w.why())
        ))),
        list(END_TO_END.iter().map(metric_line)),
        list(PER_LAYER.iter().map(metric_line)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_current() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, render(), "regenerate with --write-manifest BENCHMARK.json");
    }
}
