//! Run outcomes and the result line.

use std::time::Instant;

use crate::manifest::MetricDef;
use crate::trace::Tracer;

/// When a run stops measuring.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many seconds of timed ops (the benchmark's mode).
    Seconds(f64),
    /// After this many passes (solver) or requests per connection (serve):
    /// a fixed amount of work, so that work counts repeat exactly.
    #[cfg_attr(not(test), allow(dead_code))]
    Work(u32),
}

impl Stop {
    /// Whether a solver run that started at `epoch` and has finished
    /// `passes` full passes should stop.
    pub fn reached(self, epoch: Instant, passes: u32) -> bool {
        match self {
            Stop::Seconds(s) => epoch.elapsed().as_secs_f64() >= s,
            Stop::Work(p) => passes >= p,
        }
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name, in the order they were measured.
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines printed before the result (failures, sample counts).
    pub notes: Vec<String>,
    /// The spans of a traced run, written out when the run ends.
    pub tracer: Option<Tracer>,
}

/// Failure lines printed per run, beyond which failures are only counted.
const MAX_FAILURE_NOTES: u64 = 20;

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts a failed op and notes why (the first few only).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= MAX_FAILURE_NOTES {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    /// Prints every metric of `defs` by name with its unit, then the result
    /// JSON as the last line. A metric in `defs` the run did not measure
    /// is printed as 0: the workload bypasses that layer.
    pub fn print(&self, defs: &[MetricDef]) {
        for note in &self.notes {
            println!("{note}");
        }
        let mut json = Vec::new();
        for def in defs {
            let value = self
                .metrics
                .iter()
                .find(|(name, _)| *name == def.name)
                .map_or(0.0, |&(_, v)| if v.is_finite() { v } else { 0.0 });
            println!("metric {} = {value} {}", def.name, def.unit);
            json.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.failed == 0,
            self.attempted,
            self.failed,
            json.join(", ")
        );
    }
}
