//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! a test below keeps the two in step.

use mbfi_core::report::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("exp_per_s", "1/s"),
    ("makespan_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rtt_p50_ms", "ms"),
    ("rtt_tail_ms", "ms"),
    ("req_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run.  A layer that a
/// workload never calls reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_ms", "ms"),
    ("ir.lower_ms", "ms"),
    ("golden.capture_ms", "ms"),
    ("golden.dyn_instrs", "count"),
    ("golden.capture_mips", "MIPS"),
    ("replay.capture_ms", "ms"),
    ("replay.checkpoints", "count"),
    ("replay.stored_kb", "KiB"),
    ("interp.noop_mips", "MIPS"),
    ("interp.hooked_mips", "MIPS"),
    ("snapshot.fork_ns", "ns"),
    ("snapshot.cow_chunks_per_exp", "count"),
    ("experiment.count", "count"),
    ("experiment.p50_us", "us"),
    ("experiment.tail_us", "us"),
    ("experiment.serial_exp_per_s", "1/s"),
    ("experiment.prefix_skipped_frac", "fraction"),
    ("experiment.tail_instrs", "count"),
    ("experiment.tail_frac.benign", "fraction"),
    ("experiment.tail_frac.detected", "fraction"),
    ("experiment.tail_frac.hang", "fraction"),
    ("experiment.tail_frac.no_output", "fraction"),
    ("experiment.tail_frac.sdc", "fraction"),
    ("experiment.time_frac.benign", "fraction"),
    ("experiment.time_frac.detected", "fraction"),
    ("experiment.time_frac.hang", "fraction"),
    ("experiment.time_frac.no_output", "fraction"),
    ("experiment.time_frac.sdc", "fraction"),
    ("sweep.wall_ms", "ms"),
    ("sweep.batches", "count"),
    ("sweep.steals", "count"),
    ("sweep.parks", "count"),
    ("sweep.busy_frac", "fraction"),
    ("sweep.idle_ms", "ms"),
    ("sweep.overhead_frac", "fraction"),
    ("harness.grid_ms", "ms"),
    ("harness.render_ms", "ms"),
    ("serve.first_event_ms", "ms"),
    ("serve.report_ms", "ms"),
    ("serve.events_per_req", "count"),
    ("serve.dedup_frac", "fraction"),
    ("serve.rtt_hit_ms", "ms"),
    ("serve.rtt_miss_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
];

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Collected metric values of one run, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The result line: every metric of `catalogue`, in catalogue order,
    /// with its unit.  Panics if a metric is missing, unknown or not finite
    /// (a bug in the benchmark, not in the program measured).
    pub fn result_line(
        &self,
        catalogue: &[(&'static str, &'static str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut metrics = Json::object();
        for (name, unit) in catalogue {
            assert!(valid_name(name), "metric name {name:?} breaks the grammar");
            let value = *self
                .0
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            let mut entry = Json::object();
            entry.set("value", Json::Num(value));
            entry.set("unit", *unit);
            metrics.set(*name, entry);
        }
        for name in self.0.keys() {
            assert!(
                catalogue.iter().any(|(n, _)| n == name),
                "metric {name} is not in the catalogue"
            );
        }
        let mut line = Json::object();
        line.set("correct", correct);
        line.set("attempted", attempted);
        line.set("failed", failed);
        line.set("metrics", metrics);
        line.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_grammar() {
        for name in ["setup_s", "experiment.tail_frac.no_output", "9a", "a-b"] {
            assert!(valid_name(name), "{name}");
        }
        let long = "a".repeat(65);
        for name in ["", ".a", "_a", "a b", "a/b", "rtt_p50_ms!", long.as_str()] {
            assert!(!valid_name(name), "{name}");
        }
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn result_line_prints_every_metric_in_order() {
        let catalogue = [("b_ms", "ms"), ("a_s", "s")];
        let mut values = Values::default();
        values.set("a_s", 0.5);
        values.set("b_ms", 1.25);
        assert_eq!(
            values.result_line(&catalogue, true, 3, 0),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"b_ms":{"value":1.25,"unit":"ms"},"a_s":{"value":0.5,"unit":"s"}}}"#
        );
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn result_line_rejects_a_missing_metric() {
        Values::default().result_line(&[("x", "s")], true, 1, 0);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(END_TO_END));
        assert_eq!(listed("per_layer"), owned(PER_LAYER));
    }
}
