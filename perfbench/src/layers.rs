//! Set-up and the layer probes shared by the workloads: artefact builds
//! (workloads → IR → golden run → checkpoints), the no-op interpreter, and
//! a serial pass over sampled experiments.  Each call into the program is
//! wrapped in a span of the layer it enters.

use crate::metrics::Values;
use crate::stats::{geomean, median, ratio, tail};
use crate::trace::{self, Span, SpanId, Tracer};
use mbfi_bench::WorkloadData;
use mbfi_core::replay::{CheckpointConfig, CheckpointStore};
use mbfi_core::{
    Experiment, ExperimentSpec, GoldenRun, Metric, Outcome, TelemetryHub, TelemetryLevel,
};
use mbfi_ir::CompiledModule;
use mbfi_vm::{Limits, NoopHook, Vm};
use mbfi_workloads::{all_workloads, InputSize};
use std::hint::black_box;
use std::time::Instant;

/// Share of the timed section spent setting up again between passes.
pub const SETUP_SHARE: f64 = 0.1;
/// Set-ups in a run, the first one (before the timed section) included:
/// at least this many ...
pub const MIN_SETUPS: usize = 13;
/// ... and at most this many.
pub const MAX_SETUPS: usize = 61;

/// Whether to set up again, `elapsed_s` into the timed section, after the
/// set-ups of `times_s`.  Between passes, one is due while the repetitions
/// after the first have taken less than `SETUP_SHARE` of the section so far,
/// so they are spread over the section in proportion to time and sample the
/// same machine time as the passes; once the section is `finished`, only
/// those still missing from `MIN_SETUPS` are.  `setup_s` is the median of
/// all of them.
pub fn setup_due(times_s: &[f64], elapsed_s: f64, finished: bool) -> bool {
    let again: f64 = times_s.iter().skip(1).sum();
    times_s.len() < MAX_SETUPS
        && if finished {
            times_s.len() < MIN_SETUPS
        } else {
            again < SETUP_SHARE * elapsed_s
        }
}

/// Experiments in the serial pass of a traced run.
pub const SERIAL_SAMPLE: usize = 2000;

/// Build every workload at `size` the way `SweepCache::get_or_build` does
/// (module, lowering, golden run and, with `replay`, the checkpoint store
/// at the automatic interval and default budget), one span per layer call
/// under a `setup` span for repetition `rep`.
pub fn build_artifacts(
    tracer: &Tracer,
    parent: Option<SpanId>,
    rep: u64,
    size: InputSize,
    replay: bool,
) -> Vec<WorkloadData> {
    let budget = CheckpointConfig::default().max_bytes;
    all_workloads()
        .into_iter()
        .map(|w| {
            let module = tracer.span("workloads.build", parent, rep, || w.build_module(size));
            let code = tracer.span("ir.lower", parent, rep, || CompiledModule::lower(&module));
            let golden = tracer
                .span("golden.capture", parent, rep, || {
                    GoldenRun::capture_compiled(&code)
                })
                .unwrap_or_else(|e| panic!("golden run of {} failed: {e}", w.name()));
            let store = replay.then(|| {
                tracer
                    .span("replay.capture", parent, rep, || {
                        let config = CheckpointConfig::auto_for(&golden, budget);
                        CheckpointStore::capture_compiled(&code, &golden, config)
                    })
                    .unwrap_or_else(|e| panic!("checkpoint capture of {} failed: {e}", w.name()))
            });
            WorkloadData {
                name: w.name().to_string(),
                package: w.package().to_string(),
                description: w.description().to_string(),
                module,
                code,
                golden,
                store,
            }
        })
        .collect()
}

/// Median over requests (set-up repetitions) of each request's summed span
/// time of `name`, in ms.
fn per_request_ms(spans: &[Span], name: &str) -> f64 {
    let mut sums: Vec<(u64, u64)> = Vec::new();
    for span in spans.iter().filter(|s| s.name == name) {
        match sums.iter_mut().find(|(r, _)| *r == span.request) {
            Some((_, total)) => *total += span.duration_ns(),
            None => sums.push((span.request, span.duration_ns())),
        }
    }
    median(
        &sums
            .iter()
            .map(|(_, ns)| *ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
}

/// The set-up layer metrics, from the spans of [`build_artifacts`] and the
/// artefacts of the last repetition.
pub fn setup_metrics(values: &mut Values, spans: &[Span], data: &[WorkloadData]) {
    let golden_ms = per_request_ms(spans, "golden.capture");
    let dyn_instrs: u64 = data.iter().map(|d| d.golden.dynamic_instrs).sum();
    values.set(
        "workloads.build_ms",
        per_request_ms(spans, "workloads.build"),
    );
    values.set("ir.lower_ms", per_request_ms(spans, "ir.lower"));
    values.set("golden.capture_ms", golden_ms);
    values.set("golden.dyn_instrs", dyn_instrs as f64);
    values.set(
        "golden.capture_mips",
        ratio(dyn_instrs as f64, golden_ms * 1e3),
    );
    values.set("replay.capture_ms", per_request_ms(spans, "replay.capture"));
    let stores = || data.iter().filter_map(|d| d.store.as_ref());
    values.set(
        "replay.checkpoints",
        stores().map(CheckpointStore::len).sum::<usize>() as f64,
    );
    values.set(
        "replay.stored_kb",
        stores().map(CheckpointStore::stored_bytes).sum::<usize>() as f64 / 1024.0,
    );
}

/// `interp.noop_mips`: `Vm::run` with `NoopHook` on each golden input, the
/// median of several runs per workload, as a geomean over workloads.
pub fn noop_mips(tracer: &Tracer, data: &[WorkloadData]) -> f64 {
    let per_workload: Vec<f64> = data
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let mut mips = Vec::new();
            let started = Instant::now();
            while mips.len() < 3 || (mips.len() < 50 && started.elapsed().as_millis() < 20) {
                let t0 = Instant::now();
                let result = tracer.span("interp.noop", None, i as u64, || {
                    Vm::new(&d.code, Limits::default()).run(&mut NoopHook)
                });
                let secs = t0.elapsed().as_secs_f64();
                mips.push(black_box(result).dynamic_instrs as f64 / secs / 1e6);
            }
            median(&mips)
        })
        .collect();
    geomean(&per_workload)
}

/// One sampled experiment: which prepared workload, and its spec.
pub type Sampled = (usize, ExperimentSpec);

/// Position of an outcome in [`OUTCOME_KEYS`].
fn slot(outcome: Outcome) -> usize {
    match outcome {
        Outcome::Benign => 0,
        Outcome::DetectedHwException => 1,
        Outcome::Hang => 2,
        Outcome::NoOutput => 3,
        Outcome::Sdc => 4,
    }
}

const OUTCOME_KEYS: [(&str, &str); 5] = [
    ("experiment.tail_frac.benign", "experiment.time_frac.benign"),
    (
        "experiment.tail_frac.detected",
        "experiment.time_frac.detected",
    ),
    ("experiment.tail_frac.hang", "experiment.time_frac.hang"),
    (
        "experiment.tail_frac.no_output",
        "experiment.time_frac.no_output",
    ),
    ("experiment.tail_frac.sdc", "experiment.time_frac.sdc"),
];

/// Run `sample` one experiment at a time through
/// `Experiment::run_compiled_with` (the same execution body as
/// `Experiment::run_compiled`, with a counters-level hub that reports the
/// copy-on-write traffic), each from the checkpoint its spec restores, and
/// time the fork from that checkpoint on its own.  Experiments run grouped
/// by workload, as a sweep's batches run them.  Returns the mean serial
/// seconds per experiment.
pub fn serial_pass(
    tracer: &Tracer,
    values: &mut Values,
    data: &[WorkloadData],
    sample: &[Sampled],
) -> f64 {
    let mut sample = sample.to_vec();
    sample.sort_by_key(|(unit, _)| *unit);
    let hub = TelemetryHub::new(TelemetryLevel::Counters);
    let mut exp_us = Vec::with_capacity(sample.len());
    let mut fork_ns = Vec::new();
    let (mut prefix_sum, mut tail_sum, mut time_sum) = (0u64, 0u64, 0f64);
    let mut tail_by = [0u64; 5];
    let mut time_by = [0f64; 5];
    for (i, (unit, spec)) in sample.iter().enumerate() {
        let d = &data[*unit];
        let store = d.store.as_ref();
        let checkpoint = store.and_then(|s| s.nearest_for(spec.technique, spec.first_target));
        if let Some(cp) = checkpoint {
            let limits = d.golden.faulty_run_limits(spec.hang_factor);
            let t0 = Instant::now();
            let vm = Vm::from_snapshot(&d.code, limits, cp.snapshot());
            let t1 = Instant::now();
            drop(black_box(vm));
            tracer.record("snapshot.fork", t0, t1, None, i as u64);
            fork_ns.push((t1 - t0).as_nanos() as f64);
        }
        let prefix = checkpoint.map_or(0, |cp| cp.snapshot().dyn_count());
        let t0 = Instant::now();
        let result = Experiment::run_compiled_with(&d.code, &d.golden, spec, store, &hub);
        let t1 = Instant::now();
        tracer.record("experiment", t0, t1, None, i as u64);
        let secs = (t1 - t0).as_secs_f64();
        let tail_instrs = result.dynamic_instrs.saturating_sub(prefix);
        exp_us.push(secs * 1e6);
        prefix_sum += prefix;
        tail_sum += tail_instrs;
        time_sum += secs;
        tail_by[slot(result.outcome)] += tail_instrs;
        time_by[slot(result.outcome)] += secs;
    }
    let count = sample.len() as f64;
    values.set("experiment.count", count);
    values.set("experiment.p50_us", median(&exp_us));
    values.set("experiment.tail_us", tail(&exp_us).value);
    values.set("experiment.serial_exp_per_s", ratio(count, time_sum));
    values.set(
        "experiment.prefix_skipped_frac",
        ratio(prefix_sum as f64, (prefix_sum + tail_sum) as f64),
    );
    values.set("experiment.tail_instrs", ratio(tail_sum as f64, count));
    for (k, (tail_key, time_key)) in OUTCOME_KEYS.iter().enumerate() {
        values.set(tail_key, ratio(tail_by[k] as f64, tail_sum as f64));
        values.set(time_key, ratio(time_by[k], time_sum));
    }
    values.set("interp.hooked_mips", ratio(tail_sum as f64, time_sum * 1e6));
    values.set("snapshot.fork_ns", median(&fork_ns));
    values.set(
        "snapshot.cow_chunks_per_exp",
        ratio(hub.counter(Metric::CowChunksCopied) as f64, count),
    );
    ratio(time_sum, count)
}

/// Median duration in ms of the spans called `name`; 0 when there are none.
pub fn span_median_ms(spans: &[Span], name: &str) -> f64 {
    median(&trace::durations_ms(spans, name))
}

/// Layers a workload never calls read 0.
pub fn zero(values: &mut Values, names: &[&'static str]) {
    for name in names {
        values.set(name, 0.0);
    }
}

/// High-water resident memory of this process, in MB (from
/// `/proc/self/status`; 0 where that file does not exist).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The set-ups of a section of `seconds` made of passes of `pass_s`,
    /// each set-up taking `setup_s`, as (passes run before it, set-ups so
    /// far).
    fn schedule(seconds: f64, pass_s: f64, setup_s: f64) -> Vec<(usize, usize)> {
        let mut times = vec![setup_s];
        let (mut elapsed, mut passes, mut at) = (0.0, 0, Vec::new());
        while elapsed < seconds {
            elapsed += pass_s;
            passes += 1;
            while setup_due(&times, elapsed, false) {
                times.push(setup_s);
                elapsed += setup_s;
                at.push((passes, times.len()));
            }
        }
        while setup_due(&times, elapsed, true) {
            times.push(setup_s);
            at.push((passes, times.len()));
        }
        at
    }

    #[test]
    fn set_ups_take_a_fixed_share_spread_over_the_section() {
        // Cheap set-ups: about a tenth of the section, in every gap.
        let at = schedule(36.0, 6.0, 0.08);
        let count = at.last().unwrap().1;
        assert!((40..=55).contains(&count), "{count}");
        let passes = at.last().unwrap().0;
        assert!((1..=passes).all(|p| at.iter().any(|&(q, _)| q == p)));
        // Costly set-ups: one every few passes, topped up to the minimum.
        let at = schedule(36.0, 1.3, 0.4);
        assert_eq!(at.last().unwrap().1, MIN_SETUPS);
        assert!(at[0].0 <= 4 && at[MIN_SETUPS - 5].0 >= 20, "{at:?}");
        // Very cheap set-ups stop at the maximum.
        assert_eq!(schedule(36.0, 2.4, 0.001).last().unwrap().1, MAX_SETUPS);
        // None is due before the first pass has run.
        assert!(!setup_due(&[0.1], 0.0, false));
    }
}
