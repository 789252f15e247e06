//! The two in-process campaign workloads: `paper-grid` (the coarse
//! artefact grid of `run_all` at Tiny inputs, then every renderer) and
//! `uniform-small` (single-bit cells for both techniques on every workload
//! at Small inputs, through `Sweep::run`).
//!
//! A run sets up once, then repeats passes until `--seconds` have passed,
//! setting up again between passes on a schedule (`layers::setup_due`).
//! Passes cycle through the run's input slots (`inputs::INPUT_SLOTS`
//! campaign seeds drawn from the run's seed); the passes of one slot differ
//! only in how fast the machine ran them, and the end-to-end metrics are
//! taken over the median pass of each slot (`stats::slot_medians`).  In a
//! traced run, odd passes are traced and even passes are not, each slot
//! getting one of each in turn, so the tracing overhead is measured on the
//! same inputs as the rest.

use crate::calib::{self, PROBES_PER_PASS};
use crate::inputs::{self, Stream, PAPER_GRID_N};
use crate::layers::{self, SERIAL_SAMPLE};
use crate::metrics::Values;
use crate::stats::{median, ratio, slot_medians, tail};
use crate::trace::Tracer;
use crate::{Args, RunReport};
use mbfi_bench::harness::{self, CampaignGrid, GridRun, HarnessConfig, WorkloadData};
use mbfi_core::report::Json;
use mbfi_core::{
    Campaign, CampaignResult, CampaignSpec, FaultModel, GoldenRun, Metric, Sweep, SweepCampaign,
    SweepConfig, SweepUnit, Technique, TelemetryHub, TelemetryLevel, TelemetrySnapshot,
};
use mbfi_workloads::InputSize;
use std::hint::black_box;
use std::time::Instant;

/// Cells re-run through the full re-execution path after a paper-grid run.
const PAPER_CHECK_CELLS: usize = 8;
/// Cells re-run after a uniform-small run (Small cells re-executed from
/// instruction 0 are long).
const UNIFORM_CHECK_CELLS: usize = 2;

/// Timing of one pass.
struct Pass {
    wall_s: f64,
    /// Wall time of the call that runs the experiments (`CampaignGrid::run`
    /// or `Sweep::run`): the denominator of `exp_per_s`.
    work_s: f64,
    experiments: u64,
    slot: u64,
    traced: bool,
}

/// The median pass of each input slot by `f`, in slot order.
fn per_slot<'a>(passes: &[&'a Pass], f: fn(&Pass) -> f64) -> Vec<&'a Pass> {
    let slots: Vec<u64> = passes.iter().map(|p| p.slot).collect();
    let values: Vec<f64> = passes.iter().map(|p| f(p)).collect();
    slot_medians(&slots, &values)
        .into_iter()
        .map(|i| passes[i])
        .collect()
}

/// Experiments per second of the calls that ran them, over the pass of
/// each slot with the median call time.
fn exp_per_s(passes: &[&Pass]) -> f64 {
    let median = per_slot(passes, |p| p.work_s);
    ratio(
        median.iter().map(|p| p.experiments).sum::<u64>() as f64,
        median.iter().map(|p| p.work_s).sum(),
    )
}

/// What every campaign pass leaves for the end of the run.
#[derive(Default)]
struct Tally {
    passes: Vec<Pass>,
    /// Bursts of the machine-speed probe, two before each untraced pass.
    probe_s: Vec<f64>,
    snapshots: Vec<(TelemetrySnapshot, u64)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn walls(&self) -> Vec<f64> {
        self.passes.iter().map(|p| p.wall_s).collect()
    }

    /// Run the machine-speed probe before an untraced pass.
    fn probe(&mut self, args: &Args) {
        if !args.trace {
            self.probe_s
                .extend([0; PROBES_PER_PASS].map(|_| calib::burst(crate::nproc())));
        }
    }

    /// Count one pass's cells against their requested experiments.
    fn cells<'a>(&mut self, results: impl Iterator<Item = &'a CampaignResult>, requested: usize) {
        for r in results {
            let requested = requested as u64;
            self.attempted += requested;
            let short = requested.saturating_sub(r.total());
            self.failed += short;
            if r.total() != requested && self.errors.len() < 8 {
                self.errors.push(format!(
                    "cell {} {} seed {} has {} experiments, {} requested",
                    r.spec.technique.short_name(),
                    r.spec.model,
                    r.spec.seed,
                    r.total(),
                    requested
                ));
            }
        }
    }
}

/// The set-up repetitions of a run.  Each one drops the artefacts in use
/// and builds them again, so the passes after it run on the new ones.
struct Setup<'t> {
    tracer: &'t Tracer,
    size: InputSize,
    replay: bool,
    times_s: Vec<f64>,
}

impl<'t> Setup<'t> {
    /// The first set-up, before the timed section.
    fn first(tracer: &'t Tracer, size: InputSize, replay: bool) -> (Setup<'t>, Vec<WorkloadData>) {
        let mut setup = Setup {
            tracer,
            size,
            replay,
            times_s: Vec::new(),
        };
        let mut data = Vec::new();
        setup.once(&mut data);
        (setup, data)
    }

    fn once(&mut self, data: &mut Vec<WorkloadData>) {
        let rep = self.times_s.len() as u64;
        drop(std::mem::take(data));
        let t0 = Instant::now();
        let root = self.tracer.open("setup", None, rep);
        *data = layers::build_artifacts(self.tracer, root, rep, self.size, self.replay);
        self.tracer.close(root);
        self.times_s.push(t0.elapsed().as_secs_f64());
    }

    /// Set up again while a repetition is due.
    fn catch_up(&mut self, data: &mut Vec<WorkloadData>, started: Instant, finished: bool) {
        while layers::setup_due(&self.times_s, started.elapsed().as_secs_f64(), finished) {
            self.once(data);
        }
    }
}

/// Every table and figure `run_all` renders, from Table II to the RQ
/// summary; returns the rendered bytes.
fn render_all(cfg: &HarnessConfig, run: &GridRun) -> usize {
    let mut out = vec![harness::table2(cfg, &run.data).render()];
    let singles = harness::single_bit_results(run);
    out.extend(harness::fig1(&singles).into_iter().map(|(_, t)| t.render()));
    for technique in Technique::ALL {
        let results = harness::same_register_results(cfg, run, technique);
        out.push(harness::fig2(technique, &results).render());
    }
    let read_act = harness::activation_results(cfg, run, Technique::InjectOnRead);
    let (t, read_activation) = harness::fig3(Technique::InjectOnRead, &read_act);
    out.push(t.render());
    let write_act = harness::activation_results(cfg, run, Technique::InjectOnWrite);
    let (t, write_activation) = harness::fig3(Technique::InjectOnWrite, &write_act);
    out.push(t.render());
    let read = harness::multi_register_results(cfg, run, Technique::InjectOnRead);
    let write = harness::multi_register_results(cfg, run, Technique::InjectOnWrite);
    for technique_sweeps in [
        (Technique::InjectOnRead, &read),
        (Technique::InjectOnWrite, &write),
    ] {
        let (technique, sweeps) = technique_sweeps;
        out.extend(harness::fig45(technique, sweeps).iter().map(|f| f.render()));
    }
    out.push(harness::table3(&read, &write).render());
    let (t4, locations) = harness::table4(cfg, &run.data, &read, &write);
    out.push(t4.render());
    out.push(harness::summary(
        &read_activation,
        &write_activation,
        &read,
        &write,
        &locations,
    ));
    black_box(out).iter().map(String::len).sum()
}

/// The `(workload, technique, model)` cells of the coarse artefact grid,
/// in a fixed order: single-bit, same-register and multi-register points
/// (the activation row is the max-MBF 30 slice of the latter).
fn artifact_keys(cfg: &HarnessConfig, workloads: usize) -> Vec<(usize, Technique, FaultModel)> {
    let mut models = vec![FaultModel::single_bit()];
    for m in cfg.max_mbf_values() {
        models.push(FaultModel::multi_bit(m, mbfi_core::WinSize::Fixed(0)));
        for win in cfg.win_size_values() {
            models.push(FaultModel::multi_bit(m, win));
        }
    }
    let mut keys = Vec::new();
    for w in 0..workloads {
        for technique in Technique::ALL {
            keys.extend(models.iter().map(|&m| (w, technique, m)));
        }
    }
    keys
}

fn paper_cfg(seed: u64, slot: u64, traced: bool) -> HarnessConfig {
    HarnessConfig {
        experiments: PAPER_GRID_N,
        seed: inputs::paper_grid_seed(seed, slot),
        size: InputSize::Tiny,
        telemetry: if traced {
            TelemetryLevel::Counters
        } else {
            TelemetryLevel::Off
        },
        ..HarnessConfig::default()
    }
}

/// Re-run each sampled cell through `Campaign::run_compiled` with no
/// checkpoint store (full re-execution, no replay or fork) and require the
/// sweep's result byte for byte.
fn check_cells(
    data: &[WorkloadData],
    cells: &[(usize, CampaignSpec, CampaignResult)],
    errors: &mut Vec<String>,
) {
    for (unit, spec, swept) in cells {
        let d = &data[*unit];
        let again = Campaign::run_compiled(&d.code, &d.golden, spec);
        if again.to_json().render() != swept.to_json().render() {
            errors.push(format!(
                "{} {} {} seed {}: sweep result differs from full re-execution",
                d.name,
                spec.technique.short_name(),
                spec.model,
                spec.seed
            ));
        }
    }
}

/// End-to-end metrics from the untraced passes, each input slot at its
/// median pass, and the set-ups, in reference seconds (`calib::scale`).  A
/// pass is the request a caller of these workloads waits on, so
/// `rtt_p50_ms` is the median of the slots' passes in ms, `req_per_s` the
/// reciprocal of `makespan_s` and `rtt_tail_ms` a slow slot: aliases that
/// the result line must carry, not independent measurements.
fn end_to_end(values: &mut Values, tally: &Tally, setup_s: &[f64], rss_mb: f64, ctx: &mut Json) {
    let untraced: Vec<&Pass> = tally.passes.iter().filter(|p| !p.traced).collect();
    let walls: Vec<f64> = per_slot(&untraced, |p| p.wall_s)
        .iter()
        .map(|p| p.wall_s)
        .collect();
    let makespan = walls.iter().sum::<f64>() / walls.len() as f64;
    let rtt_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let rtt_tail = tail(&rtt_ms);
    let k = calib::scale(&tally.probe_s);
    values.set("setup_s", median(setup_s) * k);
    values.set("exp_per_s", exp_per_s(&untraced) / k);
    values.set("makespan_s", makespan * k);
    values.set("peak_rss_mb", rss_mb);
    values.set("rtt_p50_ms", median(&rtt_ms) * k);
    values.set("rtt_tail_ms", rtt_tail.value * k);
    values.set("req_per_s", 1.0 / makespan / k);
    calib::context(ctx, k, &tally.probe_s);
    ctx.set("raw_makespan_s", makespan);
    ctx.set("setup_reps_s", setup_s.to_vec());
    ctx.set("rtt_tail_pct", rtt_tail.pct);
    ctx.set("rtt_tail_beyond", rtt_tail.beyond);
    ctx.set("rtt_samples", rtt_tail.samples);
}

/// Sweep-layer metrics from the traced passes' hub snapshots.
fn sweep_metrics(values: &mut Values, tally: &Tally, mean_exp_s: f64) {
    let per = |f: &dyn Fn(&TelemetrySnapshot, u64) -> f64| -> f64 {
        median(
            &tally
                .snapshots
                .iter()
                .map(|(s, e)| f(s, *e))
                .collect::<Vec<_>>(),
        )
    };
    let wall_s = |s: &TelemetrySnapshot| s.elapsed_ns as f64 / 1e9;
    let threads = |s: &TelemetrySnapshot| s.threads.max(1) as f64;
    values.set("sweep.wall_ms", per(&|s, _| wall_s(s) * 1e3));
    values.set(
        "sweep.batches",
        per(&|s, _| s.counter(Metric::BatchesRun) as f64),
    );
    values.set(
        "sweep.steals",
        per(&|s, _| s.counter(Metric::BatchesStolen) as f64),
    );
    values.set(
        "sweep.parks",
        per(&|s, _| s.counter(Metric::WorkerParks) as f64),
    );
    values.set(
        "sweep.busy_frac",
        per(&|s, _| {
            ratio(
                s.counter(Metric::BusyNanos) as f64 / 1e9,
                wall_s(s) * threads(s),
            )
        }),
    );
    values.set(
        "sweep.idle_ms",
        per(&|s, _| s.counter(Metric::IdleNanos) as f64 / 1e6),
    );
    values.set(
        "sweep.overhead_frac",
        per(&|s, exps| 1.0 - ratio(exps as f64 * mean_exp_s, wall_s(s) * threads(s))),
    );
}

/// Traced-minus-untraced throughput loss, as a fraction of the untraced
/// throughput, each over the median pass of each input slot.
fn overhead(values: &mut Values, tally: &Tally) {
    let rate = |traced: bool| {
        let passes: Vec<&Pass> = tally.passes.iter().filter(|p| p.traced == traced).collect();
        exp_per_s(&passes)
    };
    let untraced = rate(false);
    values.set(
        "trace.overhead_frac",
        ratio(untraced - rate(true), untraced),
    );
}

fn finish(
    args: &Args,
    values: Values,
    tally: Tally,
    mut ctx: Json,
    tracer: &Tracer,
    n_per_cell: usize,
    size: InputSize,
) -> RunReport {
    ctx.set("n_per_cell", n_per_cell);
    ctx.set("input_size", size.to_string());
    ctx.set("passes", tally.passes.len());
    ctx.set(
        "pass_walls_s",
        tally.passes.iter().map(|p| p.wall_s).collect::<Vec<f64>>(),
    );
    RunReport {
        values,
        correct: tally.errors.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        context: ctx,
        spans: crate::spans_out(args, tracer),
    }
}

pub fn paper_grid(args: &Args) -> RunReport {
    let tracer = Tracer::new(args.trace);
    let off = Tracer::new(false);
    let (mut setup, mut data) = Setup::first(&tracer, InputSize::Tiny, true);
    let keys = artifact_keys(&HarnessConfig::default(), data.len());
    let picks = inputs::sample_indices(args.seed, Stream::Check, keys.len(), PAPER_CHECK_CELLS);
    let mut tally = Tally::default();
    let mut checked = Vec::new();
    // `peak_rss_mb` is read after the first set-up and the first pass: the
    // footprint of running the workload once.  Later set-ups and passes
    // repeat the same work, and what they add to the high-water mark is
    // allocator churn.
    let mut rss_mb = 0.0;
    let started = Instant::now();
    let mut pass = 0u64;
    while crate::another_pass(args, started, &tally.walls()) {
        tally.probe(args);
        let traced = args.trace && pass % 2 == 1;
        let t = if traced { &tracer } else { &off };
        let slot = crate::slot(args, pass);
        let cfg = paper_cfg(args.seed, slot, traced);
        let t0 = Instant::now();
        let root = t.open("pass", None, pass);
        let mut grid = CampaignGrid::from_data(&cfg, data);
        grid.request_artifact_grid();
        let grid_t0 = Instant::now();
        let mut run = t.span("harness.grid", root, pass, || grid.run());
        let work_s = grid_t0.elapsed().as_secs_f64();
        let rendered = t.span("harness.render", root, pass, || render_all(&cfg, &run));
        t.close(root);
        let wall_s = t0.elapsed().as_secs_f64();
        black_box(rendered);
        if run.cell_count() != keys.len() {
            tally.errors.push(format!(
                "the artefact grid has {} cells, expected {}",
                run.cell_count(),
                keys.len()
            ));
        }
        tally.cells(run.results().iter(), PAPER_GRID_N);
        if pass == 0 {
            for &k in &picks {
                let (w, technique, model) = keys[k];
                let spec = cfg.campaign_spec(technique, model);
                checked.push((w, spec, run.get(w, technique, model).clone()));
            }
        }
        if let Some(snapshot) = run.telemetry.take() {
            tally.snapshots.push((snapshot, run.total_experiments()));
        }
        tally.passes.push(Pass {
            wall_s,
            work_s,
            experiments: run.total_experiments(),
            slot,
            traced,
        });
        data = std::mem::take(&mut run.data);
        drop(run);
        if pass == 0 {
            rss_mb = layers::peak_rss_mb();
        }
        setup.catch_up(&mut data, started, false);
        pass += 1;
    }
    setup.catch_up(&mut data, started, true);
    check_cells(&data, &checked, &mut tally.errors);

    let mut values = Values::default();
    let mut ctx = Json::object();
    if args.trace {
        let spans = tracer.spans();
        layers::setup_metrics(&mut values, &spans, &data);
        values.set("interp.noop_mips", layers::noop_mips(&tracer, &data));
        let cfg0 = paper_cfg(args.seed, 0, false);
        let cells: Vec<(usize, CampaignSpec)> = keys
            .iter()
            .map(|&(w, t, m)| (w, cfg0.campaign_spec(t, m)))
            .collect();
        let goldens: Vec<&GoldenRun> = data.iter().map(|d| &d.golden).collect();
        let sample = inputs::sample_experiments(args.seed, &cells, &goldens, SERIAL_SAMPLE);
        let mean_exp_s = layers::serial_pass(&tracer, &mut values, &data, &sample);
        sweep_metrics(&mut values, &tally, mean_exp_s);
        values.set(
            "harness.grid_ms",
            layers::span_median_ms(&spans, "harness.grid"),
        );
        values.set(
            "harness.render_ms",
            layers::span_median_ms(&spans, "harness.render"),
        );
        layers::zero(&mut values, &SERVE_LAYER);
        overhead(&mut values, &tally);
    } else {
        end_to_end(&mut values, &tally, &setup.times_s, rss_mb, &mut ctx);
    }
    finish(
        args,
        values,
        tally,
        ctx,
        &tracer,
        PAPER_GRID_N,
        InputSize::Tiny,
    )
}

pub fn uniform_small(args: &Args) -> RunReport {
    let tracer = Tracer::new(args.trace);
    let off = Tracer::new(false);
    let (mut setup, mut data) = Setup::first(&tracer, InputSize::Small, true);
    let config = SweepConfig::default();
    let picks = inputs::sample_indices(
        args.seed,
        Stream::Check,
        data.len() * Technique::ALL.len(),
        UNIFORM_CHECK_CELLS,
    );
    let mut tally = Tally::default();
    let mut checked = Vec::new();
    // `peak_rss_mb` is read after the first set-up and the first pass: the
    // footprint of running the workload once.  Later set-ups and passes
    // repeat the same work, and what they add to the high-water mark is
    // allocator churn.
    let mut rss_mb = 0.0;
    let started = Instant::now();
    let mut pass = 0u64;
    while crate::another_pass(args, started, &tally.walls()) {
        tally.probe(args);
        let traced = args.trace && pass % 2 == 1;
        let t = if traced { &tracer } else { &off };
        let slot = crate::slot(args, pass);
        let cells = inputs::uniform_cells(args.seed, slot, data.len());
        let campaigns: Vec<SweepCampaign> = cells
            .iter()
            .map(|&(unit, spec)| SweepCampaign { unit, spec })
            .collect();
        let units: Vec<SweepUnit<'_>> = data.iter().map(WorkloadData::sweep_unit).collect();
        let t0 = Instant::now();
        let report = if traced {
            let hub = TelemetryHub::new(TelemetryLevel::Counters);
            let report = t.span("sweep.run", None, pass, || {
                Sweep::run_with(&units, &campaigns, &config, &hub)
            });
            let experiments = report.results.iter().map(|r| r.result.total()).sum();
            tally.snapshots.push((hub.snapshot(), experiments));
            report
        } else {
            Sweep::run(&units, &campaigns, &config)
        };
        let wall_s = t0.elapsed().as_secs_f64();
        tally.cells(report.results.iter().map(|r| &r.result), inputs::UNIFORM_N);
        if pass == 0 {
            for &k in &picks {
                checked.push((cells[k].0, cells[k].1, report.results[k].result.clone()));
            }
        }
        tally.passes.push(Pass {
            wall_s,
            work_s: wall_s,
            experiments: report.results.iter().map(|r| r.result.total()).sum(),
            slot,
            traced,
        });
        drop((units, report));
        if pass == 0 {
            rss_mb = layers::peak_rss_mb();
        }
        setup.catch_up(&mut data, started, false);
        pass += 1;
    }
    setup.catch_up(&mut data, started, true);
    check_cells(&data, &checked, &mut tally.errors);

    let mut values = Values::default();
    let mut ctx = Json::object();
    if args.trace {
        let spans = tracer.spans();
        layers::setup_metrics(&mut values, &spans, &data);
        values.set("interp.noop_mips", layers::noop_mips(&tracer, &data));
        let cells = inputs::uniform_cells(args.seed, 0, data.len());
        let goldens: Vec<&GoldenRun> = data.iter().map(|d| &d.golden).collect();
        let sample = inputs::sample_experiments(args.seed, &cells, &goldens, SERIAL_SAMPLE);
        let mean_exp_s = layers::serial_pass(&tracer, &mut values, &data, &sample);
        sweep_metrics(&mut values, &tally, mean_exp_s);
        layers::zero(&mut values, &["harness.grid_ms", "harness.render_ms"]);
        layers::zero(&mut values, &SERVE_LAYER);
        overhead(&mut values, &tally);
    } else {
        end_to_end(&mut values, &tally, &setup.times_s, rss_mb, &mut ctx);
    }
    finish(
        args,
        values,
        tally,
        ctx,
        &tracer,
        inputs::UNIFORM_N,
        InputSize::Small,
    )
}

/// The serve-layer metrics, which the in-process workloads never reach.
pub const SERVE_LAYER: [&str; 6] = [
    "serve.first_event_ms",
    "serve.report_ms",
    "serve.events_per_req",
    "serve.dedup_frac",
    "serve.rtt_hit_ms",
    "serve.rtt_miss_ms",
];
