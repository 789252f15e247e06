//! Whole-grid campaign sweeps on one global, deterministic work-stealing
//! executor.
//!
//! The paper's results all come from *grids* of campaigns — every workload ×
//! technique × fault model — yet [`crate::Campaign`] alone only knows how to run one
//! campaign at a time, spawning (and joining) its own worker threads per
//! campaign.  A [`Sweep`] instead takes the whole grid at once: every
//! campaign's experiments are cut into fixed-size **batches**
//! and queued in a per-campaign deque; one pool of workers drains all queues
//! together, each worker preferring its "home" campaign and **stealing whole
//! batches** from the other campaigns once its home queue is empty.  The
//! pool is spawned once for the entire grid instead of once per campaign,
//! and a long-running campaign at the end of the grid is finished
//! cooperatively by every worker rather than by one campaign-private pool.
//!
//! ## Determinism contract
//!
//! Results are *byte-identical regardless of thread count and steal
//! schedule*, and equal to running each cell through
//! [`crate::Campaign::run_compiled`] serially:
//!
//! * every experiment's spec is a pure function of `(campaign seed,
//!   experiment index)` alone — workers re-sample it when they run the
//!   batch — so scheduling cannot influence what is injected;
//! * each batch produces an independent partial result, stored in a slot
//!   keyed by `(campaign, batch index)`;
//! * when a campaign's last batch completes, its partials are folded **in
//!   batch-index order** into the [`CampaignResult`] (outcome counts and
//!   histograms are order-independent sums; [`InjectionRecord`]s are keyed
//!   by experiment index), so Wald intervals and per-experiment records come
//!   out bit-for-bit the same on 1 thread or 64.
//!
//! The contract is enforced by `tests/sweep_equivalence.rs` (per-cell
//! byte-equality against the serial runner over the default grid on all 15
//! workloads, invariant across thread counts) and by `sweep_bench --check`.
//!
//! ## Adaptive precision-targeted sampling
//!
//! With [`SweepConfig::precision`] set, each campaign runs in deterministic
//! **rounds** instead of a fixed experiment count: round boundaries are fixed
//! experiment-index prefixes (see [`Precision::round_ends`]), batches never
//! straddle a round boundary, and when a round's last batch lands the worker
//! that completed it merges the counts of *all* completed batches (a pure
//! index-order fold) and evaluates the stopping rule
//! ([`Precision::satisfied`]).  Cells that meet the target release no further
//! batches — their worker capacity drains to unfinished campaigns through the
//! normal stealing scan — while unfinished cells release their next round.
//! Because the stop decision sees only merged whole-round state, the realized
//! experiment count (and therefore every count, histogram and record) is the
//! same for every thread count, batch size and steal schedule, and equals a
//! fixed-n campaign of exactly the realized length
//! (`tests/adaptive_equivalence.rs`).
//!
//! ## Shared artifacts
//!
//! A [`SweepUnit`] carries *borrowed* per-workload artifacts — the lowered
//! [`CompiledModule`], the [`GoldenRun`] and optionally a read-only
//! [`CheckpointStore`] — so one set of artifacts serves every campaign of
//! the grid (the `mbfi-bench` harness builds them once per `(workload,
//! input size)` key in its `SweepCache`).
//!
//! [`crate::Campaign::run_compiled_with`] is itself implemented as a
//! single-campaign sweep, so there is exactly one execution engine.
//!
//! ## Two drivers, one core
//!
//! The scheduling core — per-campaign plans, batch claiming, round gating
//! and the index-order result fold — lives in `sweep::plan` and is shared by
//! **two drivers**: the borrow-friendly scoped driver behind [`Sweep::run`]
//! (spawns a scoped pool per call), and the persistent multi-tenant
//! [`SweepEngine`] behind the `mbfi-serve` daemon (owns its worker pool for
//! the process lifetime, accepts jobs at runtime with per-client priorities,
//! fairness quotas and bounded admission, and streams results as they land).
//! Both produce byte-identical results for the same cells because everything
//! that determines what a cell computes is in the shared core; the drivers
//! only decide *when* and *by whom* each batch runs, which the determinism
//! contract makes irrelevant.

mod engine;
mod plan;

pub use engine::{
    ClientId, EngineConfig, EngineUnit, JobEvent, JobHandle, JobId, JobSpec, SubmitError,
    SweepEngine,
};
pub use plan::PlanError;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::adaptive::Precision;
use crate::campaign::{CampaignResult, CampaignSpec, CampaignWarning};
use crate::golden::GoldenRun;
use crate::injector::InjectionRecord;
use crate::outcome::OutcomeCounts;
use crate::replay::CheckpointStore;
use crate::telemetry::{CellInfo, EventKind, Metric, NoopSink, TelemetryLevel, TelemetrySink};
use mbfi_ir::CompiledModule;

use plan::{run_span, run_span_timed, Completion, Plan};

/// Per-workload artifacts shared by every campaign of a sweep: the module is
/// lowered once, the golden run captured once, and the checkpoint store (if
/// any) is read-only, so one unit can back any number of campaigns across
/// any number of worker threads.
#[derive(Debug, Clone, Copy)]
pub struct SweepUnit<'a> {
    /// The flat bytecode every experiment executes.
    pub code: &'a CompiledModule,
    /// The fault-free profiling run experiments are classified against.
    pub golden: &'a GoldenRun,
    /// Optional golden-run checkpoints; experiments restore the deepest
    /// checkpoint before their first injection instead of re-executing the
    /// fault-free prefix (byte-transparent, see [`crate::replay`]).
    pub store: Option<&'a CheckpointStore>,
}

/// One campaign of a sweep: a unit index plus the campaign's spec.
///
/// `spec.threads` is recorded in the result verbatim but does not influence
/// scheduling — the sweep's global worker pool (sized by
/// [`SweepConfig::threads`]) runs every campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCampaign {
    /// Index into the sweep's unit slice.
    pub unit: usize,
    /// The campaign to run.
    pub spec: CampaignSpec,
}

/// Knobs of the sweep executor.  `threads` and `batch_size` never affect
/// results — only how the work is spread over threads.  `precision` selects
/// a different (but still fully deterministic) sampling mode; see the module
/// docs.
///
/// The default (`threads: 0, batch_size: 0, keep_records: false,
/// precision: None`) means "all cores, auto-sized batches, aggregate results
/// only, fixed-n sampling".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SweepConfig {
    /// Worker threads (0 = all available parallelism).
    pub threads: usize,
    /// Experiments per stealable batch (0 = auto: total experiments spread
    /// over 8 batches per worker, clamped to `[1, 64]`; adaptive campaigns
    /// auto-size from the round step instead so the batch cut never depends
    /// on the thread count).
    pub batch_size: usize,
    /// Keep every experiment's [`InjectionRecord`]s in the result
    /// ([`SweepCampaignResult::records`]), indexed by experiment.  Off by
    /// default: a 10k-experiment grid would hold millions of records.
    pub keep_records: bool,
    /// Adaptive precision-targeted sampling: `Some` runs every campaign of
    /// the sweep in rounds until its SDC and Detection interval half-widths
    /// meet the target (each cell's budget is then
    /// [`Precision::max_experiments`]; `CampaignSpec::experiments` is
    /// ignored).  `None` (the default) keeps classic fixed-n sampling.
    pub precision: Option<Precision>,
}

/// Result of one campaign of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCampaignResult {
    /// The aggregated campaign result, byte-identical to
    /// [`crate::Campaign::run_compiled`] on the same cell.
    pub result: CampaignResult,
    /// With [`SweepConfig::keep_records`]: the applied flips of experiment
    /// `i` at index `i` (empty otherwise).
    pub records: Vec<Vec<InjectionRecord>>,
}

/// Everything a sweep produces.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// One result per submitted campaign, in submission order.
    pub results: Vec<SweepCampaignResult>,
    /// Distinct warnings across all campaigns, in submission order (each
    /// campaign's own warnings are also carried in its
    /// [`CampaignResult::warnings`]).
    pub warnings: Vec<CampaignWarning>,
}

impl SweepCampaignResult {
    /// Wire encoding of one cell's result, exact enough that a result that
    /// crossed the serve wire compares byte-identical to the in-process one.
    pub fn to_json(&self) -> crate::report::json::Json {
        use crate::report::json::Json;
        let mut obj = Json::object();
        obj.set("result", self.result.to_json());
        obj.set(
            "records",
            Json::Arr(
                self.records
                    .iter()
                    .map(|exp| Json::Arr(exp.iter().map(|r| r.to_json()).collect()))
                    .collect(),
            ),
        );
        obj
    }

    /// Parse the wire encoding back.
    pub fn from_json(v: &crate::report::json::Json) -> Option<SweepCampaignResult> {
        Some(SweepCampaignResult {
            result: CampaignResult::from_json(v.get("result")?)?,
            records: v
                .get("records")?
                .as_array()?
                .iter()
                .map(|exp| {
                    exp.as_array()?
                        .iter()
                        .map(InjectionRecord::from_json)
                        .collect::<Option<Vec<_>>>()
                })
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

impl SweepReport {
    /// Wire encoding of a whole report (the final frame of a serve job).
    pub fn to_json(&self) -> crate::report::json::Json {
        use crate::report::json::Json;
        let mut obj = Json::object();
        obj.set(
            "results",
            Json::Arr(self.results.iter().map(|r| r.to_json()).collect()),
        );
        obj.set(
            "warnings",
            Json::Arr(self.warnings.iter().map(|w| w.to_json()).collect()),
        );
        obj
    }

    /// Parse the wire encoding back.
    pub fn from_json(v: &crate::report::json::Json) -> Option<SweepReport> {
        Some(SweepReport {
            results: v
                .get("results")?
                .as_array()?
                .iter()
                .map(SweepCampaignResult::from_json)
                .collect::<Option<Vec<_>>>()?,
            warnings: v
                .get("warnings")?
                .as_array()?
                .iter()
                .map(CampaignWarning::from_json)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// The campaign-matrix executor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sweep;

impl Sweep {
    /// Run every campaign of the grid and collect the results in submission
    /// order.
    pub fn run(
        units: &[SweepUnit<'_>],
        campaigns: &[SweepCampaign],
        config: &SweepConfig,
    ) -> SweepReport {
        Self::run_with(units, campaigns, config, &NoopSink)
    }

    /// [`Sweep::run`] publishing live progress into a telemetry sink.
    ///
    /// Telemetry is strictly observational: the report is byte-identical to
    /// [`Sweep::run`] for any sink, level and thread count
    /// (`tests/telemetry_equivalence.rs`), and with [`NoopSink`] every
    /// instrumentation site monomorphizes away.
    pub fn run_with<S: TelemetrySink>(
        units: &[SweepUnit<'_>],
        campaigns: &[SweepCampaign],
        config: &SweepConfig,
        telemetry: &S,
    ) -> SweepReport {
        let mut slots: Vec<Option<SweepCampaignResult>> = vec![None; campaigns.len()];
        let warnings =
            Self::run_streamed_with(units, campaigns, config, telemetry, |index, result| {
                slots[index] = Some(result);
            });
        SweepReport {
            results: slots
                .into_iter()
                .map(|r| r.expect("sweep finished without producing every result"))
                .collect(),
            warnings,
        }
    }

    /// Run the grid, handing each campaign's result to `sink` as soon as its
    /// last batch completes (completion order; the `usize` is the campaign's
    /// submission index), while publishing live progress into a telemetry
    /// sink (see [`Sweep::run_with`] for the observation-only contract).
    /// Returns the deduplicated warnings.
    ///
    /// Each distinct warning is also printed to stderr once per sweep.
    pub fn run_streamed_with<S: TelemetrySink>(
        units: &[SweepUnit<'_>],
        campaigns: &[SweepCampaign],
        config: &SweepConfig,
        telemetry: &S,
        mut sink: impl FnMut(usize, SweepCampaignResult),
    ) -> Vec<CampaignWarning> {
        for c in campaigns {
            assert!(
                c.unit < units.len(),
                "sweep campaign references unit {} but only {} units were supplied",
                c.unit,
                units.len()
            );
        }

        let threads = if config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.threads
        };
        // The fixed-n auto batch size spreads the whole grid over 8 batches
        // per worker.  It may depend on the thread count, which is safe for
        // fixed-n campaigns (the batch cut never changes results) but NOT for
        // adaptive ones (rounds are made of whole batches) — adaptive plans
        // auto-size from the round step instead, inside [`Plan::new`].
        let total_experiments: usize = campaigns.iter().map(|c| c.spec.experiments).sum();
        let auto_batch = total_experiments.div_ceil(threads.max(1) * 8).clamp(1, 64);

        let plans: Vec<Plan> = campaigns
            .iter()
            .map(|c| {
                Plan::new(
                    c,
                    &units[c.unit],
                    config.batch_size,
                    auto_batch,
                    config.precision,
                )
                .unwrap_or_else(|e| panic!("sweep campaign cannot be planned: {e}"))
            })
            .collect();

        // Warnings are known before any experiment runs; print each distinct
        // one once (submission order) so a whole grid of equally-misconfigured
        // campaigns does not repeat itself hundreds of times on stderr.
        let mut warnings: Vec<CampaignWarning> = Vec::new();
        for plan in &plans {
            for w in &plan.warnings {
                if !warnings.contains(w) {
                    eprintln!("campaign warning: {w} ({w:?})");
                    warnings.push(*w);
                }
            }
        }

        let total_batches: usize = plans.iter().map(Plan::batches).sum();
        let threads = threads.clamp(1, total_batches.max(1));
        let sweep_start = Instant::now();

        // Register cells and announce the sweep before any experiment runs,
        // so a tailing monitor sees labels and budgets first.
        if S::ENABLED && telemetry.level() > TelemetryLevel::Off {
            let infos: Vec<CellInfo> = plans
                .iter()
                .map(|p| CellInfo {
                    unit: p.unit,
                    label: format!(
                        "u{} {} {}",
                        p.unit,
                        p.spec.technique.short_name(),
                        p.spec.model.label()
                    ),
                    planned: p.spec.experiments as u64,
                })
                .collect();
            telemetry.begin_sweep(&infos, threads);
            let planned: u64 = infos.iter().map(|c| c.planned).sum();
            telemetry.emit(EventKind::SweepStarted {
                cells: infos.len(),
                threads,
                planned,
            });
            for (cell, info) in infos.into_iter().enumerate() {
                telemetry.emit(EventKind::CellPlanned { cell, info });
            }
            // Per-unit shared artifacts: the fault-free per-opcode profile
            // and the checkpoint-store footprint.
            for unit in units {
                telemetry.profile(&unit.golden.profile);
                if let Some(store) = unit.store {
                    store.publish_telemetry(telemetry);
                }
            }
        }

        // Campaigns without a single batch (0 experiments) cannot be
        // finalized by a worker; emit their empty results up front.
        let mut live = 0usize;
        let mut total_done = 0u64;
        for (index, plan) in plans.iter().enumerate() {
            if plan.batches() == 0 {
                if S::ENABLED {
                    telemetry.add(Metric::CellsFinished, 1);
                    telemetry.cell_status(index, 0, f64::NAN, f64::NAN, true);
                    telemetry.emit(EventKind::CellFinished {
                        cell: index,
                        experiments: 0,
                        counts: OutcomeCounts::default(),
                        rounds: 0,
                    });
                }
                sink(index, plan.empty_result());
            } else {
                live += 1;
            }
        }
        if live > 0 {
            let keep_records = config.keep_records;
            // Campaigns still running.  Adaptive ("gated") workers park on
            // the sweep condvar rather than exit while this is non-zero,
            // because an adaptive campaign with every released batch claimed
            // may release more work when its round completes.  Fixed-n
            // sweeps release everything up front, so an idle worker exits
            // immediately as before.
            let live_plans = AtomicUsize::new(live);
            let gated = config.precision.is_some();
            let parking = Parking::new();
            let (tx, rx) = mpsc::channel::<(usize, SweepCampaignResult)>();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let tx = tx.clone();
                    let plans = &plans;
                    let live_plans = &live_plans;
                    let parking = &parking;
                    scope.spawn(move || {
                        worker(
                            t,
                            plans,
                            units,
                            keep_records,
                            gated,
                            live_plans,
                            parking,
                            telemetry,
                            &tx,
                        )
                    });
                }
                drop(tx);
                for _ in 0..live {
                    let (index, result) = rx
                        .recv()
                        .expect("sweep worker pool exited before every campaign finished");
                    if S::ENABLED {
                        total_done += result.result.total();
                    }
                    sink(index, result);
                }
            });
        }

        if S::ENABLED && telemetry.level() > TelemetryLevel::Off {
            telemetry.emit(EventKind::SweepFinished {
                cells: plans.len(),
                experiments: total_done,
                wall_ns: sweep_start.elapsed().as_nanos() as u64,
                cow_chunks_copied: telemetry.counter_value(Metric::CowChunksCopied),
                cow_restore_bytes_saved: telemetry.counter_value(Metric::CowRestoreBytesSaved),
            });
        }
        warnings
    }
}

/// The idle-worker rendezvous of a gated (adaptive) sweep: instead of
/// spin-yielding while a round is in flight, a worker that finds no released
/// batch **parks** on this condvar and is woken when any campaign releases a
/// round or finishes.  The epoch counter closes the classic lost-wakeup race:
/// a worker reads the epoch *before* its (empty) scan, so a release that
/// lands between the scan and the park bumps the epoch and the park returns
/// immediately.  A timeout backstops the protocol — a timed-out worker just
/// rescans.
struct Parking {
    epoch: Mutex<u64>,
    cond: Condvar,
}

/// Backstop for the (unexpected) case of a missed notification; also bounds
/// how long workers linger after the last campaign finishes.
const PARK_TIMEOUT: Duration = Duration::from_millis(50);

impl Parking {
    fn new() -> Parking {
        Parking {
            epoch: Mutex::new(0),
            cond: Condvar::new(),
        }
    }

    /// The current epoch; read it *before* scanning for work.
    fn epoch(&self) -> u64 {
        *self.epoch.lock().expect("sweep parking lock poisoned")
    }

    /// Wake every parked worker (work may have been released).
    fn bump(&self) {
        *self.epoch.lock().expect("sweep parking lock poisoned") += 1;
        self.cond.notify_all();
    }

    /// Sleep until the epoch moves past `seen` or the backstop timeout
    /// elapses.  Returns whether a bump woke us (false = timeout).
    fn park(&self, seen: u64) -> bool {
        let guard = self.epoch.lock().expect("sweep parking lock poisoned");
        if *guard != seen {
            return true;
        }
        let (guard, _) = self
            .cond
            .wait_timeout(guard, PARK_TIMEOUT)
            .expect("sweep parking lock poisoned");
        *guard != seen
    }
}

/// Worker `t`'s loop: drain the home campaign `t % n`, then steal whole
/// batches from the other campaigns (round-robin scan from home).  In a
/// gated (adaptive) sweep, a worker that finds nothing to do **parks** on
/// the sweep condvar while any campaign is still live — an adaptive campaign
/// whose released batches are all claimed will release its next round (or
/// finish) when the in-flight ones land, and the boundary worker wakes the
/// pool.  In a fixed-n sweep every batch is released up front, so an empty
/// scan means the worker is done.
#[allow(clippy::too_many_arguments)]
fn worker<S: TelemetrySink>(
    t: usize,
    plans: &[Plan],
    units: &[SweepUnit<'_>],
    keep_records: bool,
    gated: bool,
    live_plans: &AtomicUsize,
    parking: &Parking,
    telemetry: &S,
    tx: &mpsc::Sender<(usize, SweepCampaignResult)>,
) {
    let n = plans.len();
    if n == 0 {
        return;
    }
    let home = t % n;
    loop {
        // Read the epoch *before* scanning: a round released between an
        // empty scan and the park bumps it, so the park returns immediately.
        let epoch = parking.epoch();
        let mut progressed = false;
        for offset in 0..n {
            let index = (home + offset) % n;
            let plan = &plans[index];
            if let Some(b) = plan.take_batch() {
                run_batch(
                    t,
                    plan,
                    index,
                    index != home,
                    b,
                    &units[plan.unit],
                    keep_records,
                    live_plans,
                    parking,
                    telemetry,
                    tx,
                );
                progressed = true;
                break;
            }
        }
        if !progressed {
            if !gated || live_plans.load(Ordering::Acquire) == 0 {
                return;
            }
            if S::ENABLED {
                let idle_start = Instant::now();
                let woken = parking.park(epoch);
                telemetry.worker_idle(t, idle_start.elapsed().as_nanos() as u64, woken);
            } else {
                parking.park(epoch);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_batch<S: TelemetrySink>(
    t: usize,
    plan: &Plan,
    index: usize,
    stolen: bool,
    b: usize,
    unit: &SweepUnit<'_>,
    keep_records: bool,
    live_plans: &AtomicUsize,
    parking: &Parking,
    telemetry: &S,
    tx: &mpsc::Sender<(usize, SweepCampaignResult)>,
) {
    let (start, end) = plan.spans[b];
    let batch_start = S::ENABLED.then(Instant::now);
    // Per-experiment instrumentation (latency `Instant` pair, per-experiment
    // sink calls) only at the Full level.  Everything below Full runs the
    // shared non-generic hot loop and reports one bulk tally per batch: the
    // experiment loop inlines the VM, and duplicating it per sink
    // monomorphization measurably de-optimizes the telemetered copy.
    let out = if S::ENABLED && telemetry.level() == TelemetryLevel::Full {
        run_span_timed(plan, index, b, unit, keep_records, telemetry)
    } else {
        run_span(plan, b, unit, keep_records)
    };
    if S::ENABLED && telemetry.level() != TelemetryLevel::Full {
        telemetry.experiment_batch(index, &out.counts);
    }
    let batch_counts = out.counts;
    let batch_n = u64::from(end - start);
    if S::ENABLED {
        let wall_ns = batch_start.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
        telemetry.worker_batch(t, batch_n, wall_ns, stolen);
        telemetry.emit(EventKind::BatchDone {
            cell: index,
            batch: b,
            experiments: batch_n,
            counts: batch_counts,
            wall_ns,
            worker: t,
            stolen,
        });
    }
    let completion =
        plan.complete_batch(b, out, keep_records, |round, merged, precision, stopped| {
            if S::ENABLED {
                let (sdc_hw, det_hw) = precision.half_widths(merged);
                telemetry.add(Metric::RoundsCompleted, 1);
                telemetry.cell_status(index, round, sdc_hw, det_hw, false);
                telemetry.emit(EventKind::RoundDone {
                    cell: index,
                    round,
                    experiments: merged.total(),
                    sdc_half_width_pct: sdc_hw,
                    detection_half_width_pct: det_hw,
                    stopped,
                });
            }
        });
    match completion {
        Completion::Pending => return,
        Completion::Released => {}
        Completion::Finished(result) => {
            if S::ENABLED {
                let rounds = result.result.adaptive.map_or(0, |status| status.rounds);
                telemetry.add(Metric::CellsFinished, 1);
                telemetry.cell_status(index, rounds, f64::NAN, f64::NAN, true);
                telemetry.emit(EventKind::CellFinished {
                    cell: index,
                    experiments: result.result.total(),
                    counts: result.result.counts,
                    rounds,
                });
            }
            let _ = tx.send((index, *result));
            live_plans.fetch_sub(1, Ordering::AcqRel);
        }
    }
    // Wake parked workers: either new batches were released or this campaign
    // finished (and idle workers may now be able to exit).
    parking.bump();
}

#[cfg(test)]
mod tests {
    use crate::campaign::Campaign;

    use super::*;
    use crate::experiment::{Experiment, ExperimentSpec};
    use crate::fault_model::{FaultModel, WinSize};
    use crate::replay::{CheckpointConfig, CheckpointStore};
    use crate::technique::Technique;
    use mbfi_ir::{Module, ModuleBuilder, Type};

    fn workload(n: i64) -> Module {
        let mut mb = ModuleBuilder::new("w");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let data = f.alloca(Type::I64, 16i64);
            f.counted_loop(Type::I64, 0i64, n, |f, i| {
                let slot = f.urem(Type::I64, i, 16i64);
                let v = f.mul(Type::I64, i, 5i64);
                f.store_elem(Type::I64, data, slot, v);
            });
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 16i64, |f, i| {
                let v = f.load_elem(Type::I64, data, i);
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, v);
                f.store(Type::I64, next, acc);
            });
            let total = f.load(Type::I64, acc);
            f.print_i64(total);
            f.ret_void();
        }
        mb.set_entry(main);
        mb.finish()
    }

    struct Fixture {
        code: CompiledModule,
        golden: GoldenRun,
        store: Option<CheckpointStore>,
    }

    fn fixture(n: i64, with_store: bool) -> Fixture {
        let module = workload(n);
        let code = CompiledModule::lower(&module);
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let store = with_store.then(|| {
            CheckpointStore::capture_compiled(&code, &golden, CheckpointConfig::with_interval(25))
                .unwrap()
        });
        Fixture {
            code,
            golden,
            store,
        }
    }

    fn grid_specs(experiments: usize) -> Vec<CampaignSpec> {
        let mut out = Vec::new();
        for technique in Technique::ALL {
            for model in [
                FaultModel::single_bit(),
                FaultModel::multi_bit(3, WinSize::Fixed(0)),
                FaultModel::multi_bit(4, WinSize::Random { lo: 1, hi: 12 }),
            ] {
                out.push(CampaignSpec {
                    technique,
                    model,
                    experiments,
                    seed: 0x5EE9,
                    hang_factor: 8,
                    threads: 1,
                });
            }
        }
        out
    }

    #[test]
    fn sweep_matches_serial_campaigns_per_cell() {
        let fixtures = [fixture(48, false), fixture(96, true)];
        let units: Vec<SweepUnit<'_>> = fixtures
            .iter()
            .map(|f| SweepUnit {
                code: &f.code,
                golden: &f.golden,
                store: f.store.as_ref(),
            })
            .collect();
        let campaigns: Vec<SweepCampaign> = (0..units.len())
            .flat_map(|unit| {
                grid_specs(40)
                    .into_iter()
                    .map(move |spec| SweepCampaign { unit, spec })
            })
            .collect();
        let report = Sweep::run(&units, &campaigns, &SweepConfig::default());
        assert_eq!(report.results.len(), campaigns.len());
        for (cell, got) in campaigns.iter().zip(&report.results) {
            let f = &fixtures[cell.unit];
            let serial = Campaign::run_compiled(&f.code, &f.golden, &cell.spec);
            assert_eq!(
                got.result, serial,
                "sweep cell diverged from the serial campaign runner"
            );
        }
    }

    #[test]
    fn sweep_is_invariant_across_threads_and_batch_sizes() {
        let f = fixture(64, true);
        let units = [SweepUnit {
            code: &f.code,
            golden: &f.golden,
            store: f.store.as_ref(),
        }];
        let campaigns: Vec<SweepCampaign> = grid_specs(30)
            .into_iter()
            .map(|spec| SweepCampaign { unit: 0, spec })
            .collect();
        let reference = Sweep::run(
            &units,
            &campaigns,
            &SweepConfig {
                threads: 1,
                batch_size: 1,
                keep_records: true,
                precision: None,
            },
        );
        for threads in [2, 4, 8] {
            for batch_size in [0, 3, 64] {
                let other = Sweep::run(
                    &units,
                    &campaigns,
                    &SweepConfig {
                        threads,
                        batch_size,
                        keep_records: true,
                        precision: None,
                    },
                );
                assert_eq!(
                    reference, other,
                    "sweep changed with threads={threads} batch={batch_size}"
                );
            }
        }
    }

    #[test]
    fn records_match_per_experiment_serial_execution() {
        let f = fixture(48, false);
        let units = [SweepUnit {
            code: &f.code,
            golden: &f.golden,
            store: None,
        }];
        let spec = CampaignSpec {
            technique: Technique::InjectOnWrite,
            model: FaultModel::multi_bit(3, WinSize::Fixed(2)),
            experiments: 25,
            seed: 0xACE,
            hang_factor: 8,
            threads: 1,
        };
        let report = Sweep::run(
            &units,
            &[SweepCampaign { unit: 0, spec }],
            &SweepConfig {
                threads: 4,
                batch_size: 4,
                keep_records: true,
                precision: None,
            },
        );
        let got = &report.results[0];
        assert_eq!(got.records.len(), spec.experiments);
        let (validated, _) = spec.validate();
        for (i, exp_spec) in ExperimentSpec::sample_campaign(&validated, &f.golden)
            .iter()
            .enumerate()
        {
            let serial = Experiment::run_compiled(&f.code, &f.golden, exp_spec, None);
            assert_eq!(
                got.records[i], serial.injections,
                "records of experiment {i} diverged"
            );
        }
    }

    #[test]
    fn warnings_are_carried_per_campaign_and_deduped_per_sweep() {
        let f = fixture(32, false);
        let units = [SweepUnit {
            code: &f.code,
            golden: &f.golden,
            store: None,
        }];
        let bad = CampaignSpec {
            experiments: 4,
            hang_factor: 0,
            threads: 1,
            ..CampaignSpec::default()
        };
        let ok = CampaignSpec {
            experiments: 4,
            hang_factor: 8,
            threads: 1,
            ..CampaignSpec::default()
        };
        let cells = [
            SweepCampaign { unit: 0, spec: bad },
            SweepCampaign { unit: 0, spec: ok },
            SweepCampaign { unit: 0, spec: bad },
        ];
        let report = Sweep::run(&units, &cells, &SweepConfig::default());
        let expected = CampaignWarning::HangFactorRaised {
            requested: 0,
            used: 2,
        };
        assert_eq!(report.warnings, vec![expected]);
        assert_eq!(report.results[0].result.warnings, vec![expected]);
        assert!(report.results[1].result.warnings.is_empty());
        assert_eq!(report.results[2].result.warnings, vec![expected]);
        assert_eq!(report.results[0].result.spec.hang_factor, 2);
    }

    /// A straight-line register-only workload: no loops (no hangs), no
    /// memory (no traps), and the only output is a printed *immediate* (not
    /// a register, so not an injection candidate).  Every candidate feeds a
    /// dead arithmetic chain, so every injection outcome is Benign — the
    /// extreme first round of the Wald-degeneracy regression below.
    fn all_benign_workload() -> Module {
        let mut mb = ModuleBuilder::new("benign");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let mut v = f.add(Type::I64, 1i64, 2i64);
            for k in 0..6i64 {
                v = f.mul(Type::I64, v, k + 3);
                v = f.add(Type::I64, v, k);
            }
            f.print_i64(7i64);
            f.ret_void();
        }
        mb.set_entry(main);
        mb.finish()
    }

    #[test]
    fn adaptive_sweep_is_invariant_across_threads_and_batch_sizes() {
        use crate::adaptive::Precision;
        let f = fixture(64, true);
        let units = [SweepUnit {
            code: &f.code,
            golden: &f.golden,
            store: f.store.as_ref(),
        }];
        let campaigns: Vec<SweepCampaign> = grid_specs(0)
            .into_iter()
            .map(|spec| SweepCampaign { unit: 0, spec })
            .collect();
        let precision = Some(Precision {
            target_half_width_pct: 12.0,
            min_experiments: 10,
            max_experiments: 60,
            ..Precision::default()
        });
        let reference = Sweep::run(
            &units,
            &campaigns,
            &SweepConfig {
                threads: 1,
                batch_size: 1,
                keep_records: true,
                precision,
            },
        );
        for r in &reference.results {
            let status = r.result.adaptive.expect("adaptive sweeps report status");
            assert_eq!(status.experiments(), r.result.total());
            assert_eq!(r.result.spec.experiments as u64, r.result.total());
            assert!(r.result.total() >= 10 && r.result.total() <= 60);
            assert!(status.reached_target || r.result.total() == 60);
            assert_eq!(r.records.len(), r.result.total() as usize);
        }
        // Scheduling freedom — thread count, batch size, steal schedule —
        // must not move any stop decision.
        for threads in [2usize, 4, 8] {
            for batch_size in [0usize, 1, 3, 64] {
                let other = Sweep::run(
                    &units,
                    &campaigns,
                    &SweepConfig {
                        threads,
                        batch_size,
                        keep_records: true,
                        precision,
                    },
                );
                assert_eq!(
                    reference, other,
                    "adaptive sweep changed with threads={threads} batch={batch_size}"
                );
            }
        }
    }

    /// An adaptive cell's result equals a fixed-n campaign of exactly the
    /// realized length — the executed set is a pure experiment-index prefix,
    /// with or without a checkpoint store.
    #[test]
    fn adaptive_results_equal_fixed_n_of_realized_length() {
        use crate::adaptive::Precision;
        let f = fixture(96, true);
        let units = [SweepUnit {
            code: &f.code,
            golden: &f.golden,
            store: f.store.as_ref(),
        }];
        let spec = CampaignSpec {
            technique: Technique::InjectOnRead,
            model: FaultModel::multi_bit(3, WinSize::Fixed(2)),
            experiments: 0, // ignored in adaptive mode
            seed: 0xADA7,
            hang_factor: 8,
            threads: 1,
        };
        let report = Sweep::run(
            &units,
            &[SweepCampaign { unit: 0, spec }],
            &SweepConfig {
                threads: 4,
                precision: Some(Precision {
                    target_half_width_pct: 15.0,
                    min_experiments: 12,
                    max_experiments: 80,
                    ..Precision::default()
                }),
                ..SweepConfig::default()
            },
        );
        let adaptive = &report.results[0].result;
        let realized = adaptive.total() as usize;
        let fixed = Campaign::run_compiled(
            &f.code,
            &f.golden,
            &CampaignSpec {
                experiments: realized,
                ..spec
            },
        );
        assert_eq!(adaptive.counts, fixed.counts);
        assert_eq!(adaptive.activation_histogram, fixed.activation_histogram);
        assert_eq!(
            adaptive.crash_activation_histogram,
            fixed.crash_activation_histogram
        );
    }

    /// Regression for the Wald degeneracy: on an all-benign workload the
    /// first round has 0 SDC and 0 Detection successes, so the Wald
    /// half-widths are exactly 0 and stopping fires right at
    /// `min_experiments` for ANY target.  The Wilson default keeps sampling
    /// until n genuinely supports the target.
    #[test]
    fn extreme_first_round_does_not_stop_a_wilson_cell() {
        use crate::adaptive::Precision;
        use crate::stats::IntervalMethod;
        let module = all_benign_workload();
        let code = CompiledModule::lower(&module);
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let units = [SweepUnit {
            code: &code,
            golden: &golden,
            store: None,
        }];
        let spec = CampaignSpec {
            technique: Technique::InjectOnRead,
            model: FaultModel::single_bit(),
            experiments: 0,
            seed: 7,
            hang_factor: 8,
            threads: 1,
        };
        let run = |interval| {
            let report = Sweep::run(
                &units,
                &[SweepCampaign { unit: 0, spec }],
                &SweepConfig {
                    precision: Some(Precision {
                        target_half_width_pct: 1.0,
                        min_experiments: 20,
                        max_experiments: 400,
                        interval,
                    }),
                    ..SweepConfig::default()
                },
            );
            report.results[0].result.clone()
        };
        let wald = run(IntervalMethod::Wald);
        assert_eq!(wald.counts.benign, wald.counts.total());
        assert_eq!(
            wald.counts.total(),
            20,
            "degenerate Wald interval stops at the first possible point"
        );
        let wilson = run(IntervalMethod::Wilson);
        // Wilson at 0/n reaches a 1-point half-width around n ≈ 189 — far
        // past the lucky first round, and before the 400 budget.
        assert!(
            wilson.counts.total() > 100,
            "Wilson must not stop on the extreme first round (stopped at {})",
            wilson.counts.total()
        );
        assert!(wilson.counts.total() < 400);
        let status = wilson.adaptive.unwrap();
        assert!(status.reached_target);
        assert!(status.realized_half_width_pct() <= 1.0);
    }

    #[test]
    fn zero_experiment_campaigns_produce_empty_results() {
        let f = fixture(32, false);
        let units = [SweepUnit {
            code: &f.code,
            golden: &f.golden,
            store: None,
        }];
        let cells = [SweepCampaign {
            unit: 0,
            spec: CampaignSpec {
                experiments: 0,
                threads: 1,
                ..CampaignSpec::default()
            },
        }];
        let report = Sweep::run(&units, &cells, &SweepConfig::default());
        assert_eq!(report.results[0].result.total(), 0);
        assert_eq!(report.results[0].result.activation_histogram, vec![0, 0]);
    }

    #[test]
    fn streamed_results_arrive_once_per_campaign() {
        let f = fixture(48, false);
        let units = [SweepUnit {
            code: &f.code,
            golden: &f.golden,
            store: None,
        }];
        let cells: Vec<SweepCampaign> = grid_specs(12)
            .into_iter()
            .map(|spec| SweepCampaign { unit: 0, spec })
            .collect();
        let mut seen = vec![0u32; cells.len()];
        Sweep::run_streamed_with(
            &units,
            &cells,
            &SweepConfig::default(),
            &NoopSink,
            |index, result| {
                seen[index] += 1;
                assert_eq!(result.result.total(), 12);
            },
        );
        assert!(seen.iter().all(|&n| n == 1));
    }
}
