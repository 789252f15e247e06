//! The shared scheduling core of both sweep drivers: per-campaign execution
//! plans, batch partial results and the (deliberately non-generic) hot
//! experiment loop.
//!
//! A [`Plan`] is driver-agnostic — the scoped driver
//! ([`Sweep::run_streamed_with`](super::Sweep::run_streamed_with)) and the
//! persistent [`SweepEngine`](super::SweepEngine) both claim batches through
//! [`Plan::take_batch`], execute them through [`run_span`] /
//! [`run_span_timed`], and hand each partial back through
//! [`Plan::complete_batch`], which runs the round protocol (completion
//! count, round gate, stop rule, release) and folds the finished campaign.
//! Everything that makes results byte-identical across thread counts, batch
//! sizes and steal schedules lives here, so the two drivers cannot diverge on
//! what a cell computes — only on *when* and *by whom* each batch runs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::adaptive::Precision;
use crate::campaign::{CampaignResult, CampaignSpec, CampaignWarning};
use crate::experiment::{Experiment, ExperimentResult, ExperimentSpec};
use crate::injector::InjectionRecord;
use crate::outcome::{Outcome, OutcomeCounts};
use crate::space::{ErrorSpace, REGISTER_BITS};
use crate::telemetry::TelemetrySink;

use super::{SweepCampaign, SweepCampaignResult, SweepUnit};

/// One campaign's execution plan: the validated spec, the experiment
/// execution order, the batch deque (an atomic cursor — batches are taken
/// from the front in index order; which *worker* takes each batch is the
/// only scheduling freedom, and results do not depend on it) and, for
/// adaptive campaigns, the round structure gating how many batches are
/// released.
///
/// Experiment specs are *not* retained: each is a pure function of
/// `(campaign seed, experiment index)` and is re-sampled (a few RNG draws)
/// by the worker that runs its batch, so a whole-grid sweep holds O(grid
/// cells), not O(grid experiments), between batches.
pub(crate) struct Plan {
    pub(crate) unit: usize,
    pub(crate) spec: CampaignSpec,
    pub(crate) warnings: Vec<CampaignWarning>,
    /// Execution order as original experiment indices, sorted by injection
    /// depth when the unit has a checkpoint store so the experiments of one
    /// batch restore neighbouring checkpoints; `None` = identity order.
    /// Adaptive campaigns sort within each round (never across a round
    /// boundary) so the executed *set* stays a pure index prefix.
    order: Option<Vec<u32>>,
    /// Per-batch experiment spans `[start, end)`; batches never straddle a
    /// round boundary.
    pub(crate) spans: Vec<(u32, u32)>,
    /// Cumulative batch count at each round boundary; fixed-n campaigns have
    /// exactly one "round" covering everything.
    round_batch_ends: Vec<usize>,
    /// The normalized precision spec; `None` = fixed-n.
    pub(crate) precision: Option<Precision>,
    pub(crate) max_hist: usize,
    cursor: AtomicUsize,
    /// Batches released so far; only ever advanced (to the next entry of
    /// `round_batch_ends`) by the unique worker that completes a round.
    released: AtomicUsize,
    completed: AtomicUsize,
    slots: Vec<Mutex<Option<BatchOut>>>,
}

/// Why a campaign could not be planned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// The experiment budget does not fit the `u32` experiment indices.
    TooManyExperiments {
        /// The requested budget.
        experiments: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::TooManyExperiments { experiments } => write!(
                f,
                "a campaign of {experiments} experiments exceeds the limit of {} per cell",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// What completing one batch did to its campaign.
pub(crate) enum Completion {
    /// Not a round boundary: other batches of the round are still running.
    Pending,
    /// A round boundary that released the next round's batches.
    Released,
    /// The campaign finished; its folded result.
    Finished(Box<SweepCampaignResult>),
}

/// The partial result of one batch.
pub(crate) struct BatchOut {
    pub(crate) counts: OutcomeCounts,
    activation: Vec<u64>,
    crash_activation: Vec<u64>,
    records: Vec<(u32, Vec<InjectionRecord>)>,
}

impl Plan {
    pub(crate) fn new(
        campaign: &SweepCampaign,
        unit: &SweepUnit<'_>,
        batch_size: usize,
        auto_batch: usize,
        precision: Option<Precision>,
    ) -> Result<Plan, PlanError> {
        let (mut spec, mut warnings) = campaign.spec.validate();
        let precision = precision.map(|p| p.normalized());
        // Round boundaries in experiments.  Fixed-n: one round = the whole
        // budget.  Adaptive: the budget is `max_experiments` and the spec's
        // own experiment count is ignored.  Experiment indices are stored as
        // `u32`, so a budget past `u32::MAX` is refused here, before anything
        // is sized by it.
        let round_ends: Vec<usize> = match &precision {
            Some(p) => p.round_ends(),
            None => vec![spec.experiments],
        };
        let budget = *round_ends.last().expect("round_ends is never empty");
        let round_ends: Vec<u32> = round_ends
            .iter()
            .map(|&end| u32::try_from(end))
            .collect::<Result<_, _>>()
            .map_err(|_| PlanError::TooManyExperiments {
                experiments: budget,
            })?;
        spec.experiments = budget;
        // A budget beyond the single bit-flip error space means sampling with
        // replacement cannot help further — possible for tiny inputs under an
        // adaptive `max_experiments`.  Surface it once per campaign.
        if spec.model.is_single() {
            let space = ErrorSpace::new(unit.golden.candidates(spec.technique), REGISTER_BITS)
                .single_bit_size();
            if space > 0 && budget as u128 > space {
                warnings.push(CampaignWarning::SamplingSaturated {
                    budget: budget as u64,
                    space: space.min(u128::from(u64::MAX)) as u64,
                });
            }
        }
        let batch = if batch_size != 0 {
            batch_size
        } else {
            match &precision {
                // Independent of the thread count by construction: the batch
                // cut decides round membership, so it must be a pure function
                // of the precision spec.
                Some(p) => p.round_step().div_ceil(4).clamp(1, 64),
                None => auto_batch,
            }
        };
        // With a store, order experiments by injection depth (the sampled
        // specs are transient here — only the ordering survives).  Adaptive
        // campaigns sort each round's index range separately so that the set
        // of executed experiments after r rounds is exactly `[0,
        // round_ends[r-1])` regardless of the store.
        let order = unit.store.is_some().then(|| {
            // `spec.experiments` already holds the full budget (set above).
            let keyed: Vec<u64> = ExperimentSpec::sample_campaign(&spec, unit.golden)
                .into_iter()
                .map(|s| s.first_target)
                .collect();
            let mut order: Vec<u32> = (0..round_ends[round_ends.len() - 1]).collect();
            let mut start = 0usize;
            for &end in &round_ends {
                order[start..end as usize].sort_by_key(|&i| keyed[i as usize]);
                start = end as usize;
            }
            order
        });
        // Cut each round into batches; a batch never straddles a round
        // boundary, so the released prefix is always a whole number of
        // rounds' worth of experiments.  A batch wider than `u32::MAX` is
        // one batch per round either way.
        let batch = u32::try_from(batch).unwrap_or(u32::MAX);
        let mut spans: Vec<(u32, u32)> = Vec::new();
        let mut round_batch_ends = Vec::with_capacity(round_ends.len());
        let mut start = 0u32;
        for &end in &round_ends {
            let mut s = start;
            while s < end {
                let e = s.saturating_add(batch).min(end);
                spans.push((s, e));
                s = e;
            }
            round_batch_ends.push(spans.len());
            start = end;
        }
        let batches = spans.len();
        let mut slots = Vec::with_capacity(batches);
        slots.resize_with(batches, || Mutex::new(None));
        Ok(Plan {
            unit: campaign.unit,
            spec,
            warnings,
            order,
            spans,
            released: AtomicUsize::new(*round_batch_ends.first().unwrap_or(&0)),
            round_batch_ends,
            precision,
            max_hist: spec.model.max_mbf as usize + 1,
            cursor: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            slots,
        })
    }

    pub(crate) fn batches(&self) -> usize {
        self.slots.len()
    }

    /// Take the next *released* batch index off the front of this campaign's
    /// deque.  `None` can mean "finished" or "waiting for the current round
    /// to complete" — callers cannot tell and do not need to.
    pub(crate) fn take_batch(&self) -> Option<usize> {
        loop {
            let released = self.released.load(Ordering::Acquire);
            let cur = self.cursor.load(Ordering::Relaxed);
            if cur >= released {
                return None;
            }
            if self
                .cursor
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return Some(cur);
            }
        }
    }

    pub(crate) fn empty_result(&self) -> SweepCampaignResult {
        SweepCampaignResult {
            result: CampaignResult {
                spec: self.spec,
                counts: OutcomeCounts::default(),
                activation_histogram: vec![0; self.max_hist],
                crash_activation_histogram: vec![0; self.max_hist],
                warnings: self.warnings.clone(),
                adaptive: None,
            },
            records: Vec::new(),
        }
    }

    /// Store batch `b`'s partial and apply the round protocol shared by both
    /// drivers.  Exactly one caller observes each round boundary:
    /// `fetch_add` hands out unique completion counts, and `released` only
    /// moves when that caller advances it here.  At an adaptive boundary the
    /// merged counts of every completed batch (an index-order fold) feed the
    /// stop rule, and `on_round(round, merged, precision, stopped)` reports
    /// the decision before anything is released or finalized.
    pub(crate) fn complete_batch(
        &self,
        b: usize,
        out: BatchOut,
        keep_records: bool,
        on_round: impl FnOnce(u32, &OutcomeCounts, &Precision, bool),
    ) -> Completion {
        *self.slots[b].lock().expect("sweep batch slot poisoned") = Some(out);
        let done = self.completed.fetch_add(1, Ordering::AcqRel) + 1;
        if done != self.released.load(Ordering::Acquire) {
            return Completion::Pending;
        }
        let round = self
            .round_batch_ends
            .iter()
            .position(|&e| e == done)
            .expect("released always equals a round boundary");
        let last_round = round + 1 == self.round_batch_ends.len();
        let mut finished = last_round;
        if let Some(precision) = &self.precision {
            let merged = self.merged_counts(done);
            finished |= precision.satisfied(&merged);
            on_round(round as u32 + 1, &merged, precision, finished);
        }
        if finished {
            Completion::Finished(Box::new(self.finalize(
                keep_records,
                done,
                round as u32 + 1,
            )))
        } else {
            self.released
                .store(self.round_batch_ends[round + 1], Ordering::Release);
            Completion::Released
        }
    }

    /// Merged outcome counts of the first `batches` batch slots, in index
    /// order (all of them are complete when this is called).
    fn merged_counts(&self, batches: usize) -> OutcomeCounts {
        let mut counts = OutcomeCounts::default();
        for slot in &self.slots[..batches] {
            let guard = slot.lock().expect("sweep batch slot poisoned");
            let out = guard
                .as_ref()
                .expect("sweep round evaluated with a missing batch");
            counts += out.counts;
        }
        counts
    }

    /// Fold the first `batches` completed batches, in batch-index order, into
    /// the final result.  Counts and histograms are commutative sums; records
    /// go back to their original experiment index.  `rounds` is the number of
    /// completed rounds (for the adaptive status).
    fn finalize(&self, keep_records: bool, batches: usize, rounds: u32) -> SweepCampaignResult {
        let realized = batches
            .checked_sub(1)
            .map(|last| self.spans[last].1 as usize)
            .unwrap_or(0);
        let mut counts = OutcomeCounts::default();
        let mut activation = vec![0u64; self.max_hist];
        let mut crash_activation = vec![0u64; self.max_hist];
        let mut records: Vec<Vec<InjectionRecord>> = if keep_records {
            vec![Vec::new(); realized]
        } else {
            Vec::new()
        };
        for slot in &self.slots[..batches] {
            let out = slot
                .lock()
                .expect("sweep batch slot poisoned")
                .take()
                .expect("sweep campaign finalized with a missing batch");
            counts += out.counts;
            for (i, v) in out.activation.iter().enumerate() {
                activation[i] += v;
            }
            for (i, v) in out.crash_activation.iter().enumerate() {
                crash_activation[i] += v;
            }
            for (orig, recs) in out.records {
                records[orig as usize] = recs;
            }
        }
        // The result's spec records what actually ran: for adaptive
        // campaigns, the realized experiment count.
        let spec = CampaignSpec {
            experiments: realized,
            ..self.spec
        };
        SweepCampaignResult {
            result: CampaignResult {
                spec,
                adaptive: self.precision.as_ref().map(|p| p.status(&counts, rounds)),
                counts,
                activation_histogram: activation,
                crash_activation_histogram: crash_activation,
                warnings: self.warnings.clone(),
            },
            records,
        }
    }
}

/// The hot experiment loop of one batch, deliberately **not** generic over
/// the telemetry sink: this function (and [`Experiment::run_compiled`]
/// under it) compiles exactly once, so a telemetered sweep at `Off` or
/// `Counters` executes the same machine code as an untelemetered one —
/// counters are tallied in bulk afterwards via
/// [`TelemetrySink::experiment_batch`].
pub(crate) fn run_span(
    plan: &Plan,
    b: usize,
    unit: &SweepUnit<'_>,
    keep_records: bool,
) -> BatchOut {
    let (start, end) = plan.spans[b];
    let mut out = BatchOut {
        counts: OutcomeCounts::default(),
        activation: vec![0; plan.max_hist],
        crash_activation: vec![0; plan.max_hist],
        records: Vec::new(),
    };
    for k in start..end {
        let orig = match &plan.order {
            Some(order) => order[k as usize],
            None => k,
        };
        let spec = ExperimentSpec::sample(
            plan.spec.technique,
            plan.spec.model,
            unit.golden,
            plan.spec.seed,
            orig as u64,
            plan.spec.hang_factor,
        );
        let result = Experiment::run_compiled(unit.code, unit.golden, &spec, unit.store);
        record_result(plan, &mut out, keep_records, orig, result);
    }
    out
}

/// The Full-level variant of [`run_span`]: each experiment is individually
/// timed into the latency histogram and reported through
/// [`TelemetrySink::experiment`], and checkpoint-restore savings are
/// published per experiment.  This per-experiment cost is exactly what the
/// Counters level avoids.
pub(crate) fn run_span_timed<S: TelemetrySink>(
    plan: &Plan,
    index: usize,
    b: usize,
    unit: &SweepUnit<'_>,
    keep_records: bool,
    telemetry: &S,
) -> BatchOut {
    let (start, end) = plan.spans[b];
    let mut out = BatchOut {
        counts: OutcomeCounts::default(),
        activation: vec![0; plan.max_hist],
        crash_activation: vec![0; plan.max_hist],
        records: Vec::new(),
    };
    for k in start..end {
        let orig = match &plan.order {
            Some(order) => order[k as usize],
            None => k,
        };
        let spec = ExperimentSpec::sample(
            plan.spec.technique,
            plan.spec.model,
            unit.golden,
            plan.spec.seed,
            orig as u64,
            plan.spec.hang_factor,
        );
        let t0 = Instant::now();
        let result =
            Experiment::run_compiled_with(unit.code, unit.golden, &spec, unit.store, telemetry);
        let latency_ns = t0.elapsed().as_nanos() as u64;
        telemetry.experiment(index, result.outcome, latency_ns.max(1));
        record_result(plan, &mut out, keep_records, orig, result);
    }
    out
}

/// Fold one experiment's result into a batch partial (shared tail of
/// [`run_span`] / [`run_span_timed`]).
fn record_result(
    plan: &Plan,
    out: &mut BatchOut,
    keep_records: bool,
    orig: u32,
    result: ExperimentResult,
) {
    out.counts.record(result.outcome);
    let slot = (result.activated as usize).min(plan.max_hist - 1);
    out.activation[slot] += 1;
    if result.outcome == Outcome::DetectedHwException {
        out.crash_activation[slot] += 1;
    }
    if keep_records {
        out.records.push((orig, result.injections));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_model::FaultModel;
    use crate::golden::GoldenRun;
    use crate::replay::{CheckpointConfig, CheckpointStore};
    use crate::technique::Technique;
    use mbfi_ir::{CompiledModule, ModuleBuilder, Type};

    fn tiny_unit_parts() -> (CompiledModule, GoldenRun) {
        let mut mb = ModuleBuilder::new("p");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let x = f.add(Type::I64, 40i64, 2i64);
            let y = f.mul(Type::I64, x, 3i64);
            f.print_i64(y);
            f.ret_void();
        }
        mb.set_entry(main);
        let code = CompiledModule::lower(&mb.finish());
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        (code, golden)
    }

    /// Drive every released batch of `plan` in index order through
    /// [`Plan::complete_batch`], recording what each completion reported.
    fn drive(plan: &Plan, unit: &SweepUnit<'_>) -> (Vec<&'static str>, Vec<(u32, u64, bool)>) {
        let mut completions = Vec::new();
        let mut rounds = Vec::new();
        while let Some(b) = plan.take_batch() {
            let out = run_span(plan, b, unit, false);
            let completion = plan.complete_batch(b, out, false, |round, merged, _, stopped| {
                rounds.push((round, merged.total(), stopped));
            });
            completions.push(match completion {
                Completion::Pending => "pending",
                Completion::Released => "released",
                Completion::Finished(result) => {
                    assert_eq!(result.result.total(), plan.spec.experiments as u64);
                    "finished"
                }
            });
        }
        (completions, rounds)
    }

    /// The shared round protocol: batches inside a round are `Pending`, an
    /// adaptive boundary that misses the target reports its merged round and
    /// releases the next one, and the last batch of the last round finishes
    /// the campaign exactly once.  Fixed-n plans are one round with no
    /// round reports.
    #[test]
    fn complete_batch_gates_rounds_and_finishes_once() {
        let (code, golden) = tiny_unit_parts();
        let unit = SweepUnit {
            code: &code,
            golden: &golden,
            store: None,
        };
        let campaign = SweepCampaign {
            unit: 0,
            spec: CampaignSpec {
                technique: Technique::InjectOnRead,
                model: FaultModel::single_bit(),
                experiments: 6,
                seed: 3,
                hang_factor: 10,
                threads: 1,
            },
        };
        // Rounds end at 4, 6 and 8 experiments; an unreachable target runs
        // them all.
        let precision = Precision {
            target_half_width_pct: 1e-9,
            min_experiments: 4,
            max_experiments: 8,
            ..Precision::default()
        };
        let plan = Plan::new(&campaign, &unit, 2, 64, Some(precision)).unwrap();
        let (completions, rounds) = drive(&plan, &unit);
        assert_eq!(completions, ["pending", "released", "released", "finished"]);
        assert_eq!(rounds, [(1, 4, false), (2, 6, false), (3, 8, true)]);

        let plan = Plan::new(&campaign, &unit, 2, 64, None).unwrap();
        let (completions, rounds) = drive(&plan, &unit);
        assert_eq!(completions, ["pending", "pending", "finished"]);
        assert!(rounds.is_empty());
    }

    /// A budget one past `u32::MAX` used to wrap to zero experiments; it is
    /// refused before anything is sized by it (with a store, the depth sort
    /// would otherwise sample every spec first).
    #[test]
    fn budget_beyond_u32_is_an_error() {
        let (code, golden) = tiny_unit_parts();
        let store =
            CheckpointStore::capture_compiled(&code, &golden, CheckpointConfig::with_interval(1))
                .unwrap();
        let unit = SweepUnit {
            code: &code,
            golden: &golden,
            store: Some(&store),
        };
        let experiments = u32::MAX as usize + 1;
        let campaign = SweepCampaign {
            unit: 0,
            spec: CampaignSpec {
                technique: Technique::InjectOnWrite,
                model: FaultModel::single_bit(),
                experiments,
                seed: 1,
                hang_factor: 10,
                threads: 1,
            },
        };
        let err = Plan::new(&campaign, &unit, 0, 64, None).err();
        assert_eq!(err, Some(PlanError::TooManyExperiments { experiments }));
        // A budget that fits still plans.
        let small = SweepCampaign {
            spec: CampaignSpec {
                experiments: 3,
                ..campaign.spec
            },
            ..campaign
        };
        assert_eq!(
            Plan::new(&small, &unit, 0, 64, None).unwrap().spans,
            vec![(0, 3)]
        );
    }
}
