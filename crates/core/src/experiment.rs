//! A single fault-injection experiment.

use crate::fault_model::FaultModel;
use crate::golden::GoldenRun;
use crate::injector::{InjectionRecord, InjectorHook};
use crate::outcome::{classify, Outcome};
use crate::replay::CheckpointStore;
use crate::rng::{Rng, SmallRng};
use crate::technique::Technique;
use crate::telemetry::{Metric, TelemetryLevel, TelemetrySink};
use mbfi_ir::{CompiledModule, Module};
use mbfi_vm::{Limits, NoopHook, RunOutcome, RunResult, Vm, WalkerVm};

/// Everything needed to run (and reproduce) one experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentSpec {
    /// Injection technique.
    pub technique: Technique,
    /// Fault model (max-MBF and win-size).
    pub model: FaultModel,
    /// Candidate ordinal of the first injection.
    pub first_target: u64,
    /// Concrete window size for this experiment (pre-sampled when the model
    /// uses a random range).
    pub win_size_value: u64,
    /// Seed for the injector's bit/operand selection.
    pub seed: u64,
    /// Hang threshold as a multiple of the golden dynamic instruction count.
    pub hang_factor: u64,
}

impl ExperimentSpec {
    /// Sample a specification for experiment number `index` of a campaign.
    ///
    /// The first-injection location is drawn uniformly from the golden run's
    /// candidate count; random window ranges are sampled per experiment.
    pub fn sample(
        technique: Technique,
        model: FaultModel,
        golden: &GoldenRun,
        campaign_seed: u64,
        index: u64,
        hang_factor: u64,
    ) -> ExperimentSpec {
        let mut rng = SmallRng::seed_from_u64(
            campaign_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(index),
        );
        let candidates = golden.candidates(technique).max(1);
        ExperimentSpec {
            technique,
            model,
            first_target: rng.gen_range(0..candidates),
            win_size_value: model.win_size.sample(&mut rng),
            seed: rng.next_u64(),
            hang_factor,
        }
    }

    /// Pre-sample every experiment of a campaign, in experiment-index order.
    ///
    /// Sampling is cheap (a few RNG draws per experiment) and depends only on
    /// `(spec.seed, index)`, which is what lets campaign runners batch,
    /// reorder and steal experiments without changing any result.  Both the
    /// per-campaign runner and the whole-grid [`crate::sweep::Sweep`] draw
    /// their specs through this one function so they cannot drift.
    pub fn sample_campaign(spec: &crate::CampaignSpec, golden: &GoldenRun) -> Vec<ExperimentSpec> {
        (0..spec.experiments)
            .map(|index| {
                ExperimentSpec::sample(
                    spec.technique,
                    spec.model,
                    golden,
                    spec.seed,
                    index as u64,
                    spec.hang_factor,
                )
            })
            .collect()
    }
}

/// Result of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// The specification that produced this result.
    pub spec: ExperimentSpec,
    /// Outcome category.
    pub outcome: Outcome,
    /// Number of bit-flips actually applied before the run ended
    /// ("activated errors").
    pub activated: u32,
    /// Dynamic instructions executed by the faulty run.
    pub dynamic_instrs: u64,
    /// The applied flips.
    pub injections: Vec<InjectionRecord>,
}

/// Cost accounting of one experiment run, surfaced to telemetry only.
///
/// The run's logical dynamic instructions split as `restored_dyn` (the
/// replayed prefix) + `hooked_instrs` + `hook_free_instrs` +
/// `converged_skipped`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ExperimentCost {
    /// Dynamic instructions skipped by a checkpoint restore, if one happened.
    pub restored_dyn: Option<u64>,
    /// Dynamic instructions executed under the [`InjectorHook`].
    pub hooked_instrs: u64,
    /// Dynamic instructions executed on the no-op loop after the injector
    /// let go.
    pub hook_free_instrs: u64,
    /// Dynamic instructions of the golden run left when the tail's state
    /// matched a golden checkpoint and the run finished as golden, if it did.
    pub converged_skipped: Option<u64>,
    /// Copy-on-write chunk traffic of the run.
    pub cow: mbfi_vm::CowStats,
}

/// Runs single experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct Experiment;

impl Experiment {
    /// Execute one experiment: run the pre-lowered workload with an
    /// [`InjectorHook`] configured from `spec` and classify the outcome
    /// against the golden run — the hot path every campaign worker runs.
    ///
    /// When a [`CheckpointStore`] is supplied, the run restores the deepest
    /// checkpoint at or before the first injection point and executes only
    /// the tail; the result is byte-identical to the full re-execution path
    /// for any spec (see the `replay` module docs for why).  `hang_factor`
    /// is taken from the spec verbatim; campaigns validate it once up front
    /// (see [`crate::CampaignSpec::validate`]).
    ///
    /// Deliberately **not** generic over a telemetry sink: the VM
    /// interpreter loop inlines into this function, and duplicating it per
    /// sink monomorphization measurably de-optimizes the copy the telemetry
    /// path runs (~35% on small workloads).  Keeping one non-generic body
    /// means every caller — telemetered or not — executes the same machine
    /// code, which is also what makes the byte-invariance contract easy to
    /// trust.  See [`Experiment::run_compiled_with`] for the observing
    /// wrapper.
    ///
    /// The run executes on the injector-hooked loop only until the last
    /// flip has landed, then on the `NoopHook` loop; with a store, it also
    /// stops early when the tail reconverges to the golden run (see the
    /// `replay` module docs).
    pub fn run_compiled(
        code: &CompiledModule,
        golden: &GoldenRun,
        spec: &ExperimentSpec,
        store: Option<&CheckpointStore>,
    ) -> ExperimentResult {
        Self::run_compiled_inner(code, golden, spec, store).0
    }

    /// The shared non-generic execution body: the result plus the run's cost
    /// accounting (checkpoint restore, where the tail ran, copy-on-write
    /// chunk traffic).  Costs are deliberately *not* part of
    /// [`ExperimentResult`] — results must stay byte-identical with or
    /// without replay, and the cost side obviously differs between the
    /// paths.
    pub(crate) fn run_compiled_inner(
        code: &CompiledModule,
        golden: &GoldenRun,
        spec: &ExperimentSpec,
        store: Option<&CheckpointStore>,
    ) -> (ExperimentResult, ExperimentCost) {
        let mut hook = InjectorHook::new(
            spec.technique,
            spec.model.max_mbf,
            spec.win_size_value,
            spec.first_target,
            spec.seed,
        );
        let limits = golden.faulty_run_limits(spec.hang_factor);
        let mut cost = ExperimentCost::default();
        let mut vm = match store.and_then(|s| s.nearest_for(spec.technique, spec.first_target)) {
            Some(cp) => {
                hook.resume_candidates(cp.candidates_for(spec.technique));
                cost.restored_dyn = Some(cp.snapshot().dyn_count());
                // Fork straight off the shared checkpoint: copy-on-write
                // copies no memory at all up front.
                Vm::from_snapshot(code, limits, cp.snapshot())
            }
            None => Vm::new(code, limits),
        };
        let start = vm.dyn_count();
        // The injector-hooked loop runs until the run ends or, at the first
        // control transfer after the last flip, the injector lets go.
        let result = match vm.run_until(&mut hook, u64::MAX) {
            Some(result) => {
                cost.hooked_instrs = result.dynamic_instrs - start;
                result
            }
            None => {
                cost.hooked_instrs = vm.dyn_count() - start;
                Self::run_tail(&mut vm, golden, store, &limits, &mut cost)
            }
        };
        cost.cow = vm.cow_stats();
        (Self::finish(golden, spec, result, hook), cost)
    }

    /// Finish a run whose injector has let go, on the [`NoopHook`] loop.
    ///
    /// With a store, the tail pauses at each later checkpoint and compares
    /// the VM with the golden state frozen there.  On a match the run must
    /// end exactly as the golden run did (execution is deterministic, and
    /// [`CheckpointStore::converges_under`] rules out a limit the golden
    /// continuation would hit here but not there), so it stops and reports
    /// the golden completion, instruction count and output.
    fn run_tail(
        vm: &mut Vm<'_>,
        golden: &GoldenRun,
        store: Option<&CheckpointStore>,
        limits: &Limits,
        cost: &mut ExperimentCost,
    ) -> RunResult {
        let from = vm.dyn_count();
        let checkpoints = match store {
            Some(s) if s.converges_under(golden, limits) => s.checkpoints_from(from),
            _ => &[],
        };
        for cp in checkpoints {
            if let Some(result) = vm.run_until(&mut NoopHook, cp.dyn_index) {
                cost.hook_free_instrs = result.dynamic_instrs - from;
                return result;
            }
            if vm.matches_snapshot(cp.snapshot()) {
                cost.hook_free_instrs = cp.dyn_index - from;
                cost.converged_skipped = Some(golden.dynamic_instrs - cp.dyn_index);
                return RunResult {
                    // The entry function's return value is not part of an
                    // experiment result; only completion, count and output are.
                    outcome: RunOutcome::Completed { ret: None },
                    dynamic_instrs: golden.dynamic_instrs,
                    output: golden.output.clone(),
                };
            }
        }
        let result = vm.run_to_end(&mut NoopHook);
        cost.hook_free_instrs = result.dynamic_instrs - from;
        result
    }

    /// [`Experiment::run_compiled`] with a telemetry sink: when the
    /// experiment fast-forwards from a checkpoint, the restore and the
    /// dynamic instructions it skipped are published as
    /// [`Metric::CheckpointRestores`] / [`Metric::ReplayInstrsSkipped`]; the
    /// instructions run under the injector and after it let go as
    /// [`Metric::HookedInstrs`] / [`Metric::HookFreeInstrs`]; a convergence
    /// exit as [`Metric::ConvergedExperiments`] /
    /// [`Metric::ConvergedInstrsSkipped`]; and the run's copy-on-write
    /// traffic as [`Metric::CowChunksCopied`] /
    /// [`Metric::CowRestoreBytesSaved`].  Telemetry never influences the
    /// result (the sink only observes), the execution body stays the one
    /// non-generic [`Experiment::run_compiled_inner`] so it is off the
    /// monomorphization lottery, and the publishing block compiles away for
    /// `NoopSink`.
    pub fn run_compiled_with<S: TelemetrySink>(
        code: &CompiledModule,
        golden: &GoldenRun,
        spec: &ExperimentSpec,
        store: Option<&CheckpointStore>,
        telemetry: &S,
    ) -> ExperimentResult {
        let (result, cost) = Self::run_compiled_inner(code, golden, spec, store);
        if S::ENABLED && telemetry.level() > TelemetryLevel::Off {
            if let Some(skipped) = cost.restored_dyn {
                telemetry.add(Metric::CheckpointRestores, 1);
                telemetry.add(Metric::ReplayInstrsSkipped, skipped);
            }
            if cost.hooked_instrs > 0 {
                telemetry.add(Metric::HookedInstrs, cost.hooked_instrs);
            }
            if cost.hook_free_instrs > 0 {
                telemetry.add(Metric::HookFreeInstrs, cost.hook_free_instrs);
            }
            if let Some(skipped) = cost.converged_skipped {
                telemetry.add(Metric::ConvergedExperiments, 1);
                telemetry.add(Metric::ConvergedInstrsSkipped, skipped);
            }
            if cost.cow.cow_chunks_copied > 0 {
                telemetry.add(Metric::CowChunksCopied, cost.cow.cow_chunks_copied);
            }
            if cost.cow.restore_bytes_saved > 0 {
                telemetry.add(Metric::CowRestoreBytesSaved, cost.cow.restore_bytes_saved);
            }
        }
        result
    }

    /// Execute one experiment on the legacy tree walker.
    ///
    /// Exists for the pipeline-equivalence suite and the `exec_bench`
    /// baseline: for any spec the result must equal
    /// [`Experiment::run_compiled`] field for field.  No checkpoint replay — the walker always executes
    /// from instruction zero.
    pub fn run_legacy(
        module: &Module,
        golden: &GoldenRun,
        spec: &ExperimentSpec,
    ) -> ExperimentResult {
        let mut hook = InjectorHook::new(
            spec.technique,
            spec.model.max_mbf,
            spec.win_size_value,
            spec.first_target,
            spec.seed,
        );
        let limits = golden.faulty_run_limits(spec.hang_factor);
        let result = WalkerVm::new(module, limits).run(&mut hook);
        Self::finish(golden, spec, result, hook)
    }

    fn finish(
        golden: &GoldenRun,
        spec: &ExperimentSpec,
        result: mbfi_vm::RunResult,
        hook: InjectorHook,
    ) -> ExperimentResult {
        let outcome = classify(&result, &golden.output);
        ExperimentResult {
            spec: *spec,
            outcome,
            activated: hook.activated(),
            dynamic_instrs: result.dynamic_instrs,
            injections: hook.into_records(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_model::WinSize;
    use mbfi_ir::{Module, ModuleBuilder, Type};

    fn workload() -> Module {
        let mut mb = ModuleBuilder::new("w");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let data = f.alloca(Type::I64, 32i64);
            f.counted_loop(Type::I64, 0i64, 32i64, |f, i| {
                let sq = f.mul(Type::I64, i, i);
                f.store_elem(Type::I64, data, i, sq);
            });
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 32i64, |f, i| {
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

    #[test]
    fn sampled_specs_are_reproducible_and_in_range() {
        let m = workload();
        let code = CompiledModule::lower(&m);
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let model = FaultModel::multi_bit(3, WinSize::Random { lo: 2, hi: 10 });
        let a = ExperimentSpec::sample(Technique::InjectOnRead, model, &golden, 42, 7, 10);
        let b = ExperimentSpec::sample(Technique::InjectOnRead, model, &golden, 42, 7, 10);
        assert_eq!(a, b, "same seed and index give the same spec");
        assert!(a.first_target < golden.candidates(Technique::InjectOnRead));
        assert!((2..=10).contains(&a.win_size_value));
        let c = ExperimentSpec::sample(Technique::InjectOnRead, model, &golden, 42, 8, 10);
        assert_ne!(a, c, "different indices give different specs");
    }

    #[test]
    fn experiments_are_deterministic() {
        let m = workload();
        let code = CompiledModule::lower(&m);
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let spec = ExperimentSpec::sample(
            Technique::InjectOnWrite,
            FaultModel::single_bit(),
            &golden,
            7,
            3,
            10,
        );
        let r1 = Experiment::run_compiled(&code, &golden, &spec, None);
        let r2 = Experiment::run_compiled(&code, &golden, &spec, None);
        assert_eq!(r1, r2);
        assert!(r1.activated <= 1);
    }

    #[test]
    fn single_bit_experiments_cover_multiple_outcomes() {
        let m = workload();
        let code = CompiledModule::lower(&m);
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..300 {
            let spec = ExperimentSpec::sample(
                Technique::InjectOnRead,
                FaultModel::single_bit(),
                &golden,
                123,
                i,
                10,
            );
            let r = Experiment::run_compiled(&code, &golden, &spec, None);
            seen.insert(r.outcome);
            assert!(r.activated <= 1);
            assert!(r.injections.len() == r.activated as usize);
        }
        // A realistic workload shows at least benign results, detections and SDCs.
        assert!(seen.contains(&Outcome::Benign), "outcomes seen: {seen:?}");
        assert!(
            seen.contains(&Outcome::DetectedHwException),
            "outcomes seen: {seen:?}"
        );
        assert!(seen.contains(&Outcome::Sdc), "outcomes seen: {seen:?}");
    }

    #[test]
    fn multi_bit_activations_never_exceed_max_mbf() {
        let m = workload();
        let code = CompiledModule::lower(&m);
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let model = FaultModel::multi_bit(5, WinSize::Fixed(4));
        for i in 0..100 {
            let spec = ExperimentSpec::sample(Technique::InjectOnWrite, model, &golden, 99, i, 10);
            let r = Experiment::run_compiled(&code, &golden, &spec, None);
            assert!(r.activated <= 5);
        }
    }
}
