//! The determinism contract of the snapshot & replay engine, as a test
//! suite: for **every** registry workload, campaigns executed through a
//! checkpoint store — at several checkpoint intervals K — are byte-identical
//! to full re-execution (same outcome counts, same histograms, and the same
//! per-experiment results field for field).

use mbfi_core::replay::{last_quartile_target, CheckpointConfig, CheckpointStore};
use mbfi_core::{
    Campaign, CampaignSpec, Experiment, ExperimentSpec, FaultModel, GoldenRun, Metric, NoopSink,
    Outcome, Technique, TelemetryHub, TelemetryLevel, WinSize,
};
use mbfi_ir::CompiledModule;
use mbfi_workloads::{all_workloads, InputSize};

/// The checkpoint intervals the suite sweeps.  K = 1 snapshots at every
/// instruction boundary, so it also exercises the memory-budget truncation on
/// longer workloads; K = 64 leaves long tails to replay.
const INTERVALS: [u64; 3] = [1, 7, 64];

/// Per-store memory budget, deliberately small enough that K = 1 captures of
/// the longer workloads truncate.
const BUDGET_BYTES: usize = 8 << 20;

#[test]
fn replay_campaigns_are_byte_identical_for_every_workload() {
    for w in all_workloads() {
        let module = w.build_module(InputSize::Tiny);
        let code = CompiledModule::lower(&module);
        let golden = GoldenRun::capture_compiled(&code)
            .unwrap_or_else(|e| panic!("golden run of {} failed: {e}", w.name()));
        let spec = CampaignSpec {
            technique: Technique::InjectOnRead,
            model: FaultModel::multi_bit(2, WinSize::Fixed(8)),
            experiments: 6,
            seed: 0xE90 ^ golden.dynamic_instrs,
            hang_factor: 8,
            threads: 2,
        };
        let full = Campaign::run_compiled(&code, &golden, &spec);
        for k in INTERVALS {
            let store = CheckpointStore::capture_compiled(
                &code,
                &golden,
                CheckpointConfig {
                    interval: k,
                    max_bytes: BUDGET_BYTES,
                },
            )
            .unwrap_or_else(|e| panic!("capture of {} (K={k}) failed: {e}", w.name()));
            let replayed =
                Campaign::run_compiled_with(&code, &golden, &spec, Some(&store), None, &NoopSink);
            assert_eq!(
                full,
                replayed,
                "{} K={k}: replayed campaign differs from full execution",
                w.name()
            );
        }
    }
}

#[test]
fn replay_experiments_are_byte_identical_for_every_workload() {
    for w in all_workloads() {
        let module = w.build_module(InputSize::Tiny);
        let code = CompiledModule::lower(&module);
        let golden = GoldenRun::capture_compiled(&code)
            .unwrap_or_else(|e| panic!("golden run of {} failed: {e}", w.name()));
        for k in INTERVALS {
            let store = CheckpointStore::capture_compiled(
                &code,
                &golden,
                CheckpointConfig {
                    interval: k,
                    max_bytes: BUDGET_BYTES,
                },
            )
            .unwrap_or_else(|e| panic!("capture of {} (K={k}) failed: {e}", w.name()));
            for (i, technique) in [Technique::InjectOnRead, Technique::InjectOnWrite]
                .into_iter()
                .enumerate()
            {
                let spec = ExperimentSpec::sample(
                    technique,
                    FaultModel::multi_bit(3, WinSize::Random { lo: 1, hi: 32 }),
                    &golden,
                    0x1DE7 + k,
                    i as u64,
                    8,
                );
                let full = Experiment::run_compiled(&code, &golden, &spec, None);
                let replayed = Experiment::run_compiled(&code, &golden, &spec, Some(&store));
                assert_eq!(
                    full,
                    replayed,
                    "{} K={k} {technique}: per-experiment result differs under replay \
                     (spec: {spec:?})",
                    w.name()
                );
            }
        }
    }
}

/// Injections forced deep into the run — the case the replay engine exists
/// for — restore the deepest checkpoints and must still match exactly.
#[test]
fn late_injections_replay_identically() {
    for name in ["qsort", "CRC32", "histo"] {
        let w = mbfi_workloads::workload_by_name(name).unwrap();
        let module = w.build_module(InputSize::Tiny);
        let code = CompiledModule::lower(&module);
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let store = CheckpointStore::capture_compiled(
            &code,
            &golden,
            CheckpointConfig {
                interval: (golden.dynamic_instrs / 64).max(1),
                max_bytes: BUDGET_BYTES,
            },
        )
        .unwrap();
        for technique in Technique::ALL {
            let candidates = golden.candidates(technique);
            for i in 0..8u64 {
                let mut spec = ExperimentSpec::sample(
                    technique,
                    FaultModel::multi_bit(4, WinSize::Fixed(0)),
                    &golden,
                    0x1A7E,
                    i,
                    8,
                );
                spec.first_target = last_quartile_target(candidates, spec.first_target);
                let full = Experiment::run_compiled(&code, &golden, &spec, None);
                let replayed = Experiment::run_compiled(&code, &golden, &spec, Some(&store));
                assert_eq!(full, replayed, "{name} {technique} late injection {i}");
            }
        }
    }
}

/// Windowed multi-bit specs hand the tail to the no-op loop only after the
/// last of several flips, in the middle of the run.  The tree walker keeps
/// the injector attached to the very end and has no store, so it is the
/// oracle for both the hand-off and the convergence exit at every K.
#[test]
fn windowed_multi_bit_replay_matches_the_hooked_walker() {
    let hub = TelemetryHub::new(TelemetryLevel::Full);
    for w in all_workloads() {
        let module = w.build_module(InputSize::Tiny);
        let code = CompiledModule::lower(&module);
        let golden = GoldenRun::capture_compiled(&code)
            .unwrap_or_else(|e| panic!("golden run of {} failed: {e}", w.name()));
        for k in INTERVALS {
            let store = CheckpointStore::capture_compiled(
                &code,
                &golden,
                CheckpointConfig {
                    interval: k,
                    max_bytes: BUDGET_BYTES,
                },
            )
            .unwrap_or_else(|e| panic!("capture of {} (K={k}) failed: {e}", w.name()));
            for (i, model) in [
                FaultModel::multi_bit(3, WinSize::Fixed(4)),
                FaultModel::multi_bit(2, WinSize::Random { lo: 1, hi: 64 }),
            ]
            .into_iter()
            .enumerate()
            {
                for technique in Technique::ALL {
                    let spec =
                        ExperimentSpec::sample(technique, model, &golden, 0x3B17 + k, i as u64, 8);
                    let oracle = Experiment::run_legacy(&module, &golden, &spec);
                    let replayed =
                        Experiment::run_compiled_with(&code, &golden, &spec, Some(&store), &hub);
                    assert_eq!(
                        oracle,
                        replayed,
                        "{} K={k} {technique}: replay differs from the hooked walker \
                         (spec: {spec:?})",
                        w.name()
                    );
                }
            }
        }
    }
    assert!(
        hub.counter(Metric::HookFreeInstrs) > 0,
        "no windowed experiment ever handed its tail to the no-op loop"
    );
}

/// The convergence exit must actually fire — a comparison that never
/// matches would pass every equivalence check above — and every experiment
/// it finishes must equal the one that ran to the end.  Counted through
/// telemetry, not timing: at Small inputs, single-bit faults on all 15
/// workloads.
#[test]
fn convergence_exit_fires_and_matches_full_execution() {
    let hub = TelemetryHub::new(TelemetryLevel::Full);
    let mut converged_workloads = Vec::new();
    for w in all_workloads() {
        let module = w.build_module(InputSize::Small);
        let code = CompiledModule::lower(&module);
        let golden = GoldenRun::capture_compiled(&code)
            .unwrap_or_else(|e| panic!("golden run of {} failed: {e}", w.name()));
        let config = CheckpointConfig::auto_for(&golden, CheckpointConfig::default().max_bytes);
        let store = CheckpointStore::capture_compiled(&code, &golden, config)
            .unwrap_or_else(|e| panic!("capture of {} failed: {e}", w.name()));
        let mut converged = 0;
        for i in 0..24u64 {
            let technique = Technique::ALL[(i % 2) as usize];
            let spec =
                ExperimentSpec::sample(technique, FaultModel::single_bit(), &golden, 0xC0DE, i, 20);
            let before = hub.counter(Metric::ConvergedExperiments);
            let replayed = Experiment::run_compiled_with(&code, &golden, &spec, Some(&store), &hub);
            if hub.counter(Metric::ConvergedExperiments) > before {
                converged += 1;
                assert_eq!(replayed.outcome, Outcome::Benign);
                assert_eq!(replayed.dynamic_instrs, golden.dynamic_instrs);
                let full = Experiment::run_compiled(&code, &golden, &spec, None);
                assert_eq!(full, replayed, "{} converged experiment {i}", w.name());
            }
        }
        if converged > 0 {
            converged_workloads.push(w.name());
        }
    }
    assert!(
        !converged_workloads.is_empty(),
        "the convergence exit never fired on any workload"
    );
    assert!(hub.counter(Metric::ConvergedInstrsSkipped) > 0);
}
