//! The copy-on-write determinism contract, as a test suite: for **every**
//! registry workload, campaign results are byte-identical across replay
//! {off, on} × worker threads {1, 4, 8}, against a store-less single-worker
//! baseline.  Replayed experiments fork shared checkpoints through CoW
//! memory; forking and O(dirty-chunk) restores are pure execution-cost
//! optimisations — no sampled target, injected value, outcome, or histogram
//! may move.
//!
//! Two campaign shapes: a windowed double flip against a dense store
//! (golden / 16), and a three-flip same-instruction burst with a tight hang
//! factor against the default checkpoint interval.  The CoW memory engine
//! itself is checked against its deep-copy reference in
//! `crates/vm/tests/cow_memory.rs`.

use mbfi_core::replay::{CheckpointConfig, CheckpointStore};
use mbfi_core::{Campaign, CampaignSpec, FaultModel, GoldenRun, NoopSink, Technique, WinSize};
use mbfi_ir::CompiledModule;
use mbfi_workloads::{all_workloads, InputSize};

const THREADS: [usize; 3] = [1, 4, 8];

/// Run `spec` (with its seed mixed with each workload's golden length) on
/// every workload with and without a checkpoint store of the given interval,
/// at every thread count, and require each result to equal the store-less
/// single-worker baseline.
fn assert_replay_and_threads_invariant(spec: CampaignSpec, interval: impl Fn(&GoldenRun) -> u64) {
    for w in all_workloads() {
        let module = w.build_module(InputSize::Tiny);
        let code = CompiledModule::lower(&module);
        let golden = GoldenRun::capture_compiled(&code)
            .unwrap_or_else(|e| panic!("golden run of {} failed: {e}", w.name()));
        let store = CheckpointStore::capture_compiled(
            &code,
            &golden,
            CheckpointConfig::with_interval(interval(&golden)),
        )
        .unwrap_or_else(|e| panic!("capture of {} failed: {e}", w.name()));
        let mut spec = CampaignSpec {
            seed: spec.seed ^ golden.dynamic_instrs,
            threads: 1,
            ..spec
        };
        let baseline = Campaign::run_compiled(&code, &golden, &spec);

        for replay in [false, true] {
            for threads in THREADS {
                spec.threads = threads;
                let store = replay.then_some(&store);
                let mut got =
                    Campaign::run_compiled_with(&code, &golden, &spec, store, None, &NoopSink);
                // The result echoes its spec; the thread count is the one
                // knob the grid legitimately varies.
                got.spec.threads = baseline.spec.threads;
                assert_eq!(
                    baseline,
                    got,
                    "{}: campaign diverged at replay={replay} threads={threads}",
                    w.name()
                );
            }
        }
    }
}

#[test]
fn cow_campaigns_are_byte_identical_across_replay_and_threads() {
    assert_replay_and_threads_invariant(
        CampaignSpec {
            technique: Technique::InjectOnRead,
            model: FaultModel::multi_bit(2, WinSize::Fixed(8)),
            experiments: 6,
            seed: 0x5EC0,
            hang_factor: 8,
            threads: 1,
        },
        |golden| (golden.dynamic_instrs / 16).max(1),
    );
}

#[test]
fn burst_campaigns_are_byte_identical_across_replay_and_threads_at_the_default_interval() {
    assert_replay_and_threads_invariant(
        CampaignSpec {
            technique: Technique::InjectOnRead,
            model: FaultModel::multi_bit(3, WinSize::Fixed(0)),
            experiments: 24,
            seed: 0xC0B7,
            hang_factor: 4,
            threads: 1,
        },
        GoldenRun::default_checkpoint_interval,
    );
}
