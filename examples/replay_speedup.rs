//! Walkthrough of the checkpointed golden-run replay engine: run the same
//! campaign with and without a checkpoint store and print the measured
//! speedup plus proof that the results are byte-identical.
//!
//! Run with: `cargo run --release -p mbfi-bench --example replay_speedup`

use mbfi_core::replay::{CheckpointConfig, CheckpointStore};
use mbfi_core::{Campaign, CampaignSpec, FaultModel, GoldenRun, NoopSink, Technique, WinSize};
use mbfi_ir::CompiledModule;
use mbfi_workloads::{workload_by_name, InputSize};
use std::time::Instant;

fn main() {
    // 1. Prepare a real workload and its golden run, exactly as any campaign
    //    would.
    let workload = workload_by_name("dijkstra").expect("dijkstra is in the registry");
    let module = workload.build_module(InputSize::Tiny);
    let code = CompiledModule::lower(&module);
    let golden = GoldenRun::capture_compiled(&code).expect("golden run");
    println!("workload             : {}", workload.name());
    println!("golden instructions  : {}", golden.dynamic_instrs);

    // 2. Capture golden-run checkpoints.  The interval is the knob: smaller
    //    means less tail to replay per experiment but more capture time and
    //    memory.  The store enforces a byte budget and simply stops adding
    //    checkpoints when it is reached.
    let interval = (golden.dynamic_instrs / 128).max(1);
    let config = CheckpointConfig {
        interval,
        max_bytes: 64 << 20,
    };
    let capture_start = Instant::now();
    let store = CheckpointStore::capture_compiled(&code, &golden, config).expect("capture");
    println!(
        "checkpoints          : {} every {} instrs ({:.1} MiB, captured in {:.1} ms)",
        store.len(),
        store.interval(),
        store.stored_bytes() as f64 / (1 << 20) as f64,
        capture_start.elapsed().as_secs_f64() * 1e3
    );

    // 3. Run the same campaign twice: full re-execution vs replay.
    let spec = CampaignSpec {
        technique: Technique::InjectOnRead,
        model: FaultModel::multi_bit(3, WinSize::Fixed(10)),
        experiments: 300,
        seed: 0xD1785EED,
        hang_factor: 10,
        threads: 0,
    };
    let t = Instant::now();
    let full = Campaign::run_compiled(&code, &golden, &spec);
    let full_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let replayed =
        Campaign::run_compiled_with(&code, &golden, &spec, Some(&store), None, &NoopSink);
    let replay_secs = t.elapsed().as_secs_f64();

    // 4. The determinism contract: identical results, field for field.
    assert_eq!(full, replayed, "replay must be byte-identical");
    println!("full re-execution    : {full_secs:.3} s");
    println!("checkpointed replay  : {replay_secs:.3} s");
    println!(
        "speedup              : {:.2}x",
        full_secs / replay_secs.max(1e-9)
    );
    println!(
        "results identical    : {} experiments, SDC {:.1}%, outcome counts match",
        full.total(),
        full.sdc_pct()
    );
}
