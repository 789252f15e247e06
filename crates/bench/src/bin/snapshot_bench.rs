//! Measures the copy-on-write snapshot + replay pipeline against full
//! re-execution and writes `BENCH_snapshot.json`.
//!
//! Every replayed experiment starts by forking a golden-run checkpoint; with
//! copy-on-write memory the fork re-points chunk Arcs instead of copying the
//! image, so the per-experiment floor is O(dirty chunks).  Each workload
//! runs a stock single bit-flip campaign (injection points uniform over the
//! golden run) against a **dense** checkpoint store
//! (`interval = golden / MBFI_DENSE_DIV`, the replay-heavy configuration),
//! and the reported speedup is end-to-end: the CoW + replay pipeline against
//! full re-execution from instruction 0.
//!
//! Flags and knobs:
//!
//! * `--check` — self-verifying mode: skip timing and instead cross-check the
//!   dirty-chunk accounting of the `Memory` CoW engine against its deep-copy
//!   reference; exits non-zero on the first failure.  (Campaign-level byte
//!   equivalence across replay and thread counts is
//!   `tests/snapshot_equivalence.rs`.)
//! * `--out-dir <path>` — where `BENCH_snapshot.json` goes (default: CWD).
//! * `MBFI_EXPERIMENTS` — experiments per campaign (default 48).
//! * `MBFI_BENCH_SAMPLES` — timing samples per campaign (default 5).
//! * `MBFI_WORKLOADS` — comma-separated workload filter for the timing mode
//!   (default `qsort,sha,stringsearch,susan_smoothing,sad`).
//! * `MBFI_DENSE_DIV` — checkpoint interval divisor (default 4096).

use mbfi_bench::artifacts::OutDir;
use mbfi_bench::timing::{env_usize, median_wall_ns};
use mbfi_core::replay::{CheckpointConfig, CheckpointStore};
use mbfi_core::report::Json;
use mbfi_core::{Campaign, CampaignSpec, FaultModel, GoldenRun, NoopSink, Technique};
use mbfi_ir::CompiledModule;
use mbfi_vm::{ChunkSet, Memory, MemoryLayout, CHUNK_BYTES};
use mbfi_workloads::{workload_by_name, InputSize};

/// Uniform-injection grid target: geomean end-to-end speedup (CoW + replay
/// vs full re-execution).
const UNIFORM_TARGET: f64 = 1.5;

fn env_names(key: &str, default: &[&str]) -> Vec<String> {
    match std::env::var(key) {
        Ok(v) if !v.trim().is_empty() => v
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect(),
        _ => default.iter().map(|s| s.to_string()).collect(),
    }
}

/// Dirty-chunk accounting cross-checks on the `Memory` CoW engine itself:
/// restores re-point exactly the mutated chunks, the deep-copy reference
/// reports zero bytes saved, and unique-footprint accounting dedups shared chunks.
fn check_accounting() -> usize {
    let mut failures = 0usize;
    let mut check = |ok: bool, what: &str| {
        if ok {
            println!("accounting: {what}: OK");
        } else {
            eprintln!("accounting: {what}: FAILED");
            failures += 1;
        }
    };

    let globals = [mbfi_ir::Global::zeroed("arena", (16 * CHUNK_BYTES) as u64)];
    let mut mem = Memory::for_globals(&globals, MemoryLayout::default());
    let base = mem.global_addr(0).unwrap();
    for i in 0..16u64 {
        mem.store(mbfi_ir::Type::I64, base + i * CHUNK_BYTES as u64, i + 1)
            .unwrap();
    }
    let image = mem.snapshot_image();

    // Fork, dirty exactly 3 chunks, and restore: the CoW path must re-point
    // exactly those 3 (one copy-on-first-write each), nothing else.
    let mut vm_mem = image.fork();
    vm_mem.reset_cow_stats();
    for i in [2u64, 7, 11] {
        vm_mem
            .store(mbfi_ir::Type::I64, base + i * CHUNK_BYTES as u64, 0xDEAD)
            .unwrap();
    }
    let dirtied = vm_mem.cow_stats();
    check(dirtied.cow_chunks_copied == 3, "3 writes CoW 3 chunks");
    vm_mem.restore_from(&image);
    let restored = vm_mem.cow_stats();
    check(
        restored.restore_chunks_repointed == 3,
        "restore re-points exactly the 3 dirty chunks",
    );
    check(
        restored.restore_bytes_saved == (16 * CHUNK_BYTES) as u64,
        "restore charges the full 16-chunk image as bytes a deep copy would move",
    );
    let readback = (0..16u64).all(|i| {
        vm_mem
            .load(mbfi_ir::Type::I64, base + i * CHUNK_BYTES as u64)
            .unwrap()
            == i + 1
    });
    check(readback, "restored contents match the snapshot");

    // The deep-copy reference must report zero CoW activity.
    let mut full_mem = image.fork_full();
    full_mem.store(mbfi_ir::Type::I64, base, 0xBEEF).unwrap();
    full_mem.restore_full_from(&image);
    let full_stats = full_mem.cow_stats();
    check(
        full_stats.cow_chunks_copied == 0 && full_stats.restore_bytes_saved == 0,
        "deep-copy reference reports zero chunks copied and zero bytes saved",
    );

    // Unique-footprint accounting: a CoW fork adds only table overhead on
    // top of its image; a deep fork adds the whole image again.
    let mut seen = ChunkSet::default();
    let image_unique = image.unique_bytes(&mut seen);
    let cow_extra = image.fork().unique_bytes(&mut seen);
    check(
        cow_extra < CHUNK_BYTES && image_unique > 16 * CHUNK_BYTES,
        "CoW fork shares every chunk with its image",
    );
    let full_extra = image.fork_full().unique_bytes(&mut seen);
    check(
        full_extra > 16 * CHUNK_BYTES,
        "deep fork duplicates every chunk",
    );
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let out = OutDir::from_args();
    let experiments = env_usize("MBFI_EXPERIMENTS", 48);
    let samples = env_usize("MBFI_BENCH_SAMPLES", 5);
    let dense_div = env_usize("MBFI_DENSE_DIV", 4096) as u64;

    if check {
        let failures = check_accounting();
        if failures > 0 {
            eprintln!("snapshot_bench --check: {failures} failures");
            std::process::exit(1);
        }
        println!("snapshot_bench --check: the dirty-chunk accounting holds");
        return;
    }

    let names = env_names(
        "MBFI_WORKLOADS",
        &["qsort", "sha", "stringsearch", "susan_smoothing", "sad"],
    );
    // Timing defaults to the `small` input size: the snapshot images are big
    // enough there that forking them is a real per-experiment cost, which
    // is exactly the regime CoW forking attacks.
    let size = match std::env::var("MBFI_SIZE").as_deref() {
        Ok("tiny") | Ok("Tiny") => InputSize::Tiny,
        _ => InputSize::Small,
    };
    eprintln!(
        "snapshot_bench: {} workloads, {experiments} experiments/campaign, {size} inputs, \
         dense K = golden/{dense_div}",
        names.len()
    );

    let mut workload_json = Vec::new();
    let mut uniform_speedups = Vec::new();

    for name in &names {
        let w = workload_by_name(name)
            .unwrap_or_else(|| panic!("unknown workload '{name}' (see MBFI_WORKLOADS)"));
        let module = w.build_module(size);
        let code = CompiledModule::lower(&module);
        let golden = GoldenRun::capture_compiled(&code)
            .unwrap_or_else(|e| panic!("golden run of {name} failed: {e}"));
        let interval = (golden.dynamic_instrs / dense_div).max(1);
        let store = CheckpointStore::capture_compiled(
            &code,
            &golden,
            CheckpointConfig::with_interval(interval),
        )
        .unwrap_or_else(|e| panic!("checkpoint capture of {name} failed: {e}"));

        let uniform_spec = CampaignSpec {
            technique: Technique::InjectOnRead,
            model: FaultModel::single_bit(),
            experiments,
            seed: 0x5EED ^ golden.dynamic_instrs,
            hang_factor: 4,
            threads: 0,
        };
        // The CoW + replay pipeline against full re-execution.
        let uniform_cow = median_wall_ns(samples, || {
            Campaign::run_compiled_with(
                &code,
                &golden,
                &uniform_spec,
                Some(&store),
                None,
                &NoopSink,
            )
        });
        let uniform_reexec = median_wall_ns(samples, || {
            Campaign::run_compiled(&code, &golden, &uniform_spec)
        });

        let uniform_speedup = uniform_reexec as f64 / uniform_cow.max(1) as f64;
        uniform_speedups.push(uniform_speedup);
        println!(
            "{name:<14} golden {:>9} instrs  K={interval:<6} uniform {uniform_speedup:>5.2}x \
             ({} checkpoints, {:.1} MiB unique)",
            golden.dynamic_instrs,
            store.len(),
            store.stored_bytes() as f64 / (1 << 20) as f64
        );

        let mut obj = Json::object();
        obj.set("name", name.clone());
        obj.set("golden_dynamic_instrs", golden.dynamic_instrs);
        obj.set("checkpoint_interval", interval);
        obj.set("checkpoints", store.len());
        obj.set("stored_bytes", store.stored_bytes());
        obj.set("uniform_cow_replay_median_ns", uniform_cow);
        obj.set("uniform_reexec_median_ns", uniform_reexec);
        obj.set("uniform_speedup", uniform_speedup);
        workload_json.push(obj);
    }

    let geomean = |xs: &[f64]| -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
    };
    let uniform_geomean = geomean(&uniform_speedups);
    println!("uniform grid geomean {uniform_geomean:.2}x (target >= {UNIFORM_TARGET}x)");

    let mut root = Json::object();
    root.set("suite", "snapshot");
    root.set("experiments", experiments);
    root.set("samples", samples);
    root.set("dense_div", dense_div);
    root.set("workloads", Json::Arr(workload_json));
    root.set("uniform_geomean_speedup", uniform_geomean);
    root.set("uniform_target", UNIFORM_TARGET);
    root.set("uniform_target_met", uniform_geomean >= UNIFORM_TARGET);
    out.write("BENCH_snapshot.json", &root.render());
}
