//! Measures copy-on-write snapshot forking against the deep-copy restore
//! baseline and writes `BENCH_snapshot.json`.
//!
//! Every replayed experiment starts by restoring a golden-run checkpoint.
//! Before the CoW memory, that restore cloned the whole snapshot image —
//! the per-experiment cost floor.  With CoW forking the restore re-points
//! chunk Arcs instead, so the floor drops to O(dirty chunks).  This bench
//! isolates that floor with two campaign shapes per workload, both run
//! against a **dense** checkpoint store (`interval = golden / MBFI_DENSE_DIV`,
//! the replay-heavy configuration):
//!
//! * **late** — a fig2-style same-register multi-bit campaign whose first
//!   injections are remapped into the last `1/MBFI_LATE_DENOM` of the
//!   candidate space.  The replayed tail is tiny, so the snapshot restore
//!   dominates, and exp/s is compared CoW vs deep-copy restores directly —
//!   this is the per-experiment cost floor in isolation.
//! * **uniform** — a stock single bit-flip campaign, injection points
//!   uniform over the golden run.  The executed tail dominates here, so the
//!   reported speedup is end-to-end: the CoW + replay pipeline against full
//!   re-execution from instruction 0 (the strict CoW-vs-deep-copy ratio is
//!   also recorded, as `uniform_cow_vs_full_clone`).
//!
//! Flags and knobs:
//!
//! * `--check` — self-verifying mode: skip timing and instead (a) cross-check
//!   the dirty-chunk accounting of the `Memory` CoW engine itself, and
//!   (b) run CoW and deep-copy campaigns over **all 15 workloads** at
//!   threads {1, 4, 8} asserting byte-identical results; exits non-zero on
//!   the first divergence.  This is the CoW contract as an executable.
//! * `--out-dir <path>` — where `BENCH_snapshot.json` goes (default: CWD).
//! * `MBFI_EXPERIMENTS` — experiments per campaign (default 48).
//! * `MBFI_BENCH_SAMPLES` — timing samples per campaign (default 5).
//! * `MBFI_WORKLOADS` — comma-separated workload filter for the timing mode
//!   (default `qsort,sha,stringsearch,susan_smoothing,sad`).
//! * `MBFI_DENSE_DIV` — checkpoint interval divisor (default 4096).
//! * `MBFI_LATE_DENOM` — late-injection tail fraction denominator (default
//!   4096: injections land in the last 1/4096 of the candidate space).

use mbfi_bench::artifacts::OutDir;
use mbfi_bench::timing::{env_usize, median_wall_ns};
use mbfi_core::replay::{CheckpointConfig, CheckpointStore};
use mbfi_core::report::Json;
use mbfi_core::{
    Campaign, CampaignResult, CampaignSpec, Experiment, ExperimentSpec, FaultModel, GoldenRun,
    Technique, WinSize,
};
use mbfi_ir::CompiledModule;
use mbfi_vm::{set_cow_enabled, ChunkSet, Memory, MemoryLayout, CHUNK_BYTES};
use mbfi_workloads::{all_workloads, workload_by_name, InputSize};

/// Late-injection cell target: the best replay-heavy cells must show at
/// least this exp/s ratio, CoW vs deep-copy restores.
const LATE_TARGET: f64 = 3.0;
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

/// Remap a uniformly drawn candidate ordinal into the last `1/denom` of the
/// candidate space (the generalisation of `last_quartile_target` this bench
/// uses to make the replayed tail arbitrarily small).
fn late_fraction_target(candidates: u64, drawn: u64, denom: u64) -> u64 {
    let candidates = candidates.max(1);
    let tail = (candidates / denom.max(1)).max(1);
    (candidates - tail) + drawn % tail
}

/// Pre-sampled experiment specs, optionally remapped into the late tail.
fn sample_specs(
    spec: &CampaignSpec,
    golden: &GoldenRun,
    late_denom: Option<u64>,
) -> Vec<ExperimentSpec> {
    let mut specs = ExperimentSpec::sample_campaign(spec, golden);
    if let Some(denom) = late_denom {
        for s in &mut specs {
            s.first_target =
                late_fraction_target(golden.candidates(spec.technique), s.first_target, denom);
        }
    }
    specs
}

fn run_serial(
    code: &CompiledModule,
    golden: &GoldenRun,
    specs: &[ExperimentSpec],
    store: &CheckpointStore,
) -> u64 {
    let mut acc = 0u64;
    for s in specs {
        let r = Experiment::run_compiled(code, golden, s, Some(store));
        acc = acc.wrapping_add(r.dynamic_instrs);
    }
    acc
}

/// Dirty-chunk accounting cross-checks on the `Memory` CoW engine itself:
/// restores re-point exactly the mutated chunks, the deep-copy mode reports
/// zero bytes saved, and unique-footprint accounting dedups shared chunks.
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
    let mut vm_mem = image.fork_cow();
    vm_mem.reset_cow_stats();
    for i in [2u64, 7, 11] {
        vm_mem
            .store(mbfi_ir::Type::I64, base + i * CHUNK_BYTES as u64, 0xDEAD)
            .unwrap();
    }
    let dirtied = vm_mem.cow_stats();
    check(dirtied.cow_chunks_copied == 3, "3 writes CoW 3 chunks");
    vm_mem.restore_from_with(&image, true);
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

    // The deep-copy baseline must report zero CoW activity.
    let mut full_mem = image.fork_full();
    full_mem.store(mbfi_ir::Type::I64, base, 0xBEEF).unwrap();
    full_mem.restore_from_with(&image, false);
    let full_stats = full_mem.cow_stats();
    check(
        full_stats.cow_chunks_copied == 0 && full_stats.restore_bytes_saved == 0,
        "deep-copy mode reports zero chunks copied and zero bytes saved",
    );

    // Unique-footprint accounting: a CoW fork adds only table overhead on
    // top of its image; a deep fork adds the whole image again.
    let mut seen = ChunkSet::default();
    let image_unique = image.unique_bytes(&mut seen);
    let cow_extra = image.fork_cow().unique_bytes(&mut seen);
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

/// Run one campaign with an explicit CoW mode, restoring the switch after.
fn campaign_with_mode(
    cow: bool,
    code: &CompiledModule,
    golden: &GoldenRun,
    spec: &CampaignSpec,
    store: &CheckpointStore,
) -> CampaignResult {
    set_cow_enabled(cow);
    let r = Campaign::run_compiled_with_store(code, golden, spec, Some(store));
    set_cow_enabled(true);
    r
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let out = OutDir::from_args();
    let experiments = env_usize("MBFI_EXPERIMENTS", 48);
    let samples = env_usize("MBFI_BENCH_SAMPLES", 5);
    let dense_div = env_usize("MBFI_DENSE_DIV", 4096) as u64;
    let late_denom = env_usize("MBFI_LATE_DENOM", 4096) as u64;

    if check {
        let mut failures = check_accounting();
        // The CoW contract, campaign-level: byte-identical results with CoW
        // forking and with deep-copy restores, at every thread count.
        for w in all_workloads() {
            let module = w.build_module(InputSize::Tiny);
            let code = CompiledModule::lower(&module);
            let golden = GoldenRun::capture_compiled(&code)
                .unwrap_or_else(|e| panic!("golden run of {} failed: {e}", w.name()));
            let store = CheckpointStore::capture_compiled(
                &code,
                &golden,
                CheckpointConfig::with_interval(golden.default_checkpoint_interval()),
            )
            .unwrap_or_else(|e| panic!("checkpoint capture of {} failed: {e}", w.name()));
            for threads in [1usize, 4, 8] {
                let spec = CampaignSpec {
                    technique: Technique::InjectOnRead,
                    model: FaultModel::multi_bit(3, WinSize::Fixed(0)),
                    experiments: 24,
                    seed: 0xC0B7 ^ golden.dynamic_instrs,
                    hang_factor: 4,
                    threads,
                };
                let cow = campaign_with_mode(true, &code, &golden, &spec, &store);
                let full = campaign_with_mode(false, &code, &golden, &spec, &store);
                if cow == full {
                    println!("{:<14} threads={threads}: OK", w.name());
                } else {
                    eprintln!(
                        "DIVERGENCE: {} threads={threads}: CoW {:?} vs deep-copy {:?}",
                        w.name(),
                        cow.counts,
                        full.counts
                    );
                    failures += 1;
                }
            }
        }
        if failures > 0 {
            eprintln!("snapshot_bench --check: {failures} failures");
            std::process::exit(1);
        }
        println!(
            "snapshot_bench --check: CoW forking is byte-identical to deep-copy restores \
             and the dirty-chunk accounting holds"
        );
        return;
    }

    let names = env_names(
        "MBFI_WORKLOADS",
        &["qsort", "sha", "stringsearch", "susan_smoothing", "sad"],
    );
    // Timing defaults to the `small` input size: the snapshot images are big
    // enough there that the deep-copy restore is the measured cost floor,
    // which is exactly the regime CoW forking attacks.
    let size = match std::env::var("MBFI_SIZE").as_deref() {
        Ok("tiny") | Ok("Tiny") => InputSize::Tiny,
        _ => InputSize::Small,
    };
    eprintln!(
        "snapshot_bench: {} workloads, {experiments} experiments/campaign, {size} inputs, \
         dense K = golden/{dense_div}, late tail = 1/{late_denom}",
        names.len()
    );

    let mut workload_json = Vec::new();
    let mut late_speedups = Vec::new();
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
        let late_spec = CampaignSpec {
            technique: Technique::InjectOnRead,
            model: FaultModel::multi_bit(3, WinSize::Fixed(0)),
            ..uniform_spec
        };
        let late_specs = sample_specs(&late_spec, &golden, Some(late_denom));

        // Late-injection campaign, serial for stable per-experiment timing.
        set_cow_enabled(true);
        let late_cow = median_wall_ns(samples, || run_serial(&code, &golden, &late_specs, &store));
        set_cow_enabled(false);
        let late_full = median_wall_ns(samples, || run_serial(&code, &golden, &late_specs, &store));

        // Uniform campaign, through the campaign runner: the CoW + replay
        // pipeline, the deep-copy-restore pipeline, and full re-execution.
        set_cow_enabled(true);
        let uniform_cow = median_wall_ns(samples, || {
            Campaign::run_compiled_with_store(&code, &golden, &uniform_spec, Some(&store))
        });
        set_cow_enabled(false);
        let uniform_full = median_wall_ns(samples, || {
            Campaign::run_compiled_with_store(&code, &golden, &uniform_spec, Some(&store))
        });
        set_cow_enabled(true);
        let uniform_reexec = median_wall_ns(samples, || {
            Campaign::run_compiled(&code, &golden, &uniform_spec)
        });

        let late_speedup = late_full as f64 / late_cow.max(1) as f64;
        let uniform_speedup = uniform_reexec as f64 / uniform_cow.max(1) as f64;
        let uniform_cow_vs_full = uniform_full as f64 / uniform_cow.max(1) as f64;
        late_speedups.push(late_speedup);
        uniform_speedups.push(uniform_speedup);
        let exps_per_sec = |median_ns: u64| late_specs.len() as f64 / (median_ns as f64 / 1e9);
        println!(
            "{name:<14} golden {:>9} instrs  K={interval:<6} \
             late {late_speedup:>5.2}x ({:.0} -> {:.0} exp/s)  uniform {uniform_speedup:>5.2}x \
             (vs clone {uniform_cow_vs_full:>4.2}x; {} checkpoints, {:.1} MiB unique)",
            golden.dynamic_instrs,
            exps_per_sec(late_full),
            exps_per_sec(late_cow),
            store.len(),
            store.stored_bytes() as f64 / (1 << 20) as f64
        );

        let mut obj = Json::object();
        obj.set("name", name.clone());
        obj.set("golden_dynamic_instrs", golden.dynamic_instrs);
        obj.set("checkpoint_interval", interval);
        obj.set("checkpoints", store.len());
        obj.set("stored_bytes", store.stored_bytes());
        obj.set("late_cow_median_ns", late_cow);
        obj.set("late_full_clone_median_ns", late_full);
        obj.set("late_speedup", late_speedup);
        obj.set("uniform_cow_replay_median_ns", uniform_cow);
        obj.set("uniform_full_clone_median_ns", uniform_full);
        obj.set("uniform_reexec_median_ns", uniform_reexec);
        obj.set("uniform_speedup", uniform_speedup);
        obj.set("uniform_cow_vs_full_clone", uniform_cow_vs_full);
        workload_json.push(obj);
    }

    let geomean = |xs: &[f64]| -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
    };
    let late_geomean = geomean(&late_speedups);
    let uniform_geomean = geomean(&uniform_speedups);
    let best_late = late_speedups.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "late geomean {late_geomean:.2}x (best cell {best_late:.2}x, target >= {LATE_TARGET}x), \
         uniform grid geomean {uniform_geomean:.2}x (target >= {UNIFORM_TARGET}x)"
    );

    let mut root = Json::object();
    root.set("suite", "snapshot");
    root.set("experiments", experiments);
    root.set("samples", samples);
    root.set("dense_div", dense_div);
    root.set("late_denom", late_denom);
    root.set("workloads", Json::Arr(workload_json));
    root.set("late_geomean_speedup", late_geomean);
    root.set("best_late_speedup", best_late);
    root.set("uniform_geomean_speedup", uniform_geomean);
    root.set("late_target", LATE_TARGET);
    root.set("uniform_target", UNIFORM_TARGET);
    root.set("late_target_met", late_geomean >= LATE_TARGET);
    root.set("uniform_target_met", uniform_geomean >= UNIFORM_TARGET);
    out.write("BENCH_snapshot.json", &root.render());
}
