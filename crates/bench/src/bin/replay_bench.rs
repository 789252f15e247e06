//! Measures checkpointed golden-run replay against full re-execution and
//! writes `BENCH_replay.json`.
//!
//! Two campaign shapes per workload:
//!
//! * **uniform** — a stock single bit-flip campaign, injection points drawn
//!   uniformly over the golden run (the expected saving is about half the
//!   fault-free prefix);
//! * **late** — a fig2-style same-register multi-bit campaign whose first
//!   injections are remapped into the **last quartile** of the candidate
//!   space, the shape replay helps most (≳ 4× less fault-free prefix work).
//!
//! Flags and knobs:
//!
//! * `--check` — self-verifying mode: skip timing and instead compare every
//!   experiment's full-execution result against its replayed result for
//!   checkpoint intervals K ∈ {1, 7, 64, auto}; exits non-zero on the first
//!   divergence.  This is the determinism contract as an executable.
//! * `--out-dir <path>` — where `BENCH_replay.json` goes (default: CWD).
//! * `MBFI_EXPERIMENTS` — experiments per campaign (default 48).
//! * `MBFI_BENCH_SAMPLES` — timing samples per campaign (default 5).
//! * `MBFI_WORKLOADS` — comma-separated workload filter (default
//!   `qsort,dijkstra,stringsearch`).

use mbfi_bench::artifacts::OutDir;
use mbfi_bench::timing::{env_usize, median_wall_ns};
use mbfi_core::replay::{last_quartile_target, CheckpointConfig, CheckpointStore};
use mbfi_core::report::Json;
use mbfi_core::{
    Campaign, CampaignSpec, Experiment, ExperimentSpec, FaultModel, GoldenRun, NoopSink, Technique,
    WinSize,
};
use mbfi_ir::CompiledModule;
use mbfi_workloads::{workload_by_name, InputSize};
use std::time::Instant;

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

/// The experiment specs of a campaign, pre-sampled, optionally with the first
/// injection remapped into the last quartile of the candidate space.
fn sample_specs(spec: &CampaignSpec, golden: &GoldenRun, late: bool) -> Vec<ExperimentSpec> {
    let mut specs = ExperimentSpec::sample_campaign(spec, golden);
    if late {
        for s in &mut specs {
            s.first_target =
                last_quartile_target(golden.candidates(spec.technique), s.first_target);
        }
    }
    specs
}

fn run_serial(
    code: &CompiledModule,
    golden: &GoldenRun,
    specs: &[ExperimentSpec],
    store: Option<&CheckpointStore>,
) -> u64 {
    let mut outcomes = 0u64;
    for s in specs {
        let r = Experiment::run_compiled(code, golden, s, store);
        outcomes = outcomes.wrapping_add(r.dynamic_instrs);
    }
    outcomes
}

/// Compare full vs replayed results for every spec; returns the mismatches.
fn check_specs(
    code: &CompiledModule,
    golden: &GoldenRun,
    specs: &[ExperimentSpec],
    store: &CheckpointStore,
) -> usize {
    let mut mismatches = 0;
    for s in specs {
        let full = Experiment::run_compiled(code, golden, s, None);
        let replayed = Experiment::run_compiled(code, golden, s, Some(store));
        if full != replayed {
            mismatches += 1;
            eprintln!(
                "DIVERGENCE: technique={} first_target={} seed={:#x}: \
                 full={:?}/{} instrs vs replay={:?}/{} instrs",
                s.technique,
                s.first_target,
                s.seed,
                full.outcome,
                full.dynamic_instrs,
                replayed.outcome,
                replayed.dynamic_instrs
            );
        }
    }
    mismatches
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let out = OutDir::from_args();
    let experiments = env_usize("MBFI_EXPERIMENTS", 48);
    let samples = env_usize("MBFI_BENCH_SAMPLES", 5);
    let names = env_names("MBFI_WORKLOADS", &["qsort", "dijkstra", "stringsearch"]);
    eprintln!(
        "replay_bench: {} workloads, {experiments} experiments/campaign, {} mode",
        names.len(),
        if check { "check" } else { "timing" }
    );

    let mut workload_json = Vec::new();
    let mut best_late_speedup = 0.0f64;
    let mut total_mismatches = 0usize;

    for name in &names {
        let w = workload_by_name(name)
            .unwrap_or_else(|| panic!("unknown workload '{name}' (see MBFI_WORKLOADS)"));
        let module = w.build_module(InputSize::Tiny);
        let code = CompiledModule::lower(&module);
        let golden = GoldenRun::capture_compiled(&code)
            .unwrap_or_else(|e| panic!("golden run of {name} failed: {e}"));
        let auto_interval = golden.default_checkpoint_interval();

        let uniform_spec = CampaignSpec {
            technique: Technique::InjectOnRead,
            model: FaultModel::single_bit(),
            experiments,
            seed: 0x5EED ^ golden.dynamic_instrs,
            hang_factor: 4,
            threads: 0,
        };
        // Fig2-style: a same-register multi-bit burst (win-size = 0), first
        // injection in the last quartile of the golden run.
        let late_spec = CampaignSpec {
            technique: Technique::InjectOnRead,
            model: FaultModel::multi_bit(3, WinSize::Fixed(0)),
            ..uniform_spec
        };
        let late_specs = sample_specs(&late_spec, &golden, true);

        if check {
            let uniform_specs = sample_specs(&uniform_spec, &golden, false);
            for k in [1, 7, 64, auto_interval] {
                let store = CheckpointStore::capture_compiled(
                    &code,
                    &golden,
                    CheckpointConfig::with_interval(k),
                )
                .unwrap_or_else(|e| panic!("checkpoint capture of {name} (K={k}) failed: {e}"));
                let m = check_specs(&code, &golden, &uniform_specs, &store)
                    + check_specs(&code, &golden, &late_specs, &store);
                println!(
                    "{name:<14} K={k:<8} {} checkpoints, {} bytes: {}",
                    store.len(),
                    store.stored_bytes(),
                    if m == 0 {
                        "OK".to_string()
                    } else {
                        format!("{m} MISMATCHES")
                    }
                );
                total_mismatches += m;
            }
            continue;
        }

        let capture_start = Instant::now();
        let store = CheckpointStore::capture_compiled(
            &code,
            &golden,
            CheckpointConfig::with_interval(auto_interval),
        )
        .unwrap_or_else(|e| panic!("checkpoint capture of {name} failed: {e}"));
        let capture_ns = capture_start.elapsed().as_nanos() as u64;

        // Uniform campaign, through the threaded Campaign runner.
        let full_uniform = median_wall_ns(samples, || {
            Campaign::run_compiled(&code, &golden, &uniform_spec)
        });
        let replay_uniform = median_wall_ns(samples, || {
            Campaign::run_compiled_with(
                &code,
                &golden,
                &uniform_spec,
                Some(&store),
                None,
                &NoopSink,
            )
        });

        // Late-injection campaign, serial for stable per-experiment timing.
        let full_late = median_wall_ns(samples, || run_serial(&code, &golden, &late_specs, None));
        let replay_late = median_wall_ns(samples, || {
            run_serial(&code, &golden, &late_specs, Some(&store))
        });

        let uniform_speedup = full_uniform as f64 / replay_uniform.max(1) as f64;
        let late_speedup = full_late as f64 / replay_late.max(1) as f64;
        best_late_speedup = best_late_speedup.max(late_speedup);
        println!(
            "{name:<14} golden {:>9} instrs  K={auto_interval:<6} \
             uniform {uniform_speedup:>5.2}x  late {late_speedup:>5.2}x \
             (capture {:.1} ms, {} checkpoints, {:.1} MiB)",
            golden.dynamic_instrs,
            capture_ns as f64 / 1e6,
            store.len(),
            store.stored_bytes() as f64 / (1 << 20) as f64
        );

        let mut obj = Json::object();
        obj.set("name", name.clone());
        obj.set("golden_dynamic_instrs", golden.dynamic_instrs);
        obj.set("checkpoint_interval", auto_interval);
        obj.set("checkpoints", store.len());
        obj.set("stored_bytes", store.stored_bytes());
        obj.set("capture_ns", capture_ns);
        obj.set("uniform_full_median_ns", full_uniform);
        obj.set("uniform_replay_median_ns", replay_uniform);
        obj.set("uniform_speedup", uniform_speedup);
        obj.set("late_full_median_ns", full_late);
        obj.set("late_replay_median_ns", replay_late);
        obj.set("late_speedup", late_speedup);
        workload_json.push(obj);
    }

    if check {
        if total_mismatches > 0 {
            eprintln!("replay_bench --check: {total_mismatches} mismatches");
            std::process::exit(1);
        }
        println!("replay_bench --check: replay is byte-identical to full execution");
        return;
    }

    let mut root = Json::object();
    root.set("suite", "replay");
    root.set("experiments", experiments);
    root.set("samples", samples);
    root.set("workloads", Json::Arr(workload_json));
    root.set("best_late_speedup", best_late_speedup);
    out.write("BENCH_replay.json", &root.render());
}
