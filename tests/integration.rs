//! End-to-end integration tests spanning `mbfi-ir`, `mbfi-vm`,
//! `mbfi-workloads` and `mbfi-core`: golden runs, single- and multi-bit
//! campaigns on real workloads, and consistency of the derived statistics.

use mbfi_core::{
    Campaign, CampaignSpec, FaultModel, GoldenRun, Outcome, ParameterGrid, Technique, WinSize,
};
use mbfi_ir::CompiledModule;
use mbfi_workloads::{all_workloads, workload_by_name, InputSize};

/// Experiments per campaign in these tests (kept small for CI speed).
const N: usize = 60;

#[test]
fn golden_runs_exist_for_every_workload() {
    for w in all_workloads() {
        let module = w.build_module(InputSize::Tiny);
        let golden = GoldenRun::capture(&module)
            .unwrap_or_else(|e| panic!("golden run of {} failed: {e}", w.name()));
        assert!(!golden.output.is_empty());
        assert!(golden.dynamic_instrs > 100, "{} is too trivial", w.name());
        assert!(
            golden.candidates(Technique::InjectOnRead)
                >= golden.candidates(Technique::InjectOnWrite),
            "{}: table II shape requires read candidates >= write candidates",
            w.name()
        );
    }
}

#[test]
fn single_bit_campaign_on_a_real_workload_produces_mixed_outcomes() {
    let w = workload_by_name("qsort").unwrap();
    let module = w.build_module(InputSize::Tiny);
    let code = CompiledModule::lower(&module);
    let golden = GoldenRun::capture_compiled(&code).unwrap();
    let spec = CampaignSpec {
        technique: Technique::InjectOnRead,
        model: FaultModel::single_bit(),
        experiments: 150,
        seed: 11,
        hang_factor: 20,
        threads: 0,
    };
    let result = Campaign::run_compiled(&code, &golden, &spec);
    assert_eq!(result.total(), 150);
    // A register-level fault-injection campaign on a pointer-heavy workload
    // must produce benign outcomes, detections and at least a handful of SDCs.
    assert!(
        result.counts.benign > 0,
        "no benign outcomes: {:?}",
        result.counts
    );
    assert!(
        result.counts.detection() > 0,
        "no detections: {:?}",
        result.counts
    );
    assert!(result.counts.sdc + result.counts.benign > 10);
}

#[test]
fn multi_bit_campaigns_activate_more_errors_than_single_bit() {
    let w = workload_by_name("histo").unwrap();
    let module = w.build_module(InputSize::Tiny);
    let code = CompiledModule::lower(&module);
    let golden = GoldenRun::capture_compiled(&code).unwrap();

    let single = Campaign::run_compiled(
        &code,
        &golden,
        &CampaignSpec {
            technique: Technique::InjectOnWrite,
            model: FaultModel::single_bit(),
            experiments: N,
            seed: 3,
            hang_factor: 20,
            threads: 0,
        },
    );
    let multi = Campaign::run_compiled(
        &code,
        &golden,
        &CampaignSpec {
            technique: Technique::InjectOnWrite,
            model: FaultModel::multi_bit(5, WinSize::Fixed(1)),
            experiments: N,
            seed: 3,
            hang_factor: 20,
            threads: 0,
        },
    );
    assert!(single.mean_activated() <= 1.0);
    assert!(
        multi.mean_activated() > single.mean_activated(),
        "multi-bit campaigns should activate more errors ({} vs {})",
        multi.mean_activated(),
        single.mean_activated()
    );
}

#[test]
fn outcome_fractions_sum_to_one_for_every_technique() {
    let w = workload_by_name("stringsearch").unwrap();
    let module = w.build_module(InputSize::Tiny);
    let code = CompiledModule::lower(&module);
    let golden = GoldenRun::capture_compiled(&code).unwrap();
    for technique in Technique::ALL {
        let result = Campaign::run_compiled(
            &code,
            &golden,
            &CampaignSpec {
                technique,
                model: FaultModel::single_bit(),
                experiments: N,
                seed: 5,
                hang_factor: 20,
                threads: 0,
            },
        );
        let sum: f64 = Outcome::ALL
            .iter()
            .map(|o| result.counts.fraction(*o))
            .sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "{technique}: fractions sum to {sum}"
        );
        let ci = result.sdc_proportion();
        assert!(ci.lower <= ci.estimate && ci.estimate <= ci.upper);
    }
}

#[test]
fn the_campaign_grid_matches_the_paper_dimensions() {
    let all = ParameterGrid::all_campaigns();
    assert_eq!(all.len(), 182, "the paper runs 182 campaigns per workload");
    // 15 workloads x 182 campaigns = 2730 campaigns overall.
    assert_eq!(all.len() * all_workloads().len(), 2730);
}

#[test]
fn same_register_sweep_runs_end_to_end_on_a_workload() {
    let w = workload_by_name("CRC32").unwrap();
    let module = w.build_module(InputSize::Tiny);
    let code = CompiledModule::lower(&module);
    let golden = GoldenRun::capture_compiled(&code).unwrap();
    let sweep = ParameterGrid::same_register_sweep(Technique::InjectOnWrite);
    for point in &sweep[..3] {
        let r = Campaign::run_compiled(&code, &golden, &CampaignSpec::from_point(*point, 40, 17));
        assert_eq!(r.total(), 40);
        assert!(r.sdc_pct() <= 100.0);
    }
}

#[test]
fn error_space_sizes_reflect_candidate_counts() {
    let w = workload_by_name("sha").unwrap();
    let module = w.build_module(InputSize::Tiny);
    let golden = GoldenRun::capture(&module).unwrap();
    let space = mbfi_core::space::ErrorSpace::new(golden.candidates(Technique::InjectOnRead), 64);
    assert!(space.single_bit_size() > 0);
    assert!(space.multi_bit_log10(10) > space.single_bit_log10());
    assert!(space.sampling_fraction(10_000) < 1.0);
    // The fraction clamps at full coverage even for a budget beyond the
    // space (possible for tiny inputs under an adaptive max_experiments).
    assert_eq!(space.sampling_fraction(u64::MAX), 1.0);
}

/// End to end: an adaptive campaign whose budget outgrows the single-bit
/// error space of a tiny module carries a `SamplingSaturated` warning, and
/// its result reports the realized precision.
#[test]
fn adaptive_campaign_warns_when_the_budget_outgrows_the_space() {
    use mbfi::ir::{ModuleBuilder, Type};
    use mbfi_core::{CampaignWarning, NoopSink, Precision};

    // A tiny straight-line module: few candidates, so a modest adaptive
    // budget exceeds d·b.
    let mut mb = ModuleBuilder::new("tiny");
    let main = mb.declare("main", &[], None);
    {
        let mut f = mb.define(main);
        let a = f.add(Type::I64, 40i64, 2i64);
        let b = f.mul(Type::I64, a, 3i64);
        f.print_i64(b);
        f.ret_void();
    }
    mb.set_entry(main);
    let module = mb.finish();
    let code = CompiledModule::lower(&module);
    let golden = GoldenRun::capture_compiled(&code).unwrap();
    let candidates = golden.candidates(Technique::InjectOnRead);
    let space = candidates * 64;
    assert!(space < 600, "test module must stay tiny (space = {space})");

    let spec = CampaignSpec {
        technique: Technique::InjectOnRead,
        model: FaultModel::single_bit(),
        experiments: 0, // ignored in adaptive mode
        seed: 42,
        hang_factor: 8,
        threads: 2,
    };
    let precision = Precision {
        target_half_width_pct: 0.0001, // unreachably tight: run to the cap
        min_experiments: 16,
        max_experiments: space as usize + 40,
        ..Precision::default()
    };
    let r = Campaign::run_compiled_with(&code, &golden, &spec, None, Some(precision), &NoopSink);
    assert_eq!(r.total(), space + 40, "the cell runs its whole budget");
    assert_eq!(
        r.warnings,
        vec![CampaignWarning::SamplingSaturated {
            budget: space + 40,
            space,
        }]
    );
    let status = r.adaptive.expect("adaptive campaigns report their status");
    assert!(!status.reached_target);
    assert!(status.realized_half_width_pct() > 0.0001);

    // The same cell with a budget inside the space carries no warning.
    let r = Campaign::run_compiled_with(
        &code,
        &golden,
        &spec,
        None,
        Some(Precision {
            max_experiments: space as usize / 2,
            ..precision
        }),
        &NoopSink,
    );
    assert!(r.warnings.is_empty(), "warnings: {:?}", r.warnings);
}
