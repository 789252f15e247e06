//! Shows how to plug a brand-new workload into the study: implement the
//! `Workload` trait for your own program, then run the same campaigns the
//! paper runs against the built-in benchmarks.
//!
//! Run with: `cargo run --release -p mbfi-bench --example custom_workload`

use mbfi_core::{Campaign, CampaignSpec, FaultModel, GoldenRun, Technique, WinSize};
use mbfi_ir::{CompiledModule, IcmpPred, Module, ModuleBuilder, Type};
use mbfi_workloads::{InputSize, Suite, Workload};

/// A workload computing the Collatz trajectory lengths of 1..=N and printing
/// the longest one (plus a checksum of all lengths).
struct Collatz;

impl Workload for Collatz {
    fn name(&self) -> &'static str {
        "collatz"
    }
    fn package(&self) -> &'static str {
        "custom"
    }
    fn suite(&self) -> Suite {
        Suite::MiBench
    }
    fn description(&self) -> &'static str {
        "Collatz trajectory lengths for 1..=N"
    }

    fn build_module(&self, size: InputSize) -> Module {
        let n: i64 = match size {
            InputSize::Tiny => 60,
            InputSize::Small => 200,
        };
        let mut mb = ModuleBuilder::new("collatz");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let longest = f.slot(Type::I64);
            f.store(Type::I64, 0i64, longest);
            let checksum = f.slot(Type::I64);
            f.store(Type::I64, 0i64, checksum);

            f.counted_loop(Type::I64, 1i64, n + 1, |f, start| {
                let x = f.slot(Type::I64);
                f.store(Type::I64, start, x);
                let steps = f.slot(Type::I64);
                f.store(Type::I64, 0i64, steps);

                let head = f.new_block("collatz.head");
                let body = f.new_block("collatz.body");
                let exit = f.new_block("collatz.exit");
                f.br(head);

                f.switch_to(head);
                let xv = f.load(Type::I64, x);
                let more = f.icmp(IcmpPred::Sgt, Type::I64, xv, 1i64);
                f.cond_br(more, body, exit);

                f.switch_to(body);
                let xv2 = f.load(Type::I64, x);
                let is_odd = f.and(Type::I64, xv2, 1i64);
                let odd = f.icmp(IcmpPred::Ne, Type::I64, is_odd, 0i64);
                let tripled = f.mul(Type::I64, xv2, 3i64);
                let plus1 = f.add(Type::I64, tripled, 1i64);
                let halved = f.sdiv(Type::I64, xv2, 2i64);
                let next = f.select(Type::I64, odd, plus1, halved);
                f.store(Type::I64, next, x);
                let s = f.load(Type::I64, steps);
                let s2 = f.add(Type::I64, s, 1i64);
                f.store(Type::I64, s2, steps);
                f.br(head);

                f.switch_to(exit);
                let s = f.load(Type::I64, steps);
                let best = f.load(Type::I64, longest);
                let better = f.icmp(IcmpPred::Sgt, Type::I64, s, best);
                f.if_then(better, |f| {
                    f.store(Type::I64, s, longest);
                });
                let cs = f.load(Type::I64, checksum);
                let cs2 = f.add(Type::I64, cs, s);
                f.store(Type::I64, cs2, checksum);
            });

            let l = f.load(Type::I64, longest);
            f.print_i64(l);
            let cs = f.load(Type::I64, checksum);
            f.print_i64(cs);
            f.ret_void();
        }
        mb.set_entry(main);
        mb.finish()
    }

    fn reference_output(&self, size: InputSize) -> Vec<u8> {
        let n: i64 = match size {
            InputSize::Tiny => 60,
            InputSize::Small => 200,
        };
        let mut longest = 0i64;
        let mut checksum = 0i64;
        for start in 1..=n {
            let mut x = start;
            let mut steps = 0i64;
            while x > 1 {
                x = if x % 2 != 0 { 3 * x + 1 } else { x / 2 };
                steps += 1;
            }
            longest = longest.max(steps);
            checksum += steps;
        }
        format!("{longest}\n{checksum}\n").into_bytes()
    }
}

fn main() {
    let workload = Collatz;
    let module = workload.build_module(InputSize::Tiny);
    let code = CompiledModule::lower(&module);
    let golden = GoldenRun::capture_compiled(&code).expect("collatz golden run");

    // Sanity check against the independent oracle, exactly like the built-in
    // workloads are tested.
    assert_eq!(
        golden.output,
        workload.reference_output(InputSize::Tiny),
        "IR implementation must match the Rust oracle"
    );
    println!(
        "collatz: {} dynamic instructions, output = {:?}",
        golden.dynamic_instrs,
        String::from_utf8_lossy(&golden.output)
            .trim()
            .replace('\n', " / ")
    );

    // Compare the single-bit and a multi-bit model on the custom workload.
    for model in [
        FaultModel::single_bit(),
        FaultModel::multi_bit(3, WinSize::Fixed(1)),
    ] {
        let result = Campaign::run_compiled(
            &code,
            &golden,
            &CampaignSpec {
                technique: Technique::InjectOnWrite,
                model,
                experiments: 300,
                seed: 5,
                hang_factor: 20,
                threads: 0,
            },
        );
        println!(
            "inject-on-write {:<10} SDC = {:>5.1}%  detection = {:>5.1}%  benign = {:>5.1}%  mean activated = {:.2}",
            model.label(),
            result.sdc_pct(),
            result.counts.detection_pct(),
            result.counts.fraction(mbfi_core::Outcome::Benign) * 100.0,
            result.mean_activated()
        );
    }
}
