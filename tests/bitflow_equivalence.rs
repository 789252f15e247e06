//! The soundness contract of the [`BitFlow`] bit-level liveness analysis, as
//! a test suite: injecting any (instruction, register, bit) site the analysis
//! claims dead produces a Benign run whose output bytes are identical to the
//! golden run — on a hand-built workload with a dead computation chain, and
//! on **every** registry workload at 35 sampled sites per technique (1,050
//! injected sites in all).
//!
//! The oracle lives here, next to the contract it checks: golden per-PC
//! execution counts ([`pc_execution_counts`]), a deterministic sampler of
//! claimed-dead sites ([`sample_dead_sites`]), and a targeted injector that
//! flips exactly one such bit at one dynamic occurrence ([`inject_dead_site`],
//! [`check_dead_site`]).  The analysis itself is `mbfi_ir::bitflow`, which
//! also backs the `lint_dead_defs` verifier lint.

use std::collections::HashMap;

use mbfi::core::rng::{Rng, SmallRng};
use mbfi::core::{classify, GoldenRun, Outcome, Technique};
use mbfi::ir::bitflow::BitFlow;
use mbfi::ir::{CompiledModule, Module, ModuleBuilder, Reg, Type};
use mbfi::vm::{ExecHook, InstrContext, RunResult, Value, Vm};
use mbfi::workloads::{all_workloads, InputSize};

/// Claimed-dead sites injected per technique per workload: 15 workloads × 2
/// techniques × 35 = 1,050 sites.
const SITES_PER_TECHNIQUE: usize = 35;

/// One claimed-dead (instruction, register, bit) fault site plus a dynamic
/// occurrence to inject at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DeadSite {
    /// Static PC of the instruction.
    pc: usize,
    /// Injection surface the site belongs to.
    technique: Technique,
    /// For inject-on-read, the register-operand index; 0 for writes.
    operand_index: usize,
    /// Bit position claimed dead (64-bit register model; bits at or above
    /// the value's width are no-op flips by construction).
    bit: u32,
    /// Which dynamic execution of this PC to corrupt (0-based).
    occurrence: u64,
}

/// `(func, block, instr)` provenance triple → PC, the inverse of
/// `CompiledModule::meta` (triples are unique per lowering).
fn pc_by_site(code: &CompiledModule) -> HashMap<(usize, usize, usize), usize> {
    code.meta
        .iter()
        .enumerate()
        .map(|(pc, m)| ((m.func as usize, m.block as usize, m.instr as usize), pc))
        .collect()
}

/// Golden per-PC execution counts (how many dynamic occurrences each static
/// instruction has) — the sampling frame for [`DeadSite`]s.
fn pc_execution_counts(code: &CompiledModule, golden: &GoldenRun) -> Vec<u64> {
    let mut hook = PcCountHook {
        pc_by_site: pc_by_site(code),
        counts: vec![0; code.instrs.len()],
    };
    let _ = Vm::new(code, golden.faulty_run_limits(2)).run(&mut hook);
    hook.counts
}

/// Draw `n` claimed-dead sites (with replacement) from the golden-executed
/// part of the module, uniformly over sites then bits then occurrences.
/// Deterministic in `seed`; empty when the analysis proves nothing on
/// executed code.
fn sample_dead_sites(
    flow: &BitFlow,
    counts: &[u64],
    technique: Technique,
    n: usize,
    seed: u64,
) -> Vec<DeadSite> {
    // (pc, operand index, claimed-dead mask) frame in PC order.
    let mut frame: Vec<(usize, usize, u64)> = Vec::new();
    for (pc, fl) in flow.flows().iter().enumerate() {
        if counts.get(pc).copied().unwrap_or(0) == 0 {
            continue;
        }
        match technique {
            Technique::InjectOnWrite => {
                let mask = !fl.dest_live;
                if fl.dest_width != 0 && mask != 0 {
                    frame.push((pc, 0, mask));
                }
            }
            Technique::InjectOnRead => {
                for (k, d) in fl.read_demand.iter().enumerate() {
                    let mask = !d;
                    if mask != 0 {
                        frame.push((pc, k, mask));
                    }
                }
            }
        }
    }
    if frame.is_empty() {
        return Vec::new();
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let (pc, operand_index, mask) = frame[rng.gen_range(0..frame.len())];
            let bits: Vec<u32> = (0..64).filter(|b| mask & (1u64 << b) != 0).collect();
            let bit = bits[rng.gen_range(0..bits.len())];
            let occurrence = rng.gen_range(0..counts[pc]);
            DeadSite {
                pc,
                technique,
                operand_index,
                bit,
                occurrence,
            }
        })
        .collect()
}

/// Inject one claimed-dead site and return `(flip applied, run result)`.
fn inject_dead_site(
    code: &CompiledModule,
    golden: &GoldenRun,
    site: &DeadSite,
) -> (bool, RunResult) {
    let m = &code.meta[site.pc];
    let mut hook = SiteFlipHook {
        triple: (m.func as usize, m.block as usize, m.instr as usize),
        is_write: site.technique.is_write(),
        operand_index: site.operand_index,
        bit: site.bit,
        occurrence: site.occurrence,
        seen: 0,
        armed_dyn: None,
        applied: false,
    };
    let result = Vm::new(code, golden.faulty_run_limits(2)).run(&mut hook);
    (hook.applied, result)
}

/// The soundness contract on one site: inject it and require a
/// byte-identical, benign run.  Returns whether the flip applied, or a
/// description of the violation.
fn check_dead_site(
    code: &CompiledModule,
    golden: &GoldenRun,
    site: &DeadSite,
) -> Result<bool, String> {
    let (applied, result) = inject_dead_site(code, golden, site);
    let outcome = classify(&result, &golden.output);
    if outcome != Outcome::Benign || result.output != golden.output {
        return Err(format!(
            "dead site pc={} op={} bit={} occ={} ({}) violated the contract: \
         outcome {outcome:?}, applied={applied}, output {} vs golden {} bytes",
            site.pc,
            site.operand_index,
            site.bit,
            site.occurrence,
            site.technique,
            result.output.len(),
            golden.output.len(),
        ));
    }
    Ok(applied)
}

/// Hook counting golden executions per PC.
struct PcCountHook {
    pc_by_site: HashMap<(usize, usize, usize), usize>,
    counts: Vec<u64>,
}

impl ExecHook for PcCountHook {
    fn on_instr(&mut self, ctx: &InstrContext) {
        if let Some(&pc) = self.pc_by_site.get(&(ctx.func, ctx.block, ctx.instr)) {
            self.counts[pc] += 1;
        }
    }
}

/// Hook that flips one specific bit at one specific dynamic occurrence of
/// one static instruction.
struct SiteFlipHook {
    triple: (usize, usize, usize),
    is_write: bool,
    operand_index: usize,
    bit: u32,
    occurrence: u64,
    seen: u64,
    armed_dyn: Option<u64>,
    applied: bool,
}

impl ExecHook for SiteFlipHook {
    fn on_instr(&mut self, ctx: &InstrContext) {
        if self.applied || (ctx.func, ctx.block, ctx.instr) != self.triple {
            return;
        }
        if self.seen == self.occurrence {
            self.armed_dyn = Some(ctx.dyn_index);
        }
        self.seen += 1;
    }

    fn on_read(
        &mut self,
        ctx: &InstrContext,
        operand_index: usize,
        _reg: Reg,
        value: Value,
    ) -> Value {
        if self.is_write
            || self.applied
            || self.armed_dyn != Some(ctx.dyn_index)
            || operand_index != self.operand_index
        {
            return value;
        }
        self.applied = true;
        value.flip_bit(self.bit)
    }

    fn on_write(&mut self, ctx: &InstrContext, _reg: Reg, value: Value) -> Value {
        if !self.is_write || self.applied || self.armed_dyn != Some(ctx.dyn_index) {
            return value;
        }
        self.applied = true;
        value.flip_bit(self.bit)
    }
}

/// A workload with a provably-dead computation chain next to live work.
fn workload_with_dead_chain() -> Module {
    let mut mb = ModuleBuilder::new("deadchain");
    let main = mb.declare("main", &[], None);
    {
        let mut f = mb.define(main);
        let acc = f.slot(Type::I64);
        f.store(Type::I64, 0i64, acc);
        f.counted_loop(Type::I64, 0i64, 24i64, |f, i| {
            // Dead: computed, chained, never consumed.
            let d0 = f.mul(Type::I64, i, 7i64);
            let d1 = f.add(Type::I64, d0, 13i64);
            let d2 = f.xor(Type::I64, d1, d0);
            let _ = f.shl(Type::I64, d2, 3i64);
            // Live: the printed sum.
            let cur = f.load(Type::I64, acc);
            let masked = f.and(Type::I64, i, 0xFFi64);
            let next = f.add(Type::I64, cur, masked);
            f.store(Type::I64, next, acc);
        });
        let total = f.load(Type::I64, acc);
        f.print_i64(total);
        f.ret_void();
    }
    mb.set_entry(main);
    mb.finish()
}

fn prepared() -> (CompiledModule, GoldenRun, BitFlow) {
    let code = CompiledModule::lower(&workload_with_dead_chain());
    let golden = GoldenRun::capture_compiled(&code).unwrap();
    let flow = BitFlow::analyze(&code);
    (code, golden, flow)
}

#[test]
fn sampled_dead_sites_are_outcome_preserving() {
    let (code, golden, flow) = prepared();
    let counts = pc_execution_counts(&code, &golden);
    for technique in Technique::ALL {
        let sites = sample_dead_sites(&flow, &counts, technique, 40, 0x5EED);
        assert!(!sites.is_empty(), "{technique}: no dead sites to sample");
        let applied = sites
            .iter()
            .filter(|site| check_dead_site(&code, &golden, site).unwrap())
            .count();
        assert!(
            applied > 0,
            "{technique}: no sampled dead-site flip ever applied"
        );
    }
}

#[test]
fn dead_site_sampling_is_deterministic() {
    let (code, golden, flow) = prepared();
    let counts = pc_execution_counts(&code, &golden);
    let a = sample_dead_sites(&flow, &counts, Technique::InjectOnRead, 25, 7);
    let b = sample_dead_sites(&flow, &counts, Technique::InjectOnRead, 25, 7);
    assert_eq!(a, b);
}

#[test]
fn statically_dead_sites_run_benign_and_byte_identical_on_every_workload() {
    for w in all_workloads() {
        let module = w.build_module(InputSize::Tiny);
        let code = CompiledModule::lower(&module);
        let golden = GoldenRun::capture_compiled(&code)
            .unwrap_or_else(|e| panic!("golden run of {} failed: {e}", w.name()));
        let flow = BitFlow::analyze(&code);
        let counts = pc_execution_counts(&code, &golden);

        for technique in Technique::ALL {
            let seed = 0xDEAD ^ golden.dynamic_instrs ^ technique.is_write() as u64;
            let sites = sample_dead_sites(&flow, &counts, technique, SITES_PER_TECHNIQUE, seed);
            // Non-empty also means the 64-bit-model dead fraction of the
            // executed code is non-zero on every workload.
            assert!(
                !sites.is_empty(),
                "{} {technique}: the analysis proved no dead bits on executed code",
                w.name()
            );
            for site in &sites {
                check_dead_site(&code, &golden, site)
                    .unwrap_or_else(|e| panic!("{} {technique}: {e}", w.name()));
            }
        }
    }
}
