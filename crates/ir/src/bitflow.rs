//! Bit-level backward liveness / mask dataflow over a [`CompiledModule`].
//!
//! The paper samples a huge (instruction, register, bit) error space and
//! prunes it *dynamically*; BEC-style bit-granular static analysis discharges
//! a large share of that space *before any execution*: a flipped bit that is
//! dead (never consumed), overwritten before use, or masked away by `and` /
//! shifts / `trunc` provably cannot change the program outcome.  This module
//! computes, for every PC of the flat bytecode, which bits of each consumed
//! register operand and of the destination register can still influence
//! anything observable.
//!
//! ## The lattice
//!
//! One `u64` **liveness mask** per (PC, register): bit `k` set means "bit `k`
//! of this register's value may still affect observable behaviour from this
//! point on".  Masks are propagated *backwards* over the flat [`CInstr`]
//! array using the absolute-PC branch / switch targets resolved at lowering
//! time, with a per-opcode transfer function for the full [`BinOp`] /
//! [`CastOp`] set: `and` with a constant kills the constant's zero bits,
//! `shl k` kills the top `k` live-out bits, `trunc` kills everything above
//! the target width, `add`/`mul` conservatively saturate carry propagation
//! upward ([`smear_down`]).  Calls and returns are handled interprocedurally
//! with per-function parameter / return demand masks iterated to a joint
//! fixed point (Kleene iteration from ⊥, both levels monotone).
//!
//! ## Soundness contract
//!
//! **Dead ⇒ byte-identical outcome.**  If [`BitFlow::is_dead_read_bit`] /
//! [`BitFlow::is_dead_write_bit`] says a bit is dead, then flipping exactly
//! that bit at that site in an otherwise fault-free run produces a run whose
//! *classified outcome* is byte-identical to golden: same output bytes, same
//! termination, same dynamic trajectory of every live bit.  The analysis is
//! calibrated against the exact evaluator semantics in `mbfi-vm::ops` —
//! including the trapping operators (`udiv`/`sdiv`/`urem`/`srem` demand
//! every bit that can reach the trap condition; `sdiv`/`srem` read their
//! operands through value-typed sign extension and therefore demand all 64
//! bits), memory and I/O side effects (always fully demanded), and the
//! interpreter's masking discipline (every register write is masked to the
//! written value's type, so liveness is clamped per register to the union of
//! possible value widths).  Anything the analysis cannot prove dead is
//! reported live; when the fixed point fails to converge within its iteration
//! cap the whole result saturates to fully-live, which is always sound.
//!
//! The contract is validated empirically by `tests/bitflow_equivalence.rs`:
//! 1,050 seeded samples of statically-dead sites are injected anyway across
//! all 15 workloads and must land byte-identical to golden.

use crate::compiled::{CInstr, CompiledModule};
use crate::instr::{BinOp, CastOp, Intrinsic};
use crate::types::Type;
use crate::value::{Constant, Operand};

/// All bits at or below the highest set bit of `m` (carry smear for
/// `add`/`sub`/`mul`/`gep`: a flip at bit `i` can only disturb result bits
/// `>= i`, so bit `i` of an operand is dead iff no live bit sits at or above
/// `i`).
pub fn smear_down(m: u64) -> u64 {
    if m == 0 {
        0
    } else {
        let msb = 63 - m.leading_zeros();
        if msb >= 63 {
            u64::MAX
        } else {
            (1u64 << (msb + 1)) - 1
        }
    }
}

/// All bits at or above the lowest set bit of `m` (borrow smear for right
/// shifts: a flip at bit `i` can only disturb result bits `<= i`).
pub fn smear_up(m: u64) -> u64 {
    if m == 0 {
        0
    } else {
        u64::MAX << m.trailing_zeros()
    }
}

/// The bit mask of the value a cast instruction actually writes.
///
/// Matches `mbfi-vm::ops::eval_cast`: every cast produces a value of `to_ty`
/// except `fptrunc` (always writes an `f32`-typed value) and `fpext` (always
/// writes an `f64`-typed value), regardless of the declared `to_ty`.
pub fn cast_result_mask(op: CastOp, to_ty: Type) -> u64 {
    match op {
        CastOp::FpTrunc => Type::F32.bit_mask(),
        CastOp::FpExt => Type::F64.bit_mask(),
        _ => to_ty.bit_mask(),
    }
}

/// Demand masks `(lhs, rhs)` of a binary operation: which bits of each
/// operand *value* can influence the live destination bits `dest_live` or
/// the operator's trap behaviour.
///
/// `lhs_const` / `rhs_const` carry the operand's known constant payload
/// (already masked to the constant's own type) when the operand is an
/// immediate — `and`/`or` with a constant and constant shift amounts prune
/// much harder than their variable forms.  Flipping an operand bit outside
/// the returned mask never changes the op's result bits within `dest_live`
/// and never changes whether the op traps (property-checked exhaustively per
/// operator in `tests/bitflow_transfer.rs`).
pub fn binop_demands(
    op: BinOp,
    ty: Type,
    lhs_const: Option<u64>,
    rhs_const: Option<u64>,
    dest_live: u64,
) -> (u64, u64) {
    let w = ty.bit_width();
    let m = ty.bit_mask();
    let l = dest_live & m;
    match op {
        // The evaluator reads sdiv/srem operands through value-typed sign
        // extension (`as_i64`), so any of the 64 payload bits can reach the
        // trap condition regardless of the instruction type.
        BinOp::SDiv | BinOp::SRem => (u64::MAX, u64::MAX),
        // udiv/urem mask both operands to the instruction type, but the
        // divide-by-zero trap makes them fully demanded within that mask
        // even when no destination bit is live.
        BinOp::UDiv | BinOp::URem => (m, m),
        _ if l == 0 => (0, 0),
        // Carries propagate strictly upward (wrapping arithmetic).
        BinOp::Add | BinOp::Sub | BinOp::Mul => {
            let d = smear_down(l) & m;
            (d, d)
        }
        BinOp::And => {
            let dl = rhs_const.map_or(l, |c| l & c & m);
            let dr = lhs_const.map_or(l, |c| l & c & m);
            (dl, dr)
        }
        BinOp::Or => {
            let dl = rhs_const.map_or(l, |c| l & !(c & m));
            let dr = lhs_const.map_or(l, |c| l & !(c & m));
            (dl, dr)
        }
        BinOp::Xor => (l, l),
        // Shift amounts reduce to `rhs & (width - 1)` in the evaluator
        // (power-of-two widths), so only the low log2(width) bits of a
        // variable amount are demanded.
        BinOp::Shl => match rhs_const {
            Some(c) => {
                let k = (c & m) as u32 % w;
                ((l >> k) & m, 0)
            }
            None => (smear_down(l) & m, u64::from(w - 1)),
        },
        BinOp::LShr => match rhs_const {
            Some(c) => {
                let k = (c & m) as u32 % w;
                (l.checked_shl(k).unwrap_or(0) & m, 0)
            }
            None => (smear_up(l) & m, u64::from(w - 1)),
        },
        BinOp::AShr => match rhs_const {
            Some(c) => {
                let k = (c & m) as u32 % w;
                let mut d = 0u64;
                for j in 0..w {
                    if l & (1u64 << j) != 0 {
                        d |= 1u64 << (j + k).min(w - 1);
                    }
                }
                (d, 0)
            }
            None => (smear_up(l) & m, u64::from(w - 1)),
        },
        // Float arithmetic reads both operands through `as_f64` (full
        // payload, value-typed) and never traps.
        BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FRem => (u64::MAX, u64::MAX),
    }
}

/// Demand mask of a cast's source operand given the live destination bits.
///
/// Matches `mbfi-vm::ops::eval_cast` exactly: the bit-selecting casts pass
/// `dest_live` through the source mask, `sext` folds every demanded
/// high bit onto the source sign bit, the float conversions read the full
/// `as_f64` payload (`fptrunc` reinterprets all 64 bits as an `f64`
/// regardless of `from_ty`; `fpext` reads only the low 32).  No cast traps.
pub fn cast_demand(op: CastOp, from_ty: Type, to_ty: Type, dest_live: u64) -> u64 {
    // Bits of dest_live the cast's written value cannot even carry are
    // irrelevant; clamp so the helper is correct standalone.
    let dest_live = dest_live & cast_result_mask(op, to_ty);
    if dest_live == 0 {
        return 0;
    }
    let fm = from_ty.bit_mask();
    match op {
        CastOp::Trunc | CastOp::Bitcast | CastOp::PtrToInt | CastOp::IntToPtr | CastOp::ZExt => {
            dest_live & fm
        }
        CastOp::SExt => {
            let s = from_ty.bit_width() - 1;
            let below = if s == 0 { 0 } else { (1u64 << s) - 1 };
            let mut d = dest_live & below;
            if dest_live >> s != 0 {
                d |= 1u64 << s;
            }
            d
        }
        CastOp::FpToSi | CastOp::FpToUi => {
            // Reads the value through `as_f64`: an f32 source uses only the
            // low 32 bits, every other source the full payload.
            if from_ty == Type::F32 {
                Type::F32.bit_mask()
            } else {
                u64::MAX
            }
        }
        CastOp::SiToFp | CastOp::UiToFp => fm,
        // `f64::from_bits(v.bits)` — all 64 payload bits, whatever from_ty.
        CastOp::FpTrunc => u64::MAX,
        // `f32::from_bits(v.bits as u32)` — low 32 payload bits only.
        CastOp::FpExt => Type::F32.bit_mask(),
    }
}

/// Per-PC flow facts produced by [`BitFlow::analyze`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrFlow {
    /// Live-out bits of the destination register, clamped to the written
    /// value's width ([`InstrFlow::dest_width`]); `0` when the instruction
    /// has no destination or nothing it writes is ever consumed.
    pub dest_live: u64,
    /// Bit mask of the value this instruction writes (`0` = no destination).
    pub dest_width: u64,
    /// Whether the destination write is guaranteed to happen when the
    /// instruction executes and completes.  `false` for calls whose callee
    /// has a value-less `ret` (the interpreter then skips the return-value
    /// write) — such destinations are never killed by the transfer function.
    pub dest_fires: bool,
    /// Demand mask per `on_read` operand index (one entry per register
    /// operand, in hook order).  For `phi`, entry 0 is the demand of the
    /// single arm the interpreter actually reads and all further entries are
    /// `0` (those operand indices never reach `on_read`).
    pub read_demand: Box<[u64]>,
    /// Possible-width mask per `on_read` operand index: the union of bit
    /// masks any value held by that register can carry (declared register
    /// type ∪ all def types).  Bits outside it are un-flippable no-ops.
    pub read_width: Box<[u64]>,
}

impl InstrFlow {
    fn empty() -> InstrFlow {
        InstrFlow {
            dest_live: 0,
            dest_width: 0,
            dest_fires: false,
            read_demand: Box::new([]),
            read_width: Box::new([]),
        }
    }
}

/// Aggregate (instruction, register, bit) site-space accounting under the
/// analysis, reported next to [`CompiledModule::static_candidates`].
///
/// "In-width" counts only bits a fault can actually flip (inside the
/// possible value width of the site); the `model64` views charge the full
/// [64-bit register model](crate::compiled::CompiledModule) per site, where
/// out-of-width bits are trivially dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BitSpace {
    /// Static inject-on-read operand sites (register operands; phi counts
    /// every arm).
    pub read_sites: u64,
    /// Flippable bits across all read sites.
    pub read_site_bits: u64,
    /// Flippable read-site bits proven dead.
    pub read_dead_bits: u64,
    /// Static inject-on-write destination sites.
    pub write_sites: u64,
    /// Flippable bits across all write sites.
    pub write_site_bits: u64,
    /// Flippable write-site bits proven dead.
    pub write_dead_bits: u64,
}

impl BitSpace {
    /// Dead fraction of the flippable (in-width) read-site bit space.
    pub fn read_dead_fraction(&self) -> f64 {
        fraction(self.read_dead_bits, self.read_site_bits)
    }

    /// Dead fraction of the flippable (in-width) write-site bit space.
    pub fn write_dead_fraction(&self) -> f64 {
        fraction(self.write_dead_bits, self.write_site_bits)
    }

    /// Dead fraction of the 64-bit-register-model read space (out-of-width
    /// bits counted dead, as the injector's flips on them are no-ops).
    pub fn read_dead_fraction_model64(&self) -> f64 {
        let total = self.read_sites * 64;
        fraction(self.read_dead_bits + total - self.read_site_bits, total)
    }

    /// Dead fraction of the 64-bit-register-model write space.
    pub fn write_dead_fraction_model64(&self) -> f64 {
        let total = self.write_sites * 64;
        fraction(self.write_dead_bits + total - self.write_site_bits, total)
    }
}

fn fraction(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A dead destination definition found by the analysis (fuel for the
/// dead-def verifier lint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadDef {
    /// PC of the defining instruction.
    pub pc: usize,
    /// Destination register index.
    pub reg: usize,
}

/// The converged bit-level dataflow result for one compiled module.
#[derive(Debug, Clone)]
pub struct BitFlow {
    flows: Vec<InstrFlow>,
    param_demand: Vec<Box<[u64]>>,
    ret_demand: Vec<u64>,
    reg_width: Vec<Box<[u64]>>,
    saturated: bool,
}

/// Per-function iteration state shared by the passes.
struct Ctx<'c> {
    code: &'c CompiledModule,
    /// `[start, end)` PC range of each function's contiguous instructions.
    ranges: Vec<(usize, usize)>,
    /// Whether every `ret` of the function carries a value (the return-value
    /// write in the caller then always fires).
    always_ret_value: Vec<bool>,
    reg_width: Vec<Box<[u64]>>,
}

impl BitFlow {
    /// Run the analysis to its interprocedural fixed point.
    ///
    /// Pure function of the compiled module: same module, same result — the
    /// prune decisions derived from it never depend on any RNG stream.
    pub fn analyze(code: &CompiledModule) -> BitFlow {
        let n = code.instrs.len();
        let nf = code.funcs.len();

        // Contiguous PC range of every function (lowering emits functions in
        // order; bodiless functions own no PCs).
        let mut ranges = vec![(0usize, 0usize); nf];
        let mut pc = 0usize;
        while pc < n {
            let f = code.meta[pc].func as usize;
            let start = pc;
            while pc < n && code.meta[pc].func as usize == f {
                pc += 1;
            }
            if f < nf {
                ranges[f] = (start, pc);
            }
        }

        let always_ret_value: Vec<bool> = ranges
            .iter()
            .map(|&(start, end)| {
                code.instrs[start..end]
                    .iter()
                    .all(|i| !matches!(i, CInstr::Ret { value: None }))
            })
            .collect();

        // Possible-width mask per register: declared type ∪ every def's
        // written-value type.  The interpreter masks each write to the
        // written value's own type, so no register value ever carries bits
        // outside this union — liveness is clamped to it, and flips beyond
        // it are no-ops.
        let mut reg_width: Vec<Box<[u64]>> = code
            .funcs
            .iter()
            .map(|l| l.reg_tys.iter().map(|t| t.bit_mask()).collect())
            .collect();
        for (f, &(start, end)) in ranges.iter().enumerate() {
            for pc in start..end {
                if let Some((reg, width, _)) = def_fact(code, f, &code.instrs[pc]) {
                    if let Some(w) = reg_width[f].get_mut(reg) {
                        *w |= width;
                    }
                }
            }
        }

        let ctx = Ctx {
            code,
            ranges,
            always_ret_value,
            reg_width,
        };

        // Interprocedural Kleene iteration: per-function backward liveness
        // to a local fixed point, then recompute parameter / return demand
        // masks from the new liveness; repeat until the interfaces stop
        // growing.  Both levels are monotone, so the joint fixed point is
        // reached in at most one outer iteration per interface bit.
        let mut live: Vec<Vec<u64>> = (0..n)
            .map(|pc| {
                let f = code.meta[pc].func as usize;
                vec![0u64; ctx.reg_width.get(f).map_or(0, |w| w.len())]
            })
            .collect();
        let mut param_demand: Vec<Box<[u64]>> = code
            .funcs
            .iter()
            .map(|l| vec![0u64; l.params.len()].into_boxed_slice())
            .collect();
        let mut ret_demand = vec![0u64; nf];
        if let Some(entry) = code.entry {
            // The entry function's returned value is part of the observable
            // run result; treat it as fully demanded.
            if let Some(r) = ret_demand.get_mut(entry) {
                *r = u64::MAX;
            }
        }

        let interface_bits: usize =
            64 * (code.funcs.iter().map(|l| l.params.len()).sum::<usize>() + nf);
        let outer_cap = interface_bits + 2;
        let mut converged = false;
        let mut saturated = false;
        'outer: for _ in 0..outer_cap {
            for f in 0..nf {
                if !liveness_fixpoint(&ctx, f, &param_demand, &ret_demand, &mut live) {
                    saturated = true;
                    break 'outer;
                }
            }
            let mut changed = false;
            // Parameter demand: liveness at the function entry PC.
            for (f, &(start, end)) in ctx.ranges.iter().enumerate() {
                if start == end {
                    continue;
                }
                for (i, p) in code.funcs[f].params.iter().enumerate() {
                    let d = live[start].get(*p as usize).copied().unwrap_or(0);
                    let slot = &mut param_demand[f][i];
                    if *slot | d != *slot {
                        *slot |= d;
                        changed = true;
                    }
                }
            }
            // Return demand: union over every call site of the live-out bits
            // of the call's destination (the caller masks the returned value
            // to the destination's declared type).
            for (f, &(start, end)) in ctx.ranges.iter().enumerate() {
                for pc in start..end {
                    if let CInstr::Call {
                        dest: Some(d),
                        callee,
                        ..
                    } = &code.instrs[pc]
                    {
                        if *callee >= nf || pc + 1 >= end {
                            continue;
                        }
                        let out = live[pc + 1].get(d.index()).copied().unwrap_or(0);
                        let mask = code.funcs[f]
                            .reg_tys
                            .get(d.index())
                            .map_or(u64::MAX, |t| t.bit_mask());
                        let slot = &mut ret_demand[*callee];
                        let add = out & mask;
                        if *slot | add != *slot {
                            *slot |= add;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                converged = true;
                break;
            }
        }
        if !converged {
            saturated = true;
        }

        // Final pass: materialize per-PC flow facts from the converged
        // liveness (or saturate everything to fully-live on cap overflow —
        // always sound, never observed on real modules).
        let mut flows = vec![InstrFlow::empty(); n];
        for (f, &(start, end)) in ctx.ranges.iter().enumerate() {
            let mut out = vec![0u64; ctx.reg_width[f].len()];
            for (off, slot) in flows[start..end].iter_mut().enumerate() {
                let pc = start + off;
                successor_join(&ctx, pc, start, end, &live, &mut out);
                *slot = instr_flow(&ctx, f, pc, &out, &param_demand, &ret_demand, saturated);
            }
        }

        BitFlow {
            flows,
            param_demand,
            ret_demand,
            reg_width: ctx.reg_width,
            saturated,
        }
    }

    /// Flow facts of one PC.
    pub fn flow(&self, pc: usize) -> &InstrFlow {
        &self.flows[pc]
    }

    /// Flow facts of every PC, parallel to `CompiledModule::instrs`.
    pub fn flows(&self) -> &[InstrFlow] {
        &self.flows
    }

    /// Demand mask per parameter position of a function (which bits of each
    /// argument the callee can ever consume).
    pub fn param_demand(&self, func: usize) -> &[u64] {
        &self.param_demand[func]
    }

    /// Demand mask of a function's returned value across all call sites.
    pub fn ret_demand(&self, func: usize) -> u64 {
        self.ret_demand[func]
    }

    /// Possible-width mask of a register (union of value widths it can hold).
    pub fn reg_width(&self, func: usize, reg: usize) -> u64 {
        self.reg_width
            .get(func)
            .and_then(|w| w.get(reg))
            .copied()
            .unwrap_or(u64::MAX)
    }

    /// Whether the iteration cap was hit and the result saturated to
    /// fully-live (sound, prunes nothing).
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Whether flipping bit `bit` of the value delivered to `on_read`
    /// operand index `operand_index` at `pc` is provably outcome-preserving.
    pub fn is_dead_read_bit(&self, pc: usize, operand_index: usize, bit: u32) -> bool {
        if bit >= 64 {
            return true;
        }
        match self.flows[pc].read_demand.get(operand_index) {
            Some(d) => d & (1u64 << bit) == 0,
            None => false,
        }
    }

    /// Whether flipping bit `bit` of the value delivered to `on_write` at
    /// `pc` is provably outcome-preserving.
    pub fn is_dead_write_bit(&self, pc: usize, bit: u32) -> bool {
        if bit >= 64 {
            return true;
        }
        let f = &self.flows[pc];
        f.dest_width != 0 && f.dest_live & (1u64 << bit) == 0
    }

    /// Destination definitions none of whose bits are ever consumed.
    pub fn dead_defs(&self, code: &CompiledModule) -> Vec<DeadDef> {
        self.flows
            .iter()
            .enumerate()
            .filter(|(_, fl)| fl.dest_width != 0 && fl.dest_live == 0)
            .map(|(pc, _)| DeadDef {
                pc,
                reg: dest_reg(&code.instrs[pc]).unwrap_or(0),
            })
            .collect()
    }

    /// Aggregate the (instruction, register, bit) site space under the
    /// analysis.
    pub fn space(&self) -> BitSpace {
        let mut s = BitSpace::default();
        for fl in &self.flows {
            for (d, w) in fl.read_demand.iter().zip(fl.read_width.iter()) {
                s.read_sites += 1;
                s.read_site_bits += u64::from(w.count_ones());
                s.read_dead_bits += u64::from((w & !d).count_ones());
            }
            if fl.dest_width != 0 {
                s.write_sites += 1;
                s.write_site_bits += u64::from(fl.dest_width.count_ones());
                s.write_dead_bits += u64::from((fl.dest_width & !fl.dest_live).count_ones());
            }
        }
        s
    }
}

/// Destination register index of an instruction, if any.
fn dest_reg(instr: &CInstr) -> Option<usize> {
    match instr {
        CInstr::Binary { dest, .. }
        | CInstr::Icmp { dest, .. }
        | CInstr::Fcmp { dest, .. }
        | CInstr::Cast { dest, .. }
        | CInstr::Select { dest, .. }
        | CInstr::Alloca { dest, .. }
        | CInstr::Load { dest, .. }
        | CInstr::Gep { dest, .. }
        | CInstr::Phi { dest, .. } => Some(dest.index()),
        CInstr::Call { dest, .. } | CInstr::IntrinsicCall { dest, .. } => dest.map(|d| d.index()),
        _ => None,
    }
}

/// `(dest reg, written-value width mask, write always fires)` of an
/// instruction's destination, mirroring the interpreter's write-side
/// masking exactly.
fn def_fact(code: &CompiledModule, f: usize, instr: &CInstr) -> Option<(usize, u64, bool)> {
    match instr {
        CInstr::Binary { dest, ty, .. } => Some((dest.index(), ty.bit_mask(), true)),
        CInstr::Icmp { dest, .. } | CInstr::Fcmp { dest, .. } => {
            Some((dest.index(), Type::I1.bit_mask(), true))
        }
        CInstr::Cast {
            dest, op, to_ty, ..
        } => Some((dest.index(), cast_result_mask(*op, *to_ty), true)),
        CInstr::Select { dest, ty, .. }
        | CInstr::Load { dest, ty, .. }
        | CInstr::Phi { dest, ty, .. } => Some((dest.index(), ty.bit_mask(), true)),
        CInstr::Alloca { dest, .. } | CInstr::Gep { dest, .. } => {
            Some((dest.index(), Type::Ptr.bit_mask(), true))
        }
        CInstr::Call {
            dest: Some(d),
            callee,
            ..
        } => {
            // The return-value write is masked to the *caller's* declared
            // destination type; it only happens if the executed `ret`
            // carries a value, which is guaranteed only when every `ret` of
            // the callee does (checked by the caller of this fn).
            let mask = code.funcs[f]
                .reg_tys
                .get(d.index())
                .map_or(u64::MAX, |t| t.bit_mask());
            Some((d.index(), mask, *callee < code.funcs.len()))
        }
        CInstr::IntrinsicCall {
            dest: Some(d),
            which,
            ..
        } => {
            // malloc writes a pointer, the math intrinsics an f64 — both
            // full-width.  A dest on a result-less intrinsic never fires.
            Some((d.index(), u64::MAX, which.has_result()))
        }
        _ => None,
    }
}

/// Known constant payload of an operand (masked to the constant's own type),
/// for the constant-aware `and`/`or`/shift transfer refinements.
fn const_bits(op: &Operand) -> Option<u64> {
    match op {
        Operand::Const(Constant::Int { ty, bits })
        | Operand::Const(Constant::Float { ty, bits }) => Some(bits & ty.bit_mask()),
        Operand::Const(Constant::Null) => Some(0),
        // Globals resolve to runtime addresses — unknown statically.
        Operand::Const(Constant::Global { .. }) => None,
        Operand::Reg(_) => None,
    }
}

/// Demand arity of an intrinsic (how many leading args it actually reads);
/// extra args are ignored by the evaluator and therefore undemanded.
fn intrinsic_arity(which: Intrinsic) -> usize {
    match which {
        Intrinsic::Abort => 0,
        Intrinsic::Pow | Intrinsic::PrintBytes => 2,
        Intrinsic::Memcpy | Intrinsic::Memset => 3,
        _ => 1,
    }
}

/// Per-argument demand of an intrinsic call with live result bits `l`.
fn intrinsic_demand(which: Intrinsic, l: u64, arg_index: usize) -> u64 {
    if arg_index >= intrinsic_arity(which) {
        return 0;
    }
    let all_if_live = if l == 0 { 0 } else { u64::MAX };
    match which {
        // Total, non-trapping pure math on the full `as_f64` payload: only
        // demanded if the result is.
        Intrinsic::Sqrt
        | Intrinsic::Sin
        | Intrinsic::Cos
        | Intrinsic::Atan
        | Intrinsic::Pow
        | Intrinsic::Exp
        | Intrinsic::Log
        | Intrinsic::Fabs
        | Intrinsic::Floor
        | Intrinsic::Ceil
        | Intrinsic::Cbrt => all_if_live,
        // `print_char` consumes exactly the low byte.
        Intrinsic::PrintChar => 0xFF,
        // Output, heap and memory intrinsics are observable side effects (or
        // can trap) no matter what happens to their result.
        _ => u64::MAX,
    }
}

/// Join the live-in sets of `pc`'s successors into `out` (the live-out set).
fn successor_join(
    ctx: &Ctx<'_>,
    pc: usize,
    start: usize,
    end: usize,
    live: &[Vec<u64>],
    out: &mut [u64],
) {
    out.fill(0);
    let mut add = |s: usize| {
        // Branch targets are intra-function by construction; skip anything
        // else defensively (contributes nothing = sound only because such an
        // edge cannot exist in lowered code).
        if s >= start && s < end {
            for (o, v) in out.iter_mut().zip(&live[s]) {
                *o |= v;
            }
        }
    };
    match &ctx.code.instrs[pc] {
        CInstr::Jump { target } => add(*target),
        CInstr::CondBr {
            then_pc, else_pc, ..
        } => {
            add(*then_pc);
            add(*else_pc);
        }
        CInstr::Switch {
            default_pc, cases, ..
        } => {
            add(*default_pc);
            for (_, t) in cases.iter() {
                add(*t);
            }
        }
        CInstr::Ret { .. } | CInstr::Unreachable | CInstr::FellOff => {}
        _ => add(pc + 1),
    }
}

/// The backward transfer: kill the (always-firing) destination, then OR in
/// every register operand's demand.  Returns the gen list in `on_read`
/// operand order (for phi: every register arm, all with the same demand).
fn transfer(
    ctx: &Ctx<'_>,
    f: usize,
    pc: usize,
    out: &[u64],
    param_demand: &[Box<[u64]>],
    ret_demand: &[u64],
    new_in: &mut Vec<u64>,
) {
    new_in.clear();
    new_in.extend_from_slice(out);
    let instr = &ctx.code.instrs[pc];
    let def = def_fact(ctx.code, f, instr);
    if let Some((reg, _, fires)) = def {
        let fires = fires
            && match instr {
                CInstr::Call { callee, .. } => {
                    *callee < ctx.always_ret_value.len() && ctx.always_ret_value[*callee]
                }
                _ => true,
            };
        if fires {
            if let Some(slot) = new_in.get_mut(reg) {
                *slot = 0;
            }
        }
    }
    for (op, demand) in operand_demands(ctx, f, pc, out, param_demand, ret_demand) {
        if let Some(r) = op.as_reg() {
            if let Some(slot) = new_in.get_mut(r.index()) {
                *slot |= demand & ctx.reg_width[f].get(r.index()).copied().unwrap_or(u64::MAX);
            }
        }
    }
}

/// Demand of every operand of `pc` (in evaluation order), given the live-out
/// register masks.  Constant operands are included (with their demand) so the
/// caller can keep hook `operand_index` alignment by filtering on `is_reg`.
fn operand_demands(
    ctx: &Ctx<'_>,
    f: usize,
    pc: usize,
    out: &[u64],
    param_demand: &[Box<[u64]>],
    ret_demand: &[u64],
) -> Vec<(Operand, u64)> {
    let code = ctx.code;
    let instr = &code.instrs[pc];
    let dest_live = |width: u64| -> u64 {
        def_fact(code, f, instr)
            .and_then(|(reg, _, _)| out.get(reg).copied())
            .unwrap_or(0)
            & width
    };
    match instr {
        CInstr::Binary {
            op, ty, lhs, rhs, ..
        } => {
            let l = dest_live(ty.bit_mask());
            let (dl, dr) = binop_demands(*op, *ty, const_bits(lhs), const_bits(rhs), l);
            vec![(*lhs, dl), (*rhs, dr)]
        }
        CInstr::Icmp { ty, lhs, rhs, .. } => {
            // The comparison masks and sign-extends both operands from the
            // instruction type; demanded iff the i1 result is live.
            let d = if dest_live(1) == 0 { 0 } else { ty.bit_mask() };
            vec![(*lhs, d), (*rhs, d)]
        }
        CInstr::Fcmp { lhs, rhs, .. } => {
            // `as_f64` reads the full value payload.
            let d = if dest_live(1) == 0 { 0 } else { u64::MAX };
            vec![(*lhs, d), (*rhs, d)]
        }
        CInstr::Cast {
            op,
            from_ty,
            to_ty,
            src,
            ..
        } => {
            let l = dest_live(cast_result_mask(*op, *to_ty));
            vec![(*src, cast_demand(*op, *from_ty, *to_ty, l))]
        }
        CInstr::Select {
            ty,
            cond,
            then_val,
            else_val,
            ..
        } => {
            let l = dest_live(ty.bit_mask());
            // `as_bool` tests every payload bit of the condition.
            let dc = if l == 0 { 0 } else { u64::MAX };
            vec![(*cond, dc), (*then_val, l), (*else_val, l)]
        }
        CInstr::Alloca { count, .. } => {
            // The element count sizes the stack allocation: it can trap and
            // it shifts every later stack address — always fully demanded.
            vec![(*count, u64::MAX)]
        }
        CInstr::Load { addr, .. } => vec![(*addr, u64::MAX)],
        CInstr::Store { ty, value, addr } => {
            // The store writes exactly `ty`-width bits to untracked memory.
            vec![(*value, ty.bit_mask()), (*addr, u64::MAX)]
        }
        CInstr::Gep { base, index, .. } => {
            let l = dest_live(Type::Ptr.bit_mask());
            let d = smear_down(l);
            vec![(*base, d), (*index, d)]
        }
        CInstr::Call { callee, args, .. } => args
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let d = if *callee < code.funcs.len() {
                    param_demand[*callee].get(i).copied().unwrap_or(0)
                } else {
                    // Invalid callee traps before reading any argument.
                    0
                };
                (*a, d)
            })
            .collect(),
        CInstr::IntrinsicCall { which, args, dest } => {
            let l = match dest {
                Some(d) if which.has_result() => out.get(d.index()).copied().unwrap_or(0),
                _ => 0,
            };
            args.iter()
                .enumerate()
                .map(|(i, a)| (*a, intrinsic_demand(*which, l, i)))
                .collect()
        }
        CInstr::Phi { ty, incoming, .. } => {
            let l = dest_live(ty.bit_mask());
            incoming.iter().map(|(_, op)| (*op, l)).collect()
        }
        CInstr::CondBr { cond, .. } => vec![(*cond, u64::MAX)],
        CInstr::Switch { value, .. } => vec![(*value, u64::MAX)],
        CInstr::Ret { value } => match value {
            Some(op) => {
                let d = ret_demand.get(f).copied().unwrap_or(u64::MAX);
                vec![(*op, d)]
            }
            None => vec![],
        },
        CInstr::Jump { .. } | CInstr::Unreachable | CInstr::FellOff => vec![],
    }
}

/// Run one function's backward liveness to its local fixed point.  Returns
/// `false` if the (defensive) sweep cap was hit.
fn liveness_fixpoint(
    ctx: &Ctx<'_>,
    f: usize,
    param_demand: &[Box<[u64]>],
    ret_demand: &[u64],
    live: &mut [Vec<u64>],
) -> bool {
    let (start, end) = ctx.ranges[f];
    if start == end {
        return true;
    }
    let regs = ctx.reg_width[f].len();
    let mut out = vec![0u64; regs];
    let mut new_in: Vec<u64> = Vec::with_capacity(regs);
    // Masks only grow; every productive sweep adds at least one bit, so the
    // lattice height bounds the sweep count.  The cap is defensive only.
    let cap = 64 * regs * (end - start) + 2;
    for _ in 0..cap {
        let mut changed = false;
        for pc in (start..end).rev() {
            successor_join(ctx, pc, start, end, live, &mut out);
            transfer(ctx, f, pc, &out, param_demand, ret_demand, &mut new_in);
            if new_in[..] != live[pc][..] {
                live[pc].copy_from_slice(&new_in);
                changed = true;
            }
        }
        if !changed {
            return true;
        }
    }
    false
}

/// Materialize one PC's [`InstrFlow`] from the converged live-out set.
fn instr_flow(
    ctx: &Ctx<'_>,
    f: usize,
    pc: usize,
    out: &[u64],
    param_demand: &[Box<[u64]>],
    ret_demand: &[u64],
    saturated: bool,
) -> InstrFlow {
    let code = ctx.code;
    let instr = &code.instrs[pc];
    let widths = &ctx.reg_width[f];
    let (dest_width, dest_fires, mut dest_live) = match def_fact(code, f, instr) {
        Some((reg, width, fires)) => {
            let fires = fires
                && match instr {
                    CInstr::Call { callee, .. } => {
                        *callee < ctx.always_ret_value.len() && ctx.always_ret_value[*callee]
                    }
                    _ => true,
                };
            (width, fires, out.get(reg).copied().unwrap_or(0) & width)
        }
        None => (0, false, 0),
    };

    let (mut read_demand, read_width): (Vec<u64>, Vec<u64>) = match instr {
        CInstr::Phi { ty, incoming, .. } => {
            // The interpreter reads exactly one arm (operand index 0); all
            // later indices never reach `on_read`.
            let l = dest_live & ty.bit_mask();
            let union_width: u64 = incoming
                .iter()
                .filter_map(|(_, op)| op.as_reg())
                .map(|r| widths.get(r.index()).copied().unwrap_or(u64::MAX))
                .fold(0, |a, b| a | b);
            let arms = incoming.iter().filter(|(_, op)| op.is_reg()).count();
            let mut d = vec![0u64; arms];
            let mut w = vec![0u64; arms];
            if arms > 0 {
                d[0] = l & union_width;
                w[0] = union_width;
            }
            (d, w)
        }
        _ => operand_demands(ctx, f, pc, out, param_demand, ret_demand)
            .into_iter()
            .filter_map(|(op, demand)| {
                op.as_reg().map(|r| {
                    let w = widths.get(r.index()).copied().unwrap_or(u64::MAX);
                    (demand & w, w)
                })
            })
            .unzip(),
    };

    if saturated {
        dest_live = dest_width;
        read_demand.copy_from_slice(&read_width);
    }

    InstrFlow {
        dest_live,
        dest_width,
        dest_fires,
        read_demand: read_demand.into_boxed_slice(),
        read_width: read_width.into_boxed_slice(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::IcmpPred;

    fn flow_of(mb: ModuleBuilder) -> (CompiledModule, BitFlow) {
        let code = CompiledModule::lower(&mb.finish());
        let flow = BitFlow::analyze(&code);
        (code, flow)
    }

    /// PC of the first instruction matching `pred`.
    fn find_pc(code: &CompiledModule, pred: impl Fn(&CInstr) -> bool) -> usize {
        code.instrs
            .iter()
            .position(pred)
            .expect("expected instruction not found")
    }

    #[test]
    fn smears_cover_expected_ranges() {
        assert_eq!(smear_down(0), 0);
        assert_eq!(smear_down(0b1000), 0b1111);
        assert_eq!(smear_down(1 << 63), u64::MAX);
        assert_eq!(smear_up(0), 0);
        assert_eq!(smear_up(0b1000), u64::MAX << 3);
        assert_eq!(smear_up(1), u64::MAX);
    }

    #[test]
    fn and_with_constant_kills_masked_bits() {
        let (dl, dr) = binop_demands(BinOp::And, Type::I64, None, Some(0xFF), u64::MAX);
        assert_eq!(dl, 0xFF);
        assert_eq!(dr, u64::MAX); // rhs is the constant; demand unused
        let (dl, _) = binop_demands(BinOp::And, Type::I64, None, None, 0xF0);
        assert_eq!(dl, 0xF0);
    }

    #[test]
    fn constant_shl_kills_top_live_bits() {
        // dest_live = low byte, shifted left by 4: only lhs bits 0..4 reach it.
        let (dl, dr) = binop_demands(BinOp::Shl, Type::I64, None, Some(4), 0xFF);
        assert_eq!(dl, 0x0F);
        assert_eq!(dr, 0);
        // Variable shift amount: only the low log2(64) bits are demanded.
        let (_, dr) = binop_demands(BinOp::Shl, Type::I64, None, None, 0xFF);
        assert_eq!(dr, 63);
    }

    #[test]
    fn div_ops_are_fully_demanded_even_when_dead() {
        let (dl, dr) = binop_demands(BinOp::SDiv, Type::I32, None, None, 0);
        assert_eq!((dl, dr), (u64::MAX, u64::MAX));
        let (dl, dr) = binop_demands(BinOp::UDiv, Type::I32, None, None, 0);
        assert_eq!((dl, dr), (0xFFFF_FFFF, 0xFFFF_FFFF));
    }

    #[test]
    fn trunc_kills_bits_above_target_width() {
        let d = cast_demand(CastOp::Trunc, Type::I64, Type::I8, u64::MAX);
        assert_eq!(d, 0xFF);
        let d = cast_demand(CastOp::SExt, Type::I8, Type::I64, u64::MAX);
        assert_eq!(d, 0xFF);
        // Only high result bits live: sext folds them onto the sign bit.
        let d = cast_demand(CastOp::SExt, Type::I8, Type::I64, 0xFF00);
        assert_eq!(d, 0x80);
        let d = cast_demand(CastOp::ZExt, Type::I8, Type::I64, 0xFF00);
        assert_eq!(d, 0);
    }

    #[test]
    fn dead_def_chain_is_fully_dead() {
        // A register chain never feeding output, a store, or control flow.
        let mut mb = ModuleBuilder::new("dead");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let a = f.add(Type::I64, 1i64, 2i64);
            let b = f.mul(Type::I64, a, 3i64);
            let _ = f.xor(Type::I64, b, 5i64);
            f.print_i64(7i64);
            f.ret_void();
        }
        mb.set_entry(main);
        let (code, flow) = flow_of(mb);
        let add_pc = find_pc(&code, |i| {
            matches!(i, CInstr::Binary { op: BinOp::Add, .. })
        });
        assert_eq!(flow.flow(add_pc).dest_live, 0);
        for bit in 0..64 {
            assert!(flow.is_dead_write_bit(add_pc, bit));
        }
        let defs = flow.dead_defs(&code);
        assert!(defs.iter().any(|d| d.pc == add_pc));
        // The space accounting sees the dead bits.
        let space = flow.space();
        assert!(space.write_dead_bits >= 64 * 3);
        assert!(space.write_dead_fraction() > 0.0);
    }

    #[test]
    fn masked_value_demands_only_surviving_bits() {
        // print_i64(x & 0xFF): only the low byte of the load is live.
        let mut mb = ModuleBuilder::new("mask");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let slot = f.slot(Type::I64);
            f.store(Type::I64, 0x1234i64, slot);
            let x = f.load(Type::I64, slot);
            let low = f.and(Type::I64, x, 0xFFi64);
            f.print_i64(low);
            f.ret_void();
        }
        mb.set_entry(main);
        let (code, flow) = flow_of(mb);
        let and_pc = find_pc(&code, |i| {
            matches!(i, CInstr::Binary { op: BinOp::And, .. })
        });
        // The and's lhs register read demands only the low byte...
        assert_eq!(flow.flow(and_pc).read_demand[0], 0xFF);
        assert!(flow.is_dead_read_bit(and_pc, 0, 8));
        assert!(!flow.is_dead_read_bit(and_pc, 0, 7));
        // ...and that propagates back through the load's destination.
        let load_pc = find_pc(&code, |i| matches!(i, CInstr::Load { .. }));
        assert_eq!(flow.flow(load_pc).dest_live, 0xFF);
    }

    #[test]
    fn call_interface_demands_propagate_both_ways() {
        // helper(x) = x & 0xF0 — the callee masks its parameter, and the
        // caller only prints the low byte of the result.
        let mut mb = ModuleBuilder::new("calls");
        let helper = mb.declare("helper", &[(Type::I64, "x")], Some(Type::I64));
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(helper);
            let x = f.param(0);
            let r = f.and(Type::I64, x, 0xF0i64);
            f.ret(r);
        }
        {
            let mut f = mb.define(main);
            let slot = f.slot(Type::I64);
            f.store(Type::I64, 0x5A5Ai64, slot);
            let v = f.load(Type::I64, slot);
            let r = f.call(helper, &[Operand::Reg(v)], Some(Type::I64)).unwrap();
            let masked = f.and(Type::I64, r, 0xFFi64);
            f.print_i64(masked);
            f.ret_void();
        }
        mb.set_entry(main);
        let (code, flow) = flow_of(mb);
        // Parameter demand of helper: only 0xF0 survives its own mask.
        assert_eq!(flow.param_demand(0), &[0xF0]);
        // Return demand of helper: the caller masks the result to 0xFF.
        assert_eq!(flow.ret_demand(0), 0xFF);
        // The call's argument read site demands exactly the param demand.
        let call_pc = find_pc(&code, |i| matches!(i, CInstr::Call { .. }));
        assert_eq!(flow.flow(call_pc).read_demand[0], 0xF0);
        // The callee's ret site demands exactly what callers consume.
        let ret_pc = find_pc(&code, |i| matches!(i, CInstr::Ret { value: Some(_) }));
        assert_eq!(flow.flow(ret_pc).read_demand[0], 0xFF);
    }

    #[test]
    fn stores_and_branches_are_fully_demanded() {
        let mut mb = ModuleBuilder::new("fulldemand");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let slot = f.slot(Type::I64);
            f.counted_loop(Type::I64, 0i64, 4i64, |f, i| {
                f.store(Type::I64, i, slot);
            });
            let v = f.load(Type::I64, slot);
            f.print_i64(v);
            f.ret_void();
        }
        mb.set_entry(main);
        let (code, flow) = flow_of(mb);
        // A store whose value operand is a register (the loop-body store).
        let store_pc = find_pc(
            &code,
            |i| matches!(i, CInstr::Store { value, .. } if value.is_reg()),
        );
        // value demanded within its type, address fully.
        let fl = flow.flow(store_pc);
        assert_eq!(fl.read_demand[0], u64::MAX);
        assert_eq!(fl.read_demand[1], u64::MAX);
        let br_pc = find_pc(&code, |i| matches!(i, CInstr::CondBr { .. }));
        // i1 condition: demand clamps to the register's 1-bit width.
        assert_eq!(flow.flow(br_pc).read_demand[0], 1);
    }

    #[test]
    fn phi_reads_one_arm_and_later_indices_are_dead() {
        let mut mb = ModuleBuilder::new("phi");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let then_bb = f.new_block("then");
            let else_bb = f.new_block("else");
            let join = f.new_block("join");
            let slot = f.slot(Type::I64);
            f.store(Type::I64, 1i64, slot);
            let v = f.load(Type::I64, slot);
            let c = f.icmp(IcmpPred::Sgt, Type::I64, v, 0i64);
            f.cond_br(c, then_bb, else_bb);
            f.switch_to(then_bb);
            let a = f.add(Type::I64, v, 1i64);
            f.br(join);
            f.switch_to(else_bb);
            let b = f.add(Type::I64, v, 2i64);
            f.br(join);
            f.switch_to(join);
            let p = f.phi(
                Type::I64,
                &[(then_bb, Operand::Reg(a)), (else_bb, Operand::Reg(b))],
            );
            f.print_i64(p);
            f.ret_void();
        }
        mb.set_entry(main);
        let (code, flow) = flow_of(mb);
        let phi_pc = find_pc(&code, |i| matches!(i, CInstr::Phi { .. }));
        let fl = flow.flow(phi_pc);
        assert_eq!(fl.read_demand.len(), 2);
        assert_eq!(fl.read_demand[0], u64::MAX);
        // Operand index 1 never reaches on_read: statically dead.
        assert_eq!(fl.read_demand[1], 0);
        assert!(flow.is_dead_read_bit(phi_pc, 1, 0));
    }

    #[test]
    fn saturation_flag_defaults_off_and_space_is_consistent() {
        let mut mb = ModuleBuilder::new("sat");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let a = f.add(Type::I32, 1i32, 2i32);
            f.print_i64(a);
            f.ret_void();
        }
        mb.set_entry(main);
        let (code, flow) = flow_of(mb);
        assert!(!flow.saturated());
        let space = flow.space();
        assert!(space.read_dead_bits <= space.read_site_bits);
        assert!(space.write_dead_bits <= space.write_site_bits);
        // The i32 add's 64-bit-model write space has 32 trivially-dead bits.
        assert!(space.write_dead_fraction_model64() > 0.0);
        drop(code);
    }
}
