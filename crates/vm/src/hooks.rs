//! Execution hooks: the fault-injection surface.
//!
//! Every dynamic instruction is announced through [`ExecHook::on_instr`];
//! every *register* operand read is routed through [`ExecHook::on_read`] and
//! every destination-register write through [`ExecHook::on_write`] — until
//! the hook reports itself [exhausted](ExecHook::exhausted).  The two
//! injection techniques of the paper map directly onto these callbacks:
//!
//! * **inject-on-read** corrupts the value returned from `on_read`,
//! * **inject-on-write** corrupts the value returned from `on_write`.
//!
//! Constants are never routed through `on_read` (they are not injection
//! candidates in LLFI either), and instructions without a destination
//! register (e.g. `store`, branches) never reach `on_write` — which is why
//! Table II of the paper lists fewer inject-on-write candidates.

use crate::value::Value;
use mbfi_ir::{Opcode, Reg};

/// Static and dynamic context of the instruction currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrContext {
    /// Zero-based index of this dynamic instruction in the execution.
    pub dyn_index: u64,
    /// Index of the executing function in the module's function table.
    pub func: usize,
    /// Block index within the function.
    pub block: usize,
    /// Instruction index within the block.
    pub instr: usize,
    /// Coarse opcode of the instruction.
    pub opcode: Opcode,
    /// How many *register* operands the instruction reads.
    pub reg_reads: usize,
    /// Whether the instruction writes a destination register.
    pub has_dest: bool,
}

/// Observer / mutator of the instruction stream.
///
/// Default implementations observe without modifying, so hooks only override
/// the callbacks they care about.
pub trait ExecHook {
    /// Called once per dynamic instruction, before its operands are read.
    fn on_instr(&mut self, _ctx: &InstrContext) {}

    /// Called for every register operand read; the returned value is what the
    /// instruction actually consumes.
    fn on_read(
        &mut self,
        _ctx: &InstrContext,
        _operand_index: usize,
        _reg: Reg,
        value: Value,
    ) -> Value {
        value
    }

    /// Called for every destination-register write; the returned value is
    /// what is actually stored in the register.
    fn on_write(&mut self, _ctx: &InstrContext, _reg: Reg, value: Value) -> Value {
        value
    }

    /// Whether the hook is done with this run: it will never change another
    /// value, and nothing it would still observe matters to its owner.
    ///
    /// [`crate::Vm::run_until`] asks only at control transfers (jumps, calls
    /// and returns) and pauses there once this is true, so the caller can
    /// finish the run on the [`NoopHook`] loop; [`crate::Vm::run_to_end`]
    /// does that itself.  The default never lets go, and being a constant
    /// `false` it compiles the check out of every hook that keeps it.
    #[inline]
    fn exhausted(&self) -> bool {
        false
    }
}

/// A hook that observes nothing and changes nothing (used for golden runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopHook;

impl ExecHook for NoopHook {}

#[cfg(test)]
mod tests {
    use super::*;
    use mbfi_ir::Type;

    struct Recorder {
        instrs: u64,
        reads: u64,
        writes: u64,
    }

    impl ExecHook for Recorder {
        fn on_instr(&mut self, _ctx: &InstrContext) {
            self.instrs += 1;
        }
        fn on_read(&mut self, _c: &InstrContext, _i: usize, _r: Reg, v: Value) -> Value {
            self.reads += 1;
            v
        }
        fn on_write(&mut self, _c: &InstrContext, _r: Reg, v: Value) -> Value {
            self.writes += 1;
            v
        }
    }

    #[test]
    fn default_hook_methods_pass_values_through() {
        let ctx = InstrContext {
            dyn_index: 0,
            func: 0,
            block: 0,
            instr: 0,
            opcode: Opcode::Binary,
            reg_reads: 2,
            has_dest: true,
        };
        let mut noop = NoopHook;
        let v = Value::i32(42);
        assert_eq!(noop.on_read(&ctx, 0, Reg(0), v), v);
        assert_eq!(noop.on_write(&ctx, Reg(0), v), v);
        noop.on_instr(&ctx);

        let mut rec = Recorder {
            instrs: 0,
            reads: 0,
            writes: 0,
        };
        rec.on_instr(&ctx);
        rec.on_read(&ctx, 0, Reg(0), Value::zero(Type::I32));
        rec.on_write(&ctx, Reg(0), Value::zero(Type::I32));
        assert_eq!((rec.instrs, rec.reads, rec.writes), (1, 1, 1));
    }
}
