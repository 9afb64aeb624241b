//! The pre-decoded DynaRisc engine: decode once, then run one loop over the
//! decoded slots with the machine state held in locals.
//!
//! [`crate::vm::Vm`] re-decodes the instruction word at every step — the
//! honest mechanisation of the archived walkthrough, and the *reference
//! semantics*. This module trades that transparency for throughput the way
//! processor-based emulators do: a compile pass walks the program image
//! once and lowers **every word index** into a `Slot` — a small `Copy`
//! struct of one form tag plus flattened operands — and [`ThreadedVm::run`]
//! is a single `loop { match slot.tag { … } }` over them. Compiling at
//! every word index (not just instruction starts) matters because DynaRisc
//! jump targets are arbitrary word positions: a branch may land in the
//! middle of an immediate, and the interpreter would happily re-decode from
//! there. This engine must agree bit-for-bit, so it pre-decodes those
//! overlapping readings too.
//!
//! The loop is what makes it fast. `run` copies `pc`, the step count, the
//! registers, the pointers and the flags into locals on entry and writes
//! them back on every exit, so the hot state lives in machine registers and
//! the stack frame rather than behind `&mut self`. Each step is one
//! bounds-checked slot load, one jump-table dispatch on the tag and one
//! fuel compare; no per-step call, no `Result` returned through memory, no
//! re-check of `halted`. The engine began as function-pointer threaded
//! code; the `Threaded*` names are kept for API stability.
//!
//! Parity contract (enforced by `tests/conformance.rs` fixtures, the
//! `dynarisc-diff` fuzz target and this module's tests): for any program
//! image, data memory image and fuel budget — including a run resumed in
//! chunks — [`ThreadedVm`] and [`crate::vm::Vm`] produce identical
//! [`MachineState`]s and identical `run` results — including fault
//! variants, fault ordering (partial `STM` word stores), and the rule that
//! `PcFault`/`Decode` do **not** count a step while `MemFault`/
//! `CallOverflow` do.

use crate::isa::{DecodeErr, Instr, Mode, Opcode};
use crate::vm::{Flags, MachineState, VmError, CALL_STACK_DEPTH};
use std::sync::Arc;

/// The form of a pre-decoded slot: one variant per `(opcode, mode)` family
/// with its own semantics, plus the two lazy decode-fault forms.
#[derive(Clone, Copy)]
enum Tag {
    AddReg,
    AddImm,
    AdcReg,
    AdcImm,
    AddPtrReg,
    AddPtrImm,
    SubPtrReg,
    SubPtrImm,
    SubReg,
    SubImm,
    SbbReg,
    SbbImm,
    CmpReg,
    CmpImm,
    MulLo,
    MulHi,
    AndReg,
    AndImm,
    OrReg,
    OrImm,
    XorReg,
    XorImm,
    LslImm,
    LslReg,
    LsrImm,
    LsrReg,
    AsrImm,
    AsrReg,
    RorImm,
    RorReg,
    MoveRR,
    MoveDR,
    MoveRDlo,
    MoveDD,
    MoveRDhi,
    MoveDPair,
    LdiR,
    LdiD,
    LdmByte,
    LdmByteInc,
    LdmWord,
    LdmWordInc,
    StmByte,
    StmByteInc,
    StmWord,
    StmWordInc,
    Jump,
    Jz,
    Jnz,
    Jc,
    Call,
    Ret,
    /// Undecodable opcode bits; `imm32` holds them.
    BadOpcode,
    /// An instruction whose immediate runs past the end of the image.
    Truncated,
}

/// One pre-decoded word position: form tag + flattened operands.
#[derive(Clone, Copy)]
struct Slot {
    tag: Tag,
    /// `a` register field (full 4 bits; `a & 7` for `D`-destination forms).
    a: u8,
    /// `b` register field (full 4 bits; `b & 7` for `D`-source forms) —
    /// also the shift count for the immediate-count shift forms.
    b: u8,
    /// First immediate / jump target word.
    imm: u16,
    /// `(imm2 << 16) | imm` — the 32-bit `LDI Dd` immediate. Doubles as
    /// the offending opcode bits for `BadOpcode` fault slots.
    imm32: u32,
    /// Word index of the next sequential instruction.
    next_pc: u32,
}

/// A program image compiled to pre-decoded slots, shareable across VM
/// instances (and threads — slots are plain data).
///
/// Compile once, then [`instantiate`](ThreadedImage::instantiate) one VM
/// per independent input; this is what the per-frame parallel emulated
/// restore fan-out does with the MODecode image.
#[derive(Clone)]
pub struct ThreadedImage {
    code: Arc<[Slot]>,
}

impl ThreadedImage {
    /// Lower a program image into slots. Never fails: undecodable word
    /// positions compile to fault slots that reproduce the interpreter's
    /// lazy `Decode` error if (and only if) reached.
    pub fn compile(program: &[u16]) -> Self {
        let code: Vec<Slot> = (0..program.len())
            .map(|pos| compile_slot(program, pos))
            .collect();
        Self { code: code.into() }
    }

    /// Number of program words (= number of slots).
    pub fn len_words(&self) -> usize {
        self.code.len()
    }

    /// A fresh machine over this image with the given data memory.
    pub fn instantiate(&self, mem: Vec<u8>) -> ThreadedVm {
        ThreadedVm {
            regs: [0; 16],
            ptrs: [0; 8],
            flags: Flags::default(),
            mem,
            code: Arc::clone(&self.code),
            pc: 0,
            call_stack: Vec::with_capacity(CALL_STACK_DEPTH),
            steps: 0,
            halted: false,
        }
    }
}

/// A DynaRisc machine running pre-decoded slots. Same architectural state
/// as [`crate::vm::Vm`]; only the dispatch differs.
pub struct ThreadedVm {
    pub regs: [u16; 16],
    pub ptrs: [u32; 8],
    pub flags: Flags,
    pub mem: Vec<u8>,
    code: Arc<[Slot]>,
    pc: usize,
    call_stack: Vec<usize>,
    steps: u64,
    halted: bool,
}

impl ThreadedVm {
    /// Compile `program` and create a machine — drop-in for
    /// [`crate::vm::Vm::new`].
    pub fn new(program: Vec<u16>, mem: Vec<u8>) -> Self {
        ThreadedImage::compile(&program).instantiate(mem)
    }

    pub fn halted(&self) -> bool {
        self.halted
    }

    pub fn steps(&self) -> u64 {
        self.steps
    }

    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Full architectural snapshot for differential comparison.
    pub fn state(&self) -> MachineState {
        MachineState {
            regs: self.regs,
            ptrs: self.ptrs,
            flags: self.flags,
            pc: self.pc,
            steps: self.steps,
            halted: self.halted,
            call_stack: self.call_stack.clone(),
            mem: self.mem.clone(),
        }
    }

    /// Run until halt or `max_steps`. Returns executed step count.
    /// Byte-identical contract to [`crate::vm::Vm::run`].
    ///
    /// Each step follows the reference order: fuel (`StepLimit`), `pc`
    /// bound (`PcFault`), lazy decode faults (`Decode`, no step counted),
    /// then count the step and execute. A faulting instruction leaves `pc`
    /// on itself.
    pub fn run(&mut self, max_steps: u64) -> Result<u64, VmError> {
        if self.halted {
            return Ok(0);
        }
        let code = &*self.code;
        let mem = &mut self.mem[..];
        let call_stack = &mut self.call_stack;
        let mut regs = self.regs;
        let mut ptrs = self.ptrs;
        let mut flags = self.flags;
        let mut pc = self.pc;
        let mut n = 0u64;

        // Leave the loop with a memory fault, `pc` still on the instruction.
        macro_rules! or_fault {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => break Err(e),
                }
            };
        }

        let result = loop {
            if n >= max_steps {
                break Err(VmError::StepLimit { steps: n });
            }
            let Some(&s) = code.get(pc) else {
                break Err(VmError::PcFault { pc });
            };
            let a = (s.a & 15) as usize;
            let b = (s.b & 15) as usize;
            let da = (s.a & 7) as usize;
            let db = (s.b & 7) as usize;
            n += 1;
            match s.tag {
                Tag::BadOpcode => {
                    n -= 1; // the interpreter never got past decode
                    let err = DecodeErr::BadOpcode(s.imm32 as u8);
                    break Err(VmError::Decode { pc, err });
                }
                Tag::Truncated => {
                    n -= 1;
                    let err = DecodeErr::Truncated;
                    break Err(VmError::Decode { pc, err });
                }
                // ADD/ADC pointer forms ignore carry-in (matching the
                // reference `match`, whose M1/M3 arms never read it).
                Tag::AddReg => regs[a] = add(&mut flags, regs[a], regs[b], false),
                Tag::AddImm => regs[a] = add(&mut flags, regs[a], s.imm, false),
                Tag::AdcReg => regs[a] = add(&mut flags, regs[a], regs[b], true),
                Tag::AdcImm => regs[a] = add(&mut flags, regs[a], s.imm, true),
                Tag::AddPtrReg => ptrs[da] = ptrs[da].wrapping_add(regs[b] as u32),
                Tag::AddPtrImm => ptrs[da] = ptrs[da].wrapping_add(s.imm as u32),
                Tag::SubPtrReg => ptrs[da] = ptrs[da].wrapping_sub(regs[b] as u32),
                Tag::SubPtrImm => ptrs[da] = ptrs[da].wrapping_sub(s.imm as u32),
                Tag::SubReg => regs[a] = sub(&mut flags, regs[a], regs[b], false),
                Tag::SubImm => regs[a] = sub(&mut flags, regs[a], s.imm, false),
                Tag::SbbReg => regs[a] = sub(&mut flags, regs[a], regs[b], true),
                Tag::SbbImm => regs[a] = sub(&mut flags, regs[a], s.imm, true),
                Tag::CmpReg => {
                    sub(&mut flags, regs[a], regs[b], false);
                }
                Tag::CmpImm => {
                    sub(&mut flags, regs[a], s.imm, false);
                }
                Tag::MulLo => {
                    regs[a] = with_zn(&mut flags, (regs[a] as u32 * regs[b] as u32) as u16)
                }
                Tag::MulHi => {
                    regs[a] = with_zn(&mut flags, ((regs[a] as u32 * regs[b] as u32) >> 16) as u16);
                }
                Tag::AndReg => regs[a] = with_zn(&mut flags, regs[a] & regs[b]),
                Tag::AndImm => regs[a] = with_zn(&mut flags, regs[a] & s.imm),
                Tag::OrReg => regs[a] = with_zn(&mut flags, regs[a] | regs[b]),
                Tag::OrImm => regs[a] = with_zn(&mut flags, regs[a] | s.imm),
                Tag::XorReg => regs[a] = with_zn(&mut flags, regs[a] ^ regs[b]),
                Tag::XorImm => regs[a] = with_zn(&mut flags, regs[a] ^ s.imm),
                Tag::LslImm => regs[a] = shift(&mut flags, regs[a], s.b as u32, Opcode::Lsl),
                Tag::LslReg => {
                    regs[a] = shift(&mut flags, regs[a], (regs[b] & 15) as u32, Opcode::Lsl)
                }
                Tag::LsrImm => regs[a] = shift(&mut flags, regs[a], s.b as u32, Opcode::Lsr),
                Tag::LsrReg => {
                    regs[a] = shift(&mut flags, regs[a], (regs[b] & 15) as u32, Opcode::Lsr)
                }
                Tag::AsrImm => regs[a] = shift(&mut flags, regs[a], s.b as u32, Opcode::Asr),
                Tag::AsrReg => {
                    regs[a] = shift(&mut flags, regs[a], (regs[b] & 15) as u32, Opcode::Asr)
                }
                Tag::RorImm => regs[a] = shift(&mut flags, regs[a], s.b as u32, Opcode::Ror),
                Tag::RorReg => {
                    regs[a] = shift(&mut flags, regs[a], (regs[b] & 15) as u32, Opcode::Ror)
                }
                Tag::MoveRR => regs[a] = regs[b],
                Tag::MoveDR => ptrs[da] = regs[b] as u32,
                Tag::MoveRDlo => regs[a] = ptrs[db] as u16,
                Tag::MoveDD => ptrs[da] = ptrs[db],
                Tag::MoveRDhi => regs[a] = (ptrs[db] >> 16) as u16,
                Tag::MoveDPair => {
                    // Dd ← (Rb : R[b+1]) — Rb is the high half.
                    ptrs[da] = ((regs[b] as u32) << 16) | regs[(b + 1) & 15] as u32;
                }
                Tag::LdiR => regs[a] = s.imm,
                Tag::LdiD => ptrs[da] = s.imm32,
                Tag::LdmByte => regs[a] = or_fault!(load_byte(mem, ptrs[db])) as u16,
                Tag::LdmByteInc => {
                    regs[a] = or_fault!(load_byte(mem, ptrs[db])) as u16;
                    ptrs[db] = ptrs[db].wrapping_add(1);
                }
                Tag::LdmWord => regs[a] = or_fault!(load_word(mem, ptrs[db])),
                Tag::LdmWordInc => {
                    regs[a] = or_fault!(load_word(mem, ptrs[db]));
                    ptrs[db] = ptrs[db].wrapping_add(2);
                }
                Tag::StmByte => or_fault!(store_byte(mem, ptrs[db], regs[a] as u8)),
                Tag::StmByteInc => {
                    or_fault!(store_byte(mem, ptrs[db], regs[a] as u8));
                    ptrs[db] = ptrs[db].wrapping_add(1);
                }
                Tag::StmWord => or_fault!(store_word(mem, ptrs[db], regs[a])),
                Tag::StmWordInc => {
                    or_fault!(store_word(mem, ptrs[db], regs[a]));
                    ptrs[db] = ptrs[db].wrapping_add(2);
                }
                Tag::Jump => {
                    pc = s.imm as usize;
                    continue;
                }
                Tag::Jz => {
                    pc = branch(flags.z, s);
                    continue;
                }
                Tag::Jnz => {
                    pc = branch(!flags.z, s);
                    continue;
                }
                Tag::Jc => {
                    pc = branch(flags.c, s);
                    continue;
                }
                Tag::Call => {
                    if call_stack.len() >= CALL_STACK_DEPTH {
                        break Err(VmError::CallOverflow);
                    }
                    call_stack.push(s.next_pc as usize);
                    pc = s.imm as usize;
                    continue;
                }
                Tag::Ret => match call_stack.pop() {
                    Some(ret) => {
                        pc = ret;
                        continue;
                    }
                    None => {
                        self.halted = true;
                        break Ok(n);
                    }
                },
            }
            pc = s.next_pc as usize;
        };
        self.regs = regs;
        self.ptrs = ptrs;
        self.flags = flags;
        self.pc = pc;
        self.steps += n;
        result
    }

    /// Execute one instruction: `run(1)`, with the budget running out
    /// after that instruction reported as success.
    pub fn step(&mut self) -> Result<(), VmError> {
        match self.run(1) {
            Ok(_) | Err(VmError::StepLimit { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// Target of a conditional jump: the immediate if taken, else fall through.
#[inline(always)]
fn branch(take: bool, s: Slot) -> usize {
    if take {
        s.imm as usize
    } else {
        s.next_pc as usize
    }
}

/// Set Z and N from a result and pass it through.
#[inline(always)]
fn with_zn(flags: &mut Flags, v: u16) -> u16 {
    flags.z = v == 0;
    flags.n = v & 0x8000 != 0;
    v
}

#[inline(always)]
fn add(flags: &mut Flags, lhs: u16, rhs: u16, with_carry: bool) -> u16 {
    let sum = lhs as u32 + rhs as u32 + (with_carry && flags.c) as u32;
    flags.c = sum > 0xFFFF;
    with_zn(flags, sum as u16)
}

/// `lhs − rhs − borrow` (the borrow only when `with_borrow`); `CMP`
/// discards the result.
#[inline(always)]
fn sub(flags: &mut Flags, lhs: u16, rhs: u16, with_borrow: bool) -> u16 {
    let total = rhs as u32 + (with_borrow && flags.c) as u32;
    flags.c = (lhs as u32) < total;
    with_zn(flags, (lhs as u32).wrapping_sub(total) as u16)
}

/// Shared shift body. `count == 0` leaves the value *and* the carry flag
/// untouched (Z/N still update) — reference semantics.
#[inline(always)]
fn shift(flags: &mut Flags, x: u16, count: u32, op: Opcode) -> u16 {
    let v = if count == 0 {
        x
    } else {
        match op {
            Opcode::Lsl => {
                flags.c = (x >> (16 - count)) & 1 != 0;
                x << count
            }
            Opcode::Lsr => {
                flags.c = (x >> (count - 1)) & 1 != 0;
                x >> count
            }
            Opcode::Asr => {
                flags.c = (x >> (count - 1)) & 1 != 0;
                ((x as i16) >> count) as u16
            }
            _ => x.rotate_right(count),
        }
    };
    with_zn(flags, v)
}

#[inline(always)]
fn load_byte(mem: &[u8], addr: u32) -> Result<u8, VmError> {
    mem.get(addr as usize)
        .copied()
        .ok_or(VmError::MemFault { addr, len: 1 })
}

#[inline(always)]
fn load_word(mem: &[u8], addr: u32) -> Result<u16, VmError> {
    let lo = load_byte(mem, addr)?;
    let hi = load_byte(mem, addr.wrapping_add(1))?;
    Ok(u16::from_le_bytes([lo, hi]))
}

#[inline(always)]
fn store_byte(mem: &mut [u8], addr: u32, v: u8) -> Result<(), VmError> {
    match mem.get_mut(addr as usize) {
        Some(slot) => {
            *slot = v;
            Ok(())
        }
        None => Err(VmError::MemFault { addr, len: 1 }),
    }
}

/// Low byte first: a fault on the high byte leaves the low byte written,
/// exactly like the reference interpreter.
#[inline(always)]
fn store_word(mem: &mut [u8], addr: u32, v: u16) -> Result<(), VmError> {
    store_byte(mem, addr, v as u8)?;
    store_byte(mem, addr.wrapping_add(1), (v >> 8) as u8)
}

/// Lower one word position. Overlapping decodings (jump targets inside
/// immediates) are handled for free: every position gets its own slot.
fn compile_slot(words: &[u16], pos: usize) -> Slot {
    let mut slot = Slot {
        tag: Tag::Ret,
        a: 0,
        b: 0,
        imm: 0,
        imm32: 0,
        next_pc: 0,
    };
    let instr = match Instr::decode(words, pos) {
        Ok(i) => i,
        Err(DecodeErr::BadOpcode(v)) => {
            slot.tag = Tag::BadOpcode;
            slot.imm32 = v as u32;
            return slot;
        }
        Err(DecodeErr::Truncated) => {
            slot.tag = Tag::Truncated;
            return slot;
        }
    };
    slot.a = instr.a;
    slot.b = instr.b;
    slot.imm = instr.imm;
    slot.imm32 = ((instr.imm2 as u32) << 16) | instr.imm as u32;
    slot.next_pc = (pos + instr.len_words()) as u32;
    use Opcode::*;
    slot.tag = match (instr.opcode, instr.mode) {
        (Add | Adc, Mode::M1) => Tag::AddPtrReg,
        (Add | Adc, Mode::M3) => Tag::AddPtrImm,
        (Add, Mode::M2) => Tag::AddImm,
        (Add, _) => Tag::AddReg,
        (Adc, Mode::M2) => Tag::AdcImm,
        (Adc, _) => Tag::AdcReg,
        (Sub, Mode::M1) => Tag::SubPtrReg,
        (Sub, Mode::M3) => Tag::SubPtrImm,
        (Sub, Mode::M2) => Tag::SubImm,
        (Sub, _) => Tag::SubReg,
        // SBB/CMP M3 carry an immediate word on the wire but the reference
        // semantics still take the register operand (only M2 selects imm).
        (Sbb, Mode::M2) => Tag::SbbImm,
        (Sbb, _) => Tag::SbbReg,
        (Cmp, Mode::M2) => Tag::CmpImm,
        (Cmp, _) => Tag::CmpReg,
        (Mul, Mode::M1) => Tag::MulHi,
        (Mul, _) => Tag::MulLo,
        (And, Mode::M2) => Tag::AndImm,
        (And, _) => Tag::AndReg,
        (Or, Mode::M2) => Tag::OrImm,
        (Or, _) => Tag::OrReg,
        (Xor, Mode::M2) => Tag::XorImm,
        (Xor, _) => Tag::XorReg,
        (Lsl, Mode::M1) => Tag::LslImm,
        (Lsl, _) => Tag::LslReg,
        (Lsr, Mode::M1) => Tag::LsrImm,
        (Lsr, _) => Tag::LsrReg,
        (Asr, Mode::M1) => Tag::AsrImm,
        (Asr, _) => Tag::AsrReg,
        (Ror, Mode::M1) => Tag::RorImm,
        (Ror, _) => Tag::RorReg,
        (Move, Mode::M0) => Tag::MoveRR,
        (Move, Mode::M1) => Tag::MoveDR,
        (Move, Mode::M2) => Tag::MoveRDlo,
        (Move, Mode::M3) => Tag::MoveDD,
        (Move, Mode::M4) => Tag::MoveRDhi,
        (Move, _) => Tag::MoveDPair,
        (Ldi, Mode::M1) => Tag::LdiD,
        (Ldi, _) => Tag::LdiR,
        (Ldm, Mode::M0) => Tag::LdmByte,
        (Ldm, Mode::M1) => Tag::LdmByteInc,
        (Ldm, Mode::M2) => Tag::LdmWord,
        (Ldm, _) => Tag::LdmWordInc,
        (Stm, Mode::M0) => Tag::StmByte,
        (Stm, Mode::M1) => Tag::StmByteInc,
        (Stm, Mode::M2) => Tag::StmWord,
        (Stm, _) => Tag::StmWordInc,
        (Jump, _) => Tag::Jump,
        (Jz, _) => Tag::Jz,
        (Jnz, _) => Tag::Jnz,
        (Jc, _) => Tag::Jc,
        (Call, _) => Tag::Call,
        (Ret, _) => Tag::Ret,
    };
    slot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::vm::Vm;

    /// Run the same (program, mem, fuel) on both engines and insist on
    /// identical run results and identical architectural state.
    fn diff_run(program: Vec<u16>, mem: Vec<u8>, fuel: u64) -> (ThreadedVm, Result<u64, VmError>) {
        let mut reference = Vm::new(program.clone(), mem.clone());
        let ref_result = reference.run(fuel);
        let mut threaded = ThreadedVm::new(program, mem);
        let thr_result = threaded.run(fuel);
        assert_eq!(ref_result, thr_result, "run results diverge");
        assert_eq!(reference.state(), threaded.state(), "states diverge");
        (threaded, thr_result)
    }

    fn diff_asm(build: impl FnOnce(&mut Asm), mem: Vec<u8>) -> ThreadedVm {
        let mut a = Asm::new();
        build(&mut a);
        a.ret();
        diff_run(a.finish(), mem, 1_000_000).0
    }

    #[test]
    fn arithmetic_and_flags_agree() {
        let vm = diff_asm(
            |a| {
                a.ldi(0, 0xFFFF);
                a.addi(0, 1); // carry + zero
                a.ldi(1, 0x0001);
                a.adci(1, 0); // carry chains
                a.ldi(2, 5);
                a.cmpi(2, 9); // borrow, no write
                a.ldi(3, 1234);
                a.ldi(4, 5678);
                a.mul(3, 4);
            },
            vec![],
        );
        assert_eq!(vm.regs[0], 0);
        assert_eq!(vm.regs[1], 2);
        assert_eq!(vm.regs[2], 5);
        assert_eq!(vm.regs[3], (1234u32 * 5678) as u16);
    }

    #[test]
    fn shifts_and_zero_count_agree() {
        let vm = diff_asm(
            |a| {
                a.ldi(0, 0x8001);
                a.lsl_i(0, 1);
                a.ldi(1, 0x8001);
                a.lsr_i(1, 1);
                a.ldi(2, 0x8001);
                a.asr_i(2, 1);
                a.ldi(3, 0x8001);
                a.ror_i(3, 4);
                // Register-count shift with count 0: no value/carry change.
                a.ldi(4, 0xABCD);
                a.ldi(5, 0);
                a.lsl(4, 5);
            },
            vec![],
        );
        assert_eq!(vm.regs[0], 0x0002);
        assert_eq!(vm.regs[1], 0x4000);
        assert_eq!(vm.regs[2], 0xC000);
        assert_eq!(vm.regs[3], 0x1800);
        assert_eq!(vm.regs[4], 0xABCD);
    }

    #[test]
    fn memory_and_pointer_ops_agree() {
        let vm = diff_asm(
            |a| {
                a.ldi_d(1, 32);
                a.ldi(0, 0xAB);
                a.stm_byte_inc(0, 1);
                a.ldi(0, 0xCD);
                a.stm_byte_inc(0, 1);
                a.ldi_d(1, 32);
                a.ldm_word(5, 1);
                a.ldi_d(0, 0x0001_0000);
                a.subi_d(0, 0x20);
            },
            vec![0u8; 64],
        );
        assert_eq!(vm.regs[5], 0xCDAB);
        assert_eq!(vm.ptrs[0], 0x0000_FFE0);
    }

    #[test]
    fn loops_calls_and_branches_agree() {
        let mut a = Asm::new();
        let sub = a.label();
        a.ldi(0, 0);
        a.ldi(1, 10);
        let top = a.here();
        a.add(0, 1);
        a.subi(1, 1);
        a.jnz(top);
        a.call(sub);
        a.ret();
        a.bind(sub);
        a.ldi(2, 42);
        a.ret();
        let (vm, _) = diff_run(a.finish(), vec![], 1_000_000);
        assert_eq!(vm.regs[0], 55);
        assert_eq!(vm.regs[2], 42);
        assert!(vm.halted());
    }

    #[test]
    fn mem_fault_agrees_including_partial_word_store() {
        // STM word at mem.len()-1: low byte lands, high byte faults.
        let mut a = Asm::new();
        a.ldi_d(0, 9);
        a.ldi(0, 0xBEEF);
        a.stm_word(0, 0);
        a.ret();
        let program = a.finish();
        let (vm, res) = diff_run(program, vec![0u8; 10], 100);
        assert_eq!(res.unwrap_err(), VmError::MemFault { addr: 10, len: 1 });
        assert_eq!(vm.mem[9], 0xEF, "partial store preserved");
    }

    fn raw_jump(target: u16) -> Vec<u16> {
        Instr::with_imm(Opcode::Jump, 0, 0, Mode::M0, target).encode()
    }

    #[test]
    fn pc_fault_and_step_accounting_agree() {
        // JUMP past the end: PcFault must not count a step.
        let (vm, res) = diff_run(raw_jump(1000), vec![], 100);
        assert_eq!(res.unwrap_err(), VmError::PcFault { pc: 1000 });
        assert_eq!(vm.steps(), 1, "only the JUMP counted");
    }

    #[test]
    fn decode_faults_agree_lazily() {
        // A bad opcode only faults when reached — and does not count a
        // step when it is.
        let bad = (31u16) << 11;
        let mut a = Asm::new();
        a.ldi(0, 7);
        a.ret();
        let mut program = a.finish();
        program.push(bad);
        // Not reached: clean halt on both engines.
        diff_run(program.clone(), vec![], 100).1.unwrap();
        // Reached via jump: Decode fault at the bad word's index.
        let target = program.len() as u16 - 1;
        let mut prog2 = raw_jump(target);
        prog2.resize(target as usize, 0x0000);
        prog2.push(bad);
        let (vm, res) = diff_run(prog2, vec![], 100);
        assert_eq!(
            res.unwrap_err(),
            VmError::Decode {
                pc: target as usize,
                err: DecodeErr::BadOpcode(31)
            }
        );
        assert_eq!(vm.steps(), 1);
    }

    #[test]
    fn truncated_tail_faults_identically() {
        // LDI's immediate word missing at the very end of the image.
        let ldi_w0 = (Opcode::Ldi as u16) << 11;
        let (_, res) = diff_run(vec![ldi_w0], vec![], 100);
        assert_eq!(
            res.unwrap_err(),
            VmError::Decode {
                pc: 0,
                err: DecodeErr::Truncated
            }
        );
    }

    #[test]
    fn jump_into_immediate_reinterprets_identically() {
        // LDI R0, #imm where the immediate word itself decodes as RET;
        // jumping into it must halt both engines the same way.
        let mut program = Vec::new();
        let ret_word = (Opcode::Ret as u16) << 11;
        program.extend(Instr::with_imm(Opcode::Ldi, 0, 0, Mode::M0, ret_word).encode());
        program.extend(Instr::with_imm(Opcode::Jump, 0, 0, Mode::M0, 1).encode());
        let (vm, res) = diff_run(program, vec![], 100);
        assert_eq!(res.unwrap(), 3); // LDI, JUMP, RET-inside-immediate
        assert!(vm.halted());
        assert_eq!(vm.regs[0], ret_word);
    }

    #[test]
    fn step_limit_and_fuel_accounting_agree() {
        let mut a = Asm::new();
        let top = a.here();
        a.jump(top);
        let (_, res) = diff_run(a.finish(), vec![], 100);
        assert_eq!(res.unwrap_err(), VmError::StepLimit { steps: 100 });
    }

    #[test]
    fn call_overflow_agrees() {
        let mut a = Asm::new();
        let top = a.here();
        a.call(top);
        let (_, res) = diff_run(a.finish(), vec![], 100_000);
        assert_eq!(res.unwrap_err(), VmError::CallOverflow);
    }

    #[test]
    fn image_is_shareable_across_instances() {
        let mut a = Asm::new();
        a.ldi_d(0, 0);
        a.ldm_byte(0, 0);
        a.addi(0, 1);
        a.ret();
        let image = ThreadedImage::compile(&a.finish());
        let results: Vec<u16> = (0u8..4)
            .map(|seed| {
                let mut vm = image.instantiate(vec![seed; 4]);
                vm.run(100).unwrap();
                vm.regs[0]
            })
            .collect();
        assert_eq!(results, vec![1, 2, 3, 4]);
    }

    #[test]
    fn archived_decoders_compile_one_slot_per_word() {
        // The real MODecode/DBDecode images are exercised end-to-end by
        // `crates/core`; here, pin that compiling them produces one slot
        // per word.
        let db = crate::programs::dbdecode::program();
        let image = ThreadedImage::compile(&db);
        assert_eq!(image.len_words(), db.len());
        let mo = crate::programs::modecode::program();
        assert_eq!(ThreadedImage::compile(&mo).len_words(), mo.len());
    }

    /// The archived decoders on real inputs: MODecode over an encoded
    /// `test_small` emblem and DBDecode over an LZSS container.
    fn archived_workloads() -> Vec<(&'static str, Vec<u16>, Vec<u8>)> {
        use crate::layout::build_memory;
        use crate::programs::{dbdecode, modecode};
        use ule_emblem::geometry::{EDGE_CELLS, QUIET_CELLS};
        use ule_emblem::{encode_emblem, EmblemGeometry, EmblemHeader, EmblemKind};

        let geom = EmblemGeometry::test_small();
        let payload: Vec<u8> = (0..geom.payload_capacity())
            .map(|i| (i * 37 % 251) as u8)
            .collect();
        let len = payload.len() as u32;
        let header = EmblemHeader::new(EmblemKind::Data, 3, 0, len, len);
        let img = encode_emblem(&geom, &header, &payload);
        let params = modecode::ModecodeParams {
            width: img.width() as u16,
            height: img.height() as u16,
            cols: geom.cols as u16,
            rows: geom.rows as u16,
            cell_px: geom.cell_px as u16,
            origin_px: ((QUIET_CELLS + EDGE_CELLS) * geom.cell_px) as u16,
            nblocks: geom.rs_blocks() as u16,
            xoff: 0,
            yoff: 0,
        };
        let max_out = 16 + 2 * geom.rs_blocks() * 255 + 64;
        let (mo_mem, _) = build_memory(img.as_bytes(), max_out, &params.to_words());

        let text: Vec<u8> = (0..400u32)
            .flat_map(|i| format!("{}\tname-{}\n", i * 7919 % 1000, i % 13).into_bytes())
            .collect();
        let archive = ule_compress::compress(ule_compress::Scheme::Lzss, &text);
        let (db_mem, _) = build_memory(&archive, text.len(), &[]);
        vec![
            ("modecode", modecode::program(), mo_mem),
            ("dbdecode", dbdecode::program(), db_mem),
        ]
    }

    #[test]
    fn archived_decoders_agree_at_every_fuel_cut_and_on_resume() {
        for (name, program, mem) in archived_workloads() {
            let mut reference = Vm::new(program.clone(), mem.clone());
            let total = reference.run(u64::MAX).expect("archived decoder halts");
            let status = u16::from_le_bytes([reference.mem[0], reference.mem[1]]);
            assert_eq!(status, 0, "{name}: decoder status");
            let full = reference.state();
            let image = ThreadedImage::compile(&program);

            // Fuel sweep: cut both engines at the same budget.
            for fuel in (0..=64).chain([total / 3, total - 1, total, total + 1]) {
                let mut r = Vm::new(program.clone(), mem.clone());
                let mut t = image.instantiate(mem.clone());
                assert_eq!(r.run(fuel), t.run(fuel), "{name}: result at fuel {fuel}");
                assert_eq!(r.state(), t.state(), "{name}: state at fuel {fuel}");
            }

            // Resume: chunked runs reach the one-shot reference state.
            for chunk in [1, 7, 1000] {
                let mut t = image.instantiate(mem.clone());
                let mut ran = 0;
                // Bounded by the reference count, so a diverging resume
                // fails instead of spinning.
                let outcome = loop {
                    match t.run(chunk) {
                        Err(VmError::StepLimit { steps }) if ran + steps < total => ran += steps,
                        other => break other.map(|k| ran + k),
                    }
                };
                assert_eq!(outcome, Ok(total), "{name}: run in chunks of {chunk}");
                assert_eq!(t.state(), full, "{name}: state in chunks of {chunk}");
            }

            // Lockstep: `step()` against the reference `Vm::step()`.
            let mut r = Vm::new(program.clone(), mem.clone());
            let mut t = image.instantiate(mem);
            for i in 0..5_000 {
                assert_eq!(r.step(), t.step(), "{name}: step {i}");
                assert_eq!(
                    (r.pc(), r.steps(), r.regs, r.ptrs, r.flags),
                    (t.pc(), t.steps(), t.regs, t.ptrs, t.flags),
                    "{name}: registers after step {i}"
                );
            }
            assert_eq!(r.state(), t.state(), "{name}: state after lockstep");
        }
    }
}
