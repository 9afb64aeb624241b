//! DynaRisc — the 23-instruction, 16-bit software processor (systems **S5**
//! and **S6** in `DESIGN.md`; paper §3.2 and Table 1).
//!
//! Olonys archives layout decoders by porting them to this fixed,
//! never-extended ISA. The paper's Table 1 lists a 17-instruction sample of
//! the 23-instruction set; this crate completes it (`DESIGN.md` §3.1
//! documents the completion) and provides:
//!
//! * [`isa`] — opcodes, addressing modes, instruction encode/decode;
//! * [`vm`] — the interpreter with `R0..R15` (16-bit data registers),
//!   `D0..D7` (32-bit memory pointer registers), C/Z/N flags, a bounded
//!   internal call stack, and byte-addressed data memory; it is the
//!   *reference* engine — the single `match` in `Vm::step` is the spec;
//! * [`threaded`] — the production engine: the same ISA pre-decoded into
//!   one slot per word position and run by a single dispatch loop with
//!   the machine state in locals (the name is kept from its
//!   function-pointer past), proven bit-identical to [`vm`] by
//!   conformance fixtures and a differential fuzz target;
//! * [`asm`] — a label-resolving programmatic assembler plus a
//!   disassembler (the instruction-listing side of Table 1);
//! * [`text_asm`] — a textual assembler accepting the disassembler's
//!   syntax, so archived streams can be audited and re-assembled;
//! * [`layout`] — the host↔program memory calling convention (input and
//!   output regions);
//! * [`programs`] — the decoders the paper stores on the medium, written
//!   in DynaRisc assembly: `dbdecode` (the DBCoder LZSS+container decoder,
//!   stored as *system emblems*) and `modecode` (the MOCoder emblem
//!   reader, stored in the Bootstrap document).
//!
//! The same binaries run on the native VM here and, nested, on the
//! DynaRisc-emulator-written-in-VeRisc in `ule-verisc` — that equivalence
//! is what makes the archive future-proof.

pub mod asm;
pub mod isa;
pub mod layout;
pub mod programs;
pub mod text_asm;
pub mod threaded;
pub mod vm;

pub use asm::Asm;
pub use isa::{Instr, Mode, Opcode};
pub use threaded::{ThreadedImage, ThreadedVm};
pub use vm::{MachineState, Vm, VmError};
