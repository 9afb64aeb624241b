//! Olonys nested emulation: a **DynaRisc emulator written in VeRisc**.
//!
//! This is the paper's §3.2 novelty: "Instead of emulating just DynaRisc,
//! Olonys internally emulates two ISAs … Using just these four VeRisc
//! instructions, we have built an emulator that can interpret the broader
//! DynaRisc ISA." A future user implements only the four-instruction
//! VeRisc machine; the program below (generated once by our
//! macro-assembler and archived as letters in the Bootstrap) turns that
//! machine into a full DynaRisc processor, which then runs the archived
//! MODecode/DBDecode instruction streams.
//!
//! Memory map of the generated VeRisc image:
//!
//! ```text
//! [0]  PC     [1] BORROW
//! [2…] emulator code (≈ a few thousand words of LD/ST/SBB/AND pairs)
//! […]  emulator state cells: R0..R15, D0..D7, C/Z/N, call stack, …
//! […]  PROG  — the guest DynaRisc program, one 16-bit word per cell
//! […]  DYNMEM — the guest data memory, one byte per cell
//! ```
//!
//! Guest semantics replicate `ule_dynarisc::vm::Vm` exactly; the
//! equivalence is enforced by differential tests (same binary, same
//! inputs, byte-identical outputs and step-for-step register state).

use crate::masm::{Cell, Image, Label, Masm};
use crate::vm::{Engine, EngineKind, VeriscError};
use std::collections::HashMap;

/// Depth of the guest call stack (mirrors the native VM).
const GUEST_STACK: usize = 256;

/// The guest state cells the host side indexes by symbol (besides `PROG`
/// and `DYNMEM`), with the number of cells each spans.
const STATE_CELLS: [(&str, usize); 7] = [
    ("DPC", 1),
    ("SP", 1),
    ("CFLAG", 1),
    ("ZFLAG", 1),
    ("NFLAG", 1),
    ("REGS", 16),
    ("PTRS", 8),
];

/// A ready-to-run nested emulator instance.
pub struct NestedEmulator {
    image: Vec<u32>,
    symbols: HashMap<String, u32>,
    code_words: usize,
    dyn_mem_len: usize,
}

#[allow(dead_code)] // the array-handle fields document the image layout
struct Gen {
    m: Masm,
    // decode outputs
    w: Cell,
    opcode: Cell,
    fa: Cell,
    fb: Cell,
    mode: Cell,
    // guest state
    dpc: Cell,
    cflag: Cell,
    zflag: Cell,
    nflag: Cell,
    sp: Cell,
    regs: Cell,
    ptrs: Cell,
    stack: Cell,
    prog: Cell,
    dynmem: Cell,
    // address-of constants
    k_regs: Cell,
    k_ptrs: Cell,
    k_stack: Cell,
    k_prog: Cell,
    k_dynmem: Cell,
    // operand scratch
    imm: Cell,
    va: Cell,
    vb: Cell,
    res: Cell,
    t1: Cell,
    t2: Cell,
    t3: Cell,
    ptr_t: Cell,
    // subroutine plumbing
    lk_fetch: Cell,
    fetched: Cell,
    lk_extract: Cell,
    lk_div2: Cell,
    dv: Cell,
    bit_out: Cell,
    lk_mul: Cell,
    ma: Cell,
    mb: Cell,
    phi: Cell,
    plo: Cell,
    lk_shr8: Cell,
    gsteps: Cell,
    /// Private scratch for the shared subroutines (extract/div2/shr8/mul)
    /// — deliberately distinct from `t1`, which handlers may hold live
    /// across subroutine calls (e.g. STM keeps the guest address in t1
    /// while calling shr8 for the high byte).
    st1: Cell,
    jt: Option<Cell>,
    handler_labels: Option<Vec<Label>>,
    sub_fetch: Label,
    sub_extract: Label,
    sub_div2: Label,
    sub_mul: Label,
    sub_shr8: Label,
    main_loop: Label,
}

impl Gen {
    fn new_with_capacity(dyn_program: &[u16], prog_capacity: usize, dyn_mem: &[u8]) -> Self {
        let mut m = Masm::new();
        let w = m.cell(0);
        let opcode = m.cell(0);
        let fa = m.cell(0);
        let fb = m.cell(0);
        let mode = m.cell(0);
        let dpc = m.cell(0);
        let cflag = m.cell(0);
        let zflag = m.cell(0);
        let nflag = m.cell(0);
        let sp = m.cell(0);
        let imm = m.cell(0);
        let va = m.cell(0);
        let vb = m.cell(0);
        let res = m.cell(0);
        let t1 = m.cell(0);
        let t2 = m.cell(0);
        let t3 = m.cell(0);
        let ptr_t = m.cell(0);
        let fetched = m.cell(0);
        let dv = m.cell(0);
        let bit_out = m.cell(0);
        let ma = m.cell(0);
        let mb = m.cell(0);
        let phi = m.cell(0);
        let plo = m.cell(0);
        let lk_fetch = m.cell(0);
        let lk_extract = m.cell(0);
        let lk_div2 = m.cell(0);
        let lk_mul = m.cell(0);
        let lk_shr8 = m.cell(0);
        let regs = m.array(16, &[]);
        let ptrs = m.array(8, &[]);
        let stack = m.array(GUEST_STACK, &[]);
        let prog_words: Vec<u32> = dyn_program.iter().map(|&x| x as u32).collect();
        let cap = prog_capacity.max(prog_words.len()).max(1);
        let prog = m.array(cap, &prog_words);
        let mem_words: Vec<u32> = dyn_mem.iter().map(|&x| x as u32).collect();
        let dynmem = m.array(mem_words.len().max(1), &mem_words);
        m.pin_tail_array(dynmem, mem_words.len().max(1));
        let k_regs = m.konst_addr_of(regs);
        let k_ptrs = m.konst_addr_of(ptrs);
        let k_stack = m.konst_addr_of(stack);
        let k_prog = m.konst_addr_of(prog);
        let k_dynmem = m.konst_addr_of(dynmem);
        m.name("DPC", dpc);
        m.name("REGS", regs);
        m.name("PTRS", ptrs);
        m.name("DYNMEM", dynmem);
        m.name("CFLAG", cflag);
        m.name("ZFLAG", zflag);
        m.name("NFLAG", nflag);
        m.name("SP", sp);
        m.name("PROG", prog);
        m.name("STACK", stack);
        m.name("W", w);
        m.name("OPCODE", opcode);
        m.name("FA", fa);
        m.name("FB", fb);
        m.name("MODE", mode);
        let gsteps = m.cell(0);
        m.name("GSTEPS", gsteps);
        let st1 = m.cell(0);
        let sub_fetch = m.label();
        let sub_extract = m.label();
        let sub_div2 = m.label();
        let sub_mul = m.label();
        let sub_shr8 = m.label();
        let main_loop = m.label();
        Self {
            m,
            gsteps,
            st1,
            jt: None,
            handler_labels: None,
            w,
            opcode,
            fa,
            fb,
            mode,
            dpc,
            cflag,
            zflag,
            nflag,
            sp,
            regs,
            ptrs,
            stack,
            prog,
            dynmem,
            k_regs,
            k_ptrs,
            k_stack,
            k_prog,
            k_dynmem,
            imm,
            va,
            vb,
            res,
            t1,
            t2,
            t3,
            ptr_t,
            lk_fetch,
            fetched,
            lk_extract,
            lk_div2,
            dv,
            bit_out,
            lk_mul,
            ma,
            mb,
            phi,
            plo,
            lk_shr8,
            sub_fetch,
            sub_extract,
            sub_div2,
            sub_mul,
            sub_shr8,
            main_loop,
        }
    }

    // ---- inline helpers ----

    /// `dst ← REGS[idx]`.
    fn getreg(&mut self, dst: Cell, idx: Cell) {
        self.m.add(self.ptr_t, self.k_regs, idx);
        self.m.ld_ind(self.ptr_t);
        self.m.st(dst);
    }

    /// `REGS[idx] ← src`.
    fn setreg(&mut self, idx: Cell, src: Cell) {
        self.m.add(self.ptr_t, self.k_regs, idx);
        self.m.st_ind(self.ptr_t, src);
    }

    /// `dst ← PTRS[idx & 7]`.
    fn getptr(&mut self, dst: Cell, idx: Cell) {
        let k7 = self.m.konst(7);
        self.m.band(self.t3, idx, k7);
        self.m.add(self.ptr_t, self.k_ptrs, self.t3);
        self.m.ld_ind(self.ptr_t);
        self.m.st(dst);
    }

    /// `PTRS[idx & 7] ← src`.
    fn setptr(&mut self, idx: Cell, src: Cell) {
        let k7 = self.m.konst(7);
        self.m.band(self.t3, idx, k7);
        self.m.add(self.ptr_t, self.k_ptrs, self.t3);
        self.m.st_ind(self.ptr_t, src);
    }

    /// Set Z/N flags from a 16-bit value cell.
    fn set_zn(&mut self, v: Cell) {
        self.m.movi(self.zflag, 0);
        self.m.movi(self.nflag, 0);
        let not_zero = self.m.label();
        self.m.jnz_cell(v, not_zero);
        self.m.movi(self.zflag, 1);
        self.m.bind(not_zero);
        let k = self.m.konst(0x8000);
        let no_n = self.m.label();
        self.m.jlt(v, k, no_n);
        self.m.movi(self.nflag, 1);
        self.m.bind(no_n);
    }

    /// `fetched ← PROG[dpc]; dpc += 1` (call site).
    fn fetch(&mut self) {
        self.m.call(self.sub_fetch, self.lk_fetch);
    }

    /// 16-bit add with carry-in cell: `res ← (va + vb + cin) mod 2^16`,
    /// `cflag ← carry out`.
    fn add16(&mut self, cin: Cell) {
        self.m.add(self.res, self.va, self.vb);
        self.m.add(self.res, self.res, cin);
        let k = self.m.konst(0x10000);
        self.m.movi(self.cflag, 0);
        let no_carry = self.m.label();
        self.m.jlt(self.res, k, no_carry);
        self.m.movi(self.cflag, 1);
        let km = self.m.konst(0xFFFF);
        self.m.band(self.res, self.res, km);
        self.m.bind(no_carry);
    }

    /// 16-bit subtract with borrow-in cell: `res ← (va − vb − bin) mod 2^16`,
    /// `cflag ← borrow out`.
    fn sub16(&mut self, bin: Cell) {
        self.m.add(self.t1, self.vb, bin);
        // res = va - t1 (host borrow tells us the guest borrow)
        self.m.clc();
        self.m.ld(self.va);
        self.m.sbb(self.t1);
        self.m.st(self.res);
        // cflag = borrow mask & 1
        self.m.ld_abs(1);
        let k1 = self.m.konst(1);
        self.m.and_(k1);
        self.m.st(self.cflag);
        let km = self.m.konst(0xFFFF);
        self.m.band(self.res, self.res, km);
    }

    /// Load the ALU right-hand side per mode (M2 → immediate, else R[fb])
    /// into `vb`.
    fn load_alu_rhs(&mut self) {
        let k2 = self.m.konst(2);
        let use_imm = self.m.label();
        let done = self.m.label();
        self.m.jeq(self.mode, k2, use_imm);
        let fb = self.fb;
        self.getreg(self.vb, fb);
        self.m.jmp(done);
        self.m.bind(use_imm);
        self.fetch();
        self.m.mov(self.vb, self.fetched);
        self.m.bind(done);
    }

    /// Shared tail for R-register ALU writers: Z/N, write-back, next.
    fn alu_finish(&mut self, write_back: bool) {
        self.set_zn(self.res);
        if write_back {
            let fa = self.fa;
            self.setreg(fa, self.res);
        }
        self.m.jmp(self.main_loop);
    }

    /// Pointer-form ADD/SUB (modes 1 and 3). `sub` selects subtraction.
    /// Expects to be placed at a label the main handler jumps to.
    fn ptr_arith(&mut self, is_sub: bool) {
        // rhs: mode 1 → R[fb]; mode 3 → imm
        let k1 = self.m.konst(1);
        let use_reg = self.m.label();
        let have_rhs = self.m.label();
        self.m.jeq(self.mode, k1, use_reg);
        self.fetch();
        self.m.mov(self.vb, self.fetched);
        self.m.jmp(have_rhs);
        self.m.bind(use_reg);
        let fb = self.fb;
        self.getreg(self.vb, fb);
        self.m.bind(have_rhs);
        let fa = self.fa;
        self.getptr(self.va, fa);
        if is_sub {
            self.m.sub(self.res, self.va, self.vb); // 32-bit wrapping, flags untouched
        } else {
            self.m.add(self.res, self.va, self.vb);
        }
        self.setptr(fa, self.res);
        self.m.jmp(self.main_loop);
    }

    /// `va >>= 1` via the DIV2 subroutine; `bit_out` gets the old low bit.
    fn div2_va(&mut self) {
        self.m.mov(self.dv, self.va);
        self.m.call(self.sub_div2, self.lk_div2);
        self.m.mov(self.va, self.dv);
    }

    // ---- the generator body ----

    fn generate(mut self) -> Image {
        let g = &mut self;
        g.emit_main();
        g.emit_handlers();
        g.emit_subroutines();
        self.m.finish(8)
    }

    fn emit_main(&mut self) {
        let main = self.main_loop;
        self.m.bind(main);
        let gs = self.gsteps;
        self.m.addi(gs, gs, 1);
        self.fetch();
        self.m.mov(self.w, self.fetched);
        self.m.call(self.sub_extract, self.lk_extract);
        // dispatch: JT[opcode]
        let jt = self.jump_table_placeholder();
        let k_jt = self.m.konst_addr_of(jt);
        self.m.add(self.ptr_t, k_jt, self.opcode);
        self.m.ld_ind(self.ptr_t);
        self.m.st_abs(0);
    }

    /// Allocate the 23-entry dispatch table; handler labels are bound later
    /// and patched through `CellInit::LabelAddr` cells.
    fn jump_table_placeholder(&mut self) -> Cell {
        // created in emit_handlers() — placeholder populated there via
        // label-addr cells allocated contiguously.
        if let Some(c) = self.jt {
            return c;
        }
        let labels: Vec<Label> = (0..23).map(|_| self.m.label()).collect();
        let first = self.m.konst_label(labels[0]);
        for &l in &labels[1..] {
            self.m.konst_label(l);
        }
        self.handler_labels = Some(labels);
        self.jt = Some(first);
        first
    }

    fn emit_handlers(&mut self) {
        let labels = self.handler_labels.clone().expect("jump table allocated");
        // 0 ADD, 1 ADC
        for (code, with_carry) in [(0usize, false), (1usize, true)] {
            self.m.bind(labels[code]);
            if !with_carry {
                // pointer modes first
                let k1 = self.m.konst(1);
                let k3 = self.m.konst(3);
                let ptr_path = self.m.label();
                let reg_path = self.m.label();
                self.m.jeq(self.mode, k1, ptr_path);
                self.m.jeq(self.mode, k3, ptr_path);
                self.m.jmp(reg_path);
                self.m.bind(ptr_path);
                self.ptr_arith(false);
                self.m.bind(reg_path);
            }
            self.load_alu_rhs();
            let fa = self.fa;
            self.getreg(self.va, fa);
            let cin = if with_carry {
                self.cflag
            } else {
                let z = self.m.cell(0);
                self.m.movi(z, 0);
                z
            };
            self.add16(cin);
            self.alu_finish(true);
        }
        // 2 SUB, 3 SBB, 4 CMP
        for (code, with_borrow, write_back) in [
            (2usize, false, true),
            (3usize, true, true),
            (4usize, false, false),
        ] {
            self.m.bind(labels[code]);
            if code == 2 {
                let k1 = self.m.konst(1);
                let k3 = self.m.konst(3);
                let ptr_path = self.m.label();
                let reg_path = self.m.label();
                self.m.jeq(self.mode, k1, ptr_path);
                self.m.jeq(self.mode, k3, ptr_path);
                self.m.jmp(reg_path);
                self.m.bind(ptr_path);
                self.ptr_arith(true);
                self.m.bind(reg_path);
            }
            self.load_alu_rhs();
            let fa = self.fa;
            self.getreg(self.va, fa);
            let bin = if with_borrow {
                self.cflag
            } else {
                let z = self.m.cell(0);
                self.m.movi(z, 0);
                z
            };
            self.sub16(bin);
            self.alu_finish(write_back);
        }
        // 5 MUL
        {
            self.m.bind(labels[5]);
            let fa = self.fa;
            let fb = self.fb;
            self.getreg(self.ma, fa);
            self.getreg(self.mb, fb);
            self.m.call(self.sub_mul, self.lk_mul);
            // mode 1 → high half, else low half
            let k1 = self.m.konst(1);
            let hi_path = self.m.label();
            let done = self.m.label();
            self.m.jeq(self.mode, k1, hi_path);
            self.m.mov(self.res, self.plo);
            self.m.jmp(done);
            self.m.bind(hi_path);
            self.m.mov(self.res, self.phi);
            self.m.bind(done);
            self.alu_finish(true);
        }
        // 6 AND, 7 OR, 8 XOR
        for code in [6usize, 7, 8] {
            self.m.bind(labels[code]);
            self.load_alu_rhs();
            let fa = self.fa;
            self.getreg(self.va, fa);
            match code {
                6 => self.m.band(self.res, self.va, self.vb),
                7 => {
                    // OR = NOT(AND(NOT a, NOT b))
                    self.m.bnot(self.t1, self.va);
                    self.m.bnot(self.t2, self.vb);
                    self.m.band(self.t1, self.t1, self.t2);
                    self.m.bnot(self.res, self.t1);
                }
                _ => {
                    // XOR = OR − AND (no carries interact bitwise)
                    self.m.bnot(self.t1, self.va);
                    self.m.bnot(self.t2, self.vb);
                    self.m.band(self.t1, self.t1, self.t2);
                    self.m.bnot(self.t1, self.t1); // OR
                    self.m.band(self.t2, self.va, self.vb); // AND
                    self.m.sub(self.res, self.t1, self.t2);
                }
            }
            self.alu_finish(true);
        }
        // 9 LSL, 10 LSR, 11 ASR, 12 ROR
        for code in [9usize, 10, 11, 12] {
            self.m.bind(labels[code]);
            // count: mode 1 → fb literal; else R[fb] & 15
            let k1 = self.m.konst(1);
            let k15 = self.m.konst(15);
            let count = self.m.cell(0);
            let lit = self.m.label();
            let have = self.m.label();
            self.m.jeq(self.mode, k1, lit);
            let fb = self.fb;
            self.getreg(self.t1, fb);
            self.m.band(count, self.t1, k15);
            self.m.jmp(have);
            self.m.bind(lit);
            self.m.mov(count, self.fb);
            self.m.bind(have);
            let fa = self.fa;
            self.getreg(self.va, fa);
            // ASR precomputes the sign fill.
            let sign = self.m.cell(0);
            if code == 11 {
                self.m.movi(sign, 0);
                let k8000 = self.m.konst(0x8000);
                let no_sign = self.m.label();
                self.m.jlt(self.va, k8000, no_sign);
                self.m.movi(sign, 1);
                self.m.bind(no_sign);
            }
            let loop_top = self.m.label();
            let loop_end = self.m.label();
            self.m.bind(loop_top);
            self.m.jz_cell(count, loop_end);
            match code {
                9 => {
                    // LSL: va += va; cflag = bit16 out
                    self.m.add(self.va, self.va, self.va);
                    let k = self.m.konst(0x10000);
                    let km = self.m.konst(0xFFFF);
                    let nc = self.m.label();
                    self.m.movi(self.cflag, 0);
                    self.m.jlt(self.va, k, nc);
                    self.m.movi(self.cflag, 1);
                    self.m.band(self.va, self.va, km);
                    self.m.bind(nc);
                }
                10 => {
                    self.div2_va();
                    self.m.mov(self.cflag, self.bit_out);
                }
                11 => {
                    self.div2_va();
                    self.m.mov(self.cflag, self.bit_out);
                    let no_fill = self.m.label();
                    self.m.jz_cell(sign, no_fill);
                    self.m.addi(self.va, self.va, 0x8000);
                    self.m.bind(no_fill);
                }
                _ => {
                    // ROR: wrap the low bit to bit 15; C untouched.
                    self.div2_va();
                    let no_wrap = self.m.label();
                    self.m.jz_cell(self.bit_out, no_wrap);
                    self.m.addi(self.va, self.va, 0x8000);
                    self.m.bind(no_wrap);
                }
            }
            self.m.subi(count, count, 1);
            self.m.jmp(loop_top);
            self.m.bind(loop_end);
            self.m.mov(self.res, self.va);
            self.alu_finish(true);
        }
        // 13 MOVE
        {
            self.m.bind(labels[13]);
            let fa = self.fa;
            let fb = self.fb;
            let ks: Vec<Cell> = (0..6).map(|v| self.m.konst(v)).collect();
            let cases: Vec<Label> = (0..6).map(|_| self.m.label()).collect();
            for (v, &case) in cases.iter().enumerate() {
                self.m.jeq(self.mode, ks[v], case);
            }
            self.m.jmp(cases[5]); // modes 6/7 behave like mode 5 (native `_` arm)
                                  // m0: Ra ← Rb
            self.m.bind(cases[0]);
            self.getreg(self.va, fb);
            self.setreg(fa, self.va);
            self.m.jmp(self.main_loop);
            // m1: Da ← Rb (zero-extended)
            self.m.bind(cases[1]);
            self.getreg(self.va, fb);
            self.setptr(fa, self.va);
            self.m.jmp(self.main_loop);
            // m2: Ra ← Db & 0xFFFF
            self.m.bind(cases[2]);
            self.getptr(self.va, fb);
            let km = self.m.konst(0xFFFF);
            self.m.band(self.va, self.va, km);
            self.setreg(fa, self.va);
            self.m.jmp(self.main_loop);
            // m3: Da ← Db
            self.m.bind(cases[3]);
            self.getptr(self.va, fb);
            self.setptr(fa, self.va);
            self.m.jmp(self.main_loop);
            // m4: Ra ← Db >> 16
            self.m.bind(cases[4]);
            self.getptr(self.va, fb);
            // shift right 16 by doubling a mirror from the top: compute
            // hi = (v - (v & 0xFFFF)) / 65536 via 16 halvings of a 32-bit
            // value. DIV2 is 16-bit only, so subtract the low half first
            // and halve by adding into a scaled accumulator instead:
            // iterate 16 × DIV2_32 — implemented inline with borrow trick:
            // v/2 = (v - (v&1)) with each bit shift … simplest correct
            // approach: 16 rounds of "halve a 32-bit value" using the
            // identity below.
            {
                // halve 32-bit value: for k in 31..=1 test 2^k — that is
                // what sub_div2 does for 16 bits. Do it in two halves:
                // lo16 = v & 0xFFFF, hi16 = (v - lo16) * 2^-16 … the clean
                // route: repeatedly subtract 65536 is too slow, so we use
                // the precomputed-weights loop inline (unrolled, 16 iters).
                let acc = self.m.cell(0);
                self.m.movi(acc, 0);
                for k in (16..32u32).rev() {
                    let kpow = self.m.konst(1u32 << k);
                    let kw = self.m.konst(1u32 << (k - 16));
                    let skip = self.m.label();
                    // if va >= 2^k { va -= 2^k; acc += 2^(k-16) }
                    self.m.sub(self.t1, self.va, kpow);
                    self.m.jc(skip);
                    self.m.mov(self.va, self.t1);
                    self.m.add(acc, acc, kw);
                    self.m.bind(skip);
                }
                self.setreg(fa, acc);
            }
            self.m.jmp(self.main_loop);
            // m5: Da ← (R[fb] << 16) | R[(fb+1) & 15]
            self.m.bind(cases[5]);
            self.getreg(self.t1, fb);
            // t1 <<= 16 (32-bit doubling, safe: t1 < 2^16)
            for _ in 0..16 {
                self.m.add(self.t1, self.t1, self.t1);
            }
            let k15 = self.m.konst(15);
            self.m.addi(self.t2, fb, 1);
            self.m.band(self.t2, self.t2, k15);
            self.getreg(self.va, self.t2);
            self.m.add(self.t1, self.t1, self.va);
            self.setptr(fa, self.t1);
            self.m.jmp(self.main_loop);
        }
        // 14 LDI
        {
            self.m.bind(labels[14]);
            let fa = self.fa;
            let k1 = self.m.konst(1);
            let dptr = self.m.label();
            self.m.jeq(self.mode, k1, dptr);
            self.fetch();
            self.m.mov(self.va, self.fetched);
            self.setreg(fa, self.va);
            self.m.jmp(self.main_loop);
            self.m.bind(dptr);
            self.fetch();
            self.m.mov(self.t1, self.fetched); // low
            self.fetch();
            self.m.mov(self.t2, self.fetched); // high
            for _ in 0..16 {
                self.m.add(self.t2, self.t2, self.t2);
            }
            self.m.add(self.t1, self.t1, self.t2);
            self.setptr(fa, self.t1);
            self.m.jmp(self.main_loop);
        }
        // 15 LDM
        {
            self.m.bind(labels[15]);
            let fa = self.fa;
            let fb = self.fb;
            self.getptr(self.t1, fb); // guest address
                                      // byte0 = DYNMEM[addr]
            self.m.add(self.ptr_t, self.k_dynmem, self.t1);
            self.m.ld_ind(self.ptr_t);
            self.m.st(self.va);
            // word modes add the second byte
            let k2 = self.m.konst(2);
            let byte_mode = self.m.label();
            self.m.jlt(self.mode, k2, byte_mode);
            self.m.addi(self.ptr_t, self.ptr_t, 1);
            self.m.ld_ind(self.ptr_t);
            self.m.st(self.t2);
            for _ in 0..8 {
                self.m.add(self.t2, self.t2, self.t2);
            }
            self.m.add(self.va, self.va, self.t2);
            self.m.bind(byte_mode);
            self.setreg(fa, self.va);
            // post-inc for modes 1 (by 1) and 3 (by 2)
            let k1 = self.m.konst(1);
            let k3 = self.m.konst(3);
            let inc1 = self.m.label();
            let inc2 = self.m.label();
            self.m.jeq(self.mode, k1, inc1);
            self.m.jeq(self.mode, k3, inc2);
            self.m.jmp(self.main_loop);
            self.m.bind(inc1);
            self.m.addi(self.t1, self.t1, 1);
            self.setptr(fb, self.t1);
            self.m.jmp(self.main_loop);
            self.m.bind(inc2);
            self.m.addi(self.t1, self.t1, 2);
            self.setptr(fb, self.t1);
            self.m.jmp(self.main_loop);
        }
        // 16 STM
        {
            self.m.bind(labels[16]);
            let fa = self.fa;
            let fb = self.fb;
            self.getptr(self.t1, fb);
            self.getreg(self.va, fa);
            let kff = self.m.konst(0xFF);
            self.m.band(self.t2, self.va, kff); // low byte
            self.m.add(self.ptr_t, self.k_dynmem, self.t1);
            self.m.st_ind(self.ptr_t, self.t2);
            let k2 = self.m.konst(2);
            let after_hi = self.m.label();
            self.m.jlt(self.mode, k2, after_hi);
            // high byte = va >> 8 via the shared subroutine
            self.m.mov(self.dv, self.va);
            self.m.call(self.sub_shr8, self.lk_shr8);
            self.m.addi(self.ptr_t, self.ptr_t, 1);
            self.m.st_ind(self.ptr_t, self.dv);
            self.m.bind(after_hi);
            let k1 = self.m.konst(1);
            let k3 = self.m.konst(3);
            let inc1 = self.m.label();
            let inc2 = self.m.label();
            self.m.jeq(self.mode, k1, inc1);
            self.m.jeq(self.mode, k3, inc2);
            self.m.jmp(self.main_loop);
            self.m.bind(inc1);
            self.m.addi(self.t1, self.t1, 1);
            self.setptr(fb, self.t1);
            self.m.jmp(self.main_loop);
            self.m.bind(inc2);
            self.m.addi(self.t1, self.t1, 2);
            self.setptr(fb, self.t1);
            self.m.jmp(self.main_loop);
        }
        // 17 JUMP, 18 JZ, 19 JNZ, 20 JC
        {
            self.m.bind(labels[17]);
            self.fetch();
            self.m.mov(self.dpc, self.fetched);
            self.m.jmp(self.main_loop);

            self.m.bind(labels[18]); // JZ
            self.fetch();
            let taken = self.m.label();
            self.m.jnz_cell(self.zflag, taken);
            self.m.jmp(self.main_loop);
            self.m.bind(taken);
            self.m.mov(self.dpc, self.fetched);
            self.m.jmp(self.main_loop);

            self.m.bind(labels[19]); // JNZ
            self.fetch();
            let taken = self.m.label();
            self.m.jz_cell(self.zflag, taken);
            self.m.jmp(self.main_loop);
            self.m.bind(taken);
            self.m.mov(self.dpc, self.fetched);
            self.m.jmp(self.main_loop);

            self.m.bind(labels[20]); // JC
            self.fetch();
            let taken = self.m.label();
            self.m.jnz_cell(self.cflag, taken);
            self.m.jmp(self.main_loop);
            self.m.bind(taken);
            self.m.mov(self.dpc, self.fetched);
            self.m.jmp(self.main_loop);
        }
        // 21 CALL
        {
            self.m.bind(labels[21]);
            self.fetch();
            let k_stack = self.k_stack;
            let sp = self.sp;
            self.m.add(self.ptr_t, k_stack, sp);
            self.m.st_ind(self.ptr_t, self.dpc);
            self.m.addi(sp, sp, 1);
            self.m.mov(self.dpc, self.fetched);
            self.m.jmp(self.main_loop);
        }
        // 22 RET — empty stack halts (the guest's HALT convention)
        {
            self.m.bind(labels[22]);
            let sp = self.sp;
            let halted = self.m.label();
            self.m.jz_cell(sp, halted);
            self.m.subi(sp, sp, 1);
            let k_stack = self.k_stack;
            self.m.add(self.ptr_t, k_stack, sp);
            self.m.ld_ind(self.ptr_t);
            self.m.st(self.dpc);
            self.m.jmp(self.main_loop);
            self.m.bind(halted);
            self.m.halt();
        }
    }

    fn emit_subroutines(&mut self) {
        // fetch: fetched = PROG[dpc]; dpc += 1
        {
            self.m.bind(self.sub_fetch);
            self.m.add(self.ptr_t, self.k_prog, self.dpc);
            self.m.ld_ind(self.ptr_t);
            self.m.st(self.fetched);
            self.m.addi(self.dpc, self.dpc, 1);
            self.m.ret(self.lk_fetch);
        }
        // extract: split w into opcode/fa/fb/mode (bit-weight peeling)
        {
            self.m.bind(self.sub_extract);
            self.m.movi(self.opcode, 0);
            self.m.movi(self.fa, 0);
            self.m.movi(self.fb, 0);
            self.m.movi(self.mode, 0);
            for k in (0..16u32).rev() {
                let kpow = self.m.konst(1u32 << k);
                let (field, weight) = match k {
                    11..=15 => (self.opcode, 1u32 << (k - 11)),
                    7..=10 => (self.fa, 1u32 << (k - 7)),
                    3..=6 => (self.fb, 1u32 << (k - 3)),
                    _ => (self.mode, 1u32 << k),
                };
                let skip = self.m.label();
                self.m.sub(self.st1, self.w, kpow);
                self.m.jc(skip);
                self.m.mov(self.w, self.st1);
                self.m.addi(field, field, weight);
                self.m.bind(skip);
            }
            self.m.ret(self.lk_extract);
        }
        // div2: dv = dv >> 1 (16-bit); bit_out = old low bit
        {
            self.m.bind(self.sub_div2);
            let y = self.m.cell(0);
            self.m.movi(y, 0);
            for k in (1..16u32).rev() {
                let kpow = self.m.konst(1u32 << k);
                let kw = self.m.konst(1u32 << (k - 1));
                let skip = self.m.label();
                self.m.sub(self.st1, self.dv, kpow);
                self.m.jc(skip);
                self.m.mov(self.dv, self.st1);
                self.m.add(y, y, kw);
                self.m.bind(skip);
            }
            self.m.mov(self.bit_out, self.dv);
            self.m.mov(self.dv, y);
            self.m.ret(self.lk_div2);
        }
        // shr8: dv = dv >> 8 (16-bit input) — peel weights 15..8
        {
            self.m.bind(self.sub_shr8);
            let y = self.m.cell(0);
            self.m.movi(y, 0);
            for k in (8..16u32).rev() {
                let kpow = self.m.konst(1u32 << k);
                let kw = self.m.konst(1u32 << (k - 8));
                let skip = self.m.label();
                self.m.sub(self.st1, self.dv, kpow);
                self.m.jc(skip);
                self.m.mov(self.dv, self.st1);
                self.m.add(y, y, kw);
                self.m.bind(skip);
            }
            self.m.mov(self.dv, y);
            self.m.ret(self.lk_shr8);
        }
        // mul: (phi:plo) = ma * mb, 16×16→32, high-bit-first shift-add
        {
            self.m.bind(self.sub_mul);
            self.m.movi(self.phi, 0);
            self.m.movi(self.plo, 0);
            let k8000 = self.m.konst(0x8000);
            let k10000 = self.m.konst(0x10000);
            let kffff = self.m.konst(0xFFFF);
            for _ in 0..16 {
                // acc <<= 1
                self.m.add(self.plo, self.plo, self.plo);
                self.m.add(self.phi, self.phi, self.phi);
                let no_c = self.m.label();
                self.m.jlt(self.plo, k10000, no_c);
                self.m.band(self.plo, self.plo, kffff);
                self.m.addi(self.phi, self.phi, 1);
                self.m.bind(no_c);
                self.m.band(self.phi, self.phi, kffff);
                // top bit of ma?
                let no_add = self.m.label();
                self.m.sub(self.st1, self.ma, k8000);
                self.m.jc(no_add);
                self.m.mov(self.ma, self.st1);
                self.m.add(self.plo, self.plo, self.mb);
                let no_c2 = self.m.label();
                self.m.jlt(self.plo, k10000, no_c2);
                self.m.band(self.plo, self.plo, kffff);
                self.m.addi(self.phi, self.phi, 1);
                self.m.band(self.phi, self.phi, kffff);
                self.m.bind(no_c2);
                self.m.bind(no_add);
                // ma <<= 1 (top bit already removed)
                self.m.add(self.ma, self.ma, self.ma);
            }
            self.m.ret(self.lk_mul);
        }
    }
}

impl NestedEmulator {
    /// Build the emulator image around a guest program and its initial
    /// data-memory image (as produced by `ule_dynarisc::layout`).
    pub fn new(dyn_program: &[u16], dyn_mem: &[u8]) -> Self {
        Self::with_capacity(dyn_program, dyn_program.len(), dyn_mem)
    }

    /// Like [`NestedEmulator::new`] but reserving `prog_capacity` guest
    /// program cells, so other decoders (up to that size) can later be
    /// loaded into the same archived image via [`Self::load_guest_program`].
    pub fn with_capacity(dyn_program: &[u16], prog_capacity: usize, dyn_mem: &[u8]) -> Self {
        let gen = Gen::new_with_capacity(dyn_program, prog_capacity, dyn_mem);
        let image = gen.generate();
        Self {
            dyn_mem_len: dyn_mem.len(),
            symbols: image.symbols.clone(),
            code_words: image.code_words,
            image: image.mem,
        }
    }

    /// Size of the emulator code in VeRisc words (reported by E7/E5).
    pub fn code_words(&self) -> usize {
        self.code_words
    }

    /// Total image size in words.
    pub fn image_words(&self) -> usize {
        self.image.len()
    }

    /// The raw VeRisc memory image (what the Bootstrap letters encode).
    pub fn image(&self) -> &[u32] {
        &self.image
    }

    /// Run the guest to completion under the chosen host interpreter.
    pub fn run(&mut self, kind: EngineKind, max_steps: u64) -> Result<u64, VeriscError> {
        let mut engine = Engine::new(kind, std::mem::take(&mut self.image));
        let result = engine.run(max_steps);
        self.image = engine.mem;
        result
    }

    /// Read back the guest data memory (one byte per cell).
    pub fn dyn_mem(&self) -> Vec<u8> {
        let base = self.symbols["DYNMEM"] as usize;
        self.image[base..base + self.dyn_mem_len]
            .iter()
            .map(|&w| w as u8)
            .collect()
    }

    /// Guest register file (for differential testing).
    pub fn guest_regs(&self) -> [u16; 16] {
        let base = self.symbols["REGS"] as usize;
        let mut out = [0u16; 16];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.image[base + i] as u16;
        }
        out
    }

    /// Guest pointer registers.
    pub fn guest_ptrs(&self) -> [u32; 8] {
        let base = self.symbols["PTRS"] as usize;
        let mut out = [0u32; 8];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.image[base + i];
        }
        out
    }

    /// Symbol table of the generated image (cell name → absolute address).
    pub fn symbols(&self) -> &HashMap<String, u32> {
        &self.symbols
    }

    /// Reset guest architectural state and rewind the host PC so the same
    /// image can run another decoder (Figure 2b runs MODecode repeatedly,
    /// then DBDecode, inside one emulator).
    pub fn reset_guest(&mut self) {
        self.image[0] = crate::spec::CODE_BASE;
        self.image[1] = 0;
        for (name, cells) in STATE_CELLS {
            let a = self.symbols[name] as usize;
            self.image[a..a + cells].fill(0);
        }
    }

    /// Check an archived image (a Bootstrap's prefix, symbols and
    /// `prog-capacity`) before [`Self::from_image_prefix`],
    /// [`Self::reset_guest`] and [`Self::load_guest_program`] index it:
    /// `DYNMEM` must lie within `prefix`, and every other symbol the host
    /// side indexes must be present with its whole region below `DYNMEM`,
    /// `PROG`'s region being `prog_capacity` cells. Names the first
    /// defect found.
    pub fn check_image_prefix(
        prefix: &[u32],
        symbols: &HashMap<String, u32>,
        prog_capacity: usize,
    ) -> Result<(), String> {
        let at = |name: &str| {
            symbols
                .get(name)
                .map(|&a| a as usize)
                .ok_or_else(|| format!("image lacks a {name} symbol"))
        };
        let dynmem = at("DYNMEM")?;
        if dynmem > prefix.len() {
            return Err(format!(
                "DYNMEM={dynmem} lies past the {}-word image prefix",
                prefix.len()
            ));
        }
        for (name, cells) in STATE_CELLS.into_iter().chain([("PROG", prog_capacity)]) {
            if at(name)?
                .checked_add(cells)
                .map_or(true, |end| end > dynmem)
            {
                return Err(format!(
                    "{name} region of {cells} cells reaches past DYNMEM={dynmem}"
                ));
            }
        }
        Ok(())
    }

    /// Overwrite the guest program region (the Bootstrap's "load the
    /// decoder stream into PROG" step). Panics if it does not fit the
    /// region allocated at generation time.
    pub fn load_guest_program(&mut self, program: &[u16], capacity: usize) {
        assert!(
            program.len() <= capacity,
            "guest program exceeds PROG capacity"
        );
        let base = self.symbols["PROG"] as usize;
        for (i, &w) in program.iter().enumerate() {
            self.image[base + i] = w as u32;
        }
    }

    /// Replace the guest data memory region. The region was sized at
    /// generation time; `mem` must not exceed it.
    pub fn load_dyn_mem(&mut self, mem: &[u8]) {
        assert!(mem.len() <= self.dyn_mem_len, "dyn mem exceeds region");
        let base = self.symbols["DYNMEM"] as usize;
        for (i, &b) in mem.iter().enumerate() {
            self.image[base + i] = b as u32;
        }
        for i in mem.len()..self.dyn_mem_len {
            self.image[base + i] = 0;
        }
    }

    /// Rebuild an emulator from an archived image prefix (the Bootstrap
    /// letters): `prefix` covers words `[0, dynmem_base)`; the data region
    /// is appended from `dyn_mem`, one byte per cell.
    pub fn from_image_prefix(
        prefix: &[u32],
        symbols: HashMap<String, u32>,
        dyn_mem: &[u8],
    ) -> Self {
        let dynmem_base = symbols["DYNMEM"] as usize;
        assert!(
            prefix.len() >= dynmem_base,
            "prefix shorter than DYNMEM base"
        );
        let mut image = prefix[..dynmem_base].to_vec();
        image.extend(dyn_mem.iter().map(|&b| b as u32));
        image.extend(std::iter::repeat(0).take(8));
        Self {
            dyn_mem_len: dyn_mem.len(),
            symbols,
            code_words: 0,
            image,
        }
    }
}
