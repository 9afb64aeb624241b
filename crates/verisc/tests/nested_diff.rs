//! Differential tests: the DynaRisc-emulator-in-VeRisc must reproduce the
//! native DynaRisc VM exactly — same register file, same pointer
//! registers, same data memory — for the same guest binary and inputs.
//! This equivalence is what lets Micr'Olonys promise that a future user's
//! 4-instruction interpreter restores archives bit-for-bit.

use ule_dynarisc::{Asm, Vm};
use ule_verisc::vm::EngineKind;
use ule_verisc::NestedEmulator;

/// Run a guest program on both paths and compare full final state.
fn differential(program: Vec<u16>, mem: Vec<u8>, dyn_steps: u64) {
    // Native path.
    let mut native = Vm::new(program.clone(), mem.clone());
    native.run(dyn_steps).expect("native run");
    // Nested path (each host engine).
    for kind in EngineKind::ALL {
        let mut nested = NestedEmulator::new(&program, &mem);
        // Generous host budget: ~4000 VeRisc instructions per guest step.
        nested
            .run(kind, dyn_steps.saturating_mul(4000).max(1_000_000))
            .expect("nested run");
        assert_eq!(
            nested.guest_regs(),
            native.regs,
            "regs mismatch on {kind:?}"
        );
        assert_eq!(
            nested.guest_ptrs(),
            native.ptrs,
            "ptrs mismatch on {kind:?}"
        );
        assert_eq!(nested.dyn_mem(), native.mem, "memory mismatch on {kind:?}");
    }
}

#[test]
fn arithmetic_and_flags() {
    let mut a = Asm::new();
    a.ldi(0, 0xFFFF);
    a.addi(0, 1); // wraps, sets C+Z
    a.adci(1, 0); // R1 = carry
    a.ldi(2, 100);
    a.subi(2, 101); // borrow
    a.sbbi(3, 0); // R3 -= borrow -> 0xFFFF
    a.ldi(4, 1234);
    a.ldi(5, 5678);
    a.mul(4, 5);
    a.ldi(6, 1234);
    a.mul_hi(6, 5);
    a.ret();
    differential(a.finish(), vec![0u8; 16], 100);
}

#[test]
fn logic_and_shifts() {
    let mut a = Asm::new();
    a.ldi(0, 0b1010_1010_1100_0011);
    a.ldi(1, 0b0110_0110_0110_0110);
    a.ldi(2, 0);
    a.move_r(2, 0);
    a.and(2, 1);
    a.ldi(3, 0);
    a.move_r(3, 0);
    a.or(3, 1);
    a.ldi(4, 0);
    a.move_r(4, 0);
    a.xor(4, 1);
    a.ldi(5, 0x8001);
    a.lsl_i(5, 3);
    a.ldi(6, 0x8001);
    a.lsr_i(6, 3);
    a.ldi(7, 0x8001);
    a.asr_i(7, 3);
    a.ldi(8, 0x8001);
    a.ror_i(8, 3);
    a.ldi(9, 5);
    a.ldi(10, 0xF0F0);
    a.lsr(10, 9); // register-count shift
    a.ret();
    differential(a.finish(), vec![0u8; 16], 100);
}

#[test]
fn memory_and_pointers() {
    let mut a = Asm::new();
    a.ldi_d(0, 4); // src
    a.ldi_d(1, 40); // dst
                    // copy 8 bytes with post-increment
    a.ldi(1, 8);
    let top = a.here();
    a.ldm_byte_inc(2, 0);
    a.stm_byte_inc(2, 1);
    a.subi(1, 1);
    a.jnz(top);
    // word access + pointer moves
    a.ldi_d(2, 40);
    a.ldm_word(3, 2);
    a.ldi(4, 0xBEEF);
    a.ldi_d(3, 50);
    a.stm_word(4, 3);
    a.move_r_dlo(5, 3);
    a.move_r_dhi(6, 3);
    a.ldi(7, 0x0001);
    a.ldi(8, 0x2345);
    a.move_d_pair(4, 7); // D4 = 0x0001_2345
    a.add_d_r(4, 8); // D4 += 0x2345
    a.subi_d(4, 0x45);
    a.ret();
    let mut mem = vec![0u8; 64];
    for (i, b) in mem.iter_mut().enumerate().take(16) {
        *b = (i * 13 + 7) as u8;
    }
    differential(a.finish(), mem, 200);
}

#[test]
fn calls_loops_and_branches() {
    let mut a = Asm::new();
    let sub = a.label();
    a.ldi(0, 0); // acc
    a.ldi(1, 12); // n
    let top = a.here();
    a.call(sub);
    a.subi(1, 1);
    a.jnz(top);
    a.ret();
    a.bind(sub);
    a.add(0, 1); // acc += n
    a.ret();
    differential(a.finish(), vec![0u8; 8], 500);
}

#[test]
fn dbdecode_runs_identically_under_nested_emulation() {
    use ule_compress::{compress, Scheme};
    use ule_dynarisc::layout;
    use ule_dynarisc::programs::dbdecode;

    let data = b"select * from lineitem; select * from orders; select * from lineitem;";
    let archive = compress(Scheme::Lzss, data);
    let (mem, out_base) = layout::build_memory(&archive, data.len(), &[]);
    let program = dbdecode::program();

    // Native reference.
    let mut native = Vm::new(program.clone(), mem.clone());
    native.run(10_000_000).unwrap();
    let native_out = layout::try_read_output(&native.mem, out_base).unwrap();
    assert_eq!(native_out, data);

    // Nested (one engine is enough here; the cross-engine agreement is
    // covered above and this test is the expensive one).
    let mut nested = NestedEmulator::new(&program, &mem);
    nested.run(EngineKind::MatchBased, 2_000_000_000).unwrap();
    let nested_mem = nested.dyn_mem();
    let nested_out = layout::try_read_output(&nested_mem, out_base).unwrap();
    assert_eq!(nested_out, data, "nested emulation decoded different bytes");
    assert_eq!(nested_mem, native.mem, "full guest memory differs");
}

#[test]
fn post_increment_word_stores_regression() {
    // Regression: STM.W Rx,[Dd]+ keeps the guest address live across the
    // emulator's shr8 subroutine; an early version clobbered the shared
    // scratch cell and corrupted the post-incremented pointer.
    let mut a = Asm::new();
    a.ldi_d(3, 0x14);
    a.ldi(4, 0x00A0); // value with a non-trivial high-byte split
    a.ldi(5, 0xBEEF);
    a.stm_word_inc(4, 3);
    a.stm_word_inc(5, 3);
    a.ldm_word(6, 3); // read back at the post-incremented address
    a.ret();
    differential(a.finish(), vec![0u8; 64], 100);
}

#[test]
fn ldm_word_postinc_differential() {
    let mut a = Asm::new();
    a.ldi_d(0, 8);
    a.ldm_word_inc(1, 0);
    a.ldm_word_inc(2, 0);
    a.ret();
    let mut mem = vec![0u8; 32];
    mem[8..12].copy_from_slice(&[0x11, 0x22, 0x33, 0x44]);
    differential(a.finish(), mem, 50);
}
