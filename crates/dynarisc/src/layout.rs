//! Host ↔ program memory calling convention.
//!
//! DynaRisc has no I/O instructions; the host and the program exchange data
//! through fixed memory addresses, exactly as the Bootstrap document
//! instructs a future restorer to do ("convert the images into a linear
//! flat array of pixel intensities", then hand them to the emulated
//! decoders).
//!
//! ```text
//! 0x00 .. 0x10   reserved scratch
//! 0x10           input length  (u32 LE, host-written)
//! 0x14           output length (u32 LE, program-written)
//! 0x18           output base   (u32 LE, host-written)
//! 0x1C .. 0x40   program parameters (u16 LE words, host-written)
//! 0x40 ..        input data
//! out_base ..    output data
//! ```

use crate::vm::VmError;

/// Address of the input length (u32 LE).
pub const IN_LEN_ADDR: u32 = 0x10;
/// Address of the output length (u32 LE), written by the program.
pub const OUT_LEN_ADDR: u32 = 0x14;
/// Address of the output base pointer (u32 LE), chosen by the host.
pub const OUT_BASE_ADDR: u32 = 0x18;
/// First program parameter word (u16 LE each).
pub const PARAM_BASE: u32 = 0x1C;
/// Start of input data.
pub const IN_BASE: u32 = 0x40;

/// Compute a comfortable memory size and output base for given input and
/// expected output sizes (16-byte aligned output base).
pub fn plan_memory(input_len: usize, max_output_len: usize) -> (usize, u32) {
    let out_base = (IN_BASE as usize + input_len + 15) & !15;
    let size = out_base + max_output_len + 64;
    (size, out_base as u32)
}

/// Write host-side inputs into a fresh memory image.
pub fn build_memory(input: &[u8], max_output_len: usize, params: &[u16]) -> (Vec<u8>, u32) {
    let (size, out_base) = plan_memory(input.len(), max_output_len);
    let mut mem = vec![0u8; size];
    mem[IN_LEN_ADDR as usize..IN_LEN_ADDR as usize + 4]
        .copy_from_slice(&(input.len() as u32).to_le_bytes());
    mem[OUT_BASE_ADDR as usize..OUT_BASE_ADDR as usize + 4]
        .copy_from_slice(&out_base.to_le_bytes());
    for (i, &p) in params.iter().enumerate() {
        let at = PARAM_BASE as usize + i * 2;
        mem[at..at + 2].copy_from_slice(&p.to_le_bytes());
    }
    mem[IN_BASE as usize..IN_BASE as usize + input.len()].copy_from_slice(input);
    (mem, out_base)
}

/// Read the program's output back out of memory: the bytes at `out_base`,
/// as many as the length word the program wrote at [`OUT_LEN_ADDR`]. The
/// word is guest-written, so an output that reaches past `mem` is a
/// [`VmError::MemFault`], not a host panic.
pub fn try_read_output(mem: &[u8], out_base: u32) -> Result<Vec<u8>, VmError> {
    let at = OUT_LEN_ADDR as usize;
    let word = mem.get(at..at + 4).ok_or(VmError::MemFault {
        addr: OUT_LEN_ADDR,
        len: 4,
    })?;
    let len = u32::from_le_bytes(word.try_into().unwrap());
    let base = out_base as usize;
    base.checked_add(len as usize)
        .and_then(|end| mem.get(base..end))
        .map(<[u8]>::to_vec)
        .ok_or(VmError::MemFault {
            addr: out_base,
            len,
        })
}

/// [`try_read_output`] for output known to fit; panics where it would
/// err. The benchmark package still calls this form.
pub fn read_output(mem: &[u8], out_base: u32) -> Vec<u8> {
    try_read_output(mem, out_base).expect("program output reaches past memory")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_layout_places_fields() {
        let (mem, out_base) = build_memory(b"hello", 100, &[7, 9]);
        assert_eq!(&mem[IN_BASE as usize..IN_BASE as usize + 5], b"hello");
        assert_eq!(u32::from_le_bytes(mem[0x10..0x14].try_into().unwrap()), 5);
        assert_eq!(
            u32::from_le_bytes(mem[0x18..0x1C].try_into().unwrap()),
            out_base
        );
        assert_eq!(u16::from_le_bytes(mem[0x1C..0x1E].try_into().unwrap()), 7);
        assert_eq!(u16::from_le_bytes(mem[0x1E..0x20].try_into().unwrap()), 9);
        assert_eq!(out_base % 16, 0);
    }

    #[test]
    fn output_roundtrip() {
        let (mut mem, out_base) = build_memory(b"x", 16, &[]);
        mem[out_base as usize..out_base as usize + 3].copy_from_slice(b"abc");
        mem[OUT_LEN_ADDR as usize..OUT_LEN_ADDR as usize + 4].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(try_read_output(&mem, out_base).unwrap(), b"abc");
        // The length word is guest-written: past memory is a fault.
        let room = (mem.len() - out_base as usize) as u32;
        for len in [room + 1, u32::MAX] {
            mem[OUT_LEN_ADDR as usize..OUT_LEN_ADDR as usize + 4]
                .copy_from_slice(&len.to_le_bytes());
            let fault = VmError::MemFault {
                addr: out_base,
                len,
            };
            assert_eq!(try_read_output(&mem, out_base), Err(fault));
        }
        assert!(try_read_output(&[0; 8], 0).is_err(), "no length word");
    }
}
