//! MSB-first bit streams used by the emblem payload path and tests.

/// Writes bits most-significant-first into a byte vector.
#[derive(Default)]
pub struct BitWriter {
    out: Vec<u8>,
    cur: u8,
    nbits: u8,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a single bit.
    #[inline]
    pub fn put_bit(&mut self, bit: bool) {
        self.cur = (self.cur << 1) | bit as u8;
        self.nbits += 1;
        if self.nbits == 8 {
            self.out.push(self.cur);
            self.cur = 0;
            self.nbits = 0;
        }
    }

    /// Append the low `n` bits of `v`, most significant of those first.
    pub fn put_bits(&mut self, v: u32, n: u8) {
        assert!(n <= 32);
        for i in (0..n).rev() {
            self.put_bit((v >> i) & 1 != 0);
        }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.out.len() * 8 + self.nbits as usize
    }

    /// Pad the final partial byte with zeros and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.cur <<= 8 - self.nbits;
            self.out.push(self.cur);
        }
        self.out
    }
}

/// Reads bits most-significant-first from a byte slice.
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Next bit, or `None` past the end.
    #[inline]
    pub fn get_bit(&mut self) -> Option<bool> {
        let byte = *self.data.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1 != 0;
        self.pos += 1;
        Some(bit)
    }

    /// Next `n` bits as an integer (MSB-first), or `None` if exhausted.
    pub fn get_bits(&mut self, n: u8) -> Option<u32> {
        assert!(n <= 32);
        let mut v = 0u32;
        for _ in 0..n {
            v = (v << 1) | self.get_bit()? as u32;
        }
        Some(v)
    }

    /// Remaining whole bits.
    pub fn remaining(&self) -> usize {
        self.data.len() * 8 - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_bits() {
        let mut w = BitWriter::new();
        let pattern = [
            true, false, true, true, false, false, true, false, true, true,
        ];
        for &b in &pattern {
            w.put_bit(b);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.get_bit(), Some(b));
        }
    }

    #[test]
    fn roundtrip_multi_bit_values() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        w.put_bits(0xBEEF, 16);
        w.put_bits(1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(3), Some(0b101));
        assert_eq!(r.get_bits(16), Some(0xBEEF));
        assert_eq!(r.get_bits(1), Some(1));
    }

    #[test]
    fn bit_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        w.put_bits(0, 11);
        assert_eq!(w.bit_len(), 11);
        assert_eq!(w.finish().len(), 2);
    }

    #[test]
    fn reader_stops_at_end() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.get_bits(8), Some(0xFF));
        assert_eq!(r.get_bit(), None);
        assert_eq!(r.get_bits(4), None);
    }

    #[test]
    fn msb_first_byte_layout() {
        let mut w = BitWriter::new();
        w.put_bit(true); // becomes bit 7
        let bytes = w.finish();
        assert_eq!(bytes, vec![0x80]);
    }
}
