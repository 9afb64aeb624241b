//! Byte-oriented run-length encoding — the naive baseline the report
//! (`[E6]`) compares richer schemes against.
//!
//! Format: repeated `(count: u8, byte: u8)` pairs for runs of 2 or more,
//! and `(0, literal_count: u8, literals...)` packets for non-repeating
//! stretches (count 0 is the literal escape; literal_count >= 1).

/// Compress with RLE.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 4 + 8);
    let mut i = 0usize;
    let mut lit_start = 0usize;
    let flush_literals = |out: &mut Vec<u8>, lits: &[u8]| {
        for chunk in lits.chunks(255) {
            out.push(0);
            out.push(chunk.len() as u8);
            out.extend_from_slice(chunk);
        }
    };
    while i < input.len() {
        let b = input[i];
        let mut run = 1usize;
        while i + run < input.len() && input[i + run] == b && run < 255 {
            run += 1;
        }
        if run >= 3 {
            flush_literals(&mut out, &input[lit_start..i]);
            out.push(run as u8);
            out.push(b);
            i += run;
            lit_start = i;
        } else {
            i += run;
        }
    }
    flush_literals(&mut out, &input[lit_start..]);
    out
}

/// Errors from [`decompress`].
#[derive(Debug, PartialEq, Eq)]
pub enum RleError {
    Truncated,
}

impl std::fmt::Display for RleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rle stream truncated")
    }
}

impl std::error::Error for RleError {}

/// Decompress an RLE stream; `expected_len` bounds the output.
pub fn decompress(stream: &[u8], expected_len: usize) -> Result<Vec<u8>, RleError> {
    let mut out = Vec::with_capacity(expected_len.min(crate::MAX_PREALLOC));
    let mut i = 0usize;
    while out.len() < expected_len {
        let count = *stream.get(i).ok_or(RleError::Truncated)?;
        i += 1;
        if count == 0 {
            let n = *stream.get(i).ok_or(RleError::Truncated)? as usize;
            i += 1;
            if i + n > stream.len() {
                return Err(RleError::Truncated);
            }
            out.extend_from_slice(&stream[i..i + n]);
            i += n;
        } else {
            let b = *stream.get(i).ok_or(RleError::Truncated)?;
            i += 1;
            out.extend(std::iter::repeat(b).take(count as usize));
        }
    }
    out.truncate(expected_len);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn empty() {
        roundtrip(b"");
    }

    #[test]
    fn all_literals() {
        roundtrip(b"abcdefg");
    }

    #[test]
    fn long_run() {
        let data = vec![7u8; 1000];
        let c = compress(&data);
        assert!(c.len() <= 10);
        roundtrip(&data);
    }

    #[test]
    fn mixed_runs_and_literals() {
        let mut data = Vec::new();
        data.extend_from_slice(b"ab");
        data.extend(std::iter::repeat(b'x').take(50));
        data.extend_from_slice(b"yz");
        data.extend(std::iter::repeat(0u8).take(300));
        roundtrip(&data);
    }

    #[test]
    fn two_byte_runs_stay_literal() {
        // Runs of 2 are cheaper as literals; just verify correctness.
        roundtrip(b"aabbccddee");
    }

    #[test]
    fn truncated_detected() {
        let c = compress(&vec![9u8; 100]);
        assert_eq!(decompress(&c[..1], 100).unwrap_err(), RleError::Truncated);
    }
}
