//! The machine-speed probe that the end-to-end figures are scaled by.
//!
//! On a shared virtual machine the whole machine runs slower or faster
//! for tens of seconds at a time (neighbours contending for the cores'
//! caches and memory), and every operation of a run moves with it by up
//! to a third. Lower-decile estimators inside a run cannot remove a phase
//! that lasts the whole run. So each run also times this fixed probe,
//! code of the benchmark's own, after every timed operation, and reports
//! its timings scaled to [`REFERENCE_MS`]: a figure is what the run would
//! have measured on a machine where the probe takes that long. A change
//! to the program moves the scaled figures exactly as it moves the raw
//! ones, since the probe does not call the program; the raw figures are
//! printed too.

use crate::timed;

/// Lower-decile wall time of [`probe_ms`] on the machine the benchmark was
/// tuned on (2-vCPU Intel Xeon virtual machine), in ms.
pub const REFERENCE_MS: f64 = 6.5;

/// Pixels of the probe's image: 2 MiB, image-sized work like the
/// program's, allocated afresh so page faults are part of it.
const PIXELS: usize = 1 << 21;

/// Run the probe once: fill a fresh image with xorshift noise, take its
/// histogram and a 1-2-1 blur into a second fresh image. Returns its wall
/// time in ms.
pub fn probe_ms() -> f64 {
    timed(|| {
        let mut img = vec![0u8; PIXELS];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for p in img.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *p = (x >> 56) as u8;
        }
        let mut hist = [0u32; 256];
        for &p in &img {
            hist[usize::from(p)] += 1;
        }
        let mut out = vec![0u8; PIXELS];
        for (o, w) in out[1..].iter_mut().zip(img.windows(3)) {
            *o = ((u16::from(w[0]) + 2 * u16::from(w[1]) + u16::from(w[2])) / 4) as u8;
        }
        (hist, out)
    })
    .1
}
