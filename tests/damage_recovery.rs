//! Cross-crate damage experiments: the §3.1 protection claims exercised
//! through the full public API (gf256 → emblem → media).
//!
//! The damage matrix sweeps all three production `Medium` presets ×
//! {random byte errors, known erasures, mixed errors-and-erasures} up to
//! the paper's 7.2% intra-emblem boundary, asserting bit-exact recovery
//! below the boundary and a *clean* `RsError::TooManyErrors` /
//! `DecodeError::RsFailure` (never a panic, never silent garbage) above.

use ule::emblem::geometry::{RS_K, RS_N};
use ule::emblem::{
    decode_emblem, decode_stream, encode_stream, inner_decode_with, inner_encode, EmblemGeometry,
    EmblemKind, ThreadConfig,
};
use ule::gf256::RsError;
use ule::media::Medium;
use ule::raster::{DegradeParams, Scanner};

fn payload(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(97).wrapping_add(seed))
        .collect()
}

/// Deterministic "random" positions: k distinct indices in `0..n`.
fn positions(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut state = seed | 1;
    let mut picked = Vec::with_capacity(k);
    while picked.len() < k {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let p = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n;
        if !picked.contains(&p) {
            picked.push(p);
        }
    }
    picked
}

/// The three §4 production media (frozen formats the matrix protects).
fn production_media() -> Vec<Medium> {
    vec![
        Medium::paper_a4_600dpi(),
        Medium::microfilm_16mm(),
        Medium::cinema_35mm(),
    ]
}

/// How one codeword is damaged in the matrix.
#[derive(Clone, Copy, Debug)]
enum Damage {
    /// `e` byte errors at unknown positions (budget: e ≤ t = 16).
    Errors(usize),
    /// `r` byte erasures at known positions (budget: r ≤ 2t = 32).
    Erasures(usize),
    /// `e` unknown errors plus `r` known erasures (budget: 2e + r ≤ 32).
    Mixed(usize, usize),
}

impl Damage {
    fn within_budget(self) -> bool {
        match self {
            Damage::Errors(e) => e <= (RS_N - RS_K) / 2,
            Damage::Erasures(r) => r <= RS_N - RS_K,
            Damage::Mixed(e, r) => 2 * e + r <= RS_N - RS_K,
        }
    }

    /// Corrupt `cw` in place; returns the erasure list to hand the decoder.
    fn apply(self, cw: &mut [u8], seed: u64) -> Vec<usize> {
        match self {
            Damage::Errors(e) => {
                for (i, p) in positions(cw.len(), e, seed).into_iter().enumerate() {
                    cw[p] ^= 0x21 + (i as u8) * 3;
                }
                Vec::new()
            }
            Damage::Erasures(r) => {
                let pos = positions(cw.len(), r, seed.wrapping_add(1));
                for &p in &pos {
                    cw[p] = 0xEE;
                }
                pos
            }
            Damage::Mixed(e, r) => {
                let all = positions(cw.len(), e + r, seed.wrapping_add(2));
                for (i, &p) in all[..e].iter().enumerate() {
                    cw[p] ^= 0x40 | (i as u8) | 1;
                }
                for &p in &all[e..] {
                    cw[p] = 0;
                }
                all[e..].to_vec()
            }
        }
    }
}

#[test]
fn damage_matrix_across_media_and_damage_kinds() {
    // The §3.1 boundary, swept as fractions of user data per inner block:
    // 16/223 = 7.17% ≈ the paper's 7.2%. Every case below the budget must
    // restore bit-exact; every case above must fail *cleanly* with
    // RsError::TooManyErrors — a panic or silently wrong bytes would be a
    // protection regression.
    let cases = [
        // random byte errors: 1.8%, 3.6%, 5.4%, 7.17% of user data, then +1
        Damage::Errors(4),
        Damage::Errors(8),
        Damage::Errors(12),
        Damage::Errors(16),
        Damage::Errors(17),
        Damage::Errors(24),
        // known erasures: up to 2t = 32, then past it
        Damage::Erasures(8),
        Damage::Erasures(16),
        Damage::Erasures(32),
        Damage::Erasures(33),
        Damage::Erasures(48),
        // mixed: 2e + r against the 32-byte budget
        Damage::Mixed(4, 8),
        Damage::Mixed(10, 12),
        Damage::Mixed(16, 0),
        Damage::Mixed(12, 12),
        Damage::Mixed(16, 8),
    ];
    for (mi, medium) in production_media().into_iter().enumerate() {
        let geom = medium.geometry;
        let rs = geom.inner_code();
        let msg = payload(RS_K, 31 + mi as u8);
        let clean = rs.encode(&msg);
        for (ci, &case) in cases.iter().enumerate() {
            let seed = (mi as u64) << 16 | ci as u64;
            let mut cw = clean.clone();
            let erasures = case.apply(&mut cw, seed);
            let result = rs.decode(&mut cw, &erasures);
            if case.within_budget() {
                let fixed = result.unwrap_or_else(|e| {
                    panic!("{}: {case:?} within budget but failed: {e}", medium.name)
                });
                assert_eq!(&cw[..RS_K], &msg[..], "{}: {case:?}", medium.name);
                assert!(fixed <= RS_N - RS_K);
            } else {
                assert_eq!(
                    result.unwrap_err(),
                    RsError::TooManyErrors,
                    "{}: {case:?} beyond budget must fail cleanly",
                    medium.name
                );
            }
        }
    }
}

#[test]
fn whole_emblem_damage_boundary_per_medium() {
    // Same boundary exercised through the emblem layer: damage every inner
    // block of a full interleaved emblem stream and run the (threaded)
    // block decoder. The interleave means byte `i` of block `b` sits at
    // `i * nblocks + b`, so per-block damage lands at stride `nblocks`.
    let threads = ThreadConfig::from_env_or(ThreadConfig::Serial);
    for (mi, medium) in production_media().into_iter().enumerate() {
        let geom = medium.geometry;
        let nblocks = geom.rs_blocks();
        let data = payload(geom.payload_capacity(), 7 + mi as u8);
        let coded = inner_encode(&geom, &data);

        // 16 errors in every block: the exact boundary, must recover.
        let mut damaged = coded.clone();
        for b in 0..nblocks {
            for (i, p) in positions(RS_N, 16, 77 + b as u64).into_iter().enumerate() {
                damaged[p * nblocks + b] ^= 0x5B + i as u8;
            }
        }
        let (restored, fixed) = inner_decode_with(&geom, &damaged, threads)
            .unwrap_or_else(|e| panic!("{}: boundary damage must decode: {e:?}", medium.name));
        assert_eq!(&restored[..data.len()], &data[..], "{}", medium.name);
        assert_eq!(fixed, 16 * nblocks, "{}", medium.name);

        // 17 errors in block 0: one past the boundary, must fail cleanly
        // naming the block (other blocks stay decodable).
        let mut damaged = coded.clone();
        for (i, p) in positions(RS_N, 17, 99).into_iter().enumerate() {
            damaged[p * nblocks] ^= 0x11 + i as u8;
        }
        match inner_decode_with(&geom, &damaged, threads) {
            Err(ule::emblem::DecodeError::RsFailure { block: 0 }) => {}
            other => panic!(
                "{}: expected RsFailure in block 0, got {other:?}",
                medium.name
            ),
        }
    }
}

#[test]
fn heavy_but_correctable_degradation() {
    let geom = EmblemGeometry::test_small();
    let data = payload(geom.payload_capacity(), 1);
    let images = encode_stream(&geom, EmblemKind::Data, &data, false);
    let params = DegradeParams {
        noise_sigma: 35.0,
        dust_per_mpx: 25.0,
        dust_max_radius: 2.5,
        fade_amplitude: 30.0,
        row_jitter: 0.8,
        lens_k: 0.002,
        scratches: 1,
        scratch_width: 1.0,
        ..Default::default()
    };
    let scans: Vec<_> = images
        .iter()
        .enumerate()
        .map(|(i, im)| Scanner::new(params.clone(), i as u64).scan(im))
        .collect();
    let (restored, stats) = decode_stream(&geom, &scans).expect("decode");
    assert_eq!(restored, data);
    assert!(stats.rs_corrected > 0);
}

#[test]
fn correction_capacity_boundary_bytes() {
    // Exactly t=16 corrupted bytes per inner block must decode; 17 must not.
    use ule::gf256::RsCode;
    let rs = RsCode::new(255, 223);
    let msg = payload(223, 9);
    let mut cw = rs.encode(&msg);
    for i in 0..16 {
        cw[i * 15] ^= 0xA5;
    }
    assert_eq!(rs.decode(&mut cw, &[]).unwrap(), 16);
    assert_eq!(&cw[..223], &msg[..]);

    let mut cw = rs.encode(&msg);
    for i in 0..17 {
        cw[i * 14] ^= 0xA5;
    }
    assert!(rs.decode(&mut cw, &[]).is_err());
}

#[test]
fn whole_group_loss_patterns() {
    // Any 3-subset pattern of losses in a 20-emblem group restores.
    let geom = EmblemGeometry::test_small();
    let data = payload(geom.payload_capacity() * 17, 4);
    let images = encode_stream(&geom, EmblemKind::Data, &data, true);
    assert_eq!(images.len(), 20);
    for lost in [[0usize, 1, 2], [17, 18, 19], [0, 9, 19], [5, 6, 18]] {
        let kept: Vec<_> = images
            .iter()
            .enumerate()
            .filter(|(i, _)| !lost.contains(i))
            .map(|(_, im)| im.clone())
            .collect();
        let (restored, _) =
            decode_stream(&geom, &kept).unwrap_or_else(|e| panic!("lost {lost:?}: {e}"));
        assert_eq!(restored, data, "lost {lost:?}");
    }
}

#[test]
fn single_emblem_headers_survive_damage_to_one_copy() {
    // Blank the first header row: copies 2/3 must carry it.
    use ule::emblem::geometry::{EDGE_CELLS, QUIET_CELLS};
    let geom = EmblemGeometry::test_small();
    let data = payload(300, 7);
    let images = encode_stream(&geom, EmblemKind::Data, &data, false);
    let mut img = images[0].clone();
    let cp = geom.cell_px;
    let origin = (QUIET_CELLS + EDGE_CELLS) * cp;
    for y in origin + cp..origin + 2 * cp {
        for x in origin..origin + geom.cols * cp {
            img.set(x, y, 255); // erase header copy 1 (row 1)
        }
    }
    let (h, p, stats) = decode_emblem(&geom, &img).expect("decode");
    assert_eq!(p, data);
    assert_eq!(h.payload_len as usize, data.len());
    assert!(
        stats.header_copy_used >= 1,
        "should have fallen back past copy 0"
    );
}
