//! Property-based tests for the Reed–Solomon codec: for any message and any
//! error/erasure pattern within capacity, decoding restores the message.

use proptest::prelude::*;
use ule_gf256::rs::RsError;
use ule_gf256::RsCode;

fn inject_errors(cw: &mut [u8], positions: &[usize], xor: u8) {
    for &p in positions {
        cw[p] ^= xor;
    }
}

/// SplitMix64 step: the test's own byte source, so one `seed` drives
/// every stream length, byte, erasure and error choice.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-column reference `RsCode::recover` must agree with: one
/// `decode` per byte column, erased positions as erasures, absent bytes
/// read as zero.
fn recover_oracle(
    rs: &RsCode,
    streams: &[Option<Vec<u8>>],
    len: usize,
) -> Result<(Vec<Vec<u8>>, usize), RsError> {
    let erased: Vec<usize> = (0..streams.len())
        .filter(|&i| streams[i].is_none())
        .collect();
    let mut solved = vec![Vec::new(); erased.len()];
    let mut corrected = 0;
    for j in 0..len {
        let mut col: Vec<u8> = streams
            .iter()
            .map(|s| s.as_ref().and_then(|s| s.get(j).copied()).unwrap_or(0))
            .collect();
        corrected += rs.decode(&mut col, &erased)?;
        for (out, &e) in solved.iter_mut().zip(&erased) {
            out.push(col[e]);
        }
    }
    Ok((solved, corrected))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rs255_223_corrects_random_errors(
        msg in proptest::collection::vec(any::<u8>(), 223),
        err_pos in proptest::collection::hash_set(0usize..255, 0..=16),
        xor in 1u8..=255,
    ) {
        let rs = RsCode::new(255, 223);
        let mut cw = rs.encode(&msg);
        let positions: Vec<usize> = err_pos.into_iter().collect();
        inject_errors(&mut cw, &positions, xor);
        let fixed = rs.decode(&mut cw, &[]).unwrap();
        prop_assert_eq!(fixed, positions.len());
        prop_assert_eq!(&cw[..223], &msg[..]);
    }

    #[test]
    fn rs255_223_corrects_random_erasures(
        msg in proptest::collection::vec(any::<u8>(), 223),
        era in proptest::collection::hash_set(0usize..255, 0..=32),
    ) {
        let rs = RsCode::new(255, 223);
        let mut cw = rs.encode(&msg);
        let erasures: Vec<usize> = era.into_iter().collect();
        for &e in &erasures {
            cw[e] = cw[e].wrapping_add(101);
        }
        rs.decode(&mut cw, &erasures).unwrap();
        prop_assert_eq!(&cw[..223], &msg[..]);
    }

    #[test]
    fn rs20_17_any_three_erasures(
        msg in proptest::collection::vec(any::<u8>(), 17),
        era in proptest::collection::hash_set(0usize..20, 0..=3),
        fill in any::<u8>(),
    ) {
        let rs = RsCode::new(20, 17);
        let mut cw = rs.encode(&msg);
        let erasures: Vec<usize> = era.into_iter().collect();
        for &e in &erasures {
            cw[e] = fill;
        }
        rs.decode(&mut cw, &erasures).unwrap();
        prop_assert_eq!(&cw[..17], &msg[..]);
    }

    #[test]
    fn mixed_budget_honored(
        msg in proptest::collection::vec(any::<u8>(), 100),
        seed in any::<u64>(),
    ) {
        // RS(140,100): 40 parity. Use e erasures + v errors with 2v+e <= 40.
        let rs = RsCode::new(140, 100);
        let mut cw = rs.encode(&msg);
        let e = (seed % 20) as usize;          // 0..19 erasures
        let v = ((40 - e) / 2).min(10);        // errors within budget
        let mut erasures = Vec::new();
        for i in 0..e {
            let p = (seed as usize + i * 13) % 140;
            if !erasures.contains(&p) {
                erasures.push(p);
            }
        }
        for &p in &erasures {
            cw[p] = !cw[p];
        }
        let mut injected = 0;
        let mut p = (seed as usize).wrapping_mul(7) % 140;
        while injected < v {
            if !erasures.contains(&p) {
                cw[p] ^= 0x3C;
                injected += 1;
            }
            p = (p + 11) % 140;
        }
        rs.decode(&mut cw, &erasures).unwrap();
        prop_assert_eq!(&cw[..100], &msg[..]);
    }

    #[test]
    fn encode_is_systematic(msg in proptest::collection::vec(any::<u8>(), 50)) {
        let rs = RsCode::new(80, 50);
        let cw = rs.encode(&msg);
        prop_assert_eq!(&cw[..50], &msg[..]);
        prop_assert!(rs.is_clean(&cw));
    }

    #[test]
    fn parity_of_multi_column_survives_any_m_erased_columns(
        k in 2usize..=5,
        m in 1usize..=3,
        len in 1usize..=48,
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        // The vault's RS(k+m, k) reel groups (DESIGN.md §16): `parity_of`
        // hands back m parity streams over k data streams in one
        // column-batched pass, and erasing ANY m of the k+m columns must
        // reconstruct every stream byte-identically through a column-wise
        // erasure decode. This is exactly the multi-parity math
        // `Vault::archive` encodes with and `reconstruct_group_frames`
        // decodes with.
        let n = k + m;
        let streams: Vec<Vec<u8>> = (0..k)
            .map(|s| {
                (0..len)
                    .map(|i| {
                        (seed >> ((i + s) % 8)) as u8 ^ (i as u8).wrapping_mul(37 + s as u8)
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let rs = RsCode::new(n, k);
        let parity = rs.parity_of(&refs);
        prop_assert_eq!(parity.len(), m);
        for p in &parity {
            prop_assert_eq!(p.len(), len);
        }

        // Erase m distinct columns chosen from `pick`, anywhere in the
        // codeword (data and parity positions alike).
        let mut erased: Vec<usize> = Vec::new();
        let mut c = pick as usize;
        while erased.len() < m {
            let cand = c % n;
            if !erased.contains(&cand) {
                erased.push(cand);
            }
            c = c / n + 1 + c % 7;
        }

        // Column-wise erasure decode over the surviving streams.
        let column = |col: usize, i: usize| -> u8 {
            if col < k { streams[col][i] } else { parity[col - k][i] }
        };
        for i in 0..len {
            let mut cw: Vec<u8> = (0..n)
                .map(|col| if erased.contains(&col) { 0 } else { column(col, i) })
                .collect();
            rs.decode(&mut cw, &erased).unwrap();
            for col in 0..n {
                prop_assert_eq!(cw[col], column(col, i), "column {} byte {}", col, i);
            }
        }
    }

}

proptest! {
    // Cheap cases (<= 20 streams of <= 24 bytes): enough of them to
    // visit every (k, m) shape.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn recover_is_exact(
        k in 1usize..=17,
        m in 1usize..=3,
        len in 0usize..=24,
        seed in any::<u64>(),
    ) {
        // `recover` is the decode half of `parity_of` for both stream
        // codes (the outer RS(k+3, k) groups and the vault's RS(k+m, k)
        // reel groups): any <= m erased streams come back exactly, short
        // present streams read zero-padded, every byte and count equals
        // the per-column `decode` oracle (a stray error in a present
        // stream included), and more than m erasures is an error.
        let n = k + m;
        let rs = RsCode::new(n, k);
        let mut rng = seed;
        let msgs: Vec<Vec<u8>> = (0..k)
            .map(|_| {
                let l = next(&mut rng) as usize % (len + 1);
                (0..l).map(|_| next(&mut rng) as u8).collect()
            })
            .collect();
        let padded: Vec<Vec<u8>> = msgs
            .iter()
            .map(|s| {
                let mut p = s.clone();
                p.resize(len, 0);
                p
            })
            .collect();
        let refs: Vec<&[u8]> = padded.iter().map(Vec::as_slice).collect();
        let parity = rs.parity_of(&refs);
        let originals: Vec<&Vec<u8>> = padded.iter().chain(&parity).collect();

        // Erase 0..=m+1 distinct streams, anywhere in the codeword.
        let e = next(&mut rng) as usize % (m + 2);
        let mut erased: Vec<usize> = Vec::new();
        while erased.len() < e.min(n) {
            let i = next(&mut rng) as usize % n;
            if !erased.contains(&i) {
                erased.push(i);
            }
        }
        erased.sort_unstable();
        let mut streams: Vec<Option<Vec<u8>>> =
            msgs.iter().chain(&parity).cloned().map(Some).collect();
        for &i in &erased {
            streams[i] = None;
        }
        let mut injected = false;
        if erased.len() < m && len > 0 && next(&mut rng) % 2 == 0 {
            let present: Vec<usize> = (0..n).filter(|i| !erased.contains(i)).collect();
            let i = present[next(&mut rng) as usize % present.len()];
            let j = next(&mut rng) as usize % len;
            let s = streams[i].as_mut().unwrap();
            s.resize(s.len().max(len), 0);
            s[j] ^= 1 + (next(&mut rng) % 255) as u8;
            injected = true;
        }

        let views: Vec<Option<&[u8]>> = streams.iter().map(Option::as_deref).collect();
        let got = rs.recover(&views, len);
        if erased.len() > m {
            prop_assert_eq!(got, Err(RsError::TooManyErrors));
            return;
        }
        prop_assert_eq!(&got, &recover_oracle(&rs, &streams, len));
        if !injected || 2 + erased.len() <= m {
            let (solved, _) = got.unwrap();
            prop_assert_eq!(solved.len(), erased.len());
            for (s, &i) in solved.iter().zip(&erased) {
                prop_assert_eq!(s, originals[i], "stream {}", i);
            }
        }
    }
}
