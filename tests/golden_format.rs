//! Golden-vector conformance: the on-medium format is *frozen*.
//!
//! The paper's whole thesis is that the archived bytes must stay readable
//! for decades, so no refactor — parallelisation included — may ever change
//! what lands on the medium. This suite archives a checked-in TPC-H
//! micro-dump (`tests/fixtures/micro_dump.sql`) and asserts, against
//! checked-in golden values:
//!
//! * the exact `ULEA` container bytes (`tests/fixtures/micro_dump.ulea`);
//! * CRC-32s of every emblem print-master stream, per `Medium` preset;
//! * emblem image and frame dimensions, per `Medium` preset;
//! * the data/parity emblem counts of the stream plan;
//! * CRC-32s of fault-injected scans under each medium's canonical
//!   `FaultPlan` (seeded damage is replayable, so E9 campaigns are too);
//! * one CRC-32 over the native decoder's results on `test_tiny` fault
//!   rungs, so its cell decisions are pinned too;
//! * one CRC-32 over `encode_emblem` + `Medium::print` output at
//!   `cell_px` 2, 3 and 5, so the renderer is pinned in the default run,
//!   and the same CRC over `Medium::render`, the in-place path;
//! * CRC-32s of `MicrOlonys::archive`'s data and system frames on a
//!   multi-group stream, in the default run.
//!
//! If a change is *meant* to alter the format (a new header version, say),
//! regenerate with `ULE_REGEN_GOLDEN=1 cargo test --test golden_format`
//! and justify the diff in review. Any other golden mismatch is a format
//! regression.
//!
//! **Runtime knob:** encoding and fault-scanning the three *production*
//! media (A4 paper is ~33 MP per emblem) takes about 13 s on a 2-core
//! x86-64 VM, so by default this suite pins only the cheap observables
//! (geometry, plan counts, the full tiny-medium pipeline, the scanner on
//! a small synthetic master) and skips the production-media
//! stream/fault CRCs; the comparison is key-based, so skipped keys are
//! simply not checked. Set `ULE_GOLDEN_FULL=1` to compute and compare
//! every golden line (CI's `e11-kernels` leg does; regeneration always
//! runs full so the checked-in file never loses lines).

use std::fmt::Write as _;
use std::path::PathBuf;
use ule::compress::Scheme;
use ule::emblem::stream::stream_crc32;
use ule::emblem::{encode_stream_traced, EmblemKind};
use ule::gf256::crc::crc32;
use ule::media::Medium;
use ule::obs::Telemetry;
use ule::olonys::MicrOlonys;
use ule::par::ThreadConfig;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn micro_dump() -> Vec<u8> {
    let path = fixture_path("micro_dump.sql");
    if !path.exists() && std::env::var("ULE_REGEN_GOLDEN").is_ok() {
        // First-time bootstrap only: freeze a TPC-H micro-dump as the
        // conformance input. Once checked in, the file is the reference —
        // regeneration never overwrites it, so later generator changes
        // cannot silently move the goalposts.
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, ule::tpch::dump_for_scale(0.00002, 7)).unwrap();
    }
    std::fs::read(path).expect("checked-in micro dump")
}

/// The media presets whose on-medium format is pinned.
fn media_presets() -> Vec<Medium> {
    vec![
        Medium::paper_a4_600dpi(),
        Medium::microfilm_16mm(),
        Medium::cinema_35mm(),
        Medium::test_tiny(),
    ]
}

fn slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Whether the expensive production-media sweep is on (see module docs).
fn full_sweep() -> bool {
    std::env::var("ULE_GOLDEN_FULL").is_ok_and(|v| v != "0")
        || std::env::var("ULE_REGEN_GOLDEN").is_ok()
}

/// Compute golden observables as `key = value` lines — every line when
/// `full` is set, only the cheap ones otherwise. The thread config is
/// taken from `ULE_TEST_THREADS` (CI runs this serial and at 4 threads),
/// which must not change a single line — byte-identity of the parallel
/// engine is part of what these vectors freeze.
fn compute_observables(full: bool) -> String {
    let threads = ThreadConfig::from_env_or(ThreadConfig::Serial);
    let dump = micro_dump();
    let archive = ule::compress::compress(Scheme::Lzss, &dump);
    let mut out = String::new();
    writeln!(out, "dump_len = {}", dump.len()).unwrap();
    writeln!(out, "dump_crc32 = {:08x}", crc32(&dump)).unwrap();
    writeln!(out, "ulea_len = {}", archive.len()).unwrap();
    writeln!(out, "ulea_crc32 = {:08x}", crc32(&archive)).unwrap();

    for medium in media_presets() {
        let key = slug(medium.name);
        let geom = medium.geometry;
        writeln!(
            out,
            "{key}.frame = {}x{}",
            medium.frame_width, medium.frame_height
        )
        .unwrap();
        writeln!(
            out,
            "{key}.emblem = {}x{}",
            geom.image_width(),
            geom.image_height()
        )
        .unwrap();
        writeln!(out, "{key}.payload_capacity = {}", geom.payload_capacity()).unwrap();
        let plan = ule::emblem::stream::plan(&geom, archive.len(), true);
        writeln!(
            out,
            "{key}.emblems = {}+{}",
            plan.data_emblems, plan.parity_emblems
        )
        .unwrap();
        // Everything below renders full-size frames; on the production
        // media that is the whole cost of this suite (skipped unless the
        // full sweep is on; the tiny medium is always pinned).
        if !full && medium.name != "test medium" {
            continue;
        }
        let images = encode_stream_traced(
            &geom,
            EmblemKind::Data,
            &archive,
            true,
            threads,
            &Telemetry::off(),
        );
        writeln!(out, "{key}.stream_crc32 = {:08x}", stream_crc32(&images)).unwrap();

        // Fault-injected scans under the medium's canonical decay scenario
        // at severity 0.5: seeded fault injection is part of the frozen
        // surface, so a drifting damage pattern — which would move every
        // recorded E9 envelope — fails conformance here first. Frame
        // counts are the minimum at which *every* model in the plan
        // engages at this severity (reorder needs >= 2 survivors of the
        // plan's earlier drops: floor(0.5*8)=4 dropped leaves 4, then
        // floor(0.5*4)=2 reordered); plans without reorder pin on 2
        // scans to keep the big-frame media cheap.
        let plan = medium.canonical_fault_plan();
        let label = plan.label();
        let n = match (label.contains("reorder"), label.contains("loss")) {
            (true, true) => 8,
            (true, false) => 4,
            _ => 2,
        };
        let frames = medium.print_all_with(&images[..n.min(images.len())], threads);
        let faulted = medium.scan_with_faults(&frames, 2033, &plan, 0.5, threads);
        writeln!(out, "{key}.fault_plan = {}", plan.label()).unwrap();
        writeln!(out, "{key}.fault_scans = {}", faulted.len()).unwrap();
        writeln!(
            out,
            "{key}.fault_scan_crc32 = {:08x}",
            stream_crc32(&faulted)
        )
        .unwrap();
    }

    // Full pipeline on the tiny medium: printed frames (data + system) and
    // the Bootstrap text, i.e. everything a restorer would be handed.
    let sys = MicrOlonys::test_tiny().with_threads(threads);
    let arch = sys.archive(&dump);
    writeln!(out, "tiny.data_frames = {}", arch.data_frames.len()).unwrap();
    writeln!(out, "tiny.system_frames = {}", arch.system_frames.len()).unwrap();
    writeln!(
        out,
        "tiny.data_frames_crc32 = {:08x}",
        stream_crc32(&arch.data_frames)
    )
    .unwrap();
    writeln!(
        out,
        "tiny.system_frames_crc32 = {:08x}",
        stream_crc32(&arch.system_frames)
    )
    .unwrap();
    writeln!(
        out,
        "tiny.bootstrap_crc32 = {:08x}",
        crc32(arch.bootstrap.to_text().as_bytes())
    )
    .unwrap();
    out
}

#[test]
fn ulea_container_bytes_are_frozen() {
    let archive = ule::compress::compress(Scheme::Lzss, &micro_dump());
    let golden_path = fixture_path("micro_dump.ulea");
    if std::env::var("ULE_REGEN_GOLDEN").is_ok() {
        std::fs::write(&golden_path, &archive).expect("write golden container");
        return;
    }
    let golden = std::fs::read(&golden_path).expect("checked-in golden container");
    assert_eq!(
        archive.len(),
        golden.len(),
        "ULEA container length drifted (format regression)"
    );
    if archive != golden {
        let first = archive
            .iter()
            .zip(&golden)
            .position(|(a, b)| a != b)
            .unwrap();
        panic!("ULEA container bytes drifted, first difference at offset {first}");
    }
    // The container must still decode to the exact dump, of course.
    assert_eq!(ule::compress::decompress(&archive).unwrap(), micro_dump());
}

#[test]
fn emblem_streams_and_frame_geometry_are_frozen() {
    let full = full_sweep();
    let actual = compute_observables(full);
    let golden_path = fixture_path("golden_format.txt");
    if std::env::var("ULE_REGEN_GOLDEN").is_ok() {
        // Regeneration always computes the full sweep (full_sweep() is
        // true whenever ULE_REGEN_GOLDEN is set), so the checked-in file
        // keeps every line even when regenerated from a default run.
        std::fs::write(&golden_path, &actual).expect("write golden observables");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).expect("checked-in golden observables");
    // Key-based comparison: every computed observable must match its
    // golden line (a failure names the drifted key), and every golden
    // key must be computed when the full sweep is on. In the default
    // (cheap) mode the production-media CRC keys are simply not
    // computed, hence not checked — see the module docs.
    let golden_map: std::collections::HashMap<&str, &str> = golden
        .lines()
        .filter_map(|l| l.split_once(" = "))
        .map(|(k, v)| (k.trim(), v.trim()))
        .collect();
    let mut checked = 0usize;
    for line in actual.lines() {
        let (k, v) = line
            .split_once(" = ")
            .expect("observable lines are key = value");
        let g = golden_map
            .get(k.trim())
            .unwrap_or_else(|| panic!("observable {k:?} missing from golden file"));
        assert_eq!(
            v.trim(),
            *g,
            "golden observable {k:?} drifted (format regression)"
        );
        checked += 1;
    }
    if full {
        assert_eq!(
            checked,
            golden_map.len(),
            "full sweep must cover every golden line"
        );
    }
}

/// The scanner simulation is part of the frozen surface too: every
/// `*.fault_scan_crc32` line above, the E9 envelopes and the benchmark's
/// input fingerprints are functions of its output bytes. Those are only
/// checked under the full sweep, so this pins `Scanner::scan` itself on a
/// small synthetic master in the default run — every `Medium` preset
/// (scan scales 1.0, 1.28 and 2.0, plus the pristine identity path), two
/// hand-made parameter sets with every effect on, and a noise-free 2x
/// upscale.
#[test]
fn scanner_output_is_frozen() {
    use ule::raster::{DegradeParams, GrayImage, Scanner};

    // A dark ring around the centre and a checkerboard in one corner, on
    // white; odd dimensions so the scaled output sizes round.
    let (w, h) = (241usize, 187usize);
    let mut master = GrayImage::new(w, h, 255);
    let (cx, cy) = (w as f64 / 2.0, h as f64 / 2.0);
    for y in 0..h {
        for x in 0..w {
            let r = ((x as f64 - cx).powi(2) + (y as f64 - cy).powi(2)).sqrt();
            if (40.0..52.0).contains(&r) || (x < 64 && y < 64 && (x / 8 + y / 8) % 2 == 0) {
                master.set(x, y, 0);
            }
        }
    }
    let every_effect = DegradeParams {
        noise_sigma: 12.0,
        dust_per_mpx: 400.0,
        dust_max_radius: 2.0,
        scratches: 2,
        scratch_width: 1.5,
        fade_amplitude: 20.0,
        hotspots: 2,
        hotspot_amplitude: 40.0,
        row_jitter: 1.5,
        lens_k: 0.02,
        scan_scale: 1.28,
    };
    // Barrel distortion maps the output corner several pixels outside the
    // master, so the sampler's clamped edge path is exercised.
    let out_cx = (w as f64 * every_effect.scan_scale).round() / 2.0;
    let corner_src_x = (out_cx - out_cx * (1.0 + every_effect.lens_k)) / every_effect.scan_scale;
    assert!(corner_src_x < -2.0, "{corner_src_x}");
    // The same effects on the identity geometry (no lens, jitter or scale).
    let flat_geometry = DegradeParams {
        row_jitter: 0.0,
        lens_k: 0.0,
        scan_scale: 1.0,
        ..every_effect.clone()
    };
    // A noise-free 2x upscale: half-way taps between black and white land
    // on exactly 127.5, which pins the round-half-away-from-zero rule.
    let upscale = DegradeParams {
        scan_scale: 2.0,
        ..DegradeParams::default()
    };

    let mut scans: Vec<(String, GrayImage)> = [
        Medium::paper_a4_600dpi(),
        Medium::microfilm_16mm(),
        Medium::cinema_35mm(),
        Medium::test_tiny(),
        Medium::test_micro(),
    ]
    .iter()
    .map(|m| (slug(m.name), m.scan(&master, 0x5CA1)))
    .collect();
    scans.push((
        "every_effect".into(),
        Scanner::new(every_effect, 77).scan(&master),
    ));
    scans.push((
        "flat_geometry".into(),
        Scanner::new(flat_geometry, 78).scan(&master),
    ));
    scans.push(("upscale_2x".into(), Scanner::new(upscale, 79).scan(&master)));
    let actual: Vec<String> = scans
        .iter()
        .map(|(k, s)| {
            format!(
                "{k} {}x{} {:08x}",
                s.width(),
                s.height(),
                crc32(s.as_bytes())
            )
        })
        .collect();
    let golden = [
        "A4_paper__600dpi 241x187 47f24c67",
        "16mm_microfilm 308x239 f789cbe3",
        "35mm_cinema_film 482x374 77ab6f2a",
        "test_medium 241x187 ef4d92bc",
        "micro_test_medium 241x187 5c992b4d",
        "every_effect 308x239 2bda9db6",
        "flat_geometry 241x187 2c9a2ffc",
        "upscale_2x 482x374 359dff6c",
    ];
    assert_eq!(actual, golden);
}

/// The native decoder's cell decisions are frozen too: the golden sweep
/// above pins only what lands on the medium, so a resampler that read a
/// different pixel block or rounded a cell centre differently could pass
/// it. This decodes one `test_tiny` frame, pristine and under four fault
/// rungs (the last past the decoder's budget), and pins one CRC-32 over
/// every outcome: header bytes ‖ payload ‖ `DecodeStats`, or the error.
#[test]
fn decoder_output_is_frozen() {
    use ule::emblem::{decode_emblem, encode_emblem, EmblemHeader};
    use ule::fault::{Blotch, BurstScratch, ContrastFade, FaultPlan, Orientation, SaltPepper};

    let medium = Medium::test_tiny();
    let geom = medium.geometry;
    let payload: Vec<u8> = (0..geom.payload_capacity())
        .map(|i| (i as u8).wrapping_mul(73).wrapping_add(29))
        .collect();
    let header = EmblemHeader::new(
        EmblemKind::Data,
        5,
        2,
        payload.len() as u32,
        payload.len() as u32,
    );
    let frame = medium.print(&encode_emblem(&geom, &header, &payload));
    let scan = medium.scan(&frame, 0xDEC0);
    let scratch_v = BurstScratch {
        orientation: Orientation::Vertical,
    };
    let rungs: [(&str, FaultPlan, f64); 5] = [
        ("pristine", FaultPlan::new(), 0.0),
        ("salt-pepper", FaultPlan::single(SaltPepper), 0.02),
        ("blotch", FaultPlan::single(Blotch), 0.01),
        ("fade", FaultPlan::single(ContrastFade), 0.6),
        ("scratch-v", FaultPlan::single(scratch_v), 0.12),
    ];
    let mut bytes = Vec::new();
    let mut outcomes = Vec::new();
    for (i, (name, plan, severity)) in rungs.iter().enumerate() {
        let damaged = plan.apply(std::slice::from_ref(&scan), *severity, 0xD0 + i as u64);
        match decode_emblem(&geom, &damaged[0]) {
            Ok((h, p, s)) => {
                bytes.extend_from_slice(&h.to_bytes());
                bytes.extend_from_slice(&p);
                for v in [s.rs_corrected, s.header_copy_used, s.sync_errors] {
                    bytes.extend_from_slice(&(v as u64).to_le_bytes());
                }
                bytes.extend_from_slice(&s.calibration_match_pm.to_le_bytes());
                outcomes.push(format!("{name} ok {s:?}"));
            }
            Err(e) => {
                bytes.extend_from_slice(format!("{e:?}").as_bytes());
                outcomes.push(format!("{name} {e:?}"));
            }
        }
    }
    assert!(
        outcomes[..4].iter().all(|o| o.contains(" ok")),
        "{outcomes:?}"
    );
    assert!(!outcomes[4].contains(" ok"), "{outcomes:?}");
    assert_eq!(format!("{:08x}", crc32(&bytes)), "f9355d50", "{outcomes:?}");
}

/// The stream layout pinned where the sweep above cannot reach: a
/// multi-group data stream (38 chunks: outer groups of 17, 17 and 4)
/// sharded onto a vault shelf with `RS(5, 3)` cross-reel parity. One
/// CRC-32 covers every reel's frames in shelf order, one the Bootstrap
/// text, and one the header bytes `ReelLayout` derives for every content
/// position and every parity-reel frame — so a layout change made alike
/// in encoder and decoder, which every round-trip test would pass,
/// fails here.
#[test]
fn vault_shelf_is_frozen() {
    use ule::vault::{ShardPlan, Vault};

    let threads = ThreadConfig::from_env_or(ThreadConfig::Serial);
    let vault = Vault::sharded(
        MicrOlonys::test_tiny().with_threads(threads),
        ShardPlan::with_parity(12, 3, 2),
    );
    let arc = vault.archive(&ule::tpch::dump_for_scale(0.0001, 77));
    let layout = arc.layout;
    assert_eq!(
        (
            layout.data_frames(),
            layout.content_reels(),
            layout.parity_reels()
        ),
        (47, 5, 4)
    );
    let frames: Vec<_> = arc
        .reels
        .iter()
        .flat_map(|r| r.frames.iter())
        .cloned()
        .collect();
    let mut headers = Vec::new();
    for pos in 0..layout.total_frames() {
        headers.extend_from_slice(&layout.frame_info(pos).header.to_bytes());
    }
    for g in 0..layout.groups() {
        for j in 0..layout.parity_reel_frames(g) {
            headers.extend_from_slice(&layout.parity_frame_header(g, j).to_bytes());
        }
    }
    let actual = [
        format!("reels {:08x}", stream_crc32(&frames)),
        format!(
            "bootstrap {:08x}",
            crc32(arc.bootstrap.to_text().as_bytes())
        ),
        format!("headers {:08x}", crc32(&headers)),
    ];
    assert_eq!(
        actual,
        ["reels 00182318", "bootstrap 2a962e2b", "headers 54aa40e6"]
    );
}

/// The renderer's printed bytes, pinned in the default run: the full
/// sweep above is the only other place a production-size print master is
/// checked. One CRC-32 covers `encode_emblem` plus `Medium::print` at
/// `cell_px` 2, 3 and 5 (micro, small and a one-block 5-pixel geometry),
/// each with a full-capacity payload, centred on a frame with odd
/// margins so the blit offset is not cell-aligned. The archivers' path,
/// `Medium::render` painting in place, must give the very same CRC.
#[test]
fn encoder_output_is_frozen() {
    use std::borrow::Cow;
    use ule::emblem::{encode_emblem, EmblemGeometry, EmblemHeader};

    let (mut printed_bytes, mut rendered_bytes) = (Vec::new(), Vec::new());
    for (i, geom) in [
        EmblemGeometry::test_micro(),
        EmblemGeometry::test_small(),
        EmblemGeometry::new(256, 24, 5),
    ]
    .into_iter()
    .enumerate()
    {
        let payload: Vec<u8> = (0..geom.payload_capacity())
            .map(|j| (j as u8).wrapping_mul(151).wrapping_add(i as u8 * 17 + 3))
            .collect();
        let header = EmblemHeader::new(
            EmblemKind::Data,
            i as u16,
            1,
            payload.len() as u32,
            payload.len() as u32 * 3,
        );
        let medium = Medium {
            geometry: geom,
            frame_width: geom.image_width() + 61,
            frame_height: geom.image_height() + 41,
            ..Medium::test_tiny()
        };
        let printed = medium.print(&encode_emblem(&geom, &header, &payload));
        let emission = (header, Cow::Borrowed(&payload[..]));
        let [rendered] = &medium.render(&[emission], ThreadConfig::Serial)[..] else {
            panic!("one emission renders one frame");
        };
        for (bytes, frame) in [
            (&mut printed_bytes, &printed),
            (&mut rendered_bytes, rendered),
        ] {
            bytes.extend_from_slice(&(frame.width() as u64).to_le_bytes());
            bytes.extend_from_slice(&(frame.height() as u64).to_le_bytes());
            bytes.extend_from_slice(frame.as_bytes());
        }
    }
    for bytes in [printed_bytes, rendered_bytes] {
        assert_eq!(format!("{:08x}", crc32(&bytes)), "4dcb7c03");
    }
}

/// The archiver's printed frames, pinned in the default run on a stream
/// the fixture dump cannot reach: a multi-group data stream (outer
/// groups of 17 and 14 chunks) plus the system stream, as
/// `MicrOlonys::archive` lays them onto `test_tiny` frames. One CRC-32
/// per stream covers every frame in emission order.
#[test]
fn archive_frames_are_frozen() {
    let threads = ThreadConfig::from_env_or(ThreadConfig::Serial);
    let arch = MicrOlonys::test_tiny()
        .with_threads(threads)
        .archive(&ule::tpch::dump_for_scale(0.0001, 77));
    let actual = [
        format!(
            "data {} {:08x}",
            arch.data_frames.len(),
            stream_crc32(&arch.data_frames)
        ),
        format!(
            "system {} {:08x}",
            arch.system_frames.len(),
            stream_crc32(&arch.system_frames)
        ),
    ];
    assert_eq!(actual, ["data 37 f91cd2b5", "system 4 447ebe00"]);
}
