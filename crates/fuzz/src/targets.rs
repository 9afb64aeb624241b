//! One [`FuzzTarget`] adapter per untrusted-input parser in the workspace.
//!
//! Each target wraps its parser exactly the way trusted call sites do:
//! VM runs carry a fuel budget, raw codec streams carry the caller-derived
//! `expected_len` cap, images are sized to the geometry. Only the *bytes*
//! are hostile; the harness never hands a parser an unbounded resource.

use crate::runner::FuzzTarget;
use ule_compress::container::Scheme;
use ule_dynarisc::{ThreadedImage, Vm, VmError};
use ule_emblem::stream::{vote_stream_len, Decoded, StreamPlan};
use ule_emblem::{DecodeStats, EmblemGeometry, EmblemHeader, EmblemKind};
use ule_obs::Telemetry;
use ule_raster::image::GrayImage;
use ule_raster::rng::SplitMix64;
use ule_verisc::{Engine, EngineKind};

/// Deterministic compressible sample data (repeated dictionary words), the
/// structurally-valid substrate every codec corpus starts from.
fn sample_text(len: usize) -> Vec<u8> {
    const WORDS: [&str; 6] = [
        "layout",
        "emulation",
        "archive",
        "reel",
        "emblem",
        "0123456789",
    ];
    let mut rng = SplitMix64::new(0xC0FF_EE00);
    let mut out = Vec::with_capacity(len + 16);
    while out.len() < len {
        out.extend_from_slice(WORDS[rng.next_below(WORDS.len())].as_bytes());
        out.push(b' ');
    }
    out.truncate(len);
    out
}

/// Cap on `expected_len` handed to the raw codec decoders — mirrors the
/// container layer, which derives it from a validated header field and
/// clamps preallocation.
const CODEC_EXPECTED_LEN: usize = 1 << 12;

/// Fuel budget for VM targets: enough to run real corpus programs to
/// completion, small enough that a mutant cannot stall the campaign.
const VM_FUEL: u64 = 4096;

// ---------------------------------------------------------------------------
// ule_compress
// ---------------------------------------------------------------------------

/// The `ULEA` container: `inspect` + `decompress` on arbitrary bytes.
struct UleaContainer;

impl FuzzTarget for UleaContainer {
    fn name(&self) -> &'static str {
        "ulea-container"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        let data = sample_text(2048);
        [
            Scheme::Store,
            Scheme::Rle,
            Scheme::Lzss,
            Scheme::Lza,
            Scheme::ColumnarSql,
        ]
        .iter()
        .map(|&s| ule_compress::compress(s, &data))
        .collect()
    }
    fn magic(&self) -> Option<&'static [u8]> {
        Some(b"ULEA")
    }
    fn suggested_iterations(&self) -> u64 {
        12_000
    }
    fn run(&self, input: &[u8]) {
        let _ = ule_compress::container::inspect(input);
        let _ = ule_compress::decompress(input);
    }
}

/// Raw LZA stream decode below the container (caller-supplied length cap).
struct LzaStream;

impl FuzzTarget for LzaStream {
    fn name(&self) -> &'static str {
        "lza-stream"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        vec![ule_compress::lza::compress(&sample_text(
            CODEC_EXPECTED_LEN,
        ))]
    }
    fn suggested_iterations(&self) -> u64 {
        6_000
    }
    fn run(&self, input: &[u8]) {
        let _ = ule_compress::lza::decompress(input, CODEC_EXPECTED_LEN);
    }
}

/// Raw LZSS stream decode.
struct LzssStream;

impl FuzzTarget for LzssStream {
    fn name(&self) -> &'static str {
        "lzss-stream"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        vec![ule_compress::lzss::compress(&sample_text(
            CODEC_EXPECTED_LEN,
        ))]
    }
    fn suggested_iterations(&self) -> u64 {
        10_000
    }
    fn run(&self, input: &[u8]) {
        let _ = ule_compress::lzss::decompress(input, CODEC_EXPECTED_LEN);
    }
}

/// Raw RLE stream decode.
struct RleStream;

impl FuzzTarget for RleStream {
    fn name(&self) -> &'static str {
        "rle-stream"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        vec![ule_compress::rle::compress(&sample_text(
            CODEC_EXPECTED_LEN,
        ))]
    }
    fn suggested_iterations(&self) -> u64 {
        12_000
    }
    fn run(&self, input: &[u8]) {
        let _ = ule_compress::rle::decompress(input, CODEC_EXPECTED_LEN);
    }
}

/// The adaptive arithmetic decoder primitive: a bounded bit-pull loop plus
/// the `overrun` accounting the higher layers rely on.
struct ArithStream;

impl FuzzTarget for ArithStream {
    fn name(&self) -> &'static str {
        "arith-stream"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        let mut enc = ule_compress::arith::Encoder::new();
        let mut model = ule_compress::arith::BitModel::default();
        for (i, b) in sample_text(512).iter().enumerate() {
            enc.encode_bit(&mut model, b & 1 == 1);
            if i % 7 == 0 {
                enc.encode_direct(*b as u32, 8);
            }
        }
        vec![enc.finish()]
    }
    fn suggested_iterations(&self) -> u64 {
        8_000
    }
    fn run(&self, input: &[u8]) {
        let mut dec = ule_compress::arith::Decoder::new(input);
        let mut model = ule_compress::arith::BitModel::default();
        for i in 0..2048u32 {
            let _ = dec.decode_bit(&mut model);
            if i % 7 == 0 {
                let _ = dec.decode_direct(8);
            }
        }
        let _ = dec.overrun();
    }
}

// ---------------------------------------------------------------------------
// ule_emblem
// ---------------------------------------------------------------------------

/// The 16-byte emblem frame header.
struct EmblemHeaderBytes;

impl FuzzTarget for EmblemHeaderBytes {
    fn name(&self) -> &'static str {
        "emblem-header"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        vec![
            EmblemHeader::new(EmblemKind::Data, 3, 1, 100, 1000)
                .to_bytes()
                .to_vec(),
            EmblemHeader::new(EmblemKind::Parity, 0, 0, 64, 64)
                .to_bytes()
                .to_vec(),
        ]
    }
    fn suggested_iterations(&self) -> u64 {
        25_000
    }
    fn run(&self, input: &[u8]) {
        let _ = EmblemHeader::from_bytes(input);
    }
}

/// Manchester cell decode on arbitrary-length cell slices (a scanner that
/// loses a half-period hands the decoder an odd run).
struct ManchesterCells;

impl FuzzTarget for ManchesterCells {
    fn name(&self) -> &'static str {
        "manchester-cells"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        vec![sample_text(256)]
    }
    fn suggested_iterations(&self) -> u64 {
        8_000
    }
    fn run(&self, input: &[u8]) {
        let cells = ule_emblem::manchester::bytes_to_bits(input);
        // Clip to an input-chosen length so odd (torn) cell runs are
        // exercised, not just the byte-aligned even case.
        let cut = input.first().map(|b| *b as usize % 3).unwrap_or(0);
        let cells = &cells[..cells.len().saturating_sub(cut)];
        let start = input.last().map(|b| b & 1 == 1).unwrap_or(false);
        let dec = ule_emblem::manchester::decode_cells(cells, start);
        let _ = ule_emblem::manchester::bits_to_bytes(&dec.bits);
    }
}

fn fuzz_geometry() -> EmblemGeometry {
    EmblemGeometry::test_small()
}

fn frame_pixels(geom: &EmblemGeometry) -> (usize, usize) {
    (geom.image_width(), geom.image_height())
}

/// Deterministic valid frames for the image-level targets.
fn encoded_frames(geom: &EmblemGeometry, n: usize) -> Vec<GrayImage> {
    let cap = geom.payload_capacity();
    (0..n)
        .map(|i| {
            let payload = sample_text(cap);
            let header =
                EmblemHeader::new(EmblemKind::Data, i as u16, 0, cap as u32, (cap * n) as u32);
            ule_emblem::encode_emblem(geom, &header, &payload)
        })
        .collect()
}

fn pixels_of(geom: &EmblemGeometry, img: &GrayImage) -> Vec<u8> {
    let (w, h) = frame_pixels(geom);
    let mut px = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            px.push(img.get(x, y));
        }
    }
    px
}

/// Whole-frame decode: mutated pixel rasters through `decode_emblem`.
struct EmblemFrame;

impl FuzzTarget for EmblemFrame {
    fn name(&self) -> &'static str {
        "emblem-frame"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        let geom = fuzz_geometry();
        encoded_frames(&geom, 2)
            .iter()
            .map(|f| pixels_of(&geom, f))
            .collect()
    }
    fn suggested_iterations(&self) -> u64 {
        400
    }
    fn run(&self, input: &[u8]) {
        let geom = fuzz_geometry();
        let (w, h) = frame_pixels(&geom);
        let mut px = input.to_vec();
        px.resize(w * h, 0);
        let img = GrayImage::from_raw(w, h, px);
        let _ = ule_emblem::decode_emblem(&geom, &img);
    }
}

/// Multi-frame stream reassembly: mutants of a full encoded stream.
struct EmblemStream;

impl FuzzTarget for EmblemStream {
    fn name(&self) -> &'static str {
        "emblem-stream"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        let geom = fuzz_geometry();
        let frames = encoded_frames(&geom, 3);
        let mut all = Vec::new();
        for f in &frames {
            all.extend(pixels_of(&geom, f));
        }
        vec![all]
    }
    fn suggested_iterations(&self) -> u64 {
        200
    }
    fn run(&self, input: &[u8]) {
        let geom = fuzz_geometry();
        let (w, h) = frame_pixels(&geom);
        let frame_len = w * h;
        let frames: Vec<GrayImage> = input
            .chunks(frame_len)
            .take(4)
            .map(|c| {
                let mut px = c.to_vec();
                px.resize(frame_len, 0);
                GrayImage::from_raw(w, h, px)
            })
            .collect();
        if frames.is_empty() {
            return;
        }
        let _ = ule_emblem::decode_stream(&geom, &frames);
    }
}

/// The stream-length vote, placement and outer recovery over forged
/// decoded frames, no pixels. Byte 0 picks the chunk capacity (1..=64),
/// byte 1's low bit the outer code; then one frame per 11-byte record:
/// kind (low 3 bits) and a payload shortfall (high 5 bits), then index,
/// group and payload length (`u16` each) and stream length (`u32`), all
/// little-endian. The payload is the length the header promises, less
/// the shortfall.
struct StreamPlace;

impl StreamPlace {
    /// Records decoded per input, at most.
    const MAX_FRAMES: usize = 96;
    const RECORD: usize = 11;

    fn frames(records: &[u8]) -> Vec<Decoded> {
        use EmblemKind::*;
        records
            .chunks_exact(Self::RECORD)
            .take(Self::MAX_FRAMES)
            .map(|r| {
                let word = |i: usize| u16::from_le_bytes([r[i], r[i + 1]]);
                let kind = [Data, System, Parity, Index, ReelParity][usize::from(r[0] & 7) % 5];
                let total_len = u32::from_le_bytes([r[7], r[8], r[9], r[10]]);
                let header = EmblemHeader::new(kind, word(1), word(3), word(5).into(), total_len);
                let len = usize::from(word(5)).saturating_sub(usize::from(r[0] >> 3));
                (header, vec![r[1]; len.min(256)], DecodeStats::default())
            })
            .collect()
    }
}

impl FuzzTarget for StreamPlace {
    fn name(&self) -> &'static str {
        "stream-place"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        // Whole streams as the encoder stamps them: one dense, one of two
        // outer groups with a short tail chunk.
        [(false, 7usize, 40usize), (true, 5, 117)]
            .into_iter()
            .map(|(parity, cap, len)| {
                let plan = StreamPlan::new(len, cap, parity);
                let mut input = vec![cap as u8 - 1, u8::from(parity)];
                for e in 0..plan.total_emblems() {
                    let h = plan.header(EmblemKind::Data, e);
                    input.push(h.kind as u8);
                    input.extend(h.index.to_le_bytes());
                    input.extend(h.group.to_le_bytes());
                    input.extend((h.payload_len as u16).to_le_bytes());
                    input.extend(h.total_len.to_le_bytes());
                }
                input
            })
            .collect()
    }
    fn suggested_iterations(&self) -> u64 {
        20_000
    }
    fn run(&self, input: &[u8]) {
        let [cap, flags, records @ ..] = input else {
            return;
        };
        let frames = Self::frames(records);
        let Some(len) = vote_stream_len(frames.iter().map(|(h, _, _)| h)) else {
            return;
        };
        let cap = usize::from(cap % 64) + 1;
        let Some(plan) = StreamPlan::checked(len as usize, cap, flags & 1 == 1) else {
            return;
        };
        let placed = plan.place(frames);
        let complete = placed.missing_data().is_empty();
        match placed.recover(&Telemetry::off()) {
            Ok((bytes, _)) => assert_eq!(
                bytes.len(),
                len as usize,
                "assembled stream is not the voted length"
            ),
            Err(e) => assert!(!complete, "every data slot placed, yet {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// ule_vault
// ---------------------------------------------------------------------------

/// The vault content-index text format.
struct CatalogIndex;

impl FuzzTarget for CatalogIndex {
    fn name(&self) -> &'static str {
        "catalog-index"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        let index = ule_vault::catalog::ContentIndex {
            chunk_cap: 512,
            entries: vec![
                ule_vault::catalog::IndexEntry {
                    name: "customer".into(),
                    archive_start: 0,
                    archive_len: 64,
                    dump_start: 0,
                    dump_len: 123,
                    crc32: 0xDEAD_BEEF,
                    zone_columns: Vec::new(),
                    zones: Vec::new(),
                },
                ule_vault::catalog::IndexEntry {
                    name: "orders".into(),
                    archive_start: 64,
                    archive_len: 100,
                    dump_start: 123,
                    dump_len: 456,
                    crc32: 0x0BAD_F00D,
                    zone_columns: vec!["o_orderdate".into()],
                    zones: vec![
                        ule_vault::catalog::ZoneInfo {
                            archive_len: 40,
                            dump_len: 200,
                            rows: 0,
                            stats: Vec::new(),
                        },
                        ule_vault::catalog::ZoneInfo {
                            archive_len: 60,
                            dump_len: 256,
                            rows: 7,
                            stats: vec![("1994-01-01".into(), "1995-06-30".into())],
                        },
                    ],
                },
            ],
        };
        vec![index.to_bytes()]
    }
    fn magic(&self) -> Option<&'static [u8]> {
        Some(b"ULE VAULT INDEX 1")
    }
    fn suggested_iterations(&self) -> u64 {
        8_000
    }
    fn run(&self, input: &[u8]) {
        // Parsing must never panic; on success the planner arithmetic
        // fed by the parsed numbers (chunk spans, zone-span walks) must
        // not panic either — that is exactly the surface a hostile
        // catalog reaches during a selective restore.
        if let Ok(index) = ule_vault::catalog::ContentIndex::parse(input) {
            for entry in &index.entries {
                let _ = index.chunk_range(entry);
                let _ = index.chunk_span(entry.archive_start, entry.archive_len);
                let _ = entry.zone_spans();
            }
        }
    }
}

/// The length-prefixed record framing of the vault data stream.
struct VaultRecords;

impl FuzzTarget for VaultRecords {
    fn name(&self) -> &'static str {
        "vault-records"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        let mut stream = Vec::new();
        for (scheme, len) in [(Scheme::Store, 300), (Scheme::Lzss, 900)] {
            let container = ule_compress::compress(scheme, &sample_text(len));
            stream.extend((container.len() as u32).to_le_bytes());
            stream.extend(container);
        }
        vec![stream]
    }
    fn suggested_iterations(&self) -> u64 {
        8_000
    }
    fn run(&self, input: &[u8]) {
        if let Ok(records) = ule_vault::split_records(input) {
            for record in records {
                let _ = ule_compress::decompress(record);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// micr_olonys
// ---------------------------------------------------------------------------

/// The human-readable Bootstrap document.
struct BootstrapDoc;

impl FuzzTarget for BootstrapDoc {
    fn name(&self) -> &'static str {
        "bootstrap-doc"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        let text = micr_olonys::MicrOlonys::test_tiny()
            .make_bootstrap()
            .to_text();
        vec![text.into_bytes()]
    }
    fn suggested_iterations(&self) -> u64 {
        5_000
    }
    fn run(&self, input: &[u8]) {
        let text = String::from_utf8_lossy(input);
        let _ = micr_olonys::Bootstrap::parse(&text);
    }
}

// ---------------------------------------------------------------------------
// ule_dynarisc
// ---------------------------------------------------------------------------

const DYNARISC_SAMPLE: &str = r#"
    ; sum 1..=10, then touch memory and pointer modes
    LDI R0, #0
    LDI R1, #10
    LDI D1, #0x00000040
top:
    ADD R0, R1
    SUB R1, #1
    JNZ top
    STM R0, [D1]+
    LDM.W R2, [D1]
    MOVE D2, R0:R1
    MOVE R4, D2.LO
    RET
"#;

/// The text assembler on mutated (possibly non-UTF-8) source.
struct DynaRiscAsm;

impl FuzzTarget for DynaRiscAsm {
    fn name(&self) -> &'static str {
        "dynarisc-asm"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        vec![DYNARISC_SAMPLE.as_bytes().to_vec()]
    }
    fn suggested_iterations(&self) -> u64 {
        5_000
    }
    fn run(&self, input: &[u8]) {
        let src = String::from_utf8_lossy(input);
        let _ = ule_dynarisc::text_asm::assemble(&src);
    }
}

/// The fuel-bounded DynaRisc VM on arbitrary code words.
struct DynaRiscVm;

impl FuzzTarget for DynaRiscVm {
    fn name(&self) -> &'static str {
        "dynarisc-vm"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        let words = ule_dynarisc::text_asm::assemble(DYNARISC_SAMPLE).expect("sample assembles");
        vec![words.iter().flat_map(|w| w.to_le_bytes()).collect()]
    }
    fn suggested_iterations(&self) -> u64 {
        8_000
    }
    fn run(&self, input: &[u8]) {
        let words: Vec<u16> = input
            .chunks_exact(2)
            .take(4096)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();
        if words.is_empty() {
            return;
        }
        let mut vm = Vm::new(words, vec![0u8; 1024]);
        let _ = vm.run(VM_FUEL);
    }
}

/// Differential harness for the two DynaRisc engines: every mutated
/// program image runs on the reference interpreter AND the pre-decoded
/// engine under the same fuel bound, and any divergence — run result
/// (including the fault variant), registers, pointers, flags, memory, pc,
/// or fuel consumed — is a finding. Each input is checked at the full
/// `VM_FUEL`, at a small fuel cut taken from its last byte (0–255, where
/// `StepLimit` meets faults and halts), and as a pre-decoded run resumed
/// in chunks of that cut up to `VM_FUEL`. This is the fuzz leg of the
/// conformance net that lets the pre-decoded engine serve as the
/// production tier of `restore_emulated`.
struct DynaRiscDiff;

impl FuzzTarget for DynaRiscDiff {
    fn name(&self) -> &'static str {
        "dynarisc-diff"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        // Seed with real archived decoders plus the hand-written sample so
        // mutants start from dense, structurally valid instruction
        // streams (jump targets, immediates, memory traffic).
        let sample = ule_dynarisc::text_asm::assemble(DYNARISC_SAMPLE).expect("sample assembles");
        [
            sample,
            ule_dynarisc::programs::dbdecode::program(),
            ule_dynarisc::programs::modecode::program(),
        ]
        .iter()
        .map(|words| words.iter().flat_map(|w| w.to_le_bytes()).collect())
        .collect()
    }
    fn suggested_iterations(&self) -> u64 {
        100_000
    }
    fn run(&self, input: &[u8]) {
        let words: Vec<u16> = input
            .chunks_exact(2)
            .take(4096)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();
        if words.is_empty() {
            return;
        }
        let image = ThreadedImage::compile(&words);
        // Both engines at one fuel budget; returns the agreed outcome.
        let diff = |fuel: u64| {
            let mut vm = Vm::new(words.clone(), vec![0u8; 1024]);
            let res = vm.run(fuel);
            let mut tvm = image.instantiate(vec![0u8; 1024]);
            let tres = tvm.run(fuel);
            assert_eq!(tres, res, "engines disagree on run result at fuel {fuel}");
            assert_eq!(
                tvm.state(),
                vm.state(),
                "engines disagree on post-state (registers/memory/fuel) at fuel {fuel}"
            );
            (res, vm.state())
        };
        let (res, state) = diff(VM_FUEL);
        let cut = u64::from(input[input.len() - 1]);
        let _ = diff(cut);

        // Resume: `cut`-step chunks must land where one full run does.
        let chunk = cut.max(1);
        let mut tvm = image.instantiate(vec![0u8; 1024]);
        let mut ran = 0;
        let tres = loop {
            match tvm.run(chunk.min(VM_FUEL - ran)) {
                Err(VmError::StepLimit { steps }) if ran + steps < VM_FUEL => ran += steps,
                Err(VmError::StepLimit { .. }) => break Err(VmError::StepLimit { steps: VM_FUEL }),
                Ok(steps) => break Ok(ran + steps),
                Err(e) => break Err(e),
            }
        };
        assert_eq!(tres, res, "resumed run result differs (chunks of {chunk})");
        assert_eq!(
            tvm.state(),
            state,
            "resumed post-state differs (chunks of {chunk})"
        );
    }
}

/// Differential *codec* harness (the cross-layer sibling of
/// [`DynaRiscDiff`]): every mutated `ULEA` container the native decoder
/// accepts as LZSS must decode to exactly the same bytes through the
/// archived DynaRisc `dbdecode` program. The paper's whole bet is that
/// the decoder printed on the medium and the one in the lab agree
/// forever — a mutant container that splits them is a finding even when
/// both "succeed".
struct CodecDiff;

impl FuzzTarget for CodecDiff {
    fn name(&self) -> &'static str {
        "codec-diff"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        // LZSS containers only: dbdecode rejects other schemes by status,
        // so the interesting mutants are near-valid LZSS streams (runs,
        // overlaps, empty payload, binary).
        let binary: Vec<u8> = (0..3000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
            .collect();
        [
            sample_text(2048),
            Vec::new(),
            vec![b'z'; CODEC_EXPECTED_LEN],
            binary,
        ]
        .iter()
        .map(|d| ule_compress::compress(Scheme::Lzss, d))
        .collect()
    }
    fn magic(&self) -> Option<&'static [u8]> {
        Some(b"ULEA")
    }
    fn suggested_iterations(&self) -> u64 {
        8_000
    }
    fn run(&self, input: &[u8]) {
        // Invariant: native acceptance of an LZSS container implies the
        // archived decoder reproduces the exact bytes. (Native rejection
        // implies nothing — dbdecode skips the container CRC, so a laxer
        // success there is fine; wrong *bytes* never are.)
        let Ok(expected) = ule_compress::decompress(input) else {
            return;
        };
        if input.len() < ule_compress::container::HEADER_LEN
            || input[5] != Scheme::Lzss as u8
            || expected.len() > CODEC_EXPECTED_LEN
        {
            return;
        }
        match ule_dynarisc::programs::dbdecode::run(input) {
            Ok(out) => assert!(
                out == expected,
                "archived dbdecode diverges from the native decoder: {} vs {} bytes",
                out.len(),
                expected.len()
            ),
            Err(e) => panic!("native decode succeeded, archived dbdecode failed: {e:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// ule_verisc
// ---------------------------------------------------------------------------

/// Deterministic VeRisc memory image (a small counting loop) for the VM
/// corpus, built with the macro assembler.
fn verisc_sample_image() -> Vec<u32> {
    let mut m = ule_verisc::masm::Masm::new();
    let counter = m.cell(5);
    let one = m.konst(1);
    let top = m.here();
    let done = m.label();
    m.subi(counter, counter, 1);
    m.jz_cell(counter, done);
    m.jmp(top);
    m.bind(done);
    m.movi(counter, 0xAA);
    let _ = one;
    m.halt();
    m.finish(4).mem
}

/// All three VeRisc engine implementations on arbitrary memory images,
/// cross-checked: hostile bytes must fail identically everywhere.
struct VeriscVm;

impl FuzzTarget for VeriscVm {
    fn name(&self) -> &'static str {
        "verisc-vm"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        vec![verisc_sample_image()
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect()]
    }
    fn suggested_iterations(&self) -> u64 {
        4_000
    }
    fn run(&self, input: &[u8]) {
        let mem: Vec<u32> = input
            .chunks_exact(4)
            .take(4096)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let mut results = Vec::new();
        for kind in EngineKind::ALL {
            let mut engine = Engine::new(kind, mem.clone());
            let res = engine.run(VM_FUEL);
            results.push((res, engine.acc, engine.mem));
        }
        assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "engines disagree on hostile memory image"
        );
    }
}

/// The VeRisc macro assembler driven as a builder: arbitrary op sequences
/// must surface contract violations through `try_finish`, never panic.
struct MasmBuilder;

impl FuzzTarget for MasmBuilder {
    fn name(&self) -> &'static str {
        "verisc-masm"
    }
    fn corpus(&self) -> Vec<Vec<u8>> {
        // Op-stream encoding: pairs of (op selector, operand).
        vec![vec![0, 5, 1, 1, 4, 0, 2, 0, 6, 0, 3, 0, 9, 0]]
    }
    fn suggested_iterations(&self) -> u64 {
        5_000
    }
    fn run(&self, input: &[u8]) {
        let mut m = ule_verisc::masm::Masm::new();
        let mut cells = Vec::new();
        let mut labels = Vec::new();
        for pair in input.chunks_exact(2).take(64) {
            let (op, arg) = (pair[0], pair[1]);
            match op % 10 {
                0 => cells.push(m.cell(arg as u32)),
                1 => cells.push(m.konst(arg as u32)),
                2 => labels.push(m.label()),
                3 => {
                    if !labels.is_empty() {
                        m.bind(labels[arg as usize % labels.len()]);
                    }
                }
                4 => labels.push(m.here()),
                5 => {
                    if !cells.is_empty() {
                        let c = cells[arg as usize % cells.len()];
                        m.movi(c, arg as u32);
                    }
                }
                6 => {
                    if !labels.is_empty() {
                        m.jmp(labels[arg as usize % labels.len()]);
                    }
                }
                7 => {
                    if cells.len() >= 2 {
                        let a = cells[arg as usize % cells.len()];
                        let b = cells[(arg as usize / 7) % cells.len()];
                        m.sub(a, a, b);
                    }
                }
                8 => {
                    if !cells.is_empty() && !labels.is_empty() {
                        let c = cells[arg as usize % cells.len()];
                        let l = labels[arg as usize % labels.len()];
                        m.jnz_cell(c, l);
                    }
                }
                _ => m.halt(),
            }
        }
        match m.try_finish(2) {
            Ok(image) => {
                let mut engine = Engine::new(EngineKind::MatchBased, image.mem);
                let _ = engine.run(VM_FUEL);
            }
            Err(_) => {}
        }
    }
}

/// Every target, in a stable order (reports, CI and the smoke binary all
/// iterate this list).
pub fn all_targets() -> Vec<Box<dyn FuzzTarget>> {
    vec![
        Box::new(UleaContainer),
        Box::new(LzaStream),
        Box::new(LzssStream),
        Box::new(RleStream),
        Box::new(ArithStream),
        Box::new(EmblemHeaderBytes),
        Box::new(ManchesterCells),
        Box::new(EmblemFrame),
        Box::new(EmblemStream),
        Box::new(StreamPlace),
        Box::new(CatalogIndex),
        Box::new(VaultRecords),
        Box::new(BootstrapDoc),
        Box::new(DynaRiscAsm),
        Box::new(DynaRiscVm),
        Box::new(DynaRiscDiff),
        Box::new(CodecDiff),
        Box::new(VeriscVm),
        Box::new(MasmBuilder),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_are_nonempty_and_deterministic() {
        for t in all_targets() {
            let a = t.corpus();
            let b = t.corpus();
            assert!(!a.is_empty(), "{}: empty corpus", t.name());
            assert_eq!(a, b, "{}: corpus not deterministic", t.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = all_targets().iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all_targets().len());
    }

    #[test]
    fn corpus_entries_run_clean() {
        // The unmutated corpus must never trip a target: corpus bugs would
        // otherwise masquerade as parser findings.
        for t in all_targets() {
            for entry in t.corpus() {
                t.run(&entry);
            }
        }
    }

    #[test]
    fn suggested_iterations_meet_the_ci_floor() {
        let total: u64 = all_targets().iter().map(|t| t.suggested_iterations()).sum();
        assert!(total >= 100_000, "CI budget floor: {total} < 100k");
    }
}
