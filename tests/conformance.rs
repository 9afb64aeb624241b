//! Spec-tied conformance corpus (`DESIGN.md` §13).
//!
//! Every DynaRisc instruction, every VeRisc instruction, and every field
//! of the three archival wire formats (ULEA container, emblem header,
//! vault content index) is pinned by a named fixture file under
//! `tests/conformance/`. The fixtures are plain text so a reviewer can
//! diff the spec surface without reading loader code:
//!
//! * `dynarisc/*.txt` — one file per mnemonic: the canonical `asm:` line
//!   with its golden `words:` encoding (regenerate with
//!   `ULE_REGEN_GOLDEN=1`), plus a `program:` that executes the
//!   instruction on **both** DynaRisc engines — reference interpreter and
//!   pre-decoded engine — which must agree bit-for-bit before the `expect:`
//!   post-state assertions are checked;
//! * `verisc/*.txt` — a `mem:` image run on **all three** engine
//!   implementations, which must agree bit-for-bit before any `expect:`
//!   is checked;
//! * `ulea/*.txt` — build a container, corrupt one field byte, name the
//!   `ArchiveError` variant that must come back;
//! * `emblem/*.txt` — same per-field treatment for the 16-byte header
//!   (with optional CRC re-stamping to reach post-CRC validation);
//! * `catalog/*.txt` — raw content-index text after a `---` separator
//!   (`{crc}` substitutes the correct trailing CRC), with the expected
//!   `IndexError` variant.
//!
//! A fixture failure names the file, so "which spec field broke" is the
//! first line of the assertion message.

use std::fs;
use std::path::{Path, PathBuf};

use ule::compress::{compress, decompress, Scheme};
use ule::dynarisc::text_asm::assemble;
use ule::dynarisc::{ThreadedImage, Vm};
use ule::emblem::header::{HeaderError, HEADER_BYTES};
use ule::emblem::{EmblemHeader, EmblemKind};
use ule::gf256::crc::{crc16_ccitt, crc32};
use ule::vault::catalog::ContentIndex;
use ule::verisc::{Engine, EngineKind};

// ---------------------------------------------------------------- common

fn corpus_files(sub: &str) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/conformance")
        .join(sub);
    let mut files: Vec<_> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("conformance dir {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().map_or(false, |e| e == "txt"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no fixtures under {}", dir.display());
    files
}

/// Split a fixture into `key: value` lines and the optional raw body
/// after a `---` separator line. `#`-prefixed lines are comments.
fn parse_fixture(text: &str) -> (Vec<(String, String)>, Option<String>) {
    let mut kv = Vec::new();
    let mut lines = text.lines();
    for line in lines.by_ref() {
        let t = line.trim();
        if t == "---" {
            let body: String = lines.map(|l| format!("{l}\n")).collect();
            return (kv, Some(body));
        }
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let (k, v) = t
            .split_once(':')
            .unwrap_or_else(|| panic!("fixture line without key: {t:?}"));
        kv.push((k.trim().to_string(), v.trim().to_string()));
    }
    (kv, None)
}

fn get<'a>(kv: &'a [(String, String)], key: &str) -> Option<&'a str> {
    kv.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

fn get_all<'a>(kv: &'a [(String, String)], key: &str) -> Vec<&'a str> {
    kv.iter()
        .filter(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .collect()
}

fn num(s: &str) -> u64 {
    let s = s.trim();
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(h) => u64::from_str_radix(h, 16),
        None => s.parse(),
    }
    .unwrap_or_else(|_| panic!("bad number {s:?}"))
}

fn stem(path: &Path) -> &str {
    path.file_stem()
        .and_then(|s| s.to_str())
        .expect("utf-8 name")
}

/// `corrupt: xor 0xff` / `corrupt: set 0x09` applied at `offset:`.
fn apply_corruption(bytes: &mut [u8], kv: &[(String, String)], name: &str) {
    let Some(op) = get(kv, "corrupt") else {
        return;
    };
    let off =
        num(get(kv, "offset").unwrap_or_else(|| panic!("{name}: corrupt without offset"))) as usize;
    let (verb, val) = op
        .split_once(' ')
        .unwrap_or_else(|| panic!("{name}: corrupt wants `xor V` or `set V`, got {op:?}"));
    let v = num(val) as u8;
    match verb {
        "xor" => bytes[off] ^= v,
        "set" => bytes[off] = v,
        other => panic!("{name}: unknown corruption {other:?}"),
    }
}

/// Assert a `Result`'s error matches the expected variant name (matched
/// as a prefix of the `Debug` rendering, so payloads need not be spelled
/// out in fixtures).
fn expect_error<T, E: std::fmt::Debug>(res: Result<T, E>, variant: &str, name: &str) {
    match res {
        Ok(_) => panic!("{name}: expected {variant}, parse succeeded"),
        Err(e) => {
            let dbg = format!("{e:?}");
            assert!(
                dbg.starts_with(variant),
                "{name}: expected {variant}, got {dbg}"
            );
        }
    }
}

fn regen_golden() -> bool {
    std::env::var("ULE_REGEN_GOLDEN").is_ok()
}

/// Rewrite the golden `key:` line of a fixture in place (the
/// `ULE_REGEN_GOLDEN=1` convention shared with the report goldens).
fn rewrite_golden_line(path: &Path, key: &str, value: &str) {
    let text = fs::read_to_string(path).expect("read fixture");
    let prefix = format!("{key}:");
    let mut replaced = false;
    let out: String = text
        .lines()
        .map(|l| {
            if l.trim_start().starts_with(&prefix) && !replaced {
                replaced = true;
                format!("{key}: {value}\n")
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    assert!(
        replaced,
        "{}: no `{key}:` line to regenerate",
        path.display()
    );
    fs::write(path, out).expect("rewrite fixture");
}

// -------------------------------------------------------------- dynarisc

const DYNARISC_MNEMONICS: [&str; 23] = [
    "ADD", "ADC", "SUB", "SBB", "CMP", "MUL", "AND", "OR", "XOR", "LSL", "LSR", "ASR", "ROR",
    "MOVE", "LDI", "LDM", "STM", "JUMP", "JZ", "JNZ", "JC", "CALL", "RET",
];

const DYNARISC_MEM: usize = 4096;
const DYNARISC_FUEL: u64 = 100_000;

fn check_dynarisc_expect(vm: &Vm, expect: &str, name: &str) {
    let (lhs, rhs) = expect
        .split_once('=')
        .unwrap_or_else(|| panic!("{name}: expect wants lhs=rhs, got {expect:?}"));
    let (lhs, rhs) = (lhs.trim(), rhs.trim());
    let got: u64 = if let Some(r) = lhs.strip_prefix('r') {
        vm.regs[r.parse::<usize>().unwrap()] as u64
    } else if let Some(d) = lhs.strip_prefix('d') {
        vm.ptrs[d.parse::<usize>().unwrap()] as u64
    } else if let Some(addr) = lhs.strip_prefix("mem[").and_then(|s| s.strip_suffix(']')) {
        vm.mem[num(addr) as usize] as u64
    } else {
        match lhs {
            "c" => vm.flags.c as u64,
            "z" => vm.flags.z as u64,
            "n" => vm.flags.n as u64,
            other => panic!("{name}: unknown expect lhs {other:?}"),
        }
    };
    assert_eq!(got, num(rhs), "{name}: expect {expect:?}");
}

#[test]
fn dynarisc_instruction_fixtures() {
    let mut covered = std::collections::BTreeSet::new();
    for path in corpus_files("dynarisc") {
        let name = format!("dynarisc/{}", stem(&path));
        let text = fs::read_to_string(&path).expect("read fixture");
        let (kv, _) = parse_fixture(&text);

        // 1. The canonical instruction line assembles to the golden words.
        let asm_line = get(&kv, "asm").unwrap_or_else(|| panic!("{name}: missing asm:"));
        let words = assemble(asm_line).unwrap_or_else(|e| panic!("{name}: asm: {e}"));
        assert!(!words.is_empty(), "{name}: asm produced no words");
        let rendered: Vec<String> = words.iter().map(|w| format!("{w:04x}")).collect();
        let rendered = rendered.join(" ");
        let golden = get(&kv, "words").unwrap_or_else(|| panic!("{name}: missing words:"));
        if regen_golden() {
            rewrite_golden_line(&path, "words", &rendered);
        } else {
            assert_eq!(
                rendered, golden,
                "{name}: encoding drift (rerun with ULE_REGEN_GOLDEN=1 if intended)"
            );
        }
        let mnemonic = asm_line
            .split_whitespace()
            .next()
            .unwrap()
            .split('.')
            .next()
            .unwrap()
            .to_ascii_uppercase();
        covered.insert(mnemonic);

        // 2. The program executes the instruction on BOTH DynaRisc
        //    engines — the reference interpreter and the pre-decoded
        //    engine — which must agree bit-for-bit (registers, pointers,
        //    flags, memory, pc, fuel) before any fixture expectation is
        //    consulted; the same three-engine discipline the VeRisc
        //    fixtures enforce below.
        let program = get_all(&kv, "program").join("\n");
        assert!(!program.is_empty(), "{name}: missing program:");
        let prog = assemble(&program).unwrap_or_else(|e| panic!("{name}: program: {e}"));
        let mut vm = Vm::new(prog.clone(), vec![0u8; DYNARISC_MEM]);
        let res = vm.run(DYNARISC_FUEL);
        let image = ThreadedImage::compile(&prog);
        let mut tvm = image.instantiate(vec![0u8; DYNARISC_MEM]);
        let tres = tvm.run(DYNARISC_FUEL);
        assert_eq!(tres, res, "{name}: threaded engine diverges on result");
        assert_eq!(
            tvm.state(),
            vm.state(),
            "{name}: threaded engine diverges on post-state"
        );
        res.unwrap_or_else(|e| panic!("{name}: vm: {e}"));
        assert!(vm.halted(), "{name}: program did not halt");
        let expects = get_all(&kv, "expect");
        assert!(!expects.is_empty(), "{name}: missing expect:");
        for expect in expects {
            check_dynarisc_expect(&vm, expect, &name);
        }
    }
    for m in DYNARISC_MNEMONICS {
        assert!(covered.contains(m), "no conformance fixture covers {m}");
    }
}

// ---------------------------------------------------------------- verisc

#[test]
fn verisc_instruction_fixtures() {
    let mut covered = std::collections::BTreeSet::new();
    for path in corpus_files("verisc") {
        let name = format!("verisc/{}", stem(&path));
        let text = fs::read_to_string(&path).expect("read fixture");
        let (kv, _) = parse_fixture(&text);
        let mem: Vec<u32> = get(&kv, "mem")
            .unwrap_or_else(|| panic!("{name}: missing mem:"))
            .split_whitespace()
            .map(|w| num(w) as u32)
            .collect();
        let fuel = num(get(&kv, "fuel").unwrap_or("1000"));
        if let Some(ops) = get(&kv, "covers") {
            for op in ops.split_whitespace() {
                covered.insert(op.to_string());
            }
        }

        // Run all three implementations; they must agree bit-for-bit
        // before any fixture expectation is consulted.
        let mut runs = Vec::new();
        for kind in EngineKind::ALL {
            let mut e = Engine::new(kind, mem.clone());
            let res = e.run(fuel);
            runs.push((kind, res, e));
        }
        let (_, first_res, first) = &runs[0];
        for (kind, res, e) in &runs[1..] {
            assert_eq!(res, first_res, "{name}: {} diverges on result", kind.name());
            assert_eq!(e.acc, first.acc, "{name}: {} diverges on acc", kind.name());
            assert_eq!(
                e.halted(),
                first.halted(),
                "{name}: {} diverges on halt",
                kind.name()
            );
            assert_eq!(
                e.mem,
                first.mem,
                "{name}: {} diverges on memory",
                kind.name()
            );
        }

        for expect in get_all(&kv, "expect") {
            let (lhs, rhs) = expect
                .split_once('=')
                .unwrap_or_else(|| panic!("{name}: expect wants lhs=rhs, got {expect:?}"));
            let (lhs, rhs) = (lhs.trim(), rhs.trim());
            match lhs {
                "acc" => assert_eq!(first.acc as u64, num(rhs), "{name}: {expect}"),
                "halted" => assert_eq!(first.halted(), rhs == "true", "{name}: {expect}"),
                "steps" => assert_eq!(first.steps(), num(rhs), "{name}: {expect}"),
                "error" => match first_res {
                    Ok(_) => panic!("{name}: expected error {rhs}, run succeeded"),
                    Err(e) => {
                        let dbg = format!("{e:?}");
                        assert!(dbg.starts_with(rhs), "{name}: expected {rhs}, got {dbg}");
                    }
                },
                _ => {
                    let addr = lhs
                        .strip_prefix("mem[")
                        .and_then(|s| s.strip_suffix(']'))
                        .unwrap_or_else(|| panic!("{name}: unknown expect lhs {lhs:?}"));
                    assert_eq!(
                        first.mem[num(addr) as usize] as u64,
                        num(rhs),
                        "{name}: {expect}"
                    );
                }
            }
        }
    }
    for op in ["LD", "ST", "SBB", "AND"] {
        assert!(covered.contains(op), "no conformance fixture covers {op}");
    }
}

// ------------------------------------------------------------------ ulea

fn scheme_by_name(s: &str) -> Scheme {
    match s {
        "store" => Scheme::Store,
        "rle" => Scheme::Rle,
        "lzss" => Scheme::Lzss,
        "lza" => Scheme::Lza,
        "columnar" => Scheme::ColumnarSql,
        other => panic!("unknown scheme {other:?}"),
    }
}

#[test]
fn ulea_container_field_fixtures() {
    for path in corpus_files("ulea") {
        let name = format!("ulea/{}", stem(&path));
        let text = fs::read_to_string(&path).expect("read fixture");
        let (kv, _) = parse_fixture(&text);
        let scheme = scheme_by_name(get(&kv, "scheme").unwrap_or("store"));
        let payload = get(&kv, "payload")
            .unwrap_or("the quick brown fox jumps over the lazy dog")
            .as_bytes()
            .to_vec();
        let mut archive = compress(scheme, &payload);
        if let Some(n) = get(&kv, "truncate") {
            archive.truncate(num(n) as usize);
        }
        apply_corruption(&mut archive, &kv, &name);
        let expect = get(&kv, "expect").unwrap_or_else(|| panic!("{name}: missing expect:"));
        let res = decompress(&archive);
        if expect == "Ok" {
            let back = res.unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back, payload, "{name}: roundtrip drift");
        } else {
            expect_error(res, expect, &name);
        }
    }
}

// ---------------------------------------------------------------- emblem

fn kind_by_name(s: &str) -> EmblemKind {
    match s {
        "data" => EmblemKind::Data,
        "system" => EmblemKind::System,
        "parity" => EmblemKind::Parity,
        "index" => EmblemKind::Index,
        "reel-parity" => EmblemKind::ReelParity,
        other => panic!("unknown emblem kind {other:?}"),
    }
}

#[test]
fn emblem_header_field_fixtures() {
    for path in corpus_files("emblem") {
        let name = format!("emblem/{}", stem(&path));
        let text = fs::read_to_string(&path).expect("read fixture");
        let (kv, _) = parse_fixture(&text);
        let header = EmblemHeader::new(
            kind_by_name(get(&kv, "kind").unwrap_or("data")),
            num(get(&kv, "index").unwrap_or("0")) as u16,
            num(get(&kv, "group").unwrap_or("0")) as u16,
            num(get(&kv, "payload-len").unwrap_or("0")) as u32,
            num(get(&kv, "total-len").unwrap_or("0")) as u32,
        );
        let mut bytes = header.to_bytes().to_vec();

        // Golden wire encoding (only the all-fields fixture carries one).
        if let Some(golden) = get(&kv, "bytes") {
            let rendered: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            if regen_golden() {
                rewrite_golden_line(&path, "bytes", &rendered);
            } else {
                assert_eq!(
                    rendered, golden,
                    "{name}: wire drift (rerun with ULE_REGEN_GOLDEN=1 if intended)"
                );
            }
        }

        apply_corruption(&mut bytes, &kv, &name);
        if get(&kv, "restamp") == Some("true") {
            let crc = crc16_ccitt(&bytes[..14]);
            bytes[14..16].copy_from_slice(&crc.to_le_bytes());
        }
        if let Some(n) = get(&kv, "truncate") {
            bytes.truncate(num(n) as usize);
        } else {
            assert_eq!(bytes.len(), HEADER_BYTES);
        }

        let expect = get(&kv, "expect").unwrap_or_else(|| panic!("{name}: missing expect:"));
        let res: Result<EmblemHeader, HeaderError> = EmblemHeader::from_bytes(&bytes);
        if expect == "Ok" {
            let h = res.unwrap_or_else(|e| panic!("{name}: {e}"));
            for (k, field) in [
                ("expect-index", h.index as u64),
                ("expect-group", h.group as u64),
                ("expect-payload-len", h.payload_len as u64),
                ("expect-total-len", h.total_len as u64),
            ] {
                if let Some(v) = get(&kv, k) {
                    assert_eq!(field, num(v), "{name}: {k}");
                }
            }
            if let Some(k) = get(&kv, "expect-kind") {
                assert_eq!(h.kind, kind_by_name(k), "{name}: expect-kind");
            }
        } else {
            expect_error(res, expect, &name);
        }
    }
}

// --------------------------------------------------------------- catalog

/// Byte offset of the first line starting with `marker` (mirrors the
/// parser's own raw-byte scan).
fn line_start(bytes: &[u8], marker: &[u8]) -> Option<usize> {
    if bytes.starts_with(marker) {
        return Some(0);
    }
    bytes
        .windows(marker.len() + 1)
        .position(|w| w[0] == b'\n' && &w[1..] == marker)
        .map(|p| p + 1)
}

#[test]
fn catalog_index_field_fixtures() {
    for path in corpus_files("catalog") {
        let name = format!("catalog/{}", stem(&path));
        let text = fs::read_to_string(&path).expect("read fixture");
        let (kv, body) = parse_fixture(&text);
        let body = body.unwrap_or_else(|| panic!("{name}: missing --- body"));

        // `{crc}` stands for the correct trailing CRC-32 of everything
        // before the `end:` line, so fixtures stay hand-editable.
        let body = if body.contains("{crc}") {
            let end = line_start(body.as_bytes(), b"end: crc32=")
                .unwrap_or_else(|| panic!("{name}: {{crc}} without an end: line"));
            let crc = crc32(&body.as_bytes()[..end]);
            body.replace("{crc}", &format!("{crc:08x}"))
        } else {
            body
        };

        let expect = get(&kv, "expect").unwrap_or_else(|| panic!("{name}: missing expect:"));
        let res = ContentIndex::parse(body.as_bytes());
        if expect == "Ok" {
            let idx = res.unwrap_or_else(|e| panic!("{name}: {e}"));
            if let Some(v) = get(&kv, "expect-chunk") {
                assert_eq!(idx.chunk_cap as u64, num(v), "{name}: expect-chunk");
            }
            if let Some(v) = get(&kv, "expect-segments") {
                assert_eq!(idx.entries.len() as u64, num(v), "{name}: expect-segments");
            }
            for table in get_all(&kv, "expect-table") {
                assert!(idx.find(table).is_some(), "{name}: table {table} missing");
            }
        } else {
            expect_error(res, expect, &name);
        }
    }
}
