//! The content index: the vault's `table → compressed chunk → frame
//! range` catalog, serialized as a self-delimiting plain-text stream.
//!
//! The index is written on the medium as its own emblem stream (kind
//! [`ule_emblem::EmblemKind::Index`], outer-parity protected), so a
//! reader can decode a few index frames and then jump straight to the
//! frames that carry one table. The serialization is plain text in the
//! spirit of the Bootstrap document — a future restorer can read it with
//! their eyes:
//!
//! ```text
//! ULE VAULT INDEX 1
//! chunk: 1115
//! segments: 10
//! seg: name=lineitem archive=8200+41833 dump=31650+152113 crc32=9fe2a1b0
//! ...
//! end: crc32=deadbeef
//! ```
//!
//! `archive=<start>+<len>` is the byte range of the segment's record
//! run (one or more 4-byte little-endian length prefixes, each followed
//! by a `ULEA` container) inside the data stream; `dump=<start>+<len>`
//! is the byte range of the original segment in the restored dump;
//! `crc32` is the CRC-32 of those original bytes, so a selectively
//! restored table can be verified without restoring anything else. The
//! trailing `end:` line carries the CRC-32 of every byte before it —
//! the self-check consulted before any frame range is trusted.
//!
//! ## Zone maps (optional, PR 8)
//!
//! A table entry may additionally carry per-sub-record **zone maps**:
//!
//! ```text
//! seg: name=lineitem archive=... dump=... crc32=... \
//!      zcols=l_shipdate,l_quantity \
//!      zones=27:23:0|2101:6479:60:1992-01-08:1998-10-24:1:50|...
//! ```
//!
//! `zcols` names the columns whose min/max each zone records; `zones` is
//! a `|`-separated list, one item per independently compressed
//! sub-record of the segment, each item `:`-separated as
//! `archive_len:dump_len:rows[:min:max per zcol]`. Zones with `rows=0`
//! are *structural* (the `COPY` header line, the `\.` terminator) and
//! are never pruned. Values are percent-escaped so `:`/`|`/whitespace in
//! row data cannot break the framing. The zone archive/dump lengths tile
//! the entry's own spans exactly; [`ContentIndex::parse`] rejects
//! anything else, and readers of old catalogs simply see entries with no
//! zones (`zones()` returns the single whole-entry span).

use std::fmt::Write as _;
use ule_gf256::crc::crc32;

/// One zone: a row-aligned, independently compressed sub-record of a
/// segment, with min/max statistics over the catalogued zone columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZoneInfo {
    /// Length of the sub-record (4-byte prefix + container) in the data
    /// stream. Zone archive spans tile the entry's archive span in order.
    pub archive_len: u64,
    /// Length of the sub-record's original dump bytes. Zone dump spans
    /// tile the entry's dump span in order.
    pub dump_len: u64,
    /// Data rows in this zone. `0` marks a structural zone (the `COPY`
    /// header line or the `\.` terminator) that is never pruned.
    pub rows: u64,
    /// `(min, max)` raw field text per entry in the entry's `zcols`, in
    /// the same order. Empty for structural zones.
    pub stats: Vec<(String, String)>,
}

/// One catalogued segment (a table's `COPY` block, or filler text).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexEntry {
    /// Segment name (table name, or `_`-prefixed filler).
    pub name: String,
    /// Byte offset of the segment's record run in the data stream.
    pub archive_start: u64,
    /// Record-run length in bytes (length prefixes + containers).
    pub archive_len: u64,
    /// Byte offset of the segment in the original dump.
    pub dump_start: u64,
    /// Segment length in the original dump.
    pub dump_len: u64,
    /// CRC-32 of the original segment bytes.
    pub crc32: u32,
    /// Columns the zone min/max statistics cover (empty = no zone maps).
    pub zone_columns: Vec<String>,
    /// Per-sub-record zone maps (empty = one opaque record, no pruning).
    pub zones: Vec<ZoneInfo>,
}

/// The full catalog.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContentIndex {
    /// Payload bytes per emblem (the chunk size frame ranges are in).
    pub chunk_cap: u32,
    /// Entries in dump order (their archive ranges tile the data stream).
    pub entries: Vec<IndexEntry>,
}

/// Index (de)serialization failures.
#[derive(Debug, PartialEq, Eq)]
pub enum IndexError {
    /// Missing or wrong magic/version line.
    BadMagic,
    /// A header or entry line failed to parse.
    BadLine(String),
    /// Entry count disagrees with the `segments:` header.
    CountMismatch { expected: usize, got: usize },
    /// The trailing CRC does not match the preceding bytes.
    BadCrc { stored: u32, computed: u32 },
    /// No `end:` trailer found.
    Truncated,
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::BadMagic => write!(f, "not a vault index (bad magic)"),
            IndexError::BadLine(l) => write!(f, "unparseable index line: {l:?}"),
            IndexError::CountMismatch { expected, got } => {
                write!(f, "index promises {expected} segments, holds {got}")
            }
            IndexError::BadCrc { stored, computed } => {
                write!(
                    f,
                    "index crc mismatch: stored {stored:08x}, computed {computed:08x}"
                )
            }
            IndexError::Truncated => write!(f, "index stream ends before the end: trailer"),
        }
    }
}

impl std::error::Error for IndexError {}

const MAGIC_LINE: &str = "ULE VAULT INDEX 1";

/// Percent-escape a zone value so `:`/`|`/whitespace/`=` in row data can
/// never break the entry-line framing.
fn escape_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for b in v.bytes() {
        match b {
            b'%' | b':' | b'|' | b'=' | b' ' | b'\t' | b'\r' | b'\n' => {
                out.push('%');
                out.push_str(&format!("{b:02X}"));
            }
            _ => out.push(b as char),
        }
    }
    out
}

/// Inverse of [`escape_value`]. Rejects malformed escapes.
fn unescape_value(v: &str) -> Option<String> {
    let bytes = v.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let s = std::str::from_utf8(hex).ok()?;
            out.push(u8::from_str_radix(s, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

impl ContentIndex {
    /// Serialize to the self-delimiting text format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        writeln!(out, "{MAGIC_LINE}").unwrap();
        writeln!(out, "chunk: {}", self.chunk_cap).unwrap();
        writeln!(out, "segments: {}", self.entries.len()).unwrap();
        for e in &self.entries {
            write!(
                out,
                "seg: name={} archive={}+{} dump={}+{} crc32={:08x}",
                e.name, e.archive_start, e.archive_len, e.dump_start, e.dump_len, e.crc32
            )
            .unwrap();
            if !e.zones.is_empty() {
                let cols: Vec<String> = e.zone_columns.iter().map(|c| escape_value(c)).collect();
                write!(out, " zcols={}", cols.join(",")).unwrap();
                let items: Vec<String> = e
                    .zones
                    .iter()
                    .map(|z| {
                        let mut item = format!("{}:{}:{}", z.archive_len, z.dump_len, z.rows);
                        for (lo, hi) in &z.stats {
                            item.push(':');
                            item.push_str(&escape_value(lo));
                            item.push(':');
                            item.push_str(&escape_value(hi));
                        }
                        item
                    })
                    .collect();
                write!(out, " zones={}", items.join("|")).unwrap();
            }
            writeln!(out).unwrap();
        }
        let body_crc = crc32(out.as_bytes());
        writeln!(out, "end: crc32={body_crc:08x}").unwrap();
        out.into_bytes()
    }

    /// Parse and verify a serialized index. Trailing bytes after the
    /// `end:` line are ignored (the emblem stream may pad).
    pub fn parse(bytes: &[u8]) -> Result<ContentIndex, IndexError> {
        let text = String::from_utf8_lossy(bytes);
        let mut lines = text.lines();
        if lines.next() != Some(MAGIC_LINE) {
            return Err(IndexError::BadMagic);
        }
        let chunk_line = lines.next().ok_or(IndexError::Truncated)?;
        let chunk_cap: u32 = chunk_line
            .strip_prefix("chunk: ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| IndexError::BadLine(chunk_line.to_string()))?;
        let count_line = lines.next().ok_or(IndexError::Truncated)?;
        let expected: usize = count_line
            .strip_prefix("segments: ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| IndexError::BadLine(count_line.to_string()))?;
        // Not presized from `expected`: the count is archived bytes, read
        // before the CRC check can vouch for it.
        let mut entries = Vec::new();
        let mut end_crc = None;
        for line in lines {
            if let Some(v) = line.strip_prefix("end: crc32=") {
                end_crc = Some(
                    u32::from_str_radix(v.trim(), 16)
                        .map_err(|_| IndexError::BadLine(line.to_string()))?,
                );
                break;
            }
            let rest = line
                .strip_prefix("seg: ")
                .ok_or_else(|| IndexError::BadLine(line.to_string()))?;
            entries.push(parse_entry(rest).ok_or_else(|| IndexError::BadLine(line.to_string()))?);
        }
        let stored = end_crc.ok_or(IndexError::Truncated)?;
        // The CRC covers everything up to (not including) the end line.
        // The offset must come from the raw bytes: invalid UTF-8 expands
        // to 3-byte replacement chars in the lossy text, so a text offset
        // can point past the end of `bytes`.
        let end_pos = find_line_start(bytes, b"end: crc32=").ok_or(IndexError::Truncated)?;
        let computed = crc32(&bytes[..end_pos]);
        if computed != stored {
            return Err(IndexError::BadCrc { stored, computed });
        }
        if entries.len() != expected {
            return Err(IndexError::CountMismatch {
                expected,
                got: entries.len(),
            });
        }
        Ok(ContentIndex { chunk_cap, entries })
    }

    /// Look up a segment by name.
    pub fn find(&self, name: &str) -> Option<&IndexEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Names of the queryable tables (filler segments excluded).
    pub fn tables(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|e| !e.name.starts_with('_'))
            .map(|e| e.name.as_str())
            .collect()
    }

    /// Data-stream chunk indices covering `entry`'s archive byte range —
    /// the chunks (and hence frames) a selective restore must decode.
    /// An empty entry covers no chunks.
    pub fn chunk_range(&self, entry: &IndexEntry) -> std::ops::Range<usize> {
        self.chunk_span(entry.archive_start, entry.archive_len)
    }

    /// Chunk indices covering an arbitrary archive byte span. A span
    /// ending exactly on a chunk boundary claims nothing from the next
    /// chunk; an empty span claims no chunks at all. Safe on hostile
    /// offsets: the sum saturates instead of overflowing.
    pub fn chunk_span(&self, start: u64, len: u64) -> std::ops::Range<usize> {
        let cap = self.chunk_cap.max(1) as u64;
        let first = start / cap;
        if len == 0 {
            return first as usize..first as usize;
        }
        let last = start.saturating_add(len).div_ceil(cap);
        first as usize..last as usize
    }
}

/// One zone of an entry with its absolute archive/dump byte spans
/// resolved (see [`IndexEntry::zone_spans`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZoneSpan<'a> {
    pub archive_start: u64,
    pub dump_start: u64,
    pub info: &'a ZoneInfo,
}

impl IndexEntry {
    /// Walk the entry's zones cumulatively from its own offsets,
    /// returning each zone with absolute archive/dump spans. Returns
    /// `None` for entries without zones, or whose zones fail to tile the
    /// entry's archive/dump spans exactly (a hostile or damaged catalog —
    /// callers must fall back to the unpruned whole-entry path).
    pub fn zone_spans(&self) -> Option<Vec<ZoneSpan<'_>>> {
        if self.zones.is_empty() {
            return None;
        }
        let mut archive = self.archive_start;
        let mut dump = self.dump_start;
        let mut spans = Vec::with_capacity(self.zones.len());
        for z in &self.zones {
            spans.push(ZoneSpan {
                archive_start: archive,
                dump_start: dump,
                info: z,
            });
            archive = archive.checked_add(z.archive_len)?;
            dump = dump.checked_add(z.dump_len)?;
        }
        let archive_end = self.archive_start.checked_add(self.archive_len)?;
        let dump_end = self.dump_start.checked_add(self.dump_len)?;
        if archive != archive_end || dump != dump_end {
            return None;
        }
        Some(spans)
    }
}

/// Byte offset of the first line starting with `marker` ('\n' bytes are
/// preserved 1:1 by lossy UTF-8 decoding, so raw line starts coincide with
/// text line starts).
fn find_line_start(bytes: &[u8], marker: &[u8]) -> Option<usize> {
    if bytes.starts_with(marker) {
        return Some(0);
    }
    bytes
        .windows(marker.len() + 1)
        .position(|w| w[0] == b'\n' && &w[1..] == marker)
        .map(|p| p + 1)
}

fn parse_entry(rest: &str) -> Option<IndexEntry> {
    let mut name = None;
    let mut archive = None;
    let mut dump = None;
    let mut crc = None;
    let mut zcols: Vec<String> = Vec::new();
    let mut zones_field = None;
    for pair in rest.split_whitespace() {
        let (k, v) = pair.split_once('=')?;
        match k {
            "name" => name = Some(v.to_string()),
            "archive" => archive = parse_span(v),
            "dump" => dump = parse_span(v),
            "crc32" => crc = u32::from_str_radix(v, 16).ok(),
            "zcols" => {
                zcols = v
                    .split(',')
                    .map(unescape_value)
                    .collect::<Option<Vec<_>>>()?
            }
            "zones" => zones_field = Some(v),
            _ => return None,
        }
    }
    let (archive_start, archive_len) = archive?;
    let (dump_start, dump_len) = dump?;
    let zones = match zones_field {
        None => Vec::new(),
        Some(v) => parse_zones(v, zcols.len())?,
    };
    let entry = IndexEntry {
        name: name?,
        archive_start,
        archive_len,
        dump_start,
        dump_len,
        crc32: crc?,
        zone_columns: zcols,
        zones,
    };
    // Zones that fail to tile the entry's own spans are a structural lie;
    // reject the line rather than hand planners inconsistent offsets.
    if !entry.zones.is_empty() && entry.zone_spans().is_none() {
        return None;
    }
    Some(entry)
}

/// Parse a `zones=` field: `|`-separated items, each
/// `archive_len:dump_len:rows[:min:max per zone column]`.
fn parse_zones(v: &str, ncols: usize) -> Option<Vec<ZoneInfo>> {
    let mut zones = Vec::new();
    for item in v.split('|') {
        let fields: Vec<&str> = item.split(':').collect();
        if fields.len() != 3 && fields.len() != 3 + 2 * ncols {
            return None;
        }
        let archive_len: u64 = fields[0].parse().ok()?;
        let dump_len: u64 = fields[1].parse().ok()?;
        let rows: u64 = fields[2].parse().ok()?;
        let mut stats = Vec::new();
        for pair in fields[3..].chunks(2) {
            stats.push((unescape_value(pair[0])?, unescape_value(pair[1])?));
        }
        zones.push(ZoneInfo {
            archive_len,
            dump_len,
            rows,
            stats,
        });
    }
    Some(zones)
}

fn parse_span(v: &str) -> Option<(u64, u64)> {
    let (a, b) = v.split_once('+')?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain_entry(name: &str, archive: (u64, u64), dump: (u64, u64), crc: u32) -> IndexEntry {
        IndexEntry {
            name: name.into(),
            archive_start: archive.0,
            archive_len: archive.1,
            dump_start: dump.0,
            dump_len: dump.1,
            crc32: crc,
            zone_columns: Vec::new(),
            zones: Vec::new(),
        }
    }

    fn sample() -> ContentIndex {
        ContentIndex {
            chunk_cap: 1115,
            entries: vec![
                plain_entry("_preamble", (0, 180), (0, 400), 0x1111_2222),
                plain_entry("lineitem", (180, 41_833), (400, 152_113), 0x9FE2_A1B0),
            ],
        }
    }

    fn zoned_sample() -> ContentIndex {
        let mut entry = plain_entry("lineitem", (180, 600), (400, 2_000), 0x9FE2_A1B0);
        entry.zone_columns = vec!["l_shipdate".into(), "l_quantity".into()];
        entry.zones = vec![
            ZoneInfo {
                archive_len: 40,
                dump_len: 70,
                rows: 0,
                stats: vec![],
            },
            ZoneInfo {
                archive_len: 300,
                dump_len: 1_000,
                rows: 12,
                stats: vec![
                    ("1992-01-08".into(), "1995-06-17".into()),
                    ("1".into(), "50".into()),
                ],
            },
            ZoneInfo {
                archive_len: 240,
                dump_len: 927,
                rows: 11,
                stats: vec![
                    ("1995-06-18".into(), "1998-10-24".into()),
                    ("3".into(), "48".into()),
                ],
            },
            ZoneInfo {
                archive_len: 20,
                dump_len: 3,
                rows: 0,
                stats: vec![],
            },
        ];
        ContentIndex {
            chunk_cap: 256,
            entries: vec![
                plain_entry("_preamble", (0, 180), (0, 400), 0x1111_2222),
                entry,
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let idx = sample();
        let bytes = idx.to_bytes();
        assert_eq!(ContentIndex::parse(&bytes).unwrap(), idx);
    }

    #[test]
    fn trailing_padding_is_ignored() {
        let idx = sample();
        let mut bytes = idx.to_bytes();
        bytes.extend_from_slice(&[0u8; 37]);
        assert_eq!(ContentIndex::parse(&bytes).unwrap(), idx);
    }

    #[test]
    fn corruption_is_detected() {
        let idx = sample();
        let mut bytes = idx.to_bytes();
        // Flip a digit inside an entry line.
        let pos = bytes.iter().position(|&b| b == b'8').unwrap();
        bytes[pos] = b'9';
        match ContentIndex::parse(&bytes) {
            Err(IndexError::BadCrc { .. }) | Err(IndexError::BadLine(_)) => {}
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn invalid_utf8_in_names_errors_instead_of_panicking() {
        // Fuzz regression: invalid UTF-8 expands to 3-byte replacement
        // chars in the lossy text, so a text-derived CRC slice offset can
        // run past the raw bytes. The CRC range must come from the bytes.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"ULE VAULT INDEX 1\nchunk: 2\nsegments: 2\n");
        bytes.extend_from_slice(b"seg: name=");
        bytes.extend_from_slice(&[0xE1, 0xC4, 0xF6, 0xB1, 0xBB, 0x94, 0xA8]);
        bytes.extend_from_slice(b" archive=4+0 dump=3+6 crc32=d\nend: crc32=8");
        assert!(matches!(
            ContentIndex::parse(&bytes),
            Err(IndexError::BadCrc { .. })
        ));
    }

    #[test]
    fn hostile_segment_count_is_not_preallocated() {
        // Fuzz regression (`catalog-index__segments_count_prealloc.bin`):
        // the count line is read before the CRC can vouch for it, and
        // presizing the entry table from it asked for 112 TB.
        let body = b"ULE VAULT INDEX 1\nchunk: 2\nsegments: 1000000000000\n";
        let mut bytes = body.to_vec();
        bytes.extend_from_slice(format!("end: crc32={:08x}\n", crc32(body)).as_bytes());
        assert_eq!(
            ContentIndex::parse(&bytes),
            Err(IndexError::CountMismatch {
                expected: 1_000_000_000_000,
                got: 0
            })
        );
    }

    #[test]
    fn truncation_is_detected() {
        let idx = sample();
        let bytes = idx.to_bytes();
        assert_eq!(
            ContentIndex::parse(&bytes[..bytes.len() - 20]),
            Err(IndexError::Truncated)
        );
    }

    #[test]
    fn chunk_range_covers_the_archive_span() {
        let idx = sample();
        let li = idx.find("lineitem").unwrap();
        let r = idx.chunk_range(li);
        assert_eq!(r.start, 0); // 180 / 1115 = 0
        assert_eq!(r.end, (180 + 41_833usize).div_ceil(1115));
        assert!(idx.find("nope").is_none());
        assert_eq!(idx.tables(), vec!["lineitem"]);
    }

    #[test]
    fn chunk_range_boundary_math() {
        let idx = ContentIndex {
            chunk_cap: 100,
            entries: vec![],
        };
        let span = |start, len| idx.chunk_span(start, len);
        // Zero-length entries claim no chunks (the old code claimed one
        // full chunk via `last.max(first + 1)`).
        assert_eq!(span(0, 0), 0..0);
        assert_eq!(span(250, 0), 2..2);
        assert_eq!(span(300, 0), 3..3);
        // len == cap, aligned: exactly one chunk.
        assert_eq!(span(200, 100), 2..3);
        // len == cap, unaligned: straddles two chunks.
        assert_eq!(span(250, 100), 2..4);
        // End exactly on a chunk boundary must not claim the next chunk.
        assert_eq!(span(150, 50), 1..2);
        assert_eq!(span(0, 300), 0..3);
        // End one past a boundary claims the chunk it spills into.
        assert_eq!(span(150, 51), 1..3);
        assert_eq!(span(0, 301), 0..4);
        // One byte.
        assert_eq!(span(99, 1), 0..1);
        assert_eq!(span(100, 1), 1..2);
        // Hostile offsets saturate instead of overflowing.
        assert_eq!(span(u64::MAX, 1).start, (u64::MAX / 100) as usize);
        assert_eq!(span(u64::MAX - 1, u64::MAX), span(u64::MAX - 1, 2));
        // A degenerate chunk_cap of 0 is treated as 1, not a division
        // fault.
        let tiny = ContentIndex {
            chunk_cap: 0,
            entries: vec![],
        };
        assert_eq!(tiny.chunk_span(3, 2), 3..5);
    }

    #[test]
    fn zoned_roundtrip_and_spans() {
        let idx = zoned_sample();
        let bytes = idx.to_bytes();
        assert_eq!(ContentIndex::parse(&bytes).unwrap(), idx);
        let li = idx.find("lineitem").unwrap();
        let spans = li.zone_spans().unwrap();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].archive_start, 180);
        assert_eq!(spans[1].archive_start, 220);
        assert_eq!(spans[1].dump_start, 470);
        assert_eq!(spans[3].archive_start, 180 + 600 - 20);
        // Entries without zones report no spans: callers take the
        // unpruned whole-entry path.
        assert!(idx.find("_preamble").unwrap().zone_spans().is_none());
    }

    #[test]
    fn zone_values_with_separators_survive_escaping() {
        let mut idx = zoned_sample();
        idx.entries[1].zones[1].stats[0] = ("a:b|c d=e%f".into(), "x\ty\nz".into());
        idx.entries[1].zone_columns[0] = "weird col".into();
        let bytes = idx.to_bytes();
        let back = ContentIndex::parse(&bytes).unwrap();
        assert_eq!(back, idx);
    }

    #[test]
    fn zones_that_do_not_tile_the_entry_are_rejected() {
        let mut idx = zoned_sample();
        idx.entries[1].zones[1].archive_len += 1;
        let bytes = idx.to_bytes();
        assert!(matches!(
            ContentIndex::parse(&bytes),
            Err(IndexError::BadLine(_))
        ));
    }

    #[test]
    fn old_format_lines_parse_as_no_zones() {
        let idx = sample();
        let back = ContentIndex::parse(&idx.to_bytes()).unwrap();
        assert!(back.entries.iter().all(|e| e.zones.is_empty()));
        assert!(back.entries.iter().all(|e| e.zone_spans().is_none()));
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            ContentIndex::parse(b"WRONG\nstuff"),
            Err(IndexError::BadMagic)
        );
    }
}
