//! Zone maps: row-aligned sub-records with per-column min/max
//! statistics, written into the catalog at archive time so a predicate
//! query can skip chunks it provably does not need (`DESIGN.md` §14).
//!
//! A table segment is normally one compressed record, and LZSS/arith
//! decompression is sequential from the record's first byte — a chunk
//! subset of it cannot be decoded independently. Zone maps therefore
//! change *composition*, not decoding: [`split_segment`] cuts the `COPY`
//! block into row-aligned pieces (header line, row groups of roughly
//! `target_bytes` of dump text, the `\.` terminator), each of which the
//! vault compresses into its own length-prefixed record. The full-restore
//! path already walks every record in the data stream, so a multi-record
//! table restores byte-identically through unchanged code; the pruned
//! query path decodes only the records whose `[min, max]` interval
//! intersects the predicate.
//!
//! Pruning is strictly a *performance hint*: zone selection is
//! conservative (a zone is skipped only when the predicate provably
//! excludes every row in it), and the query layer re-applies the exact
//! predicate row by row, so pruned and unpruned answers are identical by
//! construction.

use std::cmp::Ordering;

use crate::catalog::ZoneInfo;

/// Which columns to zone-map per table, and how coarse the zones are.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZoneSpec {
    /// `(table name, columns to record min/max for)`. Tables not listed
    /// here — and tables whose `COPY` header lacks a listed column — are
    /// composed as a single opaque record, exactly as before.
    pub tables: Vec<(String, Vec<String>)>,
}

impl ZoneSpec {
    /// The default spec for the TPC-H workload this reproduction
    /// archives: the predicate columns of the Q1/Q6/Q3-shaped queries.
    pub fn tpch_default() -> Self {
        ZoneSpec {
            tables: vec![
                (
                    "lineitem".to_string(),
                    vec!["l_shipdate".to_string(), "l_quantity".to_string()],
                ),
                ("orders".to_string(), vec!["o_orderdate".to_string()]),
            ],
        }
    }

    /// Zone columns configured for `table`, if any.
    pub fn columns_for(&self, table: &str) -> Option<&[String]> {
        self.tables
            .iter()
            .find(|(t, _)| t == table)
            .map(|(_, c)| c.as_slice())
    }
}

/// Ordering used for zone min/max statistics and predicate bounds:
/// numeric when both sides parse as numbers (so `9 < 10` and `0.05 <
/// 0.5`), byte-lexicographic otherwise (correct for `YYYY-MM-DD` dates).
pub fn zone_value_cmp(a: &str, b: &str) -> Ordering {
    match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(x), Ok(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
        _ => a.as_bytes().cmp(b.as_bytes()),
    }
}

/// An inclusive range predicate on one column (`None` = unbounded).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnRange {
    pub column: String,
    pub lo: Option<String>,
    pub hi: Option<String>,
}

impl ColumnRange {
    pub fn at_most(column: &str, hi: &str) -> Self {
        ColumnRange {
            column: column.to_string(),
            lo: None,
            hi: Some(hi.to_string()),
        }
    }

    pub fn between(column: &str, lo: &str, hi: &str) -> Self {
        ColumnRange {
            column: column.to_string(),
            lo: Some(lo.to_string()),
            hi: Some(hi.to_string()),
        }
    }
}

/// A conjunction of column ranges — the prunable part of a query's
/// predicate. An empty predicate selects every zone.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ZonePredicate {
    pub ranges: Vec<ColumnRange>,
}

impl ZonePredicate {
    /// The match-everything predicate (unpruned streaming scan).
    pub fn all() -> Self {
        ZonePredicate { ranges: Vec::new() }
    }

    /// Add one column range (builder-style, chains off [`Self::all`]).
    pub fn with(mut self, range: ColumnRange) -> Self {
        self.ranges.push(range);
        self
    }

    /// Conservative zone test: `false` only when the zone's `[min, max]`
    /// provably excludes every row. Structural zones (`rows == 0`) and
    /// zones lacking statistics for a referenced column always match.
    pub fn may_match(&self, zone_columns: &[String], zone: &ZoneInfo) -> bool {
        if zone.rows == 0 {
            return true;
        }
        for r in &self.ranges {
            let Some(ci) = zone_columns.iter().position(|c| c == &r.column) else {
                continue;
            };
            let Some((min, max)) = zone.stats.get(ci) else {
                continue;
            };
            if let Some(lo) = &r.lo {
                if zone_value_cmp(max, lo) == Ordering::Less {
                    return false;
                }
            }
            if let Some(hi) = &r.hi {
                if zone_value_cmp(min, hi) == Ordering::Greater {
                    return false;
                }
            }
        }
        true
    }
}

/// One planned piece of a segment (offsets relative to the segment).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZonePiece {
    pub start: usize,
    pub len: usize,
    pub rows: u64,
    /// `(min, max)` per zone column; empty for structural pieces.
    pub stats: Vec<(String, String)>,
}

/// Split a `COPY` block into row-aligned pieces with min/max statistics:
/// the header line, row groups of roughly `target_bytes` dump text, and
/// the `\.` terminator. Returns `None` when the segment is not a
/// well-formed `COPY` block, a requested column is missing from its
/// header, or any row lacks a zoned field — the caller then composes the
/// segment as a single record with no zones, which is always correct.
pub fn split_segment(
    bytes: &[u8],
    columns: &[String],
    target_bytes: usize,
) -> Option<Vec<ZonePiece>> {
    // Header line: `COPY name (col1, col2, ...) FROM stdin;`.
    let header_end = bytes.iter().position(|&b| b == b'\n')? + 1;
    let header = std::str::from_utf8(&bytes[..header_end]).ok()?;
    if !header.starts_with("COPY ") {
        return None;
    }
    let cols_part = header.split_once('(')?.1.split_once(')')?.0;
    let header_cols: Vec<&str> = cols_part.split(',').map(|c| c.trim()).collect();
    let col_idx: Vec<usize> = columns
        .iter()
        .map(|c| header_cols.iter().position(|h| h == c))
        .collect::<Option<Vec<_>>>()?;

    // Don't let a huge table explode the catalog: at most 64 row groups.
    let body_len = bytes.len().saturating_sub(header_end);
    let target = target_bytes.max(1).max(body_len / 64);

    let mut pieces = vec![ZonePiece {
        start: 0,
        len: header_end,
        rows: 0,
        stats: Vec::new(),
    }];
    let mut group_start = header_end;
    let mut group_rows = 0u64;
    let mut group_stats: Vec<Option<(String, String)>> = vec![None; columns.len()];
    let mut pos = header_end;
    let mut terminator = None;
    while pos < bytes.len() {
        let line_end = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |i| pos + i + 1);
        let line = &bytes[pos..line_end];
        if line == b"\\.\n" || line == b"\\." {
            terminator = Some(pos);
            break;
        }
        let text = std::str::from_utf8(line).ok()?;
        let row = text.strip_suffix('\n').unwrap_or(text);
        let fields: Vec<&str> = row.split('\t').collect();
        for (slot, &ci) in group_stats.iter_mut().zip(&col_idx) {
            let v = *fields.get(ci)?;
            match slot {
                None => *slot = Some((v.to_string(), v.to_string())),
                Some((min, max)) => {
                    if zone_value_cmp(v, min) == Ordering::Less {
                        *min = v.to_string();
                    }
                    if zone_value_cmp(v, max) == Ordering::Greater {
                        *max = v.to_string();
                    }
                }
            }
        }
        group_rows += 1;
        pos = line_end;
        if pos - group_start >= target {
            pieces.push(ZonePiece {
                start: group_start,
                len: pos - group_start,
                rows: group_rows,
                stats: group_stats.drain(..).map(|s| s.unwrap()).collect(),
            });
            group_start = pos;
            group_rows = 0;
            group_stats = vec![None; columns.len()];
        }
    }
    let term_start = terminator?;
    if group_rows > 0 {
        pieces.push(ZonePiece {
            start: group_start,
            len: term_start - group_start,
            rows: group_rows,
            stats: group_stats.drain(..).map(|s| s.unwrap()).collect(),
        });
    } else if term_start != group_start {
        // Bytes between the last closed group and the terminator that
        // are not rows — not a shape split_segment understands.
        return None;
    }
    pieces.push(ZonePiece {
        start: term_start,
        len: bytes.len() - term_start,
        rows: 0,
        stats: Vec::new(),
    });
    debug_assert_eq!(pieces.iter().map(|p| p.len).sum::<usize>(), bytes.len());
    Some(pieces)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn sample_block() -> Vec<u8> {
        let mut b = b"COPY t (a, b, c) FROM stdin;\n".to_vec();
        for i in 0..20 {
            b.extend_from_slice(format!("{i}\tv{i}\t{}\n", 100 - i).as_bytes());
        }
        b.extend_from_slice(b"\\.\n");
        b
    }

    #[test]
    fn pieces_tile_the_block_and_are_row_aligned() {
        let block = sample_block();
        let pieces = split_segment(&block, &cols(&["a", "c"]), 40).unwrap();
        let mut pos = 0;
        for p in &pieces {
            assert_eq!(p.start, pos);
            pos += p.len;
        }
        assert_eq!(pos, block.len());
        assert_eq!(pieces.first().unwrap().rows, 0); // header
        assert_eq!(pieces.last().unwrap().rows, 0); // terminator
        let rows: u64 = pieces.iter().map(|p| p.rows).sum();
        assert_eq!(rows, 20);
        assert!(pieces.len() > 3, "target 40 must split 20 rows");
        // Every row piece starts at a line boundary.
        for p in &pieces[1..pieces.len() - 1] {
            assert_eq!(block[p.start + p.len - 1], b'\n');
        }
    }

    #[test]
    fn stats_are_numeric_aware() {
        let block = sample_block();
        let pieces = split_segment(&block, &cols(&["a"]), usize::MAX).unwrap();
        assert_eq!(pieces.len(), 3);
        // Numeric compare: max of 0..20 is "19", and "9" must not win by
        // lexicographic accident.
        assert_eq!(pieces[1].stats[0], ("0".to_string(), "19".to_string()));
    }

    #[test]
    fn missing_column_means_no_zones() {
        let block = sample_block();
        assert!(split_segment(&block, &cols(&["nope"]), 40).is_none());
        assert!(split_segment(b"not a copy block\n", &cols(&["a"]), 40).is_none());
        // Unterminated block: no terminator piece, no zones.
        let mut trunc = sample_block();
        trunc.truncate(trunc.len() - 3);
        assert!(split_segment(&trunc, &cols(&["a"]), 40).is_none());
    }

    #[test]
    fn predicate_pruning_is_conservative() {
        let block = sample_block();
        let pieces = split_segment(&block, &cols(&["a"]), 40).unwrap();
        let zone_columns = cols(&["a"]);
        let zones: Vec<ZoneInfo> = pieces
            .iter()
            .map(|p| ZoneInfo {
                archive_len: 1,
                dump_len: p.len as u64,
                rows: p.rows,
                stats: p.stats.clone(),
            })
            .collect();
        let pred = ZonePredicate::all().with(ColumnRange::between("a", "6", "8"));
        let selected: Vec<bool> = zones
            .iter()
            .map(|z| pred.may_match(&zone_columns, z))
            .collect();
        // Structural zones always selected.
        assert!(selected[0] && selected[zones.len() - 1]);
        // Rows 6..=8 live somewhere: at least one row zone selected, and
        // at least one pruned (20 rows split into several groups).
        let row_sel: Vec<bool> = selected[1..selected.len() - 1].to_vec();
        assert!(row_sel.iter().any(|&s| s));
        assert!(row_sel.iter().any(|&s| !s));
        // A predicate on an unknown column prunes nothing.
        let open = ZonePredicate::all().with(ColumnRange::at_most("zzz", "0"));
        assert!(zones.iter().all(|z| open.may_match(&zone_columns, z)));
        // The match-all predicate selects everything.
        assert!(zones
            .iter()
            .all(|z| ZonePredicate::all().may_match(&zone_columns, z)));
    }
}
