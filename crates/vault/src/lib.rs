//! Vault — the multi-reel archive catalog layer (system **S16**,
//! `DESIGN.md` §11).
//!
//! The paper's restore path (Figure 2b) is monolithic: decode every
//! frame, rebuild the whole database, then query it. A shelf-scale
//! archive needs three things the base pipeline does not provide:
//!
//! 1. a **content index** — each dump segment (one `COPY` block per
//!    table) is compressed *independently* into a length-prefixed record,
//!    and a plain-text catalog mapping `table → record byte range →
//!    chunk/frame range` is written on the medium as its own emblem
//!    stream ([`ule_emblem::EmblemKind::Index`]);
//! 2. **selective restore** — [`Vault::restore_table`] decodes only the
//!    frames the index names (fanned over `ule_par`) and returns bytes
//!    identical to the corresponding slice of a full restore. A damaged
//!    index degrades to the full-scan path, never to wrong bytes;
//! 3. **multi-reel sharding with cross-reel parity** — the frame
//!    sequence is split into reels of `reel_capacity` frames, and every
//!    group of `data_reels` content reels gets `parity_reels` RS parity
//!    reels (shortened `RS(k+m, k)` over the reels' padded chunk bytes,
//!    built on [`ule_gf256::RsCode::parity_of`] — since the kernel layer
//!    of `DESIGN.md` §12 that is a column-batched slice operation, so
//!    parity for megabytes of reel stream costs a handful of
//!    `mul_add_slice` passes rather than a per-byte-column division), so
//!    any `m` lost reels per group are reconstructed bit for bit through
//!    its inverse, [`ule_gf256::RsCode::recover`]; an
//!    `m+1`-th loss in the same group fails as the structured
//!    [`VaultError::ReelLoss`]. The topology is a [`ShardPlan`]; a
//!    single-parity plan reproduces the pre-multi-parity shelf and
//!    manifest byte for byte.
//!
//! On top of the parity machinery sit the shelf-maintenance surfaces of
//! `DESIGN.md` §16: [`Vault::scrub`] (walk every reel, verify frame CRCs
//! and parity-group consistency, classify clean/correctable/lost),
//! [`Vault::repair`] (re-encode damaged or missing reels as pristine
//! emblems in place), and degraded-mode reads — [`Vault::restore_table`]
//! and [`Vault::query_table`] reconstruct only the frames they need from
//! surviving group columns instead of bailing to a full scan.
//!
//! Every reader (selective, whole-stream, reel rebuild, scrub) accepts a
//! decoded frame only under the header the manifest's [`ReelLayout`]
//! stamps where it is read: a misfiled or spliced-in frame is one more
//! failed scan, never a stream-wide error or a rebuild source column.
//!
//! Verification sweeps over intact shelves ride the same kernel layer
//! twice more: every catalog and segment check is the sliced
//! [`ule_gf256::crc32`], and every clean frame decodes through the
//! syndromes-only fast path of [`ule_gf256::RsCode::decode`].
//!
//! The vault is a *layer over* Micr'Olonys, not a fork of it: emblem
//! framing, inner/outer RS and the scanner channel are untouched, and
//! the Bootstrap document grows exactly one manifest line (`vault:`)
//! that pre-S16 parsers never see and the S16 parser tolerates missing —
//! classic archives restore through [`Vault::restore_all`] unchanged.

pub mod catalog;
pub mod layout;
pub mod scrub;
pub mod segment;
pub mod zones;

pub use scrub::{GroupScrub, ReelHealth, ReelScrub, RepairReport, ScrubReport};

use std::collections::{BTreeMap, HashMap, HashSet};

use catalog::{ContentIndex, IndexEntry, IndexError, ZoneInfo};
use layout::{ReelLayout, Stamp, StreamId};
use micr_olonys::{Bootstrap, MicrOlonys, RestoreError, VaultManifest};
use segment::{segment_dump, Segment};
use ule_compress::ArchiveError;
use ule_emblem::stream::{stream_emissions, Decoded, StreamError};
use ule_emblem::{decode_frames, encode_emblem, EmblemHeader, EmblemKind};
use ule_gf256::crc::{crc32, crc32_update};
use ule_obs::Telemetry;
use ule_raster::GrayImage;
use zones::{split_segment, ZonePredicate, ZoneSpec};

/// Scanned reels, aligned with [`VaultArchive::reels`]: `None` marks a
/// reel that is physically gone (lost, burned, unreadable end to end).
pub type ReelScans = Vec<Option<Vec<GrayImage>>>;

/// A reel's role on the shelf.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReelRole {
    /// Carries a slice of the content frame sequence.
    Content,
    /// Carries one cross-reel parity stream (`slot` of `m`) of one reel
    /// group.
    Parity { group: usize, slot: usize },
}

/// The reel topology of a sharded vault: `reel_capacity` frames per
/// content reel, groups of `data_reels` content reels protected by
/// `parity_reels` cross-reel parity reels — the shortened
/// `RS(k+m, k)` with `k = data_reels` and `m = parity_reels`, so any
/// `m` lost reels per group reconstruct bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// Frames per content reel; `0` = everything on one reel.
    pub reel_capacity: usize,
    /// Content reels per parity group; `0` = no parity reels.
    pub data_reels: usize,
    /// Parity reels per group (the `m` of `RS(k+m, k)`).
    pub parity_reels: usize,
}

impl ShardPlan {
    /// Single-parity plan (`m = 1`): byte-identical shelves and
    /// manifests to the pre-multi-parity layout.
    pub fn single_parity(reel_capacity: usize, data_reels: usize) -> Self {
        Self {
            reel_capacity,
            data_reels,
            parity_reels: usize::from(data_reels > 0),
        }
    }

    /// Multi-parity plan: `RS(data_reels + parity_reels, data_reels)`
    /// per group.
    pub fn with_parity(reel_capacity: usize, data_reels: usize, parity_reels: usize) -> Self {
        Self {
            reel_capacity,
            data_reels,
            parity_reels,
        }
    }

    /// The unsharded plan [`Vault::single_reel`] uses.
    fn unsharded() -> Self {
        Self {
            reel_capacity: 0,
            data_reels: 0,
            parity_reels: 0,
        }
    }
}

/// One physical reel: an ordered run of printed frames.
pub struct Reel {
    pub id: usize,
    pub role: ReelRole,
    pub frames: Vec<GrayImage>,
}

/// Everything [`Vault::archive`] produces.
pub struct VaultArchive {
    /// Content reels in shelf order, then parity reels in group order.
    pub reels: Vec<Reel>,
    /// Bootstrap document with the `vault:` manifest line stamped in.
    pub bootstrap: Bootstrap,
    /// The catalog (also on the medium as the index stream).
    pub index: ContentIndex,
    /// The frozen position math for this archive.
    pub layout: ReelLayout,
    pub stats: VaultStats,
}

/// Headline numbers of one vault archival run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VaultStats {
    pub dump_bytes: usize,
    /// Data stream length (length-prefixed records).
    pub archive_bytes: usize,
    /// Catalogued segments (tables + filler).
    pub segments: usize,
    /// Queryable tables among them.
    pub tables: usize,
    pub sys_frames: usize,
    pub index_frames: usize,
    pub data_frames: usize,
    pub content_reels: usize,
    pub parity_reels: usize,
}

/// Which path a restore ended up taking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestorePath {
    /// Index consulted, only the named frames decoded.
    Selective,
    /// Selective decode hit damage and escalated to a full scan.
    SelectiveFallback,
    /// Full scan (requested, or index unusable).
    Full,
    /// Pre-S16 archive: classic single-container restore.
    Classic,
}

/// Diagnostics of one vault restore. `frames_decoded` counts the frames
/// pushed through the emblem decoder *to serve the restore itself* (the
/// E10 "frames scanned" metric); sibling/parity frames decoded while
/// rebuilding a lost reel are counted separately in
/// `recovery_frames_decoded`, so selective-restore economics stay
/// visible — and honest — even when a reel was rebuilt.
#[derive(Clone, Copy, Debug)]
pub struct VaultRestoreStats {
    pub frames_decoded: usize,
    /// Sibling + parity frames decoded during cross-reel reconstruction.
    pub recovery_frames_decoded: usize,
    pub frames_reconstructed: usize,
    pub reels_reconstructed: usize,
    /// Data frames a full restore would decode (the E10 denominator).
    pub data_frames_total: usize,
    /// Inner-RS symbols corrected across every frame this restore
    /// decoded — index, data and reconstruction frames alike. Zero on a
    /// pristine shelf; the decode-health headline when it is not.
    pub corrected_symbols: usize,
    /// Outer-code codeword slots (data *and* parity) declared as
    /// erasures during stream-level recovery.
    pub erasure_frames: usize,
    pub path: RestorePath,
    /// True when the index stream was unusable and the restore fell back
    /// to a full scan.
    pub index_fallback: bool,
}

impl VaultRestoreStats {
    fn new(path: RestorePath, data_frames_total: usize) -> Self {
        Self {
            frames_decoded: 0,
            recovery_frames_decoded: 0,
            frames_reconstructed: 0,
            reels_reconstructed: 0,
            data_frames_total,
            corrected_symbols: 0,
            erasure_frames: 0,
            path,
            index_fallback: false,
        }
    }
}

/// One table's dump bytes as a stream of pieces, the unit
/// [`Vault::query_table`] hands to streaming aggregators. Each piece is
/// `(dump offset, bytes)` in dump order; an unpruned scan's pieces
/// concatenate to exactly the table's dump segment.
#[derive(Clone, Debug)]
pub struct TableScan {
    pub pieces: Vec<(u64, Vec<u8>)>,
    /// Zones the catalog holds for this table (1 when zone-less).
    pub zones_total: usize,
    /// Zones the predicate could not exclude (= decoded).
    pub zones_selected: usize,
    /// True when at least one zone was skipped.
    pub pruned: bool,
}

impl TableScan {
    fn whole(dump_start: u64, bytes: Vec<u8>) -> Self {
        Self {
            pieces: vec![(dump_start, bytes)],
            zones_total: 1,
            zones_selected: 1,
            pruned: false,
        }
    }

    /// The scan's bytes, concatenated in dump order.
    pub fn concat(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.pieces.iter().map(|(_, b)| b.len()).sum());
        for (_, b) in &self.pieces {
            out.extend_from_slice(b);
        }
        out
    }
}

/// Cost accounting of one [`Vault::query_table`] call — the engine-side
/// E13 numbers, so report tables and tests read them from the scan that
/// actually ran instead of re-deriving them.
#[derive(Clone, Copy, Debug)]
pub struct QueryStats {
    /// Zones the catalog holds for the scanned table (1 when zone-less).
    pub zones_total: usize,
    /// Zones the predicate could not exclude (= decoded).
    pub zones_scanned: usize,
    /// Zones the predicate excluded without touching their frames.
    pub zones_pruned: usize,
    /// Pieces handed to the streaming aggregator, in dump order.
    pub pieces_streamed: usize,
    /// Dump bytes across those pieces.
    pub bytes_touched: usize,
    /// The restore-side diagnostics of the same call (frames decoded,
    /// path taken, RS corrections, reel reconstruction).
    pub restore: VaultRestoreStats,
}

impl QueryStats {
    fn from_scan(scan: &TableScan, restore: VaultRestoreStats) -> Self {
        Self {
            zones_total: scan.zones_total,
            zones_scanned: scan.zones_selected,
            zones_pruned: scan.zones_total - scan.zones_selected,
            pieces_streamed: scan.pieces.len(),
            bytes_touched: scan.pieces.iter().map(|(_, b)| b.len()).sum(),
            restore,
        }
    }
}

/// Vault failures. Reel-level loss beyond the parity budget is the
/// structured [`VaultError::ReelLoss`] naming the group and the lost
/// reel ids — never a panic, never silent garbage.
#[derive(Debug)]
pub enum VaultError {
    Restore(RestoreError),
    Stream(StreamError),
    Archive(ArchiveError),
    Index(IndexError),
    /// The named table is not in the catalog.
    UnknownTable(String),
    /// More reels lost in one parity group than the parity reel covers.
    ReelLoss {
        group: usize,
        lost: Vec<usize>,
        recoverable: usize,
    },
    /// Scans disagree with the manifest (reel count, frame count, record
    /// framing) — the shelf does not match the document.
    ShapeMismatch(String),
}

impl std::fmt::Display for VaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VaultError::Restore(e) => write!(f, "restore: {e}"),
            VaultError::Stream(e) => write!(f, "stream: {e}"),
            VaultError::Archive(e) => write!(f, "archive: {e}"),
            VaultError::Index(e) => write!(f, "index: {e}"),
            VaultError::UnknownTable(t) => write!(f, "table {t:?} is not in the catalog"),
            VaultError::ReelLoss {
                group,
                lost,
                recoverable,
            } => write!(
                f,
                "group {group}: reels {lost:?} lost, parity recovers at most {recoverable}"
            ),
            VaultError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
        }
    }
}

impl std::error::Error for VaultError {}

impl From<RestoreError> for VaultError {
    fn from(e: RestoreError) -> Self {
        VaultError::Restore(e)
    }
}
impl From<StreamError> for VaultError {
    fn from(e: StreamError) -> Self {
        VaultError::Stream(e)
    }
}
impl From<ArchiveError> for VaultError {
    fn from(e: ArchiveError) -> Self {
        VaultError::Archive(e)
    }
}
impl From<IndexError> for VaultError {
    fn from(e: IndexError) -> Self {
        VaultError::Index(e)
    }
}

/// The vault configuration: a base [`MicrOlonys`] system (medium, DBCoder
/// scheme, worker pool, telemetry) plus the reel topology.
#[derive(Clone)]
pub struct Vault {
    pub system: MicrOlonys,
    /// Reel topology: capacity, group size, parity depth.
    pub plan: ShardPlan,
    /// Zone-map spec applied at archive time (`None` = every segment is
    /// one opaque record — byte-identical to pre-zone-map composition).
    pub zone_spec: Option<ZoneSpec>,
}

impl Vault {
    /// A single-reel vault (catalog + selective restore, no sharding).
    pub fn single_reel(system: MicrOlonys) -> Self {
        Self {
            system,
            plan: ShardPlan::unsharded(),
            zone_spec: Some(ZoneSpec::tpch_default()),
        }
    }

    /// A sharded vault laid out by `plan`: `plan.reel_capacity` frames
    /// per reel, `plan.parity_reels` parity reels per `plan.data_reels`
    /// content reels.
    pub fn sharded(system: MicrOlonys, plan: ShardPlan) -> Self {
        assert!(
            plan.reel_capacity > 0,
            "sharding needs a positive reel capacity"
        );
        assert!(
            plan.data_reels == 0 || plan.parity_reels >= 1,
            "parity groups need at least one parity reel"
        );
        Self {
            system,
            plan,
            zone_spec: Some(ZoneSpec::tpch_default()),
        }
    }

    /// This vault with a telemetry recorder attached to its system
    /// (builder style; see [`MicrOlonys::with_telemetry`]).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.system.telemetry = telemetry;
        self
    }

    /// Compose archives without zone maps — byte-identical to the PR-4
    /// era single-record-per-segment layout (the no-zones fallback the
    /// query path must keep serving).
    pub fn without_zones(mut self) -> Self {
        self.zone_spec = None;
        self
    }

    /// Segmentation + per-segment compression + catalog serialization:
    /// the byte-level composition of a vault archive, shared by
    /// [`Vault::archive`] and [`Vault::plan_layout`]. Returns the data
    /// stream (length-prefixed records), the catalog, and its serialized
    /// bytes.
    fn compose(&self, dump: &[u8]) -> (Vec<u8>, ContentIndex, Vec<u8>) {
        let cap = self.system.medium.geometry.payload_capacity();
        let segments = segment_dump(dump);

        // Plan each segment's pieces: zone-mapped tables split into
        // row-aligned sub-records (header / row groups / terminator),
        // everything else stays one opaque record. Dump-byte spans are
        // absolute; per-segment piece metadata rides along for the
        // catalog entry.
        struct SegPlan {
            zone_columns: Vec<String>,
            // (absolute dump start, len, rows, stats) per piece.
            pieces: Vec<(usize, usize, u64, Vec<(String, String)>)>,
        }
        let plans: Vec<SegPlan> = segments
            .iter()
            .map(|s| {
                let bytes = &dump[s.start..s.start + s.len];
                if let Some(spec) = self.zone_spec.as_ref().filter(|_| s.is_table()) {
                    if let Some(cols) = spec.columns_for(&s.name) {
                        // Six chunk payloads per row group, so each zone
                        // spans a handful of frames.
                        if let Some(pieces) = split_segment(bytes, cols, 6 * cap.max(1)) {
                            return SegPlan {
                                zone_columns: cols.to_vec(),
                                pieces: pieces
                                    .into_iter()
                                    .map(|p| (s.start + p.start, p.len, p.rows, p.stats))
                                    .collect(),
                            };
                        }
                    }
                }
                SegPlan {
                    zone_columns: Vec::new(),
                    pieces: vec![(s.start, s.len, 0, Vec::new())],
                }
            })
            .collect();

        // Compress every piece (across all segments) in one parallel
        // fan-out into length-prefixed records.
        let flat: Vec<(usize, usize)> = plans
            .iter()
            .flat_map(|p| p.pieces.iter().map(|&(start, len, _, _)| (start, len)))
            .collect();
        let records: Vec<Vec<u8>> = ule_par::map(self.system.threads, &flat, |&(start, len)| {
            let container = ule_compress::compress(self.system.scheme, &dump[start..start + len]);
            let mut rec = Vec::with_capacity(4 + container.len());
            rec.extend_from_slice(&(container.len() as u32).to_le_bytes());
            rec.extend_from_slice(&container);
            rec
        });

        let mut data_bytes = Vec::new();
        let mut entries = Vec::with_capacity(segments.len());
        let mut rec_it = records.into_iter();
        for (s, plan) in segments.iter().zip(&plans) {
            let archive_start = data_bytes.len() as u64;
            let mut zones = Vec::with_capacity(plan.pieces.len());
            for &(_, piece_len, rows, ref stats) in &plan.pieces {
                let rec = rec_it.next().expect("one record per piece");
                zones.push(ZoneInfo {
                    archive_len: rec.len() as u64,
                    dump_len: piece_len as u64,
                    rows,
                    stats: stats.clone(),
                });
                data_bytes.extend_from_slice(&rec);
            }
            // Single-piece segments carry no zones: the entry line stays
            // byte-identical to the pre-zone-map catalog format.
            let (zone_columns, zones) = if zones.len() > 1 {
                (plan.zone_columns.clone(), zones)
            } else {
                (Vec::new(), Vec::new())
            };
            entries.push(IndexEntry {
                name: s.name.clone(),
                archive_start,
                archive_len: data_bytes.len() as u64 - archive_start,
                dump_start: s.start as u64,
                dump_len: s.len as u64,
                crc32: crc32(&dump[s.start..s.start + s.len]),
                zone_columns,
                zones,
            });
        }
        let index = ContentIndex {
            chunk_cap: cap as u32,
            entries,
        };
        let index_bytes = index.to_bytes();
        (data_bytes, index, index_bytes)
    }

    /// Archive a dump as a catalogued, (optionally) sharded vault.
    pub fn archive(&self, dump: &[u8]) -> VaultArchive {
        let geom = self.system.medium.geometry;
        let threads = self.system.threads;
        let tel = &self.system.telemetry;
        let (data_bytes, index, index_bytes) = self.compose(dump);
        let sys_bytes = MicrOlonys::system_stream_bytes();

        let layout = self.layout_for(&index_bytes, &data_bytes);
        // Render the three content streams in shelf order. Their
        // emissions (header plus chunk bytes, outer parity included) are
        // kept: cross-reel parity runs over the very same bytes.
        let parity = self.system.with_parity;
        let mut frames = Vec::with_capacity(layout.total_frames());
        let mut payloads = Vec::with_capacity(layout.total_frames());
        for (kind, bytes) in [
            (EmblemKind::System, &sys_bytes),
            (EmblemKind::Index, &index_bytes),
            (EmblemKind::Data, &data_bytes),
        ] {
            let emissions = stream_emissions(&geom, kind, bytes, parity, threads, tel);
            frames.extend(self.system.medium.render(&emissions, threads));
            payloads.extend(emissions.into_iter().map(|(_, chunk)| chunk));
        }
        debug_assert_eq!(frames.len(), layout.total_frames());

        // Split into content reels.
        let mut reels: Vec<Reel> = Vec::with_capacity(layout.total_reels());
        let mut it = frames.into_iter();
        for r in 0..layout.content_reels() {
            reels.push(Reel {
                id: r,
                role: ReelRole::Content,
                frames: it.by_ref().take(layout.reel_frames(r)).collect(),
            });
        }

        // Cross-reel parity reels: `RS(k+m, k)` column parity over the
        // group members' padded chunk bytes, each of a group's `m` parity
        // streams on its own reel, slot-major.
        if layout.parity_reels() > 0 {
            for g in 0..layout.groups() {
                let parity = layout
                    .group_parity_streams(g, |r, j| &payloads[r * layout.reel_capacity + j][..]);
                for (slot, parity_bytes) in parity.into_iter().enumerate() {
                    let kind = EmblemKind::ReelParity;
                    let emissions =
                        stream_emissions(&geom, kind, &parity_bytes, false, threads, tel);
                    reels.push(Reel {
                        id: layout.parity_reel_of(g, slot),
                        role: ReelRole::Parity { group: g, slot },
                        frames: self.system.medium.render(&emissions, threads),
                    });
                }
            }
        }

        let mut bootstrap = self.system.make_bootstrap();
        bootstrap.vault = Some(VaultManifest {
            tables: index.entries.len(),
            sys_len: sys_bytes.len(),
            index_len: index_bytes.len(),
            data_len: data_bytes.len(),
            index_crc32: crc32(&index_bytes),
            reel_capacity: self.plan.reel_capacity,
            group_reels: self.plan.data_reels,
            parity_reels: self.plan.parity_reels,
        });

        let stats = VaultStats {
            dump_bytes: dump.len(),
            archive_bytes: data_bytes.len(),
            segments: index.entries.len(),
            tables: index.tables().len(),
            sys_frames: layout.sys_frames(),
            index_frames: layout.index_frames(),
            data_frames: layout.data_frames(),
            content_reels: layout.content_reels(),
            parity_reels: layout.parity_reels(),
        };
        VaultArchive {
            reels,
            bootstrap,
            index,
            layout,
            stats,
        }
    }

    /// Scan every present reel of `archive` through the medium's channel
    /// (per-frame seeds perturbed per reel) — the test/bench convenience
    /// for producing a [`ReelScans`] shelf.
    pub fn scan_reels(&self, archive: &VaultArchive, seed: u64) -> ReelScans {
        archive
            .reels
            .iter()
            .map(|r| {
                Some(self.system.medium.scan_all(
                    &r.frames,
                    seed ^ ((r.id as u64 + 1) << 32),
                    self.system.threads,
                ))
            })
            .collect()
    }

    /// Full restore: the entire dump, bit-identical to what was archived.
    ///
    /// Works on vault archives (manifest present: records are split and
    /// decompressed per segment, lost reels reconstructed from parity)
    /// *and* on pre-S16 classic archives (no manifest: the scans are
    /// treated as one classic data stream and restored through
    /// [`MicrOlonys::restore_native`]).
    pub fn restore_all(
        &self,
        bootstrap: &Bootstrap,
        reels: &ReelScans,
    ) -> Result<(Vec<u8>, VaultRestoreStats), VaultError> {
        let _span = self.system.telemetry.span("vault.restore_all");
        let Some(manifest) = &bootstrap.vault else {
            // Pre-S16 archive: no catalog, no reel map — concatenate
            // whatever survives and lean on the outer code.
            let scans: Vec<&GrayImage> = reels.iter().flatten().flatten().collect();
            let mut stats = VaultRestoreStats::new(RestorePath::Classic, scans.len());
            stats.frames_decoded = scans.len();
            let (dump, r) = self.system.restore_native(&scans)?;
            stats.corrected_symbols = r.rs_corrected;
            stats.erasure_frames = r.erasure_frames;
            return Ok((dump, stats));
        };
        let layout = self.shelf_layout(bootstrap, manifest, reels)?;
        let mut stats = VaultRestoreStats::new(RestorePath::Full, layout.data_frames());
        let mut source = FrameSource::new(layout, reels)?;
        let dump = self.full_restore(&mut source, &mut stats)?;
        Ok((dump, stats))
    }

    /// Selective restore: the named table's dump segment, decoded from
    /// only the frames the content index maps it to. The returned bytes
    /// are identical to the same slice of [`Vault::restore_all`]'s dump —
    /// a damaged index or damaged data frames degrade to the full-scan
    /// fallback, never to different bytes. This is the unpruned
    /// [`Vault::query_table`] scan, concatenated.
    pub fn restore_table(
        &self,
        bootstrap: &Bootstrap,
        reels: &ReelScans,
        table: &str,
    ) -> Result<(Vec<u8>, VaultRestoreStats), VaultError> {
        let _span = self.system.telemetry.span("vault.restore_table");
        let (scan, stats) = self.read_table(bootstrap, reels, table, &ZonePredicate::all())?;
        Ok((scan.concat(), stats))
    }

    /// Streaming query scan of one table: the dump bytes a query needs,
    /// with zone-map pruning applied when the catalog carries zones and
    /// the predicate excludes some of them. Pieces arrive in dump order;
    /// concatenating the pieces of an *unpruned* scan reproduces the
    /// table's dump segment byte-for-byte. Pruning is a performance hint
    /// only — callers re-apply their exact predicate to every row — so a
    /// pruned scan answers queries identically to an unpruned one.
    ///
    /// The fallbacks are shared with [`Vault::restore_table`] and
    /// [`Vault::list_tables`] (classic archives, unusable index, damaged
    /// frames): each degrades to an unpruned single-piece scan, never to
    /// different bytes.
    pub fn query_table(
        &self,
        bootstrap: &Bootstrap,
        reels: &ReelScans,
        table: &str,
        pred: &ZonePredicate,
    ) -> Result<(TableScan, QueryStats), VaultError> {
        let _span = self.system.telemetry.span("vault.query_table");
        let (scan, stats) = self.read_table(bootstrap, reels, table, pred)?;
        Ok(self.finish_query(scan, stats))
    }

    /// Table names readable from the medium's index stream (plus which
    /// restore path reading them took). An unusable index degrades to
    /// the full scan, whose dump is segmented for the names instead.
    pub fn list_tables(
        &self,
        bootstrap: &Bootstrap,
        reels: &ReelScans,
    ) -> Result<(Vec<String>, VaultRestoreStats), VaultError> {
        let (catalog, stats) = self.open_catalog(bootstrap, reels)?;
        let names = match catalog {
            Catalog::Index(index, _) => index.tables().iter().map(|t| t.to_string()).collect(),
            Catalog::Dump(dump) => segment_dump(&dump)
                .into_iter()
                .filter(|s| s.is_table())
                .map(|s| s.name)
                .collect(),
        };
        Ok((names, stats))
    }

    /// The catalog step of the read ladder every catalog reader shares.
    /// Rung 1: a classic archive has no index, so it restores in full.
    /// Rung 2: an unusable index (beyond its own RS budget, CRC mismatch,
    /// parse or shape failure) falls back to the full scan. Reel-level
    /// loss beyond parity is not an index problem — a full scan cannot
    /// help either — so it propagates unchanged.
    fn open_catalog<'a>(
        &self,
        bootstrap: &Bootstrap,
        reels: &'a ReelScans,
    ) -> Result<(Catalog<'a>, VaultRestoreStats), VaultError> {
        let Some(manifest) = &bootstrap.vault else {
            let (dump, stats) = self.restore_all(bootstrap, reels)?;
            return Ok((Catalog::Dump(dump), stats));
        };
        let layout = self.shelf_layout(bootstrap, manifest, reels)?;
        let mut stats = VaultRestoreStats::new(RestorePath::Selective, layout.data_frames());
        let mut source = FrameSource::new(layout, reels)?;
        match self.read_index(manifest, &mut source, &mut stats) {
            Ok(index) => Ok((Catalog::Index(index, source), stats)),
            Err(e @ VaultError::ReelLoss { .. }) => Err(e),
            Err(_) => {
                stats.index_fallback = true;
                stats.path = RestorePath::Full;
                let dump = self.full_restore(&mut source, &mut stats)?;
                Ok((Catalog::Dump(dump), stats))
            }
        }
    }

    /// The table step of the read ladder, under [`Vault::restore_table`]
    /// and [`Vault::query_table`]: scan the table's catalogued range
    /// through `pred`, or find its segment in the dump the catalog step
    /// fell back to. Rung 3: damaged frames inside the range that even a
    /// per-frame rebuild cannot save escalate to the full scan, which
    /// brings the outer code to bear, and the catalog's range is cut out
    /// of the result.
    fn read_table(
        &self,
        bootstrap: &Bootstrap,
        reels: &ReelScans,
        table: &str,
        pred: &ZonePredicate,
    ) -> Result<(TableScan, VaultRestoreStats), VaultError> {
        let unknown = || VaultError::UnknownTable(table.to_string());
        let (index, mut source, mut stats) = match self.open_catalog(bootstrap, reels)? {
            (Catalog::Index(index, source), stats) => (index, source, stats),
            (Catalog::Dump(dump), stats) => {
                let seg = find_segment(&dump, table).ok_or_else(unknown)?;
                let bytes = dump[seg.start..seg.start + seg.len].to_vec();
                return Ok((TableScan::whole(seg.start as u64, bytes), stats));
            }
        };
        let entry = index.find(table).ok_or_else(unknown)?;
        match self.scan_entry(&index, entry, pred, &mut source, &mut stats) {
            Ok(scan) => Ok((scan, stats)),
            Err(e @ VaultError::ReelLoss { .. }) => Err(e),
            Err(_) => {
                stats.path = RestorePath::SelectiveFallback;
                let dump = self.full_restore(&mut source, &mut stats)?;
                let (start, len) = (entry.dump_start as usize, entry.dump_len as usize);
                let bytes = start
                    .checked_add(len)
                    .and_then(|end| dump.get(start..end))
                    .ok_or_else(|| {
                        VaultError::ShapeMismatch(format!(
                            "catalog names dump range {start}+{len}, dump holds {} bytes",
                            dump.len()
                        ))
                    })?;
                Ok((TableScan::whole(entry.dump_start, bytes.to_vec()), stats))
            }
        }
    }

    /// Close out one query scan: derive its [`QueryStats`] and feed the
    /// zone/piece counters to the telemetry recorder.
    fn finish_query(&self, scan: TableScan, stats: VaultRestoreStats) -> (TableScan, QueryStats) {
        let q = QueryStats::from_scan(&scan, stats);
        let t = &self.system.telemetry;
        t.add("query.zones_total", q.zones_total as u64);
        t.add("query.zones_scanned", q.zones_scanned as u64);
        t.add("query.zones_pruned", q.zones_pruned as u64);
        t.add("query.pieces_streamed", q.pieces_streamed as u64);
        t.add("query.bytes_touched", q.bytes_touched as u64);
        (scan, q)
    }

    /// The pruned scan proper: select the zones the predicate may match
    /// (structural zones — header and terminator — always qualify),
    /// decode only the chunks those zones touch, unwrap each zone's
    /// sub-record. When nothing was pruned the whole-segment catalog CRC
    /// is within reach and gets checked. A zone-less entry decodes as one
    /// whole record run.
    fn scan_entry(
        &self,
        index: &ContentIndex,
        entry: &IndexEntry,
        pred: &ZonePredicate,
        source: &mut FrameSource<'_>,
        stats: &mut VaultRestoreStats,
    ) -> Result<TableScan, VaultError> {
        let layout = source.layout;
        let Some(spans) = entry.zone_spans() else {
            // No zones in the catalog (PR-4 era archive, or a table the
            // zone spec does not cover): exactly the chunks covering the
            // entry's record run.
            let chunks: Vec<usize> = index.chunk_range(entry).collect();
            let payloads = self.decode_chunks(&chunks, source, stats)?;
            let run = extract_span(
                &payloads,
                layout.chunk_cap,
                entry.archive_start,
                entry.archive_len,
            )?;
            return Ok(TableScan::whole(
                entry.dump_start,
                decode_record_run(&run, entry)?,
            ));
        };
        let selected: Vec<_> = spans
            .iter()
            .filter(|s| pred.may_match(&entry.zone_columns, s.info))
            .collect();
        let mut chunks: Vec<usize> = selected
            .iter()
            .flat_map(|s| index.chunk_span(s.archive_start, s.info.archive_len))
            .collect();
        chunks.sort_unstable();
        chunks.dedup();
        let payloads = self.decode_chunks(&chunks, source, stats)?;
        let mut pieces = Vec::with_capacity(selected.len());
        for s in &selected {
            let run = extract_span(
                &payloads,
                layout.chunk_cap,
                s.archive_start,
                s.info.archive_len,
            )?;
            pieces.push((s.dump_start, decode_zone_record(&run, s.info)?));
        }
        if selected.len() == spans.len() {
            let crc = pieces
                .iter()
                .fold(0xFFFF_FFFF, |state, (_, b)| crc32_update(state, b))
                ^ 0xFFFF_FFFF;
            if crc != entry.crc32 {
                return Err(VaultError::ShapeMismatch(format!(
                    "segment {} fails its catalog crc",
                    entry.name
                )));
            }
        }
        Ok(TableScan {
            pieces,
            zones_total: spans.len(),
            zones_selected: selected.len(),
            pruned: selected.len() < spans.len(),
        })
    }

    /// The manifest's reel layout, checked against the number of reels
    /// the shelf holds.
    fn shelf_layout(
        &self,
        bootstrap: &Bootstrap,
        manifest: &VaultManifest,
        reels: &ReelScans,
    ) -> Result<ReelLayout, VaultError> {
        let layout = ReelLayout::from_manifest(
            manifest,
            bootstrap.geometry().payload_capacity(),
            bootstrap.outer_parity,
        )?;
        if reels.len() != layout.total_reels() {
            return Err(VaultError::ShapeMismatch(format!(
                "manifest describes {} reels, shelf holds {}",
                layout.total_reels(),
                reels.len()
            )));
        }
        Ok(layout)
    }

    /// The vault's one frame verdict: every frame a vault reader uses —
    /// selective chunks, whole-stream reads, rebuild source columns,
    /// scrub — is decoded here ([`decode_frames`], fanned over `ule_par`,
    /// recording into `tel`) and accepted only under its [`Stamp`]. One
    /// verdict per frame, in input order; `None` for a frame that does
    /// not decode or decodes to any other header.
    fn frame_verdicts(
        &self,
        frames: &[(&GrayImage, Stamp)],
        tel: &Telemetry,
    ) -> Vec<Option<Decoded>> {
        let scans: Vec<&GrayImage> = frames.iter().map(|&(scan, _)| scan).collect();
        let geom = &self.system.medium.geometry;
        decode_frames(geom, &scans, self.system.threads, tel)
            .into_iter()
            .zip(frames)
            .map(|(decoded, (_, stamp))| decoded.ok().filter(|(h, _, _)| stamp.admits(h)))
            .collect()
    }

    /// Decode and verify the content index stream.
    fn read_index(
        &self,
        manifest: &VaultManifest,
        source: &mut FrameSource<'_>,
        stats: &mut VaultRestoreStats,
    ) -> Result<ContentIndex, VaultError> {
        let bytes = self.decode_whole_stream(StreamId::Index, "vault.read_index", source, stats)?;
        if crc32(&bytes) != manifest.index_crc32 {
            return Err(VaultError::Index(IndexError::BadCrc {
                stored: manifest.index_crc32,
                computed: crc32(&bytes),
            }));
        }
        let index = ContentIndex::parse(&bytes)?;
        validate_index(&index, &source.layout)?;
        Ok(index)
    }

    /// Decode every frame of content stream `stream` as one emblem stream
    /// (outer-code recovery included), rebuilding lost reels first; a
    /// frame counts at the slot its own header names (order-tolerant).
    /// The scans are borrowed from the shelf, never copied.
    fn decode_whole_stream(
        &self,
        stream: StreamId,
        span: &str,
        source: &mut FrameSource<'_>,
        stats: &mut VaultRestoreStats,
    ) -> Result<Vec<u8>, VaultError> {
        let layout = source.layout;
        let plan = layout.plan(stream);
        let positions: Vec<usize> = (0..plan.total_emblems())
            .map(|q| layout.position(stream, q))
            .collect();
        let lost = source.lost_reel_frames(&positions);
        source.rebuild(self, &lost, stats)?;
        stats.frames_decoded += positions.len();
        let tel = &self.system.telemetry;
        let _span = tel.span(span);
        let stamp = Stamp::Stream(&plan, stream.kind());
        let frames: Vec<_> = positions
            .iter()
            .map(|&p| (source.get(layout.reel_of(p)), stamp))
            .collect();
        let accepted = self.frame_verdicts(&frames, tel).into_iter().flatten();
        let (bytes, s) = plan.place(accepted).recover(tel)?;
        stats.corrected_symbols += s.rs_corrected;
        stats.erasure_frames += s.erasure_frames;
        Ok(bytes)
    }

    /// Decode an arbitrary set of data-stream chunks, returning their
    /// payloads keyed by chunk index. The shared primitive under the
    /// selective-restore and pruned-query paths.
    ///
    /// This is the degraded-mode read path: frames on lost reels are
    /// rebuilt *per offset* — only the frames this read touches, never
    /// the whole reel — and a frame on a present reel that no longer
    /// decodes to the header stamped at its position is rebuilt from its
    /// parity group's surviving columns and retried once before the caller escalates to the full scan. The
    /// retry decodes only the rebuilt frames; the first attempt's good
    /// payloads are kept.
    fn decode_chunks(
        &self,
        chunks: &[usize],
        source: &mut FrameSource<'_>,
        stats: &mut VaultRestoreStats,
    ) -> Result<HashMap<usize, Vec<u8>>, VaultError> {
        let layout = source.layout;
        let located = chunks
            .iter()
            .map(|&c| source.locate(layout.chunk_position(StreamId::Data, c)))
            .collect::<Result<Vec<_>, _>>()?;
        let lost: Vec<(usize, usize)> = located
            .iter()
            .copied()
            .filter(|&(r, _)| source.reels[r].is_none())
            .collect();
        source.rebuild(self, &lost, stats)?;
        let stamps: Vec<EmblemHeader> = located
            .iter()
            .map(|&(r, j)| layout.header_at(r, j))
            .collect();
        stats.frames_decoded += chunks.len();
        // Decode the frames at `picks` (indices into `chunks`): one
        // payload per pick, `None` where it failed to decode or decoded
        // to any header but the one stamped at its position.
        let mut corrected = 0usize;
        let mut decode = |source: &FrameSource<'_>, picks: &[usize]| {
            let tel = &self.system.telemetry;
            let _span = tel.span("restore.selective");
            let frames: Vec<_> = picks
                .iter()
                .map(|&i| (source.get(located[i]), Stamp::At(stamps[i])))
                .collect();
            let payloads: Vec<Option<Vec<u8>>> = self
                .frame_verdicts(&frames, tel)
                .into_iter()
                .map(|v| {
                    let (_, payload, ds) = v?;
                    corrected += ds.rs_corrected;
                    Some(payload)
                })
                .collect();
            let decoded = payloads.iter().flatten().count();
            tel.add("selective.frames_requested", picks.len() as u64);
            tel.add("selective.frames_decoded", decoded as u64);
            tel.add("selective.frames_failed", (picks.len() - decoded) as u64);
            payloads
        };
        let all: Vec<usize> = (0..chunks.len()).collect();
        let mut payloads = decode(source, &all);
        let bad: Vec<usize> = all.into_iter().filter(|&i| payloads[i].is_none()).collect();
        if !bad.is_empty() && layout.parity_reels() > 0 {
            // Rebuild exactly the frames that failed from surviving group
            // columns, then decode only those once more.
            let wants: Vec<(usize, usize)> = bad.iter().map(|&i| located[i]).collect();
            source.rebuild(self, &wants, stats)?;
            for (i, payload) in bad.iter().zip(decode(source, &bad)) {
                payloads[*i] = payload;
            }
        }
        let missing: Vec<usize> = bad
            .into_iter()
            .filter(|&i| payloads[i].is_none())
            .map(|i| stamps[i].index as usize)
            .collect();
        if !missing.is_empty() {
            return Err(RestoreError::FrameLoss {
                kind: EmblemKind::Data,
                expected: chunks.len(),
                found: chunks.len() - missing.len(),
                missing,
            }
            .into());
        }
        // Counted on success only: after a failure the full scan decodes
        // these frames again and counts their corrections itself.
        stats.corrected_symbols += corrected;
        Ok(chunks
            .iter()
            .zip(payloads)
            .map(|(&c, payload)| (c, payload.expect("every frame decoded")))
            .collect())
    }

    /// Full-scan restore of the whole dump from a vault data stream.
    fn full_restore(
        &self,
        source: &mut FrameSource<'_>,
        stats: &mut VaultRestoreStats,
    ) -> Result<Vec<u8>, VaultError> {
        let data_bytes =
            self.decode_whole_stream(StreamId::Data, "vault.full_restore", source, stats)?;
        // Walk the length-prefixed records and decompress each segment.
        let mut dump = Vec::new();
        for record in split_records(&data_bytes)? {
            dump.extend(ule_compress::decompress(record)?);
        }
        Ok(dump)
    }

    /// Rebuild the requested `(reel, offset)` frames of parity group `g`
    /// from the group's surviving columns, returning pristine re-encoded
    /// emblem images (identical bytes to the originals by construction)
    /// tagged with whether each frame was actually recovered.
    ///
    /// Requested frames are never trusted as source columns — they are
    /// erasures by definition (lost reel, or a damaged frame the caller
    /// could not decode), and neither is a misfiled sibling (any header
    /// but its `header_at` one). Physically lost reels beyond the group's `m`
    /// parity budget fail up front as the structured
    /// [`VaultError::ReelLoss`] naming every lost reel; per-offset
    /// sibling damage *beyond* the budget degrades only that offset to
    /// an intentionally blank frame — downstream that is one more failed
    /// scan for the stream-level outer code (or the selective path's
    /// full-scan fallback) to absorb, not a bricked shelf.
    ///
    /// Cross-reel recovery is column-independent: byte offset `o` of a
    /// lost stream needs only byte `o` of each surviving stream, so
    /// frame `j` of a lost reel needs exactly frame `j` of each
    /// surviving member plus the group's parity frames `j` — which is
    /// what makes on-demand degraded-mode reads (rebuild only the frames
    /// a query touches) possible at all.
    pub(crate) fn reconstruct_group_frames(
        &self,
        layout: &ReelLayout,
        reels: &ReelScans,
        g: usize,
        wants: &[(usize, usize)],
        stats: &mut VaultRestoreStats,
    ) -> Result<Vec<((usize, usize), GrayImage, bool)>, VaultError> {
        let geom = self.system.medium.geometry;
        let m = layout.group_parity;
        let group_reels = layout.codeword_reels(g);
        let rs = layout.group_code(g);

        // Physically lost reels are a group-wide budget question: past
        // `m` of them no offset is solvable and the structured error
        // names them all.
        let lost: Vec<usize> = group_reels
            .iter()
            .copied()
            .filter(|&r| reels[r].is_none())
            .collect();
        if lost.len() > m {
            return Err(VaultError::ReelLoss {
                group: g,
                lost,
                recoverable: m,
            });
        }

        // Requested offsets, each with the reels to rebuild there.
        let mut by_offset: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &(r, j) in wants {
            let targets = by_offset.entry(j).or_default();
            if !targets.contains(&r) {
                targets.push(r);
            }
        }
        let jobs: Vec<(usize, Vec<usize>)> = by_offset.into_iter().collect();

        let blank = GrayImage::new(geom.image_width(), geom.image_height(), 255);
        let _span = self.system.telemetry.span("vault.reconstruct_group");
        // Reel `r`'s column at offset `j`: `None` erases it — a reel being
        // rebuilt, or one whose frame count disagrees with the manifest
        // (torn tape, partial scan; its wrong bytes would surface only as
        // a distant container-CRC mismatch) — and `Some(None)` is a short
        // tail reel's zero padding.
        let column = |r: usize, j: usize, targets: &[usize]| {
            reels[r]
                .as_ref()
                .filter(|s| !targets.contains(&r) && s.len() == layout.frames_on(r))
                .map(|s| s.get(j))
        };
        let frames: Vec<_> = jobs
            .iter()
            .flat_map(|(j, targets)| group_reels.iter().map(move |&r| (r, *j, targets)))
            .filter_map(|(r, j, targets)| {
                Some((column(r, j, targets)??, Stamp::At(layout.header_at(r, j))))
            })
            .collect();
        stats.recovery_frames_decoded += frames.len();
        let mut verdicts = self.frame_verdicts(&frames, &Telemetry::off()).into_iter();
        let work: Vec<_> = jobs
            .iter()
            .map(|(j, targets)| {
                let payloads: Vec<Option<Vec<u8>>> = group_reels
                    .iter()
                    .map(|&r| match column(r, *j, targets)? {
                        None => Some(Vec::new()),
                        Some(_) => {
                            let (_, payload, ds) = verdicts.next()??;
                            stats.corrected_symbols += ds.rs_corrected;
                            Some(payload)
                        }
                    })
                    .collect();
                (*j, targets, payloads)
            })
            .collect();
        let rebuilt: Vec<Vec<_>> =
            ule_par::map(self.system.threads, &work, |(j, targets, payloads)| {
                let j = *j;
                let streams: Vec<Option<&[u8]>> = payloads.iter().map(Option::as_deref).collect();
                let Ok((solved, _)) = rs.recover(&streams, layout.chunk_cap) else {
                    return targets
                        .iter()
                        .map(|&r| ((r, j), blank.clone(), false))
                        .collect::<Vec<_>>();
                };
                let erased = group_reels
                    .iter()
                    .zip(&streams)
                    .filter_map(|(&r, s)| s.is_none().then_some(r));
                erased
                    .zip(solved)
                    .filter(|(r, _)| targets.contains(r))
                    .map(|(r, bytes)| {
                        let header = layout.header_at(r, j);
                        let image =
                            encode_emblem(&geom, &header, &bytes[..header.payload_len as usize]);
                        ((r, j), image, true)
                    })
                    .collect()
            });

        let rebuilt: Vec<_> = rebuilt.into_iter().flatten().collect();
        stats.frames_reconstructed += rebuilt.iter().filter(|(_, _, ok)| *ok).count();
        Ok(rebuilt)
    }

    /// The reel layout this configuration would produce for `dump`,
    /// without rendering a single frame — segmentation, per-segment
    /// compression, and catalog serialization only. Useful for sizing a
    /// shelf (how many reels? how many frames?) before committing to the
    /// full rasterisation cost of [`Vault::archive`].
    pub fn plan_layout(&self, dump: &[u8]) -> ReelLayout {
        let (data_bytes, _, index_bytes) = self.compose(dump);
        self.layout_for(&index_bytes, &data_bytes)
    }

    /// The layout this configuration gives composed index and data
    /// streams.
    fn layout_for(&self, index_bytes: &[u8], data_bytes: &[u8]) -> ReelLayout {
        ReelLayout {
            chunk_cap: self.system.medium.geometry.payload_capacity(),
            sys_len: MicrOlonys::system_stream_bytes().len(),
            index_len: index_bytes.len(),
            data_len: data_bytes.len(),
            outer_parity: self.system.with_parity,
            reel_capacity: self.plan.reel_capacity,
            group_reels: self.plan.data_reels,
            group_parity: self.plan.parity_reels,
        }
    }
}

/// What the read ladder's catalog step yields: the content index with
/// the frame source it was read through, or — a classic archive, an
/// unusable index — the fully restored dump.
enum Catalog<'a> {
    Index(ContentIndex, FrameSource<'a>),
    Dump(Vec<u8>),
}

/// Lazily reconstructing view over a [`ReelScans`] shelf: `get` hands out
/// either the original scan or a pristine frame [`FrameSource::rebuild`]
/// reconstructed — a frame of a lost reel, or a damaged frame on a
/// present one (the degraded-mode read path).
struct FrameSource<'a> {
    layout: ReelLayout,
    reels: &'a ReelScans,
    /// Reconstructed pristine frames, keyed by `(reel, offset)`.
    rebuilt: HashMap<(usize, usize), GrayImage>,
    /// Reels at least one frame of which was reconstructed — the
    /// `reels_reconstructed` stat counts each reel once per restore.
    touched: HashSet<usize>,
}

impl<'a> FrameSource<'a> {
    fn new(layout: ReelLayout, reels: &'a ReelScans) -> Result<Self, VaultError> {
        for r in 0..layout.content_reels() {
            if let Some(scans) = &reels[r] {
                if scans.len() != layout.reel_frames(r) {
                    return Err(VaultError::ShapeMismatch(format!(
                        "reel {r} holds {} frames, manifest says {}",
                        scans.len(),
                        layout.reel_frames(r)
                    )));
                }
            }
        }
        Ok(Self {
            layout,
            reels,
            rebuilt: HashMap::new(),
            touched: HashSet::new(),
        })
    }

    /// `(reel, offset)` of global frame position `pos`. A catalog (or
    /// caller) naming frames past the manifest's geometry is a structural
    /// lie, not an index to chase.
    fn locate(&self, pos: usize) -> Result<(usize, usize), VaultError> {
        if pos >= self.layout.total_frames() {
            return Err(VaultError::ShapeMismatch(format!(
                "frame position {pos} beyond the {}-frame layout",
                self.layout.total_frames()
            )));
        }
        Ok(self.layout.reel_of(pos))
    }

    /// Every offset of each lost reel the ascending `positions` touch:
    /// what a whole-stream reader rebuilds, so the stream decoder sees
    /// every frame.
    fn lost_reel_frames(&self, positions: &[usize]) -> Vec<(usize, usize)> {
        let mut lost: Vec<usize> = positions
            .iter()
            .map(|&pos| self.layout.reel_of(pos).0)
            .filter(|&r| self.reels[r].is_none())
            .collect();
        lost.dedup();
        lost.into_iter()
            .flat_map(|r| (0..self.layout.frames_on(r)).map(move |j| (r, j)))
            .collect()
    }

    /// Rebuild every wanted `(reel, offset)` frame not rebuilt yet from
    /// its parity group's surviving columns — lost reels and
    /// damage-exhausted frames on present reels alike — and store the
    /// images.
    fn rebuild(
        &mut self,
        vault: &Vault,
        wants: &[(usize, usize)],
        stats: &mut VaultRestoreStats,
    ) -> Result<(), VaultError> {
        let fresh: Vec<(usize, usize)> = wants
            .iter()
            .copied()
            .filter(|key| !self.rebuilt.contains_key(key))
            .collect();
        if fresh.is_empty() {
            return Ok(());
        }
        for &(reel, _) in &fresh {
            if self.touched.insert(reel) {
                stats.reels_reconstructed += 1;
                vault.system.telemetry.add("vault.reels_reconstructed", 1);
            }
        }
        if self.layout.parity_reels() == 0 {
            let mut lost: Vec<usize> = fresh.iter().map(|&(r, _)| r).collect();
            lost.dedup();
            return Err(VaultError::ReelLoss {
                group: 0,
                lost,
                recoverable: 0,
            });
        }
        let mut by_group: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        for (reel, j) in fresh {
            let g = self.layout.group_of(reel);
            by_group.entry(g).or_default().push((reel, j));
        }
        for (g, group_wants) in by_group {
            let frames =
                vault.reconstruct_group_frames(&self.layout, self.reels, g, &group_wants, stats)?;
            for (key, image, _) in frames {
                self.rebuilt.insert(key, image);
            }
        }
        Ok(())
    }

    /// The frame at `(reel, offset)` (original scan or rebuilt).
    /// `rebuild` must have covered it first if its reel is lost.
    fn get(&self, (reel, offset): (usize, usize)) -> &GrayImage {
        if let Some(image) = self.rebuilt.get(&(reel, offset)) {
            return image;
        }
        &self.reels[reel].as_ref().expect("rebuild covered pos")[offset]
    }
}

/// Split a restored data stream into its length-prefixed records,
/// returning each record's container bytes (prefix stripped).
///
/// The stream is a hostile input once the physical layer has done its
/// best: every structural lie — a length field promising bytes the stream
/// does not hold, a dangling sub-prefix tail — comes back as
/// [`VaultError::ShapeMismatch`], never a panic or an over-read.
pub fn split_records(data_bytes: &[u8]) -> Result<Vec<&[u8]>, VaultError> {
    let mut records = Vec::new();
    let mut off = 0usize;
    while off < data_bytes.len() {
        if off + 4 > data_bytes.len() {
            return Err(VaultError::ShapeMismatch(format!(
                "dangling {} bytes after the last record",
                data_bytes.len() - off
            )));
        }
        let len = u32::from_le_bytes(data_bytes[off..off + 4].try_into().unwrap()) as usize;
        let end = off
            .checked_add(4)
            .and_then(|p| p.checked_add(len))
            .filter(|&e| e <= data_bytes.len())
            .ok_or_else(|| {
                VaultError::ShapeMismatch(format!(
                    "record at {off} promises {len} bytes, stream holds {}",
                    data_bytes.len() - off - 4
                ))
            })?;
        records.push(&data_bytes[off + 4..end]);
        off = end;
    }
    Ok(records)
}

/// Unwrap an entry's record run (one or more length-prefixed records)
/// into its original segment bytes, verifying the catalog's CRC of the
/// originals.
fn decode_record_run(run: &[u8], entry: &IndexEntry) -> Result<Vec<u8>, VaultError> {
    // Not presized from `dump_len`: the catalog is archived bytes, and
    // a hostile length must not reach the allocator.
    let mut bytes = Vec::new();
    for record in split_records(run)? {
        bytes.extend(ule_compress::decompress(record)?);
    }
    if crc32(&bytes) != entry.crc32 {
        return Err(VaultError::ShapeMismatch(format!(
            "segment {} fails its catalog crc",
            entry.name
        )));
    }
    if bytes.len() != entry.dump_len as usize {
        return Err(VaultError::ShapeMismatch(format!(
            "segment {} decodes to {} bytes, catalog says {}",
            entry.name,
            bytes.len(),
            entry.dump_len
        )));
    }
    Ok(bytes)
}

/// Unwrap one zone's sub-record: exactly one length-prefixed record
/// decoding to exactly the zone's dump length. (Integrity inside the
/// record comes from the `ULEA` container's own checksum; the catalog
/// keeps only the whole-segment CRC, consulted when a scan is complete.)
fn decode_zone_record(run: &[u8], zone: &ZoneInfo) -> Result<Vec<u8>, VaultError> {
    let records = split_records(run)?;
    if records.len() != 1 {
        return Err(VaultError::ShapeMismatch(format!(
            "zone span holds {} records, catalog says 1",
            records.len()
        )));
    }
    let bytes = ule_compress::decompress(records[0])?;
    if bytes.len() != zone.dump_len as usize {
        return Err(VaultError::ShapeMismatch(format!(
            "zone decodes to {} bytes, catalog says {}",
            bytes.len(),
            zone.dump_len
        )));
    }
    Ok(bytes)
}

/// Slice an archive byte span out of decoded chunk payloads. Every
/// boundary is checked: a span reaching into an undecoded chunk or past
/// a chunk's payload is a structured error, never a panic — offsets here
/// descend from catalog bytes, which are hostile until proven otherwise.
fn extract_span(
    payloads: &HashMap<usize, Vec<u8>>,
    chunk_cap: usize,
    start: u64,
    len: u64,
) -> Result<Vec<u8>, VaultError> {
    let cap = chunk_cap.max(1);
    let (start, len) = match (usize::try_from(start), usize::try_from(len)) {
        (Ok(s), Ok(l)) => (s, l),
        _ => {
            return Err(VaultError::ShapeMismatch(
                "archive span beyond the address space".into(),
            ))
        }
    };
    let end = start
        .checked_add(len)
        .ok_or_else(|| VaultError::ShapeMismatch("archive span beyond the address space".into()))?;
    let mut out = Vec::with_capacity(len);
    let mut pos = start;
    while pos < end {
        let c = pos / cap;
        let off = pos % cap;
        let take = (end - pos).min(cap - off);
        let slice = payloads
            .get(&c)
            .and_then(|p| p.get(off..off + take))
            .ok_or_else(|| {
                VaultError::ShapeMismatch(format!(
                    "archive span {start}+{len} reaches past chunk {c}'s payload"
                ))
            })?;
        out.extend_from_slice(slice);
        pos += take;
    }
    Ok(out)
}

/// Structural validation of a freshly parsed index against the manifest
/// layout: the chunk size must match the geometry and the entries must
/// tile the data stream exactly. A catalog that lies about either could
/// otherwise drive frame positions (and offset arithmetic) out of range;
/// rejecting it here routes the restore to the full-scan fallback.
fn validate_index(index: &ContentIndex, layout: &ReelLayout) -> Result<(), VaultError> {
    if index.chunk_cap as usize != layout.chunk_cap {
        return Err(VaultError::ShapeMismatch(format!(
            "index chunk size {} disagrees with the geometry's {}",
            index.chunk_cap, layout.chunk_cap
        )));
    }
    let mut off: u64 = 0;
    for e in &index.entries {
        if e.archive_start != off {
            return Err(VaultError::ShapeMismatch(format!(
                "entry {} starts at {}, previous entries end at {off}",
                e.name, e.archive_start
            )));
        }
        off = off.checked_add(e.archive_len).ok_or_else(|| {
            VaultError::ShapeMismatch(format!("entry {} overflows the data stream", e.name))
        })?;
    }
    if off != layout.data_len as u64 {
        return Err(VaultError::ShapeMismatch(format!(
            "entries cover {off} bytes, manifest says the data stream holds {}",
            layout.data_len
        )));
    }
    Ok(())
}

/// Locate `table`'s segment in a restored dump (the index-less fallback).
fn find_segment(dump: &[u8], table: &str) -> Option<Segment> {
    segment_dump(dump).into_iter().find(|s| s.name == table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_par::ThreadConfig;

    fn tiny_vault() -> Vault {
        Vault::sharded(MicrOlonys::test_tiny(), ShardPlan::single_parity(12, 2))
    }

    fn sample_dump() -> Vec<u8> {
        ule_tpch::dump_for_scale(0.0001, 77)
    }

    #[test]
    fn archive_shape_matches_layout() {
        let vault = tiny_vault();
        let dump = sample_dump();
        let arc = vault.archive(&dump);
        assert_eq!(arc.reels.len(), arc.layout.total_reels());
        assert_eq!(arc.stats.content_reels, arc.layout.content_reels());
        for r in 0..arc.layout.content_reels() {
            assert_eq!(arc.reels[r].frames.len(), arc.layout.reel_frames(r));
            assert_eq!(arc.reels[r].role, ReelRole::Content);
        }
        for g in 0..arc.layout.groups() {
            for slot in 0..arc.layout.group_parity {
                let pr = &arc.reels[arc.layout.parity_reel_of(g, slot)];
                assert_eq!(pr.role, ReelRole::Parity { group: g, slot });
            }
        }
        assert!(arc.bootstrap.vault.is_some());
        assert!(arc.stats.tables >= 8, "all TPC-H tables catalogued");
    }

    #[test]
    fn multi_parity_archive_shape_and_pristine_restore() {
        let vault = Vault::sharded(MicrOlonys::test_tiny(), ShardPlan::with_parity(12, 3, 2));
        let dump = sample_dump();
        let arc = vault.archive(&dump);
        assert_eq!(arc.layout.group_parity, 2);
        assert_eq!(
            arc.stats.parity_reels,
            arc.layout.groups() * 2,
            "two parity reels per group"
        );
        assert_eq!(arc.reels.len(), arc.layout.total_reels());
        let scans = vault.scan_reels(&arc, 40);
        let (restored, stats) = vault.restore_all(&arc.bootstrap, &scans).unwrap();
        assert_eq!(restored, dump);
        assert_eq!(stats.reels_reconstructed, 0);
    }

    #[test]
    fn pristine_full_restore_is_bit_exact() {
        let vault = tiny_vault();
        let dump = sample_dump();
        let arc = vault.archive(&dump);
        let scans = vault.scan_reels(&arc, 5);
        let (restored, stats) = vault.restore_all(&arc.bootstrap, &scans).unwrap();
        assert_eq!(restored, dump);
        assert_eq!(stats.path, RestorePath::Full);
        assert_eq!(stats.reels_reconstructed, 0);
    }

    #[test]
    fn selective_restore_matches_full_restore_slice() {
        let vault = tiny_vault();
        let dump = sample_dump();
        let arc = vault.archive(&dump);
        let scans = vault.scan_reels(&arc, 6);
        let (full, _) = vault.restore_all(&arc.bootstrap, &scans).unwrap();
        for table in ["nation", "orders"] {
            let entry = arc.index.find(table).unwrap();
            let (bytes, stats) = vault.restore_table(&arc.bootstrap, &scans, table).unwrap();
            assert_eq!(stats.path, RestorePath::Selective, "{table}");
            assert!(!stats.index_fallback);
            let start = entry.dump_start as usize;
            assert_eq!(
                bytes,
                &full[start..start + entry.dump_len as usize],
                "{table}"
            );
            assert!(
                stats.frames_decoded < stats.data_frames_total,
                "{table}: selective must not scan everything ({} vs {})",
                stats.frames_decoded,
                stats.data_frames_total
            );
        }
    }

    #[test]
    fn frame_verdicts_return_the_stamped_payloads_in_input_order() {
        let vault = tiny_vault();
        let dump = sample_dump();
        let arc = vault.archive(&dump);
        let scans = vault.scan_reels(&arc, 19);
        let layout = arc.layout;
        let (data_bytes, _, _) = vault.compose(&dump);
        let chunks = [1usize, 4, 2];
        assert!(layout.plan(StreamId::Data).data_emblems > 5);
        let frames: Vec<(&GrayImage, Stamp<'_>)> = chunks
            .iter()
            .map(|&c| {
                let (r, j) = layout.reel_of(layout.chunk_position(StreamId::Data, c));
                (
                    &scans[r].as_ref().unwrap()[j],
                    Stamp::At(layout.header_at(r, j)),
                )
            })
            .collect();
        let verdicts = vault.frame_verdicts(&frames, &Telemetry::off());
        assert_eq!(verdicts.len(), 3, "one verdict per frame, in input order");
        let cap = layout.chunk_cap;
        for (&c, verdict) in chunks.iter().zip(&verdicts) {
            let (_, payload, _) = verdict.as_ref().expect("the stamped frame counts");
            assert_eq!(payload, &data_bytes[c * cap..(c + 1) * cap], "chunk {c}");
        }
    }

    #[test]
    fn frame_verdicts_refuse_every_header_but_the_stamped_one() {
        let vault = tiny_vault();
        let arc = vault.archive(&sample_dump());
        let scans = vault.scan_reels(&arc, 23);
        let layout = arc.layout;
        let at = |stream, emission| {
            let (r, j) = layout.reel_of(layout.position(stream, emission));
            (&scans[r].as_ref().unwrap()[j], layout.header_at(r, j))
        };
        let (data0, stamped) = at(StreamId::Data, 0);
        let (data1, _) = at(StreamId::Data, 1);
        let (index0, _) = at(StreamId::Index, 0);
        let blank = GrayImage::new(data0.width(), data0.height(), 255);
        let tel = Telemetry::enabled();
        let verdicts = vault.frame_verdicts(
            &[
                (data0, Stamp::At(stamped)),
                (data1, Stamp::At(stamped)),
                (index0, Stamp::At(stamped)),
                (&blank, Stamp::At(stamped)),
            ],
            &tel,
        );
        assert!(verdicts[0].is_some(), "the stamped frame");
        assert!(verdicts[1].is_none(), "misfiled within its stream");
        assert!(
            verdicts[2].is_none(),
            "right index, another stream's header"
        );
        assert!(verdicts[3].is_none(), "undecodable");
        // Only the blank fails to decode; the refused frames decode
        // cleanly and count as decode health like any other.
        assert_eq!(tel.counter("decode.frames_total"), 4);
        assert_eq!(tel.counter("decode.frames_failed"), 1);

        // A whole-stream read places a frame by its own header: the
        // misfiled data frame counts there, the foreign one still not.
        let plan = layout.plan(StreamId::Data);
        let stream = Stamp::Stream(&plan, EmblemKind::Data);
        let verdicts =
            vault.frame_verdicts(&[(data1, stream), (index0, stream)], &Telemetry::off());
        assert_eq!(verdicts[0].as_ref().map(|(h, _, _)| h.index), Some(1));
        assert!(verdicts[1].is_none());
    }

    #[test]
    fn unknown_table_is_a_clean_error() {
        let vault = tiny_vault();
        let arc = vault.archive(&sample_dump());
        let scans = vault.scan_reels(&arc, 7);
        match vault.restore_table(&arc.bootstrap, &scans, "no_such_table") {
            Err(VaultError::UnknownTable(t)) => assert_eq!(t, "no_such_table"),
            other => panic!("expected UnknownTable, got {other:?}"),
        }
    }

    #[test]
    fn single_reel_vault_works_without_parity() {
        let vault = Vault::single_reel(MicrOlonys::test_tiny().with_threads(ThreadConfig::Serial));
        let dump = sample_dump();
        let arc = vault.archive(&dump);
        assert_eq!(arc.reels.len(), 1);
        let scans = vault.scan_reels(&arc, 8);
        let (restored, _) = vault.restore_all(&arc.bootstrap, &scans).unwrap();
        assert_eq!(restored, dump);
        let (names, _) = vault.list_tables(&arc.bootstrap, &scans).unwrap();
        assert!(names.contains(&"lineitem".to_string()));
    }

    #[test]
    fn classic_archive_restores_through_the_vault() {
        // Pre-S16 archive: plain MicrOlonys output, no vault line.
        let system = MicrOlonys::test_tiny();
        let dump = b"COPY t (a) FROM stdin;\n1\n2\n3\n\\.\n".repeat(30);
        let out = system.archive(&dump);
        assert_eq!(out.bootstrap.vault, None);
        let scans: ReelScans = vec![Some(system.medium.scan_all(
            &out.data_frames,
            9,
            system.threads,
        ))];
        let vault = Vault::single_reel(system);
        let (restored, stats) = vault.restore_all(&out.bootstrap, &scans).unwrap();
        assert_eq!(restored, dump);
        assert_eq!(stats.path, RestorePath::Classic);
        let (table, _) = vault.restore_table(&out.bootstrap, &scans, "t").unwrap();
        assert_eq!(&table[..], &dump[..table.len()]);
    }

    #[test]
    fn zone_maps_ride_the_catalog() {
        let vault = tiny_vault();
        let arc = vault.archive(&sample_dump());
        let li = arc.index.find("lineitem").unwrap();
        assert!(li.zones.len() > 1, "lineitem splits into zones");
        assert_eq!(li.zone_columns, vec!["l_shipdate", "l_quantity"]);
        assert!(li.zone_spans().is_some(), "zones tile the entry");
        // The catalog survives its own wire format with zones intact.
        let reparsed = ContentIndex::parse(&arc.index.to_bytes()).unwrap();
        assert_eq!(reparsed.find("lineitem").unwrap().zones, li.zones);
        // Tables outside the zone spec keep the plain entry shape.
        assert!(arc.index.find("nation").unwrap().zones.is_empty());
    }

    #[test]
    fn unpruned_query_scan_matches_selective_restore() {
        let vault = tiny_vault();
        let dump = sample_dump();
        let arc = vault.archive(&dump);
        let scans = vault.scan_reels(&arc, 10);
        for table in ["lineitem", "orders", "nation"] {
            let (bytes, _) = vault.restore_table(&arc.bootstrap, &scans, table).unwrap();
            let (scan, stats) = vault
                .query_table(&arc.bootstrap, &scans, table, &ZonePredicate::all())
                .unwrap();
            assert_eq!(stats.restore.path, RestorePath::Selective, "{table}");
            assert!(!scan.pruned, "{table}: nothing to prune under all()");
            assert_eq!(stats.zones_pruned, 0, "{table}");
            assert_eq!(stats.pieces_streamed, scan.pieces.len(), "{table}");
            assert_eq!(stats.bytes_touched, scan.concat().len(), "{table}");
            assert_eq!(scan.concat(), bytes, "{table}");
            // Piece offsets are dump-absolute and contiguous.
            let entry = arc.index.find(table).unwrap();
            let mut off = entry.dump_start;
            for (start, piece) in &scan.pieces {
                assert_eq!(*start, off, "{table}");
                off += piece.len() as u64;
            }
            assert_eq!(off, entry.dump_start + entry.dump_len, "{table}");
        }
    }

    #[test]
    fn excluding_predicate_prunes_row_zones_and_frames() {
        let vault = tiny_vault();
        let dump = sample_dump();
        let arc = vault.archive(&dump);
        let scans = vault.scan_reels(&arc, 11);
        // A shipdate range below every TPC-H date excludes all row zones;
        // the structural header/terminator zones must still arrive.
        let pred =
            ZonePredicate::all().with(zones::ColumnRange::at_most("l_shipdate", "1000-01-01"));
        let (_, unpruned_stats) = vault
            .query_table(&arc.bootstrap, &scans, "lineitem", &ZonePredicate::all())
            .unwrap();
        let (scan, stats) = vault
            .query_table(&arc.bootstrap, &scans, "lineitem", &pred)
            .unwrap();
        assert!(scan.pruned);
        assert!(scan.zones_selected < scan.zones_total);
        assert!(stats.zones_pruned > 0, "{stats:?}");
        assert!(
            stats.restore.frames_decoded < unpruned_stats.restore.frames_decoded,
            "pruning must shrink the scan ({} vs {})",
            stats.restore.frames_decoded,
            unpruned_stats.restore.frames_decoded
        );
        let text = String::from_utf8(scan.concat()).unwrap();
        assert!(text.starts_with("COPY lineitem ("), "header zone kept");
        assert!(
            text.ends_with("\\.\n\n") || text.ends_with("\\.\n"),
            "terminator zone kept"
        );
    }

    #[test]
    fn zoneless_vault_reproduces_the_plain_composition() {
        let vault = tiny_vault().without_zones();
        let dump = sample_dump();
        let arc = vault.archive(&dump);
        for e in &arc.index.entries {
            assert!(e.zones.is_empty(), "{}: no zones when disabled", e.name);
        }
        let scans = vault.scan_reels(&arc, 12);
        let (restored, _) = vault.restore_all(&arc.bootstrap, &scans).unwrap();
        assert_eq!(restored, dump);
        // query_table degrades to a single unpruned piece.
        let pred =
            ZonePredicate::all().with(zones::ColumnRange::at_most("l_shipdate", "1000-01-01"));
        let (scan, stats) = vault
            .query_table(&arc.bootstrap, &scans, "lineitem", &pred)
            .unwrap();
        assert!(!scan.pruned);
        assert_eq!(scan.pieces.len(), 1);
        assert_eq!(stats.restore.path, RestorePath::Selective);
        let entry = arc.index.find("lineitem").unwrap();
        let start = entry.dump_start as usize;
        assert_eq!(scan.concat(), &dump[start..start + entry.dump_len as usize]);
    }

    #[test]
    fn hostile_dump_length_is_not_preallocated() {
        // A catalog entry claiming a 1 PB segment: presizing the output
        // from `dump_len` aborted the process before the length check.
        let entry = IndexEntry {
            name: "t".into(),
            archive_start: 0,
            archive_len: 0,
            dump_start: 0,
            dump_len: 1 << 50,
            crc32: crc32(&[]),
            zone_columns: Vec::new(),
            zones: Vec::new(),
        };
        assert!(matches!(
            decode_record_run(&[], &entry),
            Err(VaultError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn hostile_index_shapes_are_rejected() {
        let vault = tiny_vault();
        let arc = vault.archive(&sample_dump());
        let layout = arc.layout;

        // The honest catalog validates.
        assert!(validate_index(&arc.index, &layout).is_ok());

        // Wrong chunk size: every frame position it implies is suspect.
        let mut bad = arc.index.clone();
        bad.chunk_cap = bad.chunk_cap.wrapping_mul(7).max(1);
        assert!(validate_index(&bad, &layout).is_err());

        // Entries that do not tile the data stream.
        let mut gap = arc.index.clone();
        gap.entries[0].archive_len += 1;
        assert!(validate_index(&gap, &layout).is_err());

        // Overflowing spans must be an error, not a panic.
        let mut huge = arc.index.clone();
        huge.entries[0].archive_len = u64::MAX;
        assert!(validate_index(&huge, &layout).is_err());
    }
}
