//! The archival pipeline (Figure 2a, steps 1–7).

use crate::bootstrap::document::Bootstrap;
use ule_compress::Scheme;
use ule_dynarisc::programs::{dbdecode, modecode};
use ule_emblem::geometry::{EDGE_CELLS, QUIET_CELLS};
use ule_emblem::{stream::stream_emissions, EmblemKind};
use ule_media::Medium;
use ule_obs::Telemetry;
use ule_par::ThreadConfig;
use ule_raster::GrayImage;
use ule_verisc::NestedEmulator;

/// Guest program cells reserved in the archived emulator image: MODecode
/// ships in the image; DBDecode (and future decoders up to this size) are
/// loaded into the same region during restoration.
pub const PROG_CAPACITY: usize = 1024;

/// The configured archival system.
#[derive(Clone)]
pub struct MicrOlonys {
    /// Target analog medium (geometry + degradation physics).
    pub medium: Medium,
    /// DBCoder scheme. `Scheme::Lzss` is the archival default: its decoder
    /// is the DynaRisc DBDecode stream stored as system emblems.
    pub scheme: Scheme,
    /// Whether to add the outer RS(20,17) parity emblems.
    pub with_parity: bool,
    /// Worker pool for every fanned-out stage of [`MicrOlonys::archive`]
    /// and [`MicrOlonys::restore_native`] (per-emblem encode/decode,
    /// outer-code parity, frame rasterisation) and of the vault reads
    /// layered on this system.
    /// Output is byte-identical at any setting — the on-medium format is
    /// frozen — so this only changes wall-clock time. Defaults to
    /// [`ThreadConfig::Serial`]. The emulated restore is an associated
    /// function with no `self`, so it takes its own `threads` argument and
    /// fans MODecode out per frame the same way (`DESIGN.md` §9).
    pub threads: ThreadConfig,
    /// Pipeline telemetry that [`MicrOlonys::archive`],
    /// [`MicrOlonys::restore_native`] and the vault reads layered on this
    /// system record spans and counters into. Defaults to [`Telemetry::off`],
    /// whose every call is a null check; an enabled recorder only
    /// observes, so bytes and stats are identical either way.
    pub telemetry: Telemetry,
}

/// Everything `archive` produces — the package that goes to the film
/// recorder / printer.
pub struct ArchiveOutput {
    /// Frames carrying the compressed database (data emblems).
    pub data_frames: Vec<GrayImage>,
    /// Frames carrying the DBDecode instruction stream (system emblems).
    pub system_frames: Vec<GrayImage>,
    /// The plain-text Bootstrap document.
    pub bootstrap: Bootstrap,
    pub stats: ArchiveStats,
}

/// Headline numbers of one archival run (E1's table row).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArchiveStats {
    pub dump_bytes: usize,
    pub archive_bytes: usize,
    pub data_emblems: usize,
    pub system_emblems: usize,
    /// Source bytes per data frame — §4's "50KB per page" figure.
    pub density_per_frame: f64,
}

impl MicrOlonys {
    /// The configuration of the paper's §4 paper-archive experiment.
    pub fn paper_default() -> Self {
        Self {
            medium: Medium::paper_a4_600dpi(),
            scheme: Scheme::Lzss,
            with_parity: true,
            threads: ThreadConfig::Serial,
            telemetry: Telemetry::off(),
        }
    }

    /// Small configuration for tests and examples.
    pub fn test_tiny() -> Self {
        Self {
            medium: Medium::test_tiny(),
            scheme: Scheme::Lzss,
            with_parity: true,
            threads: ThreadConfig::Serial,
            telemetry: Telemetry::off(),
        }
    }

    /// This configuration with a different worker-pool setting (builder
    /// style: `MicrOlonys::paper_default().with_threads(ThreadConfig::Auto)`).
    pub fn with_threads(mut self, threads: ThreadConfig) -> Self {
        self.threads = threads;
        self
    }

    /// This configuration recording into `telemetry` (builder style:
    /// `MicrOlonys::test_tiny().with_telemetry(Telemetry::enabled())`).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Archive a textual database dump: compress (DBCoder), lay out as
    /// emblems (MOCoder), render to media frames, and produce the
    /// Bootstrap document. Records spans for the compress, outer-parity
    /// and print stages plus codec/emblem counters into `self.telemetry`.
    pub fn archive(&self, dump: &[u8]) -> ArchiveOutput {
        let tel = &self.telemetry;
        let _span = tel.span("archive");
        let geom = self.medium.geometry;
        // Step 2: DBCoder. (Inherently sequential: LZSS match-finding and
        // the arithmetic coder both thread state through every byte.)
        let archive_bytes = {
            let _compress = tel.span("archive.compress");
            ule_compress::compress(self.scheme, dump)
        };
        let (bytes_in, bytes_out) = (dump.len() as u64, archive_bytes.len() as u64);
        let name = self.scheme.name();
        tel.add("codec.bytes_in", bytes_in);
        tel.add("codec.bytes_out", bytes_out);
        tel.add(&format!("codec.{name}.bytes_in"), bytes_in);
        tel.add(&format!("codec.{name}.bytes_out"), bytes_out);
        // Step 3: MOCoder — data emissions, outer parity fanned out per group.
        let data = stream_emissions(
            &geom,
            EmblemKind::Data,
            &archive_bytes,
            self.with_parity,
            self.threads,
            tel,
        );
        // Steps 4–5: the DBCoder decoder as system emissions.
        let sys_bytes = Self::system_stream_bytes();
        let system = stream_emissions(
            &geom,
            EmblemKind::System,
            &sys_bytes,
            self.with_parity,
            self.threads,
            tel,
        );
        // Step 6: MODecode + the DynaRisc emulator into the Bootstrap.
        let bootstrap = self.make_bootstrap();
        // Step 7: physical layout, each emblem painted onto its own frame.
        let (data_frames, system_frames) = {
            let _print = tel.span("archive.print");
            (
                self.medium.render(&data, self.threads),
                self.medium.render(&system, self.threads),
            )
        };
        tel.add("archive.data_frames", data_frames.len() as u64);
        tel.add("archive.system_frames", system_frames.len() as u64);
        let plan = ule_emblem::stream::plan(&geom, archive_bytes.len(), self.with_parity);
        let stats = ArchiveStats {
            dump_bytes: dump.len(),
            archive_bytes: archive_bytes.len(),
            data_emblems: plan.data_emblems,
            system_emblems: system_frames.len(),
            density_per_frame: dump.len() as f64 / plan.data_emblems as f64,
        };
        ArchiveOutput {
            data_frames,
            system_frames,
            bootstrap,
            stats,
        }
    }

    /// The DBDecode instruction stream serialized as bytes — the payload
    /// of the system emblem stream. Exposed so alternative archive layers
    /// (the vault, S16) ship the *same* decoder bytes the classic
    /// archiver does.
    pub fn system_stream_bytes() -> Vec<u8> {
        let db_words = dbdecode::program();
        let mut sys_bytes = Vec::with_capacity(db_words.len() * 2);
        for w in &db_words {
            sys_bytes.extend_from_slice(&w.to_le_bytes());
        }
        sys_bytes
    }

    /// Build the Bootstrap for this configuration (independent of any
    /// particular database — it describes the decoding stack).
    pub fn make_bootstrap(&self) -> Bootstrap {
        let geom = self.medium.geometry;
        let emulator = NestedEmulator::with_capacity(&modecode::program(), PROG_CAPACITY, &[]);
        let dynmem_base = emulator.symbols()["DYNMEM"] as usize;
        let image_prefix = emulator.image()[..dynmem_base].to_vec();
        let emblem_w = geom.image_width();
        let emblem_h = geom.image_height();
        Bootstrap {
            image_prefix,
            symbols: emulator.symbols().clone(),
            prog_capacity: PROG_CAPACITY,
            cols: geom.cols,
            rows: geom.rows,
            cell_px: geom.cell_px,
            origin_px: (QUIET_CELLS + EDGE_CELLS) * geom.cell_px,
            nblocks: geom.rs_blocks(),
            frame_w: self.medium.frame_width,
            frame_h: self.medium.frame_height,
            xoff: (self.medium.frame_width - emblem_w) / 2,
            yoff: (self.medium.frame_height - emblem_h) / 2,
            scheme: self.scheme as u8,
            outer_parity: self.with_parity,
            // The classic archiver writes single-container archives; the
            // vault layer (`ule_vault`) stamps its manifest on top.
            vault: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archive_produces_all_three_artifact_kinds() {
        let sys = MicrOlonys::test_tiny();
        let dump = b"COPY t (a) FROM stdin;\n1\n2\n3\n\\.\n".repeat(20);
        let out = sys.archive(&dump);
        assert!(!out.data_frames.is_empty());
        assert!(!out.system_frames.is_empty());
        assert!(out.bootstrap.to_text().contains("SECTION 2"));
        assert_eq!(out.stats.dump_bytes, dump.len());
        assert!(out.stats.archive_bytes < dump.len(), "lzss should compress");
    }

    #[test]
    fn bootstrap_roundtrips_through_text() {
        let sys = MicrOlonys::test_tiny();
        let b = sys.make_bootstrap();
        let parsed = Bootstrap::parse(&b.to_text()).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn data_frames_include_parity_emblems() {
        let sys = MicrOlonys::test_tiny();
        let out = sys.archive(&vec![9u8; 10_000]);
        // With the outer code on, every group of ≤17 data emblems gains 3
        // parity emblems.
        let groups = out.stats.data_emblems.div_ceil(17);
        assert_eq!(out.data_frames.len(), out.stats.data_emblems + groups * 3);
    }

    #[test]
    fn micro_medium_archive_has_single_data_emblem() {
        let sys = MicrOlonys {
            medium: ule_media::Medium::test_micro(),
            with_parity: false,
            ..MicrOlonys::test_tiny()
        };
        let dump = b"COPY t (a) FROM stdin;\n1\n\\.\n".to_vec();
        let out = sys.archive(&dump);
        assert_eq!(out.stats.data_emblems, 1);
        assert_eq!(out.data_frames.len(), 1);
    }

    #[test]
    fn dbdecode_fits_prog_capacity() {
        assert!(ule_dynarisc::programs::dbdecode::program().len() <= PROG_CAPACITY);
        assert!(ule_dynarisc::programs::modecode::program().len() <= PROG_CAPACITY);
    }
}
