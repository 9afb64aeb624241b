//! Quickstart: archive a small SQL dump to emblems and restore it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ule::media::Medium;
use ule::olonys::MicrOlonys;

fn main() {
    // 1. The thing to preserve: a textual database dump (what pg_dump
    //    emits; here a miniature one).
    let mut dump = String::from("CREATE TABLE nation (n_nationkey integer, n_name text);\n");
    dump.push_str("COPY nation (n_nationkey, n_name) FROM stdin;\n");
    for (i, n) in ["ALGERIA", "BRAZIL", "CANADA", "EGYPT", "FRANCE"]
        .iter()
        .enumerate()
    {
        dump.push_str(&format!("{i}\t{n}\n"));
    }
    dump.push_str("\\.\n");
    let dump = dump.into_bytes();

    // 2. Configure Micr'Olonys for a medium. `test_tiny` keeps this example
    //    fast; swap in `Medium::paper_a4_600dpi()` / `Medium::microfilm_16mm()`
    //    / `Medium::cinema_35mm()` for the paper's real profiles.
    let system = MicrOlonys {
        medium: Medium::test_tiny(),
        ..MicrOlonys::test_tiny()
    };

    // 3. Archive: DBCoder compression, MOCoder emblems, media frames, and
    //    the Bootstrap document.
    let out = system.archive(&dump);
    println!("dump:            {} bytes", out.stats.dump_bytes);
    println!(
        "compressed:      {} bytes ({})",
        out.stats.archive_bytes, system.scheme
    );
    println!(
        "data emblems:    {} (+ outer parity -> {} frames)",
        out.stats.data_emblems,
        out.data_frames.len()
    );
    println!(
        "system emblems:  {} frames (the DBDecode instruction stream)",
        out.system_frames.len()
    );
    let (prose, letters) = out.bootstrap.page_count();
    println!("bootstrap:       {prose} pages of pseudocode+manifest, {letters} pages of letters");

    // 4. Simulate the decades: print → (storage) → scan with the medium's
    //    degradation model.
    let scans = system
        .medium
        .scan_all(&out.data_frames, 2077, system.threads);

    // 5. Restore natively (full Reed–Solomon error correction).
    let (restored, stats) = system.restore_native(&scans).expect("restore");
    assert_eq!(restored, dump);
    println!(
        "restored:        {} bytes, bit-identical ({} RS-corrected bytes across {} scans)",
        restored.len(),
        stats.rs_corrected,
        stats.scans
    );
}
