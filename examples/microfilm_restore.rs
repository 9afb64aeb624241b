//! The paper's §4 "Microfilm archive" experiment (E2): a 102 KB image
//! written to 16 mm microfilm frames, scanned back, and restored without
//! errors — plus the 1.3 GB / 66 m reel capacity model.
//!
//! ```sh
//! cargo run --release --example microfilm_restore
//! ```

use ule::emblem::stream::stream_emissions;
use ule::emblem::{decode_stream, EmblemKind};
use ule::media::Medium;
use ule::obs::Telemetry;
use ule::par::ThreadConfig;
use ule::raster::GrayImage;

/// A synthetic stand-in for the paper's 102 KB Olonys-logo TIFF: a small
/// raster rendered as uncompressed bitmap bytes.
fn logo_payload() -> Vec<u8> {
    let mut img = GrayImage::new(320, 320, 255);
    for y in 0..320usize {
        for x in 0..320usize {
            let dx = x as f64 - 160.0;
            let dy = y as f64 - 160.0;
            let r = (dx * dx + dy * dy).sqrt();
            if (60.0..90.0).contains(&r) || (110.0..130.0).contains(&r) {
                img.set(x, y, 0);
            }
        }
    }
    let bytes = img.into_raw();
    assert_eq!(bytes.len(), 102_400, "like the paper's 102KB image");
    bytes
}

fn main() {
    let medium = Medium::microfilm_16mm();
    let payload = logo_payload();
    println!(
        "payload: {} bytes (the paper's 102 KB image)",
        payload.len()
    );

    // Encode to emblems (no outer parity: the paper's film test used 3
    // emblems exactly).
    let emissions = stream_emissions(
        &medium.geometry,
        EmblemKind::Data,
        &payload,
        false,
        ThreadConfig::Serial,
        &Telemetry::off(),
    );
    println!(
        "emblems: {} (paper: 3) on {}x{} bitonal frames",
        emissions.len(),
        medium.frame_width,
        medium.frame_height
    );

    // Film → archive writer → decades → microfilm reader (1.28x scan,
    // dust/fading/jitter per the medium profile).
    let frames = medium.render(&emissions, ThreadConfig::Serial);
    let scans = medium.scan_all(&frames, 1964, ThreadConfig::Serial);
    println!(
        "scans: {}x{} grayscale (the paper's reader produced ~5000x7000)",
        scans[0].width(),
        scans[0].height()
    );

    let (restored, stats) = decode_stream(&medium.geometry, &scans).expect("decode");
    assert_eq!(restored, payload, "bit-exact restore");
    println!(
        "restored {} bytes without loss ({} bytes RS-corrected along the way)",
        restored.len(),
        stats.rs_corrected
    );

    // Capacity model (§4: "capable of storing 1.3GB in a single 66 meter reel").
    let cap = medium.capacity_bytes(66.0);
    println!(
        "reel model: {:.2} GB per 66 m reel (paper: 1.3 GB)",
        cap as f64 / 1e9
    );
    println!(
        "            => a 1 TB data lake needs ~{} reels (paper: ~800)",
        (1.0e12 / cap as f64).ceil()
    );
}
