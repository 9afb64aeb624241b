//! `ule_obs`: structured telemetry for the archival pipeline.
//!
//! The paper's thesis is that an archive must stay *diagnosable* decades
//! after it was written. The pipeline already computes the signals that
//! make that possible — RS corrected-symbol counts, clean-frame fast-path
//! hits, zone-prune decisions, guest VM fuel — and this crate is where
//! they stop being dropped on the floor. It provides two primitives:
//!
//! - **spans** — hierarchical wall-clock timings keyed by dot-separated
//!   paths (`"archive.compress"` is a child of `"archive"`); repeated
//!   entries aggregate into call counts plus total nanoseconds;
//! - **counters** — named monotonic `u64` sums (`"decode.corrected_symbols"`).
//!
//! Ratios are derived from counters at read time rather than recorded:
//! the clean-frame share of a trace is `decode.clean_frames /
//! (decode.clean_frames + decode.frames_corrected)`, which stays correct
//! however many decode calls one recorder spans.
//!
//! Two properties are load-bearing and pinned by tests:
//!
//! **Off is free.** [`Telemetry::off`] (the [`Default`]) carries no sink.
//! Every recording call starts with a null check and returns without
//! reading the clock, taking a lock, or allocating — so the frozen format
//! suites run against the exact same code paths whether or not anyone is
//! watching. `tests/telemetry.rs` pins enabled ≡ disabled restore bytes.
//!
//! **Sharded recording is deterministic.** Inside `ule_par` fan-outs the
//! recorder hands one shard per work item ([`Telemetry::fork`]); workers
//! write only to their own shard, and after the join the parent absorbs
//! the shards *in input order* ([`Telemetry::absorb`]). Aggregates are
//! then independent of which worker ran which item and of completion
//! order — the same argument that makes `ule_par::map` byte-identical at
//! any thread count. See `DESIGN.md` §15.
//!
//! Snapshots ([`Telemetry::snapshot`]) export two surfaces: hand-rolled
//! JSON ([`Trace::to_json`], the `BENCH_trace.json` convention) and a
//! human-readable span-tree profile ([`Trace::render`], printed by
//! `report -- --e14`).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Aggregate of one span path: how many times it was entered and the
/// total wall-clock time spent inside, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Number of completed entries into this span.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all entries.
    pub wall_ns: u64,
}

#[derive(Default)]
struct TraceData {
    spans: BTreeMap<String, SpanAgg>,
    counters: BTreeMap<String, u64>,
}

#[derive(Default)]
struct Sink {
    data: Mutex<TraceData>,
}

/// A cheap, cloneable telemetry handle.
///
/// Cloning shares the underlying recorder (it is an `Arc` bump), so a
/// pipeline can thread one handle through every stage and read a single
/// combined [`Trace`] at the end. The default handle is [`Telemetry::off`]:
/// recording calls are no-ops that never touch the clock.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<Sink>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// The disabled recorder: every call is a null-check and a return.
    pub fn off() -> Self {
        Telemetry { sink: None }
    }

    /// A live recorder with an empty trace.
    pub fn enabled() -> Self {
        Telemetry {
            sink: Some(Arc::new(Sink::default())),
        }
    }

    /// True when this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Enter the span at `name` (a dot path, e.g. `"restore.decode"`).
    /// The returned guard records one call and the elapsed wall time when
    /// dropped. Disabled handles return an inert guard without reading
    /// the clock.
    #[must_use = "the span measures until the guard is dropped"]
    pub fn span(&self, name: &str) -> SpanGuard {
        match &self.sink {
            None => SpanGuard { live: None },
            Some(sink) => SpanGuard {
                live: Some((Arc::clone(sink), name.to_string(), Instant::now())),
            },
        }
    }

    /// Add `n` to the monotonic counter at `name`.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(sink) = &self.sink {
            let mut data = sink.data.lock().unwrap();
            *data.counters.entry(name.to_string()).or_insert(0) += n;
        }
    }

    /// Record a span's aggregate directly, without a guard. This is the
    /// merge primitive `absorb` uses; it is public so callers that time a
    /// region themselves can fold it in.
    pub fn span_record(&self, name: &str, calls: u64, wall_ns: u64) {
        if let Some(sink) = &self.sink {
            let mut data = sink.data.lock().unwrap();
            let agg = data.spans.entry(name.to_string()).or_default();
            agg.calls += calls;
            agg.wall_ns += wall_ns;
        }
    }

    /// One recorder shard per work item of a `ule_par` fan-out.
    ///
    /// Each shard is an independent enabled recorder (or an inert handle
    /// when `self` is off, so disabled stays free). Workers write only to
    /// the shard of the item they are processing; after the join the
    /// caller merges them back with [`Telemetry::absorb`] *in input
    /// order*, making every aggregate independent of worker scheduling.
    pub fn fork(&self, n: usize) -> Vec<Telemetry> {
        match &self.sink {
            None => vec![Telemetry::off(); n],
            Some(_) => (0..n).map(|_| Telemetry::enabled()).collect(),
        }
    }

    /// Merge `shards` into this recorder, in the order given. Counters
    /// and span aggregates are commutative sums.
    pub fn absorb(&self, shards: Vec<Telemetry>) {
        let Some(sink) = &self.sink else { return };
        let mut data = sink.data.lock().unwrap();
        for shard in shards {
            let Some(shard_sink) = shard.sink else {
                continue;
            };
            let shard_data = shard_sink.data.lock().unwrap();
            for (name, agg) in &shard_data.spans {
                let dst = data.spans.entry(name.clone()).or_default();
                dst.calls += agg.calls;
                dst.wall_ns += agg.wall_ns;
            }
            for (name, n) in &shard_data.counters {
                *data.counters.entry(name.clone()).or_insert(0) += n;
            }
        }
    }

    /// Read the counter at `name` (0 when absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        match &self.sink {
            None => 0,
            Some(sink) => {
                let data = sink.data.lock().unwrap();
                data.counters.get(name).copied().unwrap_or(0)
            }
        }
    }

    /// A point-in-time copy of everything recorded so far. The maps are
    /// `BTreeMap`-ordered, so exports are deterministic given the same
    /// recorded names and values.
    pub fn snapshot(&self) -> Trace {
        match &self.sink {
            None => Trace::default(),
            Some(sink) => {
                let data = sink.data.lock().unwrap();
                Trace {
                    spans: data.spans.clone(),
                    counters: data.counters.clone(),
                }
            }
        }
    }
}

/// RAII span timer returned by [`Telemetry::span`]. Dropping it records
/// one call plus the elapsed wall time; an inert guard (from a disabled
/// handle) drops for free.
pub struct SpanGuard {
    live: Option<(Arc<Sink>, String, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((sink, name, start)) = self.live.take() {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let mut data = sink.data.lock().unwrap();
            let agg = data.spans.entry(name).or_default();
            agg.calls += 1;
            agg.wall_ns += ns;
        }
    }
}

/// An immutable snapshot of a recorder: spans and counters, each in
/// deterministic (sorted-name) order.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Aggregated spans keyed by dot path.
    pub spans: BTreeMap<String, SpanAgg>,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
}

/// Escape a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Trace {
    /// Hand-rolled JSON export — the `BENCH_trace.json` surface, in the
    /// same no-serde convention as `BENCH_report.json`/`BENCH_fuzz.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"spans\": [\n");
        let mut first = true;
        for (name, agg) in &self.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"calls\": {}, \"wall_ms\": {:.6}}}",
                json_escape(name),
                agg.calls,
                agg.wall_ns as f64 / 1e6
            ));
        }
        out.push_str("\n  ],\n  \"counters\": {");
        first = true;
        for (name, n) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {}", json_escape(name), n));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Human-readable profile: the span tree (indentation from dot
    /// depth), then counters.
    pub fn render(&self) -> String {
        // A span's dot-path ancestors may never have been recorded
        // themselves (`restore.native` with no `restore` span); emit a
        // bare group row for each so indentation always means nesting.
        let mut rows: std::collections::BTreeMap<&str, Option<&SpanAgg>> = BTreeMap::new();
        for (name, agg) in &self.spans {
            rows.insert(name, Some(agg));
            let mut end = 0;
            while let Some(dot) = name[end..].find('.') {
                end += dot;
                rows.entry(&name[..end]).or_insert(None);
                end += 1;
            }
        }
        let mut out = String::new();
        let width = rows
            .keys()
            .map(|n| n.matches('.').count() * 2 + n.rsplit('.').next().unwrap_or(n).len())
            .max()
            .unwrap_or(0)
            .max(12);
        for (name, agg) in &rows {
            let depth = name.matches('.').count();
            let leaf = name.rsplit('.').next().unwrap_or(name);
            match agg {
                Some(agg) => out.push_str(&format!(
                    "{:indent$}{:w$}  {:>7} call{}  {:>12.3} ms\n",
                    "",
                    leaf,
                    agg.calls,
                    if agg.calls == 1 { ' ' } else { 's' },
                    agg.wall_ns as f64 / 1e6,
                    indent = depth * 2,
                    w = width - depth * 2,
                )),
                None => out.push_str(&format!("{:indent$}{leaf}\n", "", indent = depth * 2)),
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, n) in &self.counters {
                out.push_str(&format!("  {name} = {n}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let tel = Telemetry::off();
        assert!(!tel.is_enabled());
        {
            let _g = tel.span("archive");
        }
        tel.add("decode.frames", 3);
        let t = tel.snapshot();
        assert!(t.spans.is_empty() && t.counters.is_empty());
        assert_eq!(tel.counter("decode.frames"), 0);
    }

    #[test]
    fn default_is_off() {
        assert!(!Telemetry::default().is_enabled());
    }

    #[test]
    fn counters_sum_and_spans_aggregate() {
        let tel = Telemetry::enabled();
        for _ in 0..3 {
            let _g = tel.span("scan.decode");
        }
        tel.add("decode.frames", 2);
        tel.add("decode.frames", 5);
        let t = tel.snapshot();
        assert_eq!(t.spans["scan.decode"].calls, 3);
        assert_eq!(t.counters["decode.frames"], 7);
        assert_eq!(tel.counter("decode.frames"), 7);
    }

    #[test]
    fn clones_share_one_recorder() {
        let tel = Telemetry::enabled();
        let other = tel.clone();
        other.add("x", 1);
        tel.add("x", 1);
        assert_eq!(tel.counter("x"), 2);
    }

    #[test]
    fn fork_of_off_is_off_and_absorb_into_off_is_noop() {
        let off = Telemetry::off();
        let shards = off.fork(4);
        assert!(shards.iter().all(|s| !s.is_enabled()));
        off.absorb(shards);
        assert!(off.snapshot().counters.is_empty());
    }

    #[test]
    fn absorb_merges_in_input_order_regardless_of_write_order() {
        // Two interleavings of shard *writes* (simulating worker
        // scheduling) must produce the same merged trace, because the
        // merge order is the shard (input) order, not completion order.
        let run = |reverse_writes: bool| {
            let tel = Telemetry::enabled();
            let shards = tel.fork(3);
            let order: Vec<usize> = if reverse_writes {
                vec![2, 1, 0]
            } else {
                vec![0, 1, 2]
            };
            for &i in &order {
                shards[i].add("decode.corrected", (i as u64 + 1) * 10);
                shards[i].span_record("scan.decode", 1, 1_000 * (i as u64 + 1));
            }
            tel.absorb(shards);
            tel.snapshot()
        };
        let a = run(false);
        let b = run(true);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.spans, b.spans);
        assert_eq!(a.counters["decode.corrected"], 60);
        assert_eq!(a.spans["scan.decode"].calls, 3);
        assert_eq!(a.spans["scan.decode"].wall_ns, 6_000);
    }

    #[test]
    fn span_guard_measures_elapsed_time() {
        let tel = Telemetry::enabled();
        {
            let _g = tel.span("work");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let t = tel.snapshot();
        assert_eq!(t.spans["work"].calls, 1);
        assert!(
            t.spans["work"].wall_ns >= 1_000_000,
            "{:?}",
            t.spans["work"]
        );
    }

    #[test]
    fn json_export_shape_is_stable() {
        let tel = Telemetry::enabled();
        tel.span_record("archive", 1, 2_000_000);
        tel.span_record("archive.compress", 1, 1_000_000);
        tel.add("codec.bytes_in", 100);
        let json = tel.snapshot().to_json();
        assert!(json.contains("\"name\": \"archive.compress\""));
        assert!(json.contains("\"codec.bytes_in\": 100"));
        assert!(!json.contains("gauges"), "{json}");
        // Minimal structural sanity: balanced braces/brackets.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escapes_control_and_quote_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn render_indents_children_under_parents() {
        let tel = Telemetry::enabled();
        tel.span_record("archive", 1, 5_000_000);
        tel.span_record("archive.compress", 2, 3_000_000);
        tel.add("frames", 4);
        let text = tel.snapshot().render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("archive"), "{text}");
        assert!(lines[1].starts_with("  compress"), "{text}");
        assert!(text.contains("frames = 4"), "{text}");
    }

    #[test]
    fn render_synthesizes_missing_ancestors() {
        let tel = Telemetry::enabled();
        tel.span_record("restore.native", 1, 5_000_000);
        tel.span_record("scan.decode.frame", 3, 2_000_000);
        let lines: String = tel.snapshot().render();
        let lines: Vec<&str> = lines.lines().collect();
        // Group rows for `restore`, `scan` and `scan.decode` appear even
        // though no span was ever recorded under those exact names.
        assert_eq!(lines[0], "restore");
        assert!(lines[1].starts_with("  native"), "{lines:?}");
        assert_eq!(lines[2], "scan");
        assert_eq!(lines[3], "  decode");
        assert!(lines[4].starts_with("    frame"), "{lines:?}");
    }
}
