//! Deterministic scoped worker pool (system **S14** in `DESIGN.md` §9).
//!
//! Every stage of the Figure 2a/2b pipeline is embarrassingly parallel per
//! emblem (encode, inner/outer Reed–Solomon coding, frame rasterisation,
//! per-scan decode), but the archival format is *frozen*: the bytes written
//! to the medium must never depend on how many worker threads happened to
//! run. This crate therefore provides exactly one parallel primitive —
//! an **ordered map**: work items are claimed dynamically by a pool of
//! scoped threads (`std::thread::scope`, no external dependencies), and
//! results are joined back in input-index order. Output is byte-identical
//! to the serial path at any thread count; `tests/parallel_identity.rs`
//! asserts this end to end and `tests/golden_format.rs` pins the absolute
//! bytes.
//!
//! [`ThreadConfig::Serial`] bypasses the pool entirely (no threads are
//! spawned), which is the default everywhere: parallelism is strictly
//! opt-in via `MicrOlonys { threads, .. }` or a stage's full form (the
//! one that takes a `ThreadConfig`).

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many worker threads a batch entry point may use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ThreadConfig {
    /// Run on the calling thread, in input order. The default everywhere,
    /// including the emulated restore path — whose per-frame fan-out is,
    /// like every other use of the pool, a pure wall-clock knob with
    /// byte-identical output at any thread count (DESIGN.md §9).
    #[default]
    Serial,
    /// Spawn exactly `n` workers (clamped to ≥ 1). Output is identical to
    /// `Serial` — only wall-clock time changes.
    Fixed(usize),
    /// Use [`std::thread::available_parallelism`] workers, capped at
    /// [`ThreadConfig::AUTO_MAX_WORKERS`]. When the runtime cannot
    /// determine the core count (sandboxed or exotic platforms return
    /// `Err`), `Auto` degrades to a single worker — i.e. exactly the
    /// `Serial` behaviour, never a guess above the hardware.
    Auto,
}

impl ThreadConfig {
    /// Upper bound on what `Auto` resolves to. The pipeline's work items
    /// are whole emblems (tens of KB to MBs each), so past this width the
    /// ordered join and allocator pressure dominate any extra cores;
    /// machines wider than this should opt in explicitly via `Fixed(n)`.
    pub const AUTO_MAX_WORKERS: usize = 64;

    /// Number of worker threads this configuration resolves to (≥ 1).
    ///
    /// Edge cases are pinned by unit tests: `Serial` is always exactly 1,
    /// `Fixed(0)` clamps to 1 (a zero-width pool cannot make progress),
    /// and `Auto` is `min(available_parallelism(), AUTO_MAX_WORKERS)`
    /// with a documented fallback of 1 when the core count is unknown.
    pub fn workers(self) -> usize {
        match self {
            ThreadConfig::Serial => 1,
            ThreadConfig::Fixed(n) => n.max(1),
            ThreadConfig::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
                .min(Self::AUTO_MAX_WORKERS),
        }
    }

    /// Resolve the `ULE_TEST_THREADS` environment variable (the CI matrix
    /// knob): unset or unparsable → `default`; `0` or `1` → `Serial`;
    /// `n > 1` → `Fixed(n)`.
    pub fn from_env_or(default: ThreadConfig) -> ThreadConfig {
        match std::env::var("ULE_TEST_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n > 1 => ThreadConfig::Fixed(n),
                Ok(_) => ThreadConfig::Serial,
                Err(_) => default,
            },
            Err(_) => default,
        }
    }
}

impl std::fmt::Display for ThreadConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadConfig::Serial => write!(f, "serial"),
            ThreadConfig::Fixed(n) => write!(f, "{} threads", n.max(&1)),
            ThreadConfig::Auto => write!(f, "auto ({} threads)", self.workers()),
        }
    }
}

/// Ordered parallel map over `0..n`: returns `[f(0), f(1), .., f(n-1)]`.
///
/// Work is claimed dynamically in **chunks**: each worker grabs a run of
/// `max(1, n / (8 · workers))` consecutive indices per cursor bump, so a
/// batch of many small items (the shape the kernel layer created — per
/// 255-byte RS block instead of per emblem) costs one atomic RMW and one
/// result-lock acquisition per run rather than per item, while ~8 chunks
/// per worker keep uneven item costs balanced. Results still land in
/// their input slots, so the output is independent of scheduling at any
/// thread count (`tests/parallel_identity.rs` pins serial ≡ threaded end
/// to end). A panic in `f` propagates to the caller when the scope joins.
pub fn map_indexed<R, F>(cfg: ThreadConfig, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = cfg.workers().min(n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = (n / (8 * workers)).max(1);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slots = Mutex::new(slots);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                // Compute outside the lock: the lock only guards the
                // (cheap) result placement, not the work.
                let run: Vec<R> = (start..end).map(&f).collect();
                let mut guard = slots.lock().unwrap();
                for (i, r) in run.into_iter().enumerate() {
                    guard[start + i] = Some(r);
                }
            });
        }
    });
    slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|o| o.expect("every index claimed exactly once"))
        .collect()
}

/// Ordered parallel map over a slice: returns `[f(&items[0]), ..]`.
pub fn map<T, R, F>(cfg: ThreadConfig, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_indexed(cfg, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..257).collect();
        let serial = map(ThreadConfig::Serial, &items, |&x| x * x + 1);
        for threads in [2, 3, 4, 8] {
            let par = map(ThreadConfig::Fixed(threads), &items, |&x| x * x + 1);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn order_is_input_order_not_completion_order() {
        // Make early items slow: with dynamic claiming, later items finish
        // first, but the output must still be in index order.
        let out = map_indexed(ThreadConfig::Fixed(4), 16, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(map(ThreadConfig::Fixed(8), &empty, |&x| x).is_empty());
        assert_eq!(map(ThreadConfig::Fixed(8), &[7u8], |&x| x + 1), vec![8]);
    }

    #[test]
    fn workers_are_clamped() {
        assert_eq!(ThreadConfig::Serial.workers(), 1);
        assert_eq!(ThreadConfig::Fixed(0).workers(), 1);
        assert_eq!(ThreadConfig::Fixed(6).workers(), 6);
        assert!(ThreadConfig::Auto.workers() >= 1);
    }

    #[test]
    fn auto_is_capped_at_available_parallelism() {
        // Auto must never exceed the hardware (capped further at
        // AUTO_MAX_WORKERS) — and must still be a usable pool width.
        let auto = ThreadConfig::Auto.workers();
        let avail = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        assert!(auto <= avail.min(ThreadConfig::AUTO_MAX_WORKERS));
        assert!(auto >= 1, "fallback when the core count is unknown");
    }

    #[test]
    fn serial_and_fixed_zero_run_on_the_calling_thread() {
        // The Serial / Fixed(0) edge cases: both resolve to one worker,
        // and map() must not spawn — observable via thread id equality.
        let caller = std::thread::current().id();
        for cfg in [ThreadConfig::Serial, ThreadConfig::Fixed(0)] {
            assert_eq!(cfg.workers(), 1, "{cfg:?}");
            let ids = map_indexed(cfg, 4, |_| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == caller), "{cfg:?} spawned");
        }
        // Fixed(1) also degenerates to the calling thread: one worker
        // never beats zero spawn overhead.
        assert_eq!(ThreadConfig::Fixed(1).workers(), 1);
    }

    #[test]
    fn chunked_claiming_covers_every_index_exactly_once() {
        // Sizes around the chunk-boundary arithmetic: n < workers,
        // n == chunk edge, n % chunk != 0, and a many-small-item batch
        // (the contention shape the chunked cursor exists for).
        for n in [1usize, 5, 31, 32, 33, 257, 4096] {
            for threads in [2usize, 4, 8] {
                let out = map_indexed(ThreadConfig::Fixed(threads), n, |i| i * 3);
                assert_eq!(
                    out,
                    (0..n).map(|i| i * 3).collect::<Vec<_>>(),
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = map_indexed(ThreadConfig::Fixed(32), 3, |i| i * 10);
        assert_eq!(out, vec![0, 10, 20]);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        map_indexed(ThreadConfig::Fixed(2), 8, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn default_is_serial() {
        assert_eq!(ThreadConfig::default(), ThreadConfig::Serial);
    }
}
