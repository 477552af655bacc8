//! # aheft-parcomp
//!
//! Minimal parallel-computation utilities. The paper's evaluation runs
//! 500,000 simulation cases; [`par_map_chunked`] spreads such
//! embarrassingly parallel sweeps over OS threads with a shared index
//! counter (`std::thread::scope` + atomics), an explicit chunk size and a
//! progress callback for long sweeps. The experiment sweep driver and the
//! query daemon's cache-miss fan-out both call it.
//!
//! Design notes (per the repo's HPC guides):
//! * results are written into pre-allocated slots, so output order equals
//!   input order and the parallel run is bit-identical to the sequential
//!   one (each case carries its own RNG seed);
//! * chunked index claiming (`chunk` items per atomic fetch) keeps
//!   contention negligible for micro-tasks;
//! * with one thread or at most one item, the items run inline on the
//!   calling thread and no thread is spawned;
//! * no unsafe code and no external dependencies: workers send
//!   `(index, value)` pairs over an `mpsc` channel and the caller scatters
//!   them into the pre-sized output.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Progress observer for [`par_map_chunked`]: called from worker threads
/// after each completed chunk with `(items_done, items_total)`.
pub type ProgressFn<'a> = dyn Fn(usize, usize) + Sync + 'a;

/// Largest `--threads` value the `experiments` and `served` binaries
/// accept. Both commit to the count up front (`served` builds one
/// scheduling workspace per thread, the sweep spawns one scoped thread per
/// worker), so an unchecked count aborts on allocation or panics when the
/// OS refuses a thread instead of failing with a message.
pub const MAX_THREADS: usize = 256;

/// Default parallelism: available CPUs, at least 1.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Apply `f` to every element of `items` on `threads` threads, preserving
/// order: workers claim `chunk` indices per atomic fetch and report
/// completion through an optional `progress` callback — the sweep driver
/// uses it to print live case counts on multi-minute runs. With
/// `threads <= 1` or at most one item, `f` runs inline on the caller.
///
/// Output order equals input order regardless of which thread computed
/// which element, so a parallel sweep is bit-identical to the sequential
/// one as long as `f` itself is deterministic per item. `progress` runs on
/// worker threads; keep it cheap and non-blocking.
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let seen = AtomicUsize::new(0);
/// let out = aheft_parcomp::par_map_chunked(
///     &[10u64, 20, 30],
///     2,
///     1,
///     Some(&|done, total| {
///         assert!(done <= total);
///         seen.fetch_max(done, Ordering::Relaxed);
///     }),
///     |x| x + 1,
/// );
/// assert_eq!(out, vec![11, 21, 31]);
/// assert_eq!(seen.load(Ordering::Relaxed), 3); // every item was reported
/// ```
pub fn par_map_chunked<T, U, F>(
    items: &[T],
    threads: usize,
    chunk: usize,
    progress: Option<&ProgressFn>,
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let chunk = chunk.max(1);
    if threads <= 1 || n <= 1 {
        let done = AtomicUsize::new(0);
        return items
            .iter()
            .map(|item| {
                let v = f(item);
                if let Some(p) = progress {
                    p(done.fetch_add(1, Ordering::Relaxed) + 1, n);
                }
                v
            })
            .collect();
    }
    let threads = threads.min(n);

    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);

    // Workers claim chunked index ranges and send (index, value) pairs over
    // a channel; the caller scatters them into pre-allocated slots, so the
    // output order equals the input order regardless of claim order.
    let (tx, rx) = std::sync::mpsc::channel::<(usize, U)>();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let done = &done;
            let f = &f;
            s.spawn(move || loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                for (i, item) in items[start..end].iter().enumerate() {
                    // Send failures can only happen if the receiver was
                    // dropped, which cannot occur before the scope joins.
                    tx.send((start + i, f(item))).expect("receiver alive");
                }
                if let Some(p) = progress {
                    p(done.fetch_add(end - start, Ordering::Relaxed) + (end - start), n);
                }
            });
        }
        drop(tx);
        for (i, v) in rx {
            out[i] = Some(v);
        }
    });

    out.into_iter().map(|v| v.expect("every index produced")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_with_uneven_work() {
        let items: Vec<u64> = (0..200).collect();
        let f = |x: &u64| {
            // Uneven work: later items are much cheaper.
            let spins = if *x < 20 { 10_000 } else { 10 };
            let mut acc = *x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (*x, acc)
        };
        let par = par_map_chunked(&items, 4, 8, None, f);
        for (i, (x, _)) in par.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_chunked(&empty, 4, 8, None, |x| *x).is_empty());
        assert_eq!(par_map_chunked(&[7u32], 4, 8, None, |x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_chunked_matches_sequential_for_all_chunk_sizes() {
        let items: Vec<u64> = (0..137).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 4] {
            for chunk in [1, 2, 7, 64, 1000] {
                let par = par_map_chunked(&items, threads, chunk, None, |x| x * 3 + 1);
                assert_eq!(par, seq, "threads = {threads}, chunk = {chunk}");
            }
        }
    }

    #[test]
    fn par_map_chunked_progress_reaches_total() {
        for threads in [1, 3] {
            let max_done = AtomicUsize::new(0);
            let calls = AtomicUsize::new(0);
            let items: Vec<u64> = (0..50).collect();
            let progress = |done: usize, total: usize| {
                assert_eq!(total, 50);
                assert!(done <= total, "done {done} exceeded total {total}");
                max_done.fetch_max(done, Ordering::Relaxed);
                calls.fetch_add(1, Ordering::Relaxed);
            };
            let out = par_map_chunked(&items, threads, 8, Some(&progress), |x| *x);
            assert_eq!(out, items);
            assert_eq!(max_done.load(Ordering::Relaxed), 50, "threads = {threads}");
            assert!(calls.load(Ordering::Relaxed) >= 7, "one call per chunk at least");
        }
    }

    #[test]
    fn par_map_chunked_zero_chunk_is_clamped() {
        let items: Vec<u64> = (0..10).collect();
        let out = par_map_chunked(&items, 2, 0, None, |x| x + 1);
        assert_eq!(out, (1..=10).collect::<Vec<u64>>());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
