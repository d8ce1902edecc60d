//! Deterministic sharded execution for fleet-scale stepping.
//!
//! The fleet is partitioned into **contiguous shards** — disjoint
//! `&mut` sub-slices of the per-server state arrays — and a scoped
//! worker pool drains the shard queue. Because every shard owns a
//! disjoint, index-addressed range of servers and all mutation happens
//! in place through those exclusive borrows, the end state is
//! **bit-identical for any thread count and any shard partitioning**:
//! there is no cross-shard data flow whose order could vary, and every
//! serial reduction (room heat, fleet MSE, sketch merges) runs after
//! the scope closes, in fixed server-index order. This is the same
//! contract as `vmtherm_svm::grid`'s index-addressed merge; the two are
//! the only modules of the deterministic crates allowed to spawn threads
//! (clippy.toml's `disallowed-methods`).
//!
//! Per-server RNG streams are derived from `seed ⊕ f(stable server
//! index)` (see `fault::ServerFaultState::new` and the VM workload
//! seeds), never from shard topology, so the draws a server consumes do
//! not depend on which shard stepped it.
//!
//! Per-tick parallel sections size their pool with [`workers`]: a fleet
//! too small to repay a scoped pool's spawn and join steps its chunks
//! inline. Only the thread count changes, never the chunking, so the
//! result is the same either way.

/// Servers each worker of a per-tick parallel section must have before
/// a second thread is worth spawning.
///
/// One scoped 2-thread section costs about 55 µs to spawn and join on a
/// 2-vCPU host, while one server costs about 0.55 µs per phase (engine
/// step or monitor observe), so two threads only pay off above roughly
/// 200 servers; 256 rounds that up.
pub const MIN_SERVERS_PER_WORKER: usize = 256;

/// Worker threads a per-tick parallel section over `servers` servers
/// may use, given a budget of `threads`: at most one per
/// [`MIN_SERVERS_PER_WORKER`] servers, and always at least one (inline).
///
/// ```
/// use vmtherm_sim::shard::workers;
/// assert_eq!(workers(2, 48), 1);
/// assert_eq!(workers(2, 512), 2);
/// assert_eq!(workers(8, 1024), 4);
/// ```
#[must_use]
pub fn workers(threads: usize, servers: usize) -> usize {
    threads.min(servers / MIN_SERVERS_PER_WORKER).max(1)
}

/// Splits `len` items into at most `shards` contiguous ranges of
/// near-equal size (the first `len % shards` ranges are one longer).
///
/// Returns `(start, end)` half-open bounds in index order. Empty ranges
/// are never produced: fewer than `shards` ranges come back when
/// `len < shards`.
///
/// ```
/// use vmtherm_sim::shard::shard_bounds;
/// assert_eq!(shard_bounds(5, 2), vec![(0, 3), (3, 5)]);
/// assert_eq!(shard_bounds(2, 8), vec![(0, 1), (1, 2)]);
/// assert_eq!(shard_bounds(0, 4), vec![]);
/// ```
#[must_use]
pub fn shard_bounds(len: usize, shards: usize) -> Vec<(usize, usize)> {
    shard_ranges(len, shards).collect()
}

/// [`shard_bounds`] as an iterator, for per-tick callers that must not
/// allocate.
pub(crate) fn shard_ranges(len: usize, shards: usize) -> impl Iterator<Item = (usize, usize)> {
    let shards = shards.max(1).min(len);
    let (base, extra) = if len == 0 {
        (0, 0)
    } else {
        (len / shards, len % shards)
    };
    (0..shards).scan(0, move |start, s| {
        let end = *start + base + usize::from(s < extra);
        let range = (*start, end);
        *start = end;
        Some(range)
    })
}

/// Runs `f` over disjoint contiguous chunks of `items` on a scoped
/// worker pool.
///
/// `items` is split according to [`shard_bounds`]`(items.len(), shards)`
/// and each worker repeatedly takes the next unclaimed chunk. `f`
/// receives `(offset, chunk)` where `offset` is the global index of
/// `chunk[0]`, so callers address global per-server state (RNG streams,
/// gauge names) by stable index rather than by shard position.
///
/// Determinism contract: `f` must only mutate state reachable through
/// its exclusive `chunk` borrow (plus order-independent atomics such as
/// observability counters). Under that contract the result is
/// bit-identical for every `threads >= 1`, because chunk execution
/// order cannot influence any value.
///
/// With `threads <= 1` or a single chunk the work runs inline on the
/// caller's thread — no pool is spun up, so the serial path stays
/// allocation-free. Otherwise the caller drains chunks alongside the
/// spawned workers. Worker panics are re-raised on the caller with their
/// original payload.
pub fn for_each_chunk<T, F>(items: &mut [T], shards: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if threads <= 1 {
        for (start, end) in shard_ranges(items.len(), shards) {
            f(start, &mut items[start..end]);
        }
        return;
    }
    let bounds = shard_bounds(items.len(), shards);
    // Carve the slice into disjoint chunks up front; handing each
    // worker an exclusive borrow means no two threads can alias a
    // server. Bounds are contiguous from zero, so each chunk's global
    // offset is simply the number of items consumed before it.
    let mut chunks: Vec<(usize, &mut [T])> = Vec::with_capacity(bounds.len());
    let mut rest = items;
    let mut consumed = 0;
    for (_, end) in &bounds {
        let (chunk, tail) = rest.split_at_mut(end - consumed);
        chunks.push((consumed, chunk));
        rest = tail;
        consumed = *end;
    }

    for_each_job(chunks, threads, |(offset, chunk)| f(offset, chunk));
}

/// Drains a job list on a scoped worker pool of up to `threads` workers,
/// the calling thread among them (inline when `threads <= 1` or there is
/// at most one job).
///
/// Jobs are typically disjoint `&mut` sub-slices the caller carved
/// itself; the engine builds one per shard of a (possibly sparse) step
/// batch. Job pick-up order is arbitrary, so the same determinism
/// contract as [`for_each_chunk`] applies: `f` may only mutate state
/// its job borrows exclusively. Worker panics are re-raised on the
/// caller with their original payload.
pub(crate) fn for_each_job<J, F>(jobs: Vec<J>, threads: usize, f: F)
where
    J: Send,
    F: Fn(J) + Sync,
{
    if threads <= 1 || jobs.len() <= 1 {
        for job in jobs {
            f(job);
        }
        return;
    }

    let workers = threads.min(jobs.len());
    let queue = std::sync::Mutex::new(jobs);
    let drain = || loop {
        let job = {
            let mut q = queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            q.pop()
        };
        match job {
            Some(job) => f(job),
            None => break,
        }
    };

    #[expect(
        clippy::disallowed_methods,
        reason = "each job mutates only state it borrows exclusively, so the outcome does not depend on which worker ran it"
    )]
    std::thread::scope(|scope| {
        // The caller is one of the workers: it spawns one thread fewer
        // and its allocator arena serves jobs instead of sitting idle.
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        drain();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_cover_the_range_exactly_once() {
        for len in 0..40 {
            for shards in 1..10 {
                let bounds = shard_bounds(len, shards);
                let mut expect = 0;
                for (start, end) in &bounds {
                    assert_eq!(*start, expect);
                    assert!(end > start, "empty shard in {bounds:?}");
                    expect = *end;
                }
                assert_eq!(expect, len);
                // Near-equal: sizes differ by at most one.
                if let (Some(max), Some(min)) = (
                    bounds.iter().map(|(s, e)| e - s).max(),
                    bounds.iter().map(|(s, e)| e - s).min(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn workers_stay_inline_below_the_floor() {
        let floor = MIN_SERVERS_PER_WORKER;
        assert_eq!(workers(4, 0), 1);
        assert_eq!(workers(2, 2 * floor - 1), 1);
        assert_eq!(workers(2, 2 * floor), 2);
        assert_eq!(workers(4, 4 * floor - 1), 3);
        assert_eq!(workers(4, 4 * floor), 4);
        assert_eq!(workers(4, 100 * floor), 4);
        assert_eq!(workers(1, 100 * floor), 1);
        assert_eq!(workers(0, 100 * floor), 1);
    }

    #[test]
    fn chunks_see_global_offsets() {
        let mut data = vec![0usize; 13];
        for_each_chunk(&mut data, 4, 4, |offset, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = offset + i;
            }
        });
        let expect: Vec<usize> = (0..13).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn result_is_identical_across_thread_and_shard_counts() {
        let run = |shards: usize, threads: usize| -> Vec<f64> {
            let mut data: Vec<f64> = (0..23).map(|i| f64::from(i) * 0.1).collect();
            for_each_chunk(&mut data, shards, threads, |offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    let global = offset + i;
                    *v = (*v).sin() + (global as f64).sqrt();
                }
            });
            data
        };
        let reference = run(1, 1);
        for shards in [1, 2, 3, 5, 8, 23, 64] {
            for threads in [1, 2, 4, 8] {
                let got = run(shards, threads);
                for (a, b) in reference.iter().zip(&got) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn worker_panics_propagate_with_payload() {
        let caught = std::panic::catch_unwind(|| {
            let mut data = vec![0u8; 8];
            for_each_chunk(&mut data, 4, 2, |offset, _chunk| {
                if offset >= 4 {
                    panic!("shard exploded");
                }
            });
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "shard exploded");
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let mut data: Vec<u32> = Vec::new();
        for_each_chunk(&mut data, 4, 4, |_, _| panic!("no chunks expected"));
    }
}
