//! Deterministic fork/join partitioning for the ingest pool's
//! annotation stage.
//!
//! Annotating one staged upload is independent of every other, so a
//! batch can be split into contiguous chunks and annotated on separate
//! OS threads. Merging the per-chunk outputs in chunk order reproduces
//! the sequential output exactly — what keeps batched ingest
//! byte-identical to one upload at a time.
//!
//! Threads are spawned with [`std::thread::scope`], so chunks borrow
//! the snapshot and the staged items directly — no `'static` bound, no
//! external thread-pool dependency (the workspace is offline,
//! std-only). Each chunk also records how long it stayed busy, which
//! [`IngestReport::annotate_busy`](crate::ingest::IngestReport::annotate_busy)
//! sums.

use std::time::Duration;

use lodify_sparql::profile::WallTimer;

/// What one partition produced: its outputs (in input order) and how
/// long the work took.
#[derive(Debug)]
pub(crate) struct ChunkOutcome<T> {
    /// Outputs for this chunk's slice of the input, in input order.
    pub out: Vec<T>,
    /// Time the chunk spent working (measured inside the worker).
    pub busy: Duration,
}

/// Splits `items` into `workers` contiguous chunks (sizes differing by
/// at most one) and runs `work` over each chunk, returning outcomes
/// **in chunk order** so concatenating `out` reproduces the sequential
/// result exactly. Chunks after the first run on scoped OS threads
/// while the caller's thread takes chunk 0; a single chunk spawns
/// nothing.
pub(crate) fn run_partitioned<I, T, F>(items: &[I], workers: usize, work: F) -> Vec<ChunkOutcome<T>>
where
    I: Sync,
    T: Send,
    F: Fn(&[I]) -> Vec<T> + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    let chunks: Vec<&[I]> = split_even(items, workers);
    let work = &work;
    std::thread::scope(|scope| {
        let mut rest = chunks.into_iter();
        let first = rest.next().expect("at least one chunk");
        let handles: Vec<_> = rest
            .map(|chunk| scope.spawn(move || run_chunk(chunk, work)))
            .collect();
        let mut outcomes = Vec::with_capacity(workers);
        outcomes.push(run_chunk(first, work));
        for handle in handles {
            // A panicking worker propagates: same behaviour as the
            // sequential path panicking mid-batch.
            outcomes.push(handle.join().expect("worker panicked"));
        }
        outcomes
    })
}

fn run_chunk<I, T>(chunk: &[I], work: &(impl Fn(&[I]) -> Vec<T> + Sync)) -> ChunkOutcome<T> {
    let started = WallTimer::start();
    let out = work(chunk);
    ChunkOutcome {
        out,
        busy: started.elapsed(),
    }
}

/// Contiguous near-even split: the first `len % workers` chunks take
/// one extra item. Never yields an empty chunk unless `items` is empty.
fn split_even<I>(items: &[I], workers: usize) -> Vec<&[I]> {
    if items.is_empty() {
        return vec![items];
    }
    let base = items.len() / workers;
    let extra = items.len() % workers;
    let mut chunks = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        chunks.push(&items[start..start + size]);
        start += size;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_contiguous_and_near_even() {
        let items: Vec<usize> = (0..10).collect();
        let chunks = split_even(&items, 4);
        assert_eq!(chunks.len(), 4);
        assert_eq!(
            chunks.iter().map(|c| c.len()).collect::<Vec<_>>(),
            vec![3, 3, 2, 2]
        );
        let flat: Vec<usize> = chunks.concat();
        assert_eq!(flat, items);
    }

    #[test]
    fn threaded_and_inline_runs_agree_with_sequential_order() {
        let items: Vec<u32> = (0..257).collect();
        let work = |chunk: &[u32]| chunk.iter().map(|x| x * 2).collect::<Vec<_>>();
        let sequential: Vec<u32> = work(&items);
        // One worker runs inline on the caller's thread, more spawn.
        for workers in [1, 2, 4, 7] {
            let outcomes = run_partitioned(&items, workers, work);
            let merged: Vec<u32> = outcomes.into_iter().flat_map(|o| o.out).collect();
            assert_eq!(merged, sequential, "workers={workers}");
        }
    }

    #[test]
    fn more_workers_than_items_degrades_gracefully() {
        let items = vec![1, 2];
        let outcomes = run_partitioned(&items, 8, |c| c.to_vec());
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes.iter().map(|o| o.out.len()).sum::<usize>(), 2);
        let empty: Vec<i32> = Vec::new();
        let outcomes = run_partitioned(&empty, 4, |c| c.to_vec());
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].out.is_empty());
    }
}
