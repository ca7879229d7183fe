//! Work-stealing thread pool for one-shot job batches.
//!
//! Jobs are indexed at submission; results land in their submission slot, so
//! output order is deterministic regardless of thread count or steal
//! interleaving. Workers drain their own deque from the front and steal from
//! victims' backs (classic Chase–Lev discipline, implemented with simple
//! locked deques). Cold jobs are seconds-long simulations, but a warm job is
//! a 45–65 µs cache hit (the benchmark's `dmp-runner.cache.load_us` plus
//! `dmp-sim.summary_from_json_us` for a 3 KB `RunSummary`, 2-core host), so
//! per-job queue overhead is measured, not assumed: the benchmark's
//! `dmp-runner.pool.dispatch_ns_per_job` (well under 1 µs).

use std::collections::VecDeque;
use std::sync::Mutex;

/// A boxed job; may borrow from the caller's stack (`run_ordered` joins all
/// workers before returning, via `std::thread::scope`).
pub type Job<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// One worker's deque of `(submission index, job)` pairs.
type WorkQueue<'a, T> = Mutex<VecDeque<(usize, Job<'a, T>)>>;

/// Run `jobs` on `threads` workers; `results[i]` corresponds to `jobs[i]`.
///
/// Jobs must not panic — wrap fallible work in `catch_unwind` first (the
/// runner layer does). A panic here poisons nothing but aborts the batch via
/// unwind into `std::thread::scope`, which propagates it.
pub fn run_ordered<'a, T: Send>(jobs: Vec<Job<'a, T>>, threads: usize) -> Vec<T> {
    let threads = threads.max(1);
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }

    // Submission-order slots the workers write into.
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

    if threads == 1 || n == 1 {
        for (i, job) in jobs.into_iter().enumerate() {
            *slots[i].lock().unwrap() = Some(job());
        }
        return collect(slots);
    }

    // Round-robin initial distribution across per-worker deques.
    let queues: Vec<WorkQueue<'a, T>> = (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        queues[i % threads].lock().unwrap().push_back((i, job));
    }

    std::thread::scope(|scope| {
        for me in 0..threads {
            let queues = &queues;
            let slots = &slots;
            scope.spawn(move || loop {
                // Own queue first (front), then steal from victims (back).
                // Each lock is a statement-scoped temporary: at most one
                // queue lock is held at a time, so workers cannot deadlock
                // in a circular steal chain.
                let mut next = queues[me].lock().unwrap().pop_front();
                if next.is_none() {
                    next = (1..threads)
                        .find_map(|step| queues[(me + step) % threads].lock().unwrap().pop_back());
                }
                match next {
                    Some((idx, job)) => *slots[idx].lock().unwrap() = Some(job()),
                    // All queues empty: every job is claimed (jobs are taken
                    // while holding the queue lock), so this worker is done.
                    None => break,
                }
            });
        }
    });

    collect(slots)
}

fn collect<T>(slots: Vec<Mutex<Option<T>>>) -> Vec<T> {
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every job slot is filled before the scope exits")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: usize) -> Vec<Job<'static, u64>> {
        (0..n)
            .map(|i| Box::new(move || (i as u64) * (i as u64)) as Job<'static, u64>)
            .collect()
    }

    #[test]
    fn results_keep_submission_order() {
        let expected: Vec<u64> = (0..97).map(|i: u64| i * i).collect();
        for threads in [1, 2, 3, 8, 16] {
            assert_eq!(
                run_ordered(squares(97), threads),
                expected,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_and_single_batches() {
        assert!(run_ordered(Vec::<Job<'static, u8>>::new(), 4).is_empty());
        assert_eq!(run_ordered(squares(1), 4), vec![0]);
    }

    #[test]
    fn uneven_jobs_all_complete() {
        // Mix fast and slow jobs so stealing actually happens.
        let jobs: Vec<Job<'static, usize>> = (0..32usize)
            .map(|i| {
                Box::new(move || {
                    if i % 7 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    i
                }) as Job<'static, usize>
            })
            .collect();
        assert_eq!(run_ordered(jobs, 4), (0..32).collect::<Vec<_>>());
    }
}
