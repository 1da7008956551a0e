//! The loader pool: `available_parallelism` worker threads, named
//! `grafics-load-<k>`, started on first use and never joined, that run
//! `'static` jobs off the calling thread.
//! [`GraficsFleet::recover`](crate::GraficsFleet::recover), the one
//! fleet loader, decodes and replays its shards here.
//!
//! The threads persist because of the allocator. With a per-thread-arena
//! malloc (glibc), each thread allocates from an arena of its own, and
//! an arena keeps the memory freed into it. Short-lived workers per call
//! leave their arenas to whichever threads start next (a server's WAL
//! flusher threads), so every cold start in a long-lived process would
//! create new arenas and peak RSS would grow with each call. The pool's
//! threads keep their arenas, and every job reuses them.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, SendError, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread;

type Job = Box<dyn FnOnce() + Send>;

/// The job queue's sending end; the workers share the receiving end.
/// If no worker could be spawned, the receiver is gone, `send` fails and
/// jobs run on the calling thread instead.
fn queue() -> &'static Sender<Job> {
    static QUEUE: OnceLock<Sender<Job>> = OnceLock::new();
    QUEUE.get_or_init(|| {
        let (queue, jobs) = channel::<Job>();
        let jobs = Arc::new(Mutex::new(jobs));
        for k in 0..workers() {
            let jobs = Arc::clone(&jobs);
            // A failed spawn only leaves fewer workers.
            let _ = thread::Builder::new()
                .name(format!("grafics-load-{k}"))
                .spawn(move || loop {
                    // The lock is released before the job runs, and jobs
                    // never unwind (see `run_ordered`), so it is never
                    // poisoned in practice.
                    let job = jobs.lock().unwrap_or_else(PoisonError::into_inner).recv();
                    let Ok(job) = job else { return };
                    job();
                });
        }
        queue
    })
}

/// The number of worker threads the pool starts with.
fn workers() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Runs `jobs` on the pool and yields their results in input order, each
/// as soon as it and every job before it are done. Beyond the result the
/// caller takes next, at most one job more than the pool has workers is
/// handed out: enough to keep every worker busy while the caller works
/// on a result, few enough that a caller slower than the pool does not
/// pile up finished results in the workers' allocator arenas. Each
/// job sends exactly one result: a panic is caught on the worker, which
/// stays alive, and resumed on the thread that takes that result from
/// [`Ordered`]. Dropping the [`Ordered`] early leaves the jobs already
/// handed out to finish, their results to be dropped, and the rest
/// unstarted.
pub(crate) fn run_ordered<T, F, J>(jobs: J) -> Ordered<T, J::IntoIter>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
    J: IntoIterator<Item = F>,
{
    let (done, results) = channel();
    Ordered {
        jobs: jobs.into_iter(),
        ahead: workers() + 1,
        handed_out: 0,
        done,
        results,
        early: BTreeMap::new(),
        next: 0,
    }
}

/// The results of [`run_ordered`], in input order.
pub(crate) struct Ordered<T, J> {
    /// The jobs not yet handed to the pool, in input order.
    jobs: J,
    /// How many jobs may be handed out beyond the next result.
    ahead: usize,
    handed_out: usize,
    done: Sender<(usize, thread::Result<T>)>,
    results: Receiver<(usize, thread::Result<T>)>,
    /// Results that arrived before an earlier one.
    early: BTreeMap<usize, thread::Result<T>>,
    next: usize,
}

impl<T, F, J> Iterator for Ordered<T, J>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
    J: Iterator<Item = F>,
{
    type Item = T;

    /// Blocks until the next job in input order is done, and resumes its
    /// panic here if it panicked.
    fn next(&mut self) -> Option<T> {
        while self.handed_out <= self.next + self.ahead {
            let Some(job) = self.jobs.next() else { break };
            let (i, done) = (self.handed_out, self.done.clone());
            let job: Job = Box::new(move || {
                // A closed channel means the caller stopped reading.
                let _ = done.send((i, catch_unwind(AssertUnwindSafe(job))));
            });
            if let Err(SendError(job)) = queue().send(job) {
                job();
            }
            self.handed_out += 1;
        }
        if self.next == self.handed_out {
            return None;
        }
        let result = loop {
            if let Some(result) = self.early.remove(&self.next) {
                break result;
            }
            let (i, result) = self
                .results
                .recv()
                .expect("every job sends exactly one result");
            self.early.insert(i, result);
        };
        self.next += 1;
        Some(result.unwrap_or_else(|panic| resume_unwind(panic)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Condvar;
    use std::time::{Duration, Instant};

    /// Runs one job per worker, each holding its worker until all of them
    /// have started (or a deadline passes), and returns the distinct
    /// thread names they ran on: one name per live worker.
    fn live_workers() -> BTreeSet<String> {
        let n = workers();
        let started = Arc::new((Mutex::new(0usize), Condvar::new()));
        let jobs = (0..n).map(|_| {
            let started = Arc::clone(&started);
            move || {
                let (count, cv) = &*started;
                let mut count = count.lock().unwrap();
                *count += 1;
                cv.notify_all();
                let deadline = Instant::now() + Duration::from_secs(10);
                while *count < n && Instant::now() < deadline {
                    count = cv.wait_timeout(count, Duration::from_millis(50)).unwrap().0;
                }
                thread::current().name().unwrap_or_default().to_owned()
            }
        });
        run_ordered(jobs).collect()
    }

    #[test]
    fn results_come_back_in_input_order() {
        // Later jobs finish first; the caller still sees input order.
        let jobs = (0..8u64).map(|i| {
            move || {
                thread::sleep(Duration::from_millis(8 - i));
                i * i
            }
        });
        let out: Vec<u64> = run_ordered(jobs).collect();
        assert_eq!(out, (0..8).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_panics_the_caller_and_the_pool_keeps_its_threads() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("job 1 failed")),
            Box::new(|| 3),
        ];
        let mut results = run_ordered(jobs);
        assert_eq!(results.next(), Some(1));
        let panic = catch_unwind(AssertUnwindSafe(|| results.next()))
            .expect_err("the job's panic reaches the caller");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"job 1 failed"));
        assert_eq!(results.next(), Some(3));
        assert_eq!(results.next(), None);

        let names = live_workers();
        assert_eq!(names.len(), workers(), "a worker died: {names:?}");
        assert!(
            names.iter().all(|n| n.starts_with("grafics-load-")),
            "{names:?}"
        );
    }
}
