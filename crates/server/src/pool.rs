//! A bounded worker pool on `std::thread` + `mpsc`.
//!
//! - **Backpressure**: the queue is a `sync_channel` with fixed
//!   capacity; [`Pool::try_submit`] fails fast when it is full (the
//!   service answers `overloaded`), while [`Pool::submit`] blocks (used
//!   by `secflow batch`, where the producer should simply wait).
//! - **Panic isolation**: every job runs under `catch_unwind`, so a
//!   panicking job costs only itself; its worker takes the next job on
//!   the same thread. (The server's jobs answer their own panics with an
//!   `internal` error and count them in `stats.panics`.) What bounds a
//!   job is its request's cooperative cancellation
//!   ([`crate::CancelToken`]), not the pool.
//! - **Graceful drain**: [`Pool::shutdown`] closes the queue and joins
//!   the workers, which exit only once it is drained — queued jobs are
//!   never lost, panics included.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Stack reserved for each worker, sized for the deepest program
/// `parse` accepts (`MAX_NESTING`): proving it with a certificate takes
/// about 8 MiB of stack unoptimized and validating it about 4 MiB, both
/// about 1.3 MiB in release. On the 2 MiB default such a request
/// overflows and aborts the whole process. The stack is reserved, not
/// committed: a job touches only the pages it uses.
const WORKER_STACK_BYTES: usize = 32 << 20;

/// Why a submission was refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubmitError {
    /// The queue is at capacity; retry later.
    Full,
    /// The pool is shutting down.
    Closed,
}

/// Point-in-time pool health, surfaced by the `stats` op.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PoolHealth {
    /// Worker threads.
    pub workers: usize,
    /// Workers running a job right now.
    pub busy: usize,
}

struct Shared {
    rx: Mutex<Receiver<Job>>,
    busy: AtomicUsize,
}

/// Fixed-size worker pool with a bounded job queue.
pub struct Pool {
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl Pool {
    /// Spawns `workers` threads behind a queue of `queue_capacity`
    /// pending jobs. Both counts are clamped to at least 1.
    pub fn new(workers: usize, queue_capacity: usize) -> Pool {
        let (tx, rx) = sync_channel::<Job>(queue_capacity.max(1));
        let shared = Arc::new(Shared {
            rx: Mutex::new(rx),
            busy: AtomicUsize::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("secflow-worker-{i}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Pool {
            tx: Some(tx),
            workers,
            shared,
        }
    }

    /// Non-blocking submission; fails with [`SubmitError::Full`] under
    /// load so the caller can shed it.
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let tx = self.tx.as_ref().ok_or(SubmitError::Closed)?;
        tx.try_send(Box::new(job)).map_err(|e| match e {
            TrySendError::Full(_) => SubmitError::Full,
            TrySendError::Disconnected(_) => SubmitError::Closed,
        })
    }

    /// Blocking submission: waits for queue space (producer-side
    /// backpressure for bulk work).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let tx = self.tx.as_ref().ok_or(SubmitError::Closed)?;
        tx.send(Box::new(job)).map_err(|_| SubmitError::Closed)
    }

    /// Current pool health.
    pub fn health(&self) -> PoolHealth {
        PoolHealth {
            workers: self.workers.len(),
            busy: self.shared.busy.load(Relaxed),
        }
    }

    /// Stops accepting work, drains every queued job, and joins the
    /// workers, as dropping the pool does.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.tx.take(); // close the queue: workers exit after draining
        for worker in self.workers.drain(..) {
            // A worker catches every job's panic, so it ends normally.
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        // Hold the lock only while dequeueing, never while running a
        // job, so no panic can poison it; the receiver is valid either
        // way.
        let next = shared
            .rx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv();
        let Ok(job) = next else {
            return; // queue closed and drained
        };
        shared.busy.fetch_add(1, Relaxed);
        // A panic ends only its job; this thread takes the next one.
        let _ = catch_unwind(AssertUnwindSafe(job));
        shared.busy.fetch_sub(1, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_jobs_and_drains_on_shutdown() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = Pool::new(4, 64);
        for _ in 0..50 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                std::thread::sleep(Duration::from_millis(1));
                done.fetch_add(1, Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Relaxed), 50);
    }

    #[test]
    fn try_submit_sheds_when_full() {
        let pool = Pool::new(1, 2);
        let gate = Arc::new(Mutex::new(()));
        let hold = gate.lock().unwrap();
        // One job blocks the worker; then fill the queue.
        let (started_tx, started) = mpsc::channel();
        let g = Arc::clone(&gate);
        pool.try_submit(move || {
            started_tx.send(()).unwrap();
            drop(g.lock());
        })
        .unwrap();
        started.recv().unwrap();
        assert_eq!(
            pool.health(),
            PoolHealth {
                workers: 1,
                busy: 1
            }
        );
        for _ in 0..2 {
            let gate = Arc::clone(&gate);
            let _ = pool.try_submit(move || {
                drop(gate.lock());
            });
        }
        let mut saw_full = false;
        for _ in 0..10 {
            let gate = Arc::clone(&gate);
            if pool.try_submit(move || drop(gate.lock())) == Err(SubmitError::Full) {
                saw_full = true;
                break;
            }
        }
        assert!(saw_full, "bounded queue never reported Full");
        drop(hold);
        pool.shutdown();
    }

    #[test]
    fn survives_panicking_jobs_in_place() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = Pool::new(2, 16);
        for i in 0..20 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                if i % 4 == 0 {
                    panic!("job {i} exploded");
                }
                done.fetch_add(1, Relaxed);
            })
            .unwrap();
        }
        // Every panic is caught by its worker, which takes the next job;
        // the drain completes.
        let health = pool.health();
        pool.shutdown();
        assert_eq!(done.load(Relaxed), 15);
        assert_eq!(health.workers, 2);
    }

    #[test]
    fn a_panicking_job_keeps_its_worker() {
        let pool = Pool::new(1, 16);
        let (tx, rx) = mpsc::channel();
        for i in 0..3 {
            let tx = tx.clone();
            pool.submit(move || {
                if i == 1 {
                    panic!("job {i} exploded");
                }
                tx.send(std::thread::current().id()).unwrap();
            })
            .unwrap();
        }
        drop(tx);
        pool.shutdown();
        let ids: Vec<_> = rx.iter().collect();
        assert_eq!(ids.len(), 2, "the jobs around the panic both ran");
        assert_eq!(
            ids[0], ids[1],
            "the job after the panic ran on the same thread"
        );
    }
}
