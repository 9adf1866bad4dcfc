//! A supervised, bounded worker pool on `std::thread` + `mpsc`.
//!
//! - **Backpressure**: the queue is a `sync_channel` with fixed
//!   capacity; [`Pool::try_submit`] fails fast when it is full (the
//!   service answers `overloaded`), while [`Pool::submit`] blocks (used
//!   by `secflow batch`, where the producer should simply wait).
//! - **Supervision**: a job panic kills its worker (after the panic is
//!   counted and absorbed by `catch_unwind`); the supervisor thread
//!   respawns the slot, with a small backoff that grows with the slot's
//!   consecutive failures. Restarts and recycles are visible in
//!   [`PoolHealth`] and the `stats` op.
//! - **Watchdog**: jobs submitted with a deadline
//!   ([`Pool::try_submit_with`]) are tracked per slot; a worker still
//!   busy past its job's deadline (plus a grace period) is marked for
//!   recycling — it exits after the job's cooperative cancellation
//!   finally returns, and the supervisor replaces it.
//! - **Graceful drain**: [`Pool::shutdown`] closes the queue; workers
//!   exit *clean* only once it is drained, and the supervisor keeps
//!   respawning non-clean exits until every slot drained — queued jobs
//!   are never lost to a panic storm.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// How often the supervisor scans for dead workers and deadline
/// overruns.
const SUPERVISE_TICK: Duration = Duration::from_millis(2);
/// Extra headroom past a job's deadline before its worker is marked for
/// recycling (cooperative cancellation should win this race).
const WATCHDOG_GRACE_MS: u64 = 50;
/// Respawn backoff ceiling for a repeatedly-failing slot.
const MAX_RESPAWN_BACKOFF: Duration = Duration::from_millis(100);

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
    /// Configured worker slots.
    pub workers: usize,
    /// Slots currently running a job.
    pub busy: usize,
    /// Workers respawned by the supervisor (after panics or recycles).
    pub restarts: u64,
    /// Jobs that panicked (each also killed its worker).
    pub panics: u64,
    /// Workers marked for recycling by the deadline watchdog.
    pub recycles: u64,
    /// Highest current consecutive-failure count across slots (a slot
    /// resets its count when it completes a job).
    pub max_consecutive_failures: u64,
}

/// One worker slot's shared state.
#[derive(Default)]
struct Slot {
    /// Running a job right now.
    busy: AtomicBool,
    /// Deadline of the running job, in ms since pool start (0 = none).
    deadline_ms: AtomicU64,
    /// Watchdog verdict: exit after the current job returns.
    recycle: AtomicBool,
    /// Unclean exits since this slot last completed a job.
    consecutive_failures: AtomicU64,
    /// Queue drained; do not respawn.
    clean_exit: AtomicBool,
}

struct Shared {
    rx: Mutex<Receiver<Work>>,
    slots: Vec<Slot>,
    panics: AtomicU64,
    restarts: AtomicU64,
    recycles: AtomicU64,
    start: Instant,
}

struct Work {
    job: Job,
    /// Deadline in ms since pool start; 0 = none.
    deadline_ms: u64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Relaxed);
}

/// Fixed-size supervised worker pool with a bounded job queue.
pub struct Pool {
    tx: Option<SyncSender<Work>>,
    supervisor: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl Pool {
    /// Spawns `workers` threads behind a queue of `queue_capacity`
    /// pending jobs, plus one supervisor thread. Both counts are
    /// clamped to at least 1.
    pub fn new(workers: usize, queue_capacity: usize) -> Pool {
        let workers = workers.max(1);
        let (tx, rx) = sync_channel::<Work>(queue_capacity.max(1));
        let shared = Arc::new(Shared {
            rx: Mutex::new(rx),
            slots: (0..workers).map(|_| Slot::default()).collect(),
            panics: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            recycles: AtomicU64::new(0),
            start: Instant::now(),
        });
        let mut handles: Vec<JoinHandle<()>> =
            (0..workers).map(|i| spawn_worker(&shared, i)).collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("secflow-supervisor".to_string())
                .spawn(move || supervise(&shared, &mut handles))
                .expect("spawn supervisor thread")
        };
        Pool {
            tx: Some(tx),
            supervisor: Some(supervisor),
            shared,
        }
    }

    /// Non-blocking submission; fails with [`SubmitError::Full`] under
    /// load so the caller can shed it.
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        self.try_submit_with(job, None)
    }

    /// Non-blocking submission of a job with a deadline; the watchdog
    /// recycles the worker if the job overruns it.
    pub fn try_submit_with(
        &self,
        job: impl FnOnce() + Send + 'static,
        deadline: Option<Instant>,
    ) -> Result<(), SubmitError> {
        let tx = self.tx.as_ref().ok_or(SubmitError::Closed)?;
        let work = Work {
            job: Box::new(job),
            deadline_ms: self.deadline_ms(deadline),
        };
        tx.try_send(work).map_err(|e| match e {
            TrySendError::Full(_) => SubmitError::Full,
            TrySendError::Disconnected(_) => SubmitError::Closed,
        })
    }

    /// Blocking submission: waits for queue space (producer-side
    /// backpressure for bulk work).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let tx = self.tx.as_ref().ok_or(SubmitError::Closed)?;
        let work = Work {
            job: Box::new(job),
            deadline_ms: 0,
        };
        tx.send(work).map_err(|_| SubmitError::Closed)
    }

    fn deadline_ms(&self, deadline: Option<Instant>) -> u64 {
        match deadline {
            // `max(1)`: 0 is the "no deadline" sentinel, so a deadline
            // landing exactly on pool start still registers.
            Some(d) => (d.saturating_duration_since(self.shared.start).as_millis() as u64).max(1),
            None => 0,
        }
    }

    /// Current pool health.
    pub fn health(&self) -> PoolHealth {
        let slots = &self.shared.slots;
        PoolHealth {
            workers: slots.len(),
            busy: slots.iter().filter(|s| s.busy.load(Relaxed)).count(),
            restarts: self.shared.restarts.load(Relaxed),
            panics: self.shared.panics.load(Relaxed),
            recycles: self.shared.recycles.load(Relaxed),
            max_consecutive_failures: slots
                .iter()
                .map(|s| s.consecutive_failures.load(Relaxed))
                .max()
                .unwrap_or(0),
        }
    }

    /// Stops accepting work, drains every queued job, and joins the
    /// workers (the supervisor respawns any that die mid-drain).
    /// Returns the final panic count.
    pub fn shutdown(mut self) -> u64 {
        self.shutdown_inner();
        self.shared.panics.load(Relaxed)
    }

    fn shutdown_inner(&mut self) {
        self.tx.take(); // close the queue: workers exit after draining
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn spawn_worker(shared: &Arc<Shared>, slot: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("secflow-worker-{slot}"))
        .spawn(move || worker_loop(&shared, slot))
        .expect("spawn worker thread")
}

/// Restarts dead workers (with per-slot failure backoff), watches busy
/// slots for deadline overruns, and returns once every slot has exited
/// clean (queue closed and drained).
fn supervise(shared: &Arc<Shared>, handles: &mut [JoinHandle<()>]) {
    loop {
        std::thread::sleep(SUPERVISE_TICK);
        let now_ms = shared.start.elapsed().as_millis() as u64;
        let mut all_clean = true;
        for (i, slot) in shared.slots.iter().enumerate() {
            // Watchdog: busy past the job's deadline + grace → recycle.
            if slot.busy.load(Relaxed) {
                let deadline = slot.deadline_ms.load(Relaxed);
                if deadline != 0
                    && now_ms > deadline + WATCHDOG_GRACE_MS
                    && !slot.recycle.swap(true, Relaxed)
                {
                    bump(&shared.recycles);
                }
            }
            if slot.clean_exit.load(Relaxed) {
                continue;
            }
            all_clean = false;
            if handles[i].is_finished() {
                // Unclean death (panic or recycle): respawn, backing
                // off while the slot keeps failing.
                let failures = slot.consecutive_failures.load(Relaxed);
                if failures > 1 {
                    let backoff = Duration::from_millis(1 << failures.min(7));
                    std::thread::sleep(backoff.min(MAX_RESPAWN_BACKOFF));
                }
                let fresh = spawn_worker(shared, i);
                let dead = std::mem::replace(&mut handles[i], fresh);
                let _ = dead.join();
                bump(&shared.restarts);
            }
        }
        if all_clean {
            // Every slot drained the queue and exited (or is exiting)
            // clean; joining cannot block.
            for handle in handles.iter_mut() {
                let placeholder = std::thread::spawn(|| {});
                let _ = std::mem::replace(handle, placeholder).join();
            }
            return;
        }
    }
}

fn worker_loop(shared: &Shared, slot_idx: usize) {
    let slot = &shared.slots[slot_idx];
    loop {
        // Hold the lock only while dequeueing, never while running.
        let work = match shared.rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return, // poisoned: a sibling died *while dequeueing*
        };
        match work {
            Ok(work) => {
                slot.deadline_ms.store(work.deadline_ms, Relaxed);
                slot.busy.store(true, Relaxed);
                let outcome = catch_unwind(AssertUnwindSafe(work.job));
                slot.busy.store(false, Relaxed);
                slot.deadline_ms.store(0, Relaxed);
                match outcome {
                    Ok(()) => {
                        slot.consecutive_failures.store(0, Relaxed);
                        if slot.recycle.swap(false, Relaxed) {
                            // The watchdog asked for a fresh thread; die
                            // and let the supervisor respawn this slot.
                            return;
                        }
                    }
                    Err(_) => {
                        bump(&shared.panics);
                        slot.consecutive_failures.fetch_add(1, Relaxed);
                        slot.recycle.store(false, Relaxed);
                        return; // the supervisor respawns this slot
                    }
                }
            }
            Err(_) => {
                slot.clean_exit.store(true, Relaxed);
                return; // queue closed and drained
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
        for _ in 0..3 {
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
    fn survives_panicking_jobs_by_respawning_workers() {
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
        // Every panic kills a worker; the drain still completes because
        // the supervisor respawns them.
        let health = pool.health();
        let panics = pool.shutdown();
        assert_eq!(done.load(Relaxed), 15);
        assert_eq!(panics, 5);
        assert_eq!(health.workers, 2);
    }

    #[test]
    fn health_reports_restarts_after_panics() {
        let pool = Pool::new(1, 16);
        pool.submit(|| panic!("boom")).unwrap();
        // Wait for the supervisor to notice and respawn.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.health().restarts == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let health = pool.health();
        assert_eq!(health.panics, 1);
        assert!(health.restarts >= 1, "{health:?}");
        // The respawned worker still serves jobs.
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.submit(move || {
            d.fetch_add(1, Relaxed);
        })
        .unwrap();
        pool.shutdown();
        assert_eq!(done.load(Relaxed), 1);
    }

    #[test]
    fn watchdog_recycles_deadline_overruns() {
        let pool = Pool::new(1, 4);
        let release = Arc::new(AtomicBool::new(false));
        let r = Arc::clone(&release);
        // A job that overruns its 1ms deadline until released.
        pool.try_submit_with(
            move || {
                while !r.load(Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            },
            Some(Instant::now() + Duration::from_millis(1)),
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.health().recycles == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(pool.health().recycles >= 1, "{:?}", pool.health());
        release.store(true, Relaxed);
        // Once the job returns, the worker is replaced and keeps serving.
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.submit(move || {
            d.fetch_add(1, Relaxed);
        })
        .unwrap();
        pool.shutdown();
        assert_eq!(done.load(Relaxed), 1);
    }
}
