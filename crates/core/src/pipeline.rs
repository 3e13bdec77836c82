//! Worker threads for the stages around the single-threaded ordering
//! core. [`WorkerPool`] is a fixed-size pool: the reactor in
//! `ringbft-net` runs frame MAC checks and decodes on it, and a
//! [`ThreadedPipeline`] runs execution jobs on it (`crate::exec`). Only
//! hosts create either; the replica spawns no threads. In *blocking*
//! mode (submit waits for the worker) a threaded stage keeps the
//! observable event order of in-place execution — the determinism twin
//! tests in `lib.rs` pin that contract.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A unit of work a pipeline stage can run off-thread: pure — it must
/// not touch shared state, only its own captured inputs.
pub trait PipelineJob: Send + 'static {
    /// The result handed back to the ordering core.
    type Output: Send + 'static;
    /// Runs the job to completion.
    fn run(self) -> Self::Output;
}

/// One worker's task queue.
struct WorkerQueue {
    tasks: Mutex<VecDeque<Box<dyn FnOnce() + Send>>>,
    cv: Condvar,
}

/// Cumulative busy/idle nanoseconds per worker (observability).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Tasks executed across all workers.
    pub tasks: u64,
    /// Nanoseconds workers spent running tasks.
    pub busy_ns: u64,
    /// Nanoseconds workers spent parked waiting for work.
    pub idle_ns: u64,
}

/// A fixed-size pool of worker threads executing boxed closures.
///
/// Each worker owns its own FIFO queue: [`WorkerPool::submit_to`]
/// pins a task to one worker (per-connection frame ordering in the
/// verify stage relies on this), [`WorkerPool::submit`] round-robins.
/// Dropping the pool stops and joins every worker.
pub struct WorkerPool {
    queues: Vec<Arc<WorkerQueue>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    next: AtomicU64,
    tasks: Arc<AtomicU64>,
    busy_ns: Arc<AtomicU64>,
    idle_ns: Arc<AtomicU64>,
}

impl WorkerPool {
    /// Spawns `workers` (≥ 1) threads named `<name>-w<i>`.
    pub fn new(name: &str, workers: usize) -> Self {
        let workers = workers.max(1);
        let stop = Arc::new(AtomicBool::new(false));
        let tasks = Arc::new(AtomicU64::new(0));
        let busy_ns = Arc::new(AtomicU64::new(0));
        let idle_ns = Arc::new(AtomicU64::new(0));
        let queues: Vec<Arc<WorkerQueue>> = (0..workers)
            .map(|_| {
                Arc::new(WorkerQueue {
                    tasks: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                })
            })
            .collect();
        let handles = queues
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let q = Arc::clone(q);
                let stop = Arc::clone(&stop);
                let tasks = Arc::clone(&tasks);
                let busy_ns = Arc::clone(&busy_ns);
                let idle_ns = Arc::clone(&idle_ns);
                std::thread::Builder::new()
                    .name(format!("{name}-w{i}"))
                    .spawn(move || loop {
                        let task = {
                            let mut guard = q.tasks.lock().unwrap();
                            loop {
                                if let Some(t) = guard.pop_front() {
                                    break t;
                                }
                                if stop.load(Ordering::Acquire) {
                                    return;
                                }
                                let t0 = std::time::Instant::now();
                                guard = q.cv.wait(guard).unwrap();
                                idle_ns
                                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            }
                        };
                        let t0 = std::time::Instant::now();
                        task();
                        busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        tasks.fetch_add(1, Ordering::Relaxed);
                    })
                    .expect("spawn pipeline worker")
            })
            .collect();
        WorkerPool {
            queues,
            handles,
            stop,
            next: AtomicU64::new(0),
            tasks,
            busy_ns,
            idle_ns,
        }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Queues `task` on worker `idx % workers` — tasks pinned to the
    /// same index run in FIFO order.
    pub fn submit_to(&self, idx: usize, task: Box<dyn FnOnce() + Send>) {
        let q = &self.queues[idx % self.queues.len()];
        q.tasks.lock().unwrap().push_back(task);
        q.cv.notify_one();
    }

    /// Queues `task` on the next worker round-robin.
    pub fn submit(&self, task: Box<dyn FnOnce() + Send>) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) as usize;
        self.submit_to(i, task);
    }

    /// Cumulative busy/idle accounting.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks: self.tasks.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            idle_ns: self.idle_ns.load(Ordering::Relaxed),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for q in &self.queues {
            drop(q.tasks.lock().unwrap());
            q.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Finished-job mailbox shared between workers and the core.
struct DoneBox<T> {
    done: Mutex<Vec<T>>,
    cv: Condvar,
}

/// A pipeline stage running jobs on a [`WorkerPool`]: jobs go in via
/// [`ThreadedPipeline::submit`], finished outputs come back via
/// [`ThreadedPipeline::drain`] in completion order.
///
/// * **blocking mode** (`blocking(true)`): `submit` waits until the
///   worker finished the job, so the observable event order matches
///   in-place execution exactly — the simulator installs this when
///   `pipeline_workers > 0` so threaded legs of the fault matrix stay
///   byte-identical to the in-place runs.
/// * **async mode** with a waker: the worker calls the waker after
///   depositing an output; the real runtime points it at the reactor's
///   eventfd so the core gets pumped without polling.
pub struct ThreadedPipeline<J: PipelineJob> {
    pool: Arc<WorkerPool>,
    done: Arc<DoneBox<J::Output>>,
    in_flight: u64,
    drained: u64,
    blocking: bool,
    waker: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl<J: PipelineJob> ThreadedPipeline<J> {
    /// New pipeline over its own pool of `workers` threads.
    pub fn new(name: &str, workers: usize) -> Self {
        Self::on_pool(Arc::new(WorkerPool::new(name, workers)))
    }

    /// New pipeline sharing an existing pool. Both stages of one node
    /// (verify and execute) run on one fixed-size pool, so the per-node
    /// thread budget stays `reactor_shards + pipeline_workers` no
    /// matter how many stages are installed.
    pub fn on_pool(pool: Arc<WorkerPool>) -> Self {
        ThreadedPipeline {
            pool,
            done: Arc::new(DoneBox {
                done: Mutex::new(Vec::new()),
                cv: Condvar::new(),
            }),
            in_flight: 0,
            drained: 0,
            blocking: false,
            waker: None,
        }
    }

    /// Sets blocking mode (deterministic event order).
    pub fn blocking(mut self, yes: bool) -> Self {
        self.blocking = yes;
        self
    }

    /// Installs a wake callback invoked after each finished job.
    pub fn with_waker(mut self, waker: Arc<dyn Fn() + Send + Sync>) -> Self {
        self.waker = Some(waker);
        self
    }

    /// Hands a job to a worker (in blocking mode, waits for it).
    pub fn submit(&mut self, job: J) {
        self.in_flight += 1;
        let done = Arc::clone(&self.done);
        let waker = self.waker.clone();
        self.pool.submit(Box::new(move || {
            let out = job.run();
            done.done.lock().unwrap().push(out);
            done.cv.notify_all();
            if let Some(w) = waker {
                w();
            }
        }));
        if self.blocking {
            let target = self.in_flight - self.drained;
            let mut guard = self.done.done.lock().unwrap();
            while (guard.len() as u64) < target {
                guard = self.done.cv.wait(guard).unwrap();
            }
        }
    }

    /// Takes every finished output accumulated so far.
    pub fn drain(&mut self) -> Vec<J::Output> {
        let out: Vec<J::Output> = std::mem::take(&mut *self.done.done.lock().unwrap());
        self.drained += out.len() as u64;
        out
    }

    /// Blocks until every submitted job has finished, then drains.
    pub fn flush(&mut self) -> Vec<J::Output> {
        let target = self.in_flight - self.drained;
        let mut guard = self.done.done.lock().unwrap();
        while (guard.len() as u64) < target {
            guard = self.done.cv.wait(guard).unwrap();
        }
        let out: Vec<J::Output> = std::mem::take(&mut *guard);
        drop(guard);
        self.drained += out.len() as u64;
        out
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Worker busy/idle accounting.
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }
}

/// Default worker count for a threaded stage: leave the reactor shards
/// and the ordering core their own cores, cap at 4 (the bench's
/// scaling target; past that the serial ordering core dominates).
pub fn default_workers(cores: usize, reactor_shards: usize) -> usize {
    cores.saturating_sub(reactor_shards + 1).clamp(1, 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Square(u64);
    impl PipelineJob for Square {
        type Output = u64;
        fn run(self) -> u64 {
            self.0 * self.0
        }
    }

    #[test]
    fn threaded_pipeline_flush_returns_all_outputs() {
        let mut p: ThreadedPipeline<Square> = ThreadedPipeline::new("test", 2);
        for i in 0..32 {
            p.submit(Square(i));
        }
        let mut out = p.flush();
        out.sort_unstable();
        let want: Vec<u64> = (0..32).map(|i| i * i).collect();
        assert_eq!(out, want);
        assert!(p.stats().tasks >= 32);
    }

    #[test]
    fn blocking_mode_preserves_submit_order() {
        let mut p: ThreadedPipeline<Square> = ThreadedPipeline::new("test", 1).blocking(true);
        let mut all = Vec::new();
        for i in 0..16 {
            p.submit(Square(i));
            all.extend(p.drain());
        }
        let want: Vec<u64> = (0..16).map(|i| i * i).collect();
        assert_eq!(all, want);
    }

    #[test]
    fn worker_pool_affinity_preserves_fifo_per_index() {
        let pool = WorkerPool::new("affinity", 3);
        let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..64u64 {
            let log = Arc::clone(&log);
            // All tasks pinned to index 1: strict FIFO on one worker.
            pool.submit_to(1, Box::new(move || log.lock().unwrap().push(i)));
        }
        // Drop joins the workers after their queues drain… but stop is
        // checked before parking, so wait for completion explicitly.
        while log.lock().unwrap().len() < 64 {
            std::thread::yield_now();
        }
        drop(pool);
        let got = log.lock().unwrap().clone();
        assert_eq!(got, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn default_workers_respects_reactor_budget() {
        assert_eq!(default_workers(1, 1), 1); // never zero
        assert_eq!(default_workers(4, 1), 2);
        assert_eq!(default_workers(8, 1), 4); // capped
        assert_eq!(default_workers(16, 4), 4);
    }
}
