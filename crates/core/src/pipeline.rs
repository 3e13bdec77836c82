//! The execution pipeline: stateless worker stages around the
//! single-threaded ordering core.
//!
//! The replica's consensus path (PBFT ordering, lock admission, ring
//! rotation) is inherently serial, but two stages on either side of it
//! are not:
//!
//! * **verify/hash** — inbound frame MAC checks and batch digests are
//!   pure functions of the bytes (the reactor in `ringbft-net` feeds
//!   them to a [`WorkerPool`] and gets woken through its own eventfd);
//! * **execute** — committed sequences whose write sets are
//!   lock-disjoint (guaranteed by the sequence-ordered `LockManager`:
//!   two concurrently admitted sequences can never hold conflicting
//!   locks) execute against stable snapshots of their touched records,
//!   with reply construction off-thread.
//!
//! Both stages sit behind the [`Pipeline`] trait so the determinism
//! story stays intact: [`InlinePipeline`] computes every job at submit
//! time on the caller's thread (byte-identical to the pre-pipeline
//! replica — the simulator and the fault-scenario matrix use it), while
//! [`ThreadedPipeline`] runs jobs on a fixed-size [`WorkerPool`].
//! A `ThreadedPipeline` in *blocking* mode (submit waits for the
//! worker) produces the same observable event order as the inline
//! impl — the determinism twin test in `lib.rs` pins that contract.
//!
//! The ordering core never consumes results out of submission order:
//! the replica holds a queue of submitted sequence numbers and applies
//! outcomes strictly in that order, so conflicting sequences (which the
//! lock manager admits only after their predecessors release) retain
//! strict order while disjoint ones overlap.

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

/// A pipeline stage: jobs go in via [`Pipeline::submit`], finished
/// outputs come back via [`Pipeline::drain`] in completion order.
pub trait Pipeline<J: PipelineJob> {
    /// Hands a job to the stage. An inline pipeline computes it here;
    /// a threaded one enqueues it (and, in blocking mode, waits).
    fn submit(&mut self, job: J);
    /// Takes every finished output accumulated so far.
    fn drain(&mut self) -> Vec<J::Output>;
    /// Blocks until every submitted job has finished, then drains.
    fn flush(&mut self) -> Vec<J::Output>;
    /// Jobs submitted but not yet drained.
    fn pending(&self) -> usize;
    /// Worker count (0 = inline).
    fn workers(&self) -> usize;
    /// Worker busy/idle accounting (zeros for inline stages).
    fn stats(&self) -> PoolStats {
        PoolStats::default()
    }
}

/// Deterministic pipeline: every job runs at submit time on the
/// caller's thread. Used by the simulator so fault-scenario seeds stay
/// byte-identical, and as the default until a driver installs a
/// threaded stage.
pub struct InlinePipeline<J: PipelineJob> {
    done: VecDeque<J::Output>,
}

impl<J: PipelineJob> Default for InlinePipeline<J> {
    fn default() -> Self {
        InlinePipeline {
            done: VecDeque::new(),
        }
    }
}

impl<J: PipelineJob> InlinePipeline<J> {
    /// New empty inline pipeline.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<J: PipelineJob> Pipeline<J> for InlinePipeline<J> {
    fn submit(&mut self, job: J) {
        self.done.push_back(job.run());
    }
    fn drain(&mut self) -> Vec<J::Output> {
        self.done.drain(..).collect()
    }
    fn flush(&mut self) -> Vec<J::Output> {
        self.drain()
    }
    fn pending(&self) -> usize {
        self.done.len()
    }
    fn workers(&self) -> usize {
        0
    }
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

/// A [`Pipeline`] running jobs on a [`WorkerPool`].
///
/// * **blocking mode** (`blocking(true)`): `submit` waits until the
///   worker finished the job, so the observable event order matches
///   [`InlinePipeline`] exactly — the simulator installs this when
///   `pipeline_workers > 0` so threaded legs of the fault matrix stay
///   byte-identical to the inline runs.
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
}

impl<J: PipelineJob> Pipeline<J> for ThreadedPipeline<J> {
    fn submit(&mut self, job: J) {
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

    fn drain(&mut self) -> Vec<J::Output> {
        let out: Vec<J::Output> = std::mem::take(&mut *self.done.done.lock().unwrap());
        self.drained += out.len() as u64;
        out
    }

    fn flush(&mut self) -> Vec<J::Output> {
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

    fn pending(&self) -> usize {
        (self.in_flight - self.drained) as usize
    }

    fn workers(&self) -> usize {
        self.pool.workers()
    }

    fn stats(&self) -> PoolStats {
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
    fn inline_pipeline_computes_at_submit() {
        let mut p: InlinePipeline<Square> = InlinePipeline::new();
        p.submit(Square(3));
        p.submit(Square(4));
        assert_eq!(p.pending(), 2);
        assert_eq!(p.drain(), vec![9, 16]);
        assert_eq!(p.pending(), 0);
        assert_eq!(p.workers(), 0);
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
        assert_eq!(p.pending(), 0);
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
