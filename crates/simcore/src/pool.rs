//! The process-wide pool of worker threads that run thread-backed
//! simulation processes.
//!
//! A process whose body blocks (`Ctx::advance`, `Ctx::wait`, ...) needs a
//! stack of its own, so it runs on an OS thread. Rather than starting a
//! thread per process and joining it at the end of the run, the scheduler
//! takes an idle worker from this pool, or starts one if none is idle, when
//! the process starts (its first resume, or the one where its init future
//! completes), and hands it the process's body as its [`Job`]. The worker
//! runs the job at once: it already holds the baton.
//! Once the process has finished, its worker parks back in the idle list,
//! ready for the next process of this or any later simulation.
//!
//! One pool serves every simulation of the OS process, including
//! simulations run concurrently from several threads. Workers are never
//! stopped, and a worker is started only when the idle list is empty, so
//! the pool never holds more workers than the peak number of thread-backed
//! processes started and not yet finished at once (summed over the
//! simulations running at that moment). A process that never starts holds
//! no worker. A process left parked when its run fails (deadlock, panic)
//! keeps its worker forever: no thread passes it the baton again, so that
//! worker never returns to the pool.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, Thread};

use crate::lock::Mutex;
use crate::sched::Job;

/// An idle (or just taken) worker thread.
#[derive(Clone)]
pub(crate) struct Worker {
    thread: Thread,
    next: Arc<NextJob>,
}

/// Where a worker's next job waits for it. A parked worker allocates
/// nothing and takes no lock until `ready` is set, so what an idle worker
/// costs does not depend on when its thread gets to wait.
#[derive(Default)]
struct NextJob {
    ready: AtomicBool,
    job: Mutex<Option<Job>>,
}

/// Workers waiting for a job, most recently idle last.
static IDLE: Mutex<Vec<Worker>> = Mutex::new(Vec::new());

impl Worker {
    /// An idle worker, or a newly started one if none is idle.
    pub(crate) fn take() -> Worker {
        if let Some(worker) = IDLE.lock().pop() {
            return worker;
        }
        let next = Arc::new(NextJob::default());
        let own = next.clone();
        let handle = thread::Builder::new()
            .name("sim-worker".to_string())
            .spawn(move || {
                let me = Worker { thread: thread::current(), next: own };
                loop {
                    while !me.next.ready.swap(false, Ordering::Acquire) {
                        thread::park();
                    }
                    let job = me.next.job.lock().take().expect("a ready worker has a job");
                    let released = job.run();
                    IDLE.lock().push(me.clone());
                    drop(released);
                }
            })
            .expect("failed to spawn simulation worker thread");
        Worker { thread: handle.thread().clone(), next }
    }

    /// The worker's OS thread, which its process's later resumes unpark.
    pub(crate) fn thread(&self) -> &Thread {
        &self.thread
    }

    /// Hand the worker its job and wake it.
    pub(crate) fn run(self, job: Job) {
        *self.next.job.lock() = Some(job);
        self.next.ready.store(true, Ordering::Release);
        self.thread.unpark();
    }
}
