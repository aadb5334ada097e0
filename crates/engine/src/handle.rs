//! Asynchronous job handles.
//!
//! [`Engine::submit`](crate::Engine::submit) returns immediately with a
//! [`JobHandle`] that owns everything a caller needs to follow one job:
//! a private [`ProgressFeed`] carrying only that job's events, a
//! [`CancelToken`] scoped to it, and a blocking [`JobHandle::wait`] that
//! yields the [`JobResult`]. The handle replaces the old pattern of
//! subscribing to the engine-wide feed and demultiplexing by
//! [`JobId`](crate::JobId).

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::error::BistError;
use crate::progress::{CancelToken, JobId, ProgressFeed};
use crate::result::JobResult;

/// One-shot result slot shared between a job's runner and its handle.
#[derive(Debug, Default)]
pub(crate) struct JobSlot {
    state: Mutex<SlotState>,
    done: Condvar,
}

#[derive(Debug, Default)]
struct SlotState {
    outcome: Option<(Result<JobResult, BistError>, bool)>,
    filled: bool,
}

impl JobSlot {
    /// Publishes the job's outcome and wakes every waiter. `cached` is
    /// true when the result was answered from the [`ResultCache`]
    /// (see [`crate::ResultCache`]) without re-simulation.
    pub(crate) fn fill(&self, result: Result<JobResult, BistError>, cached: bool) {
        let mut state = self.state.lock().expect("slot lock never poisoned");
        if !state.filled {
            state.outcome = Some((result, cached));
            state.filled = true;
        }
        drop(state);
        self.done.notify_all();
    }

    fn is_finished(&self) -> bool {
        self.state.lock().expect("slot lock never poisoned").filled
    }

    fn cached(&self) -> Option<bool> {
        self.state
            .lock()
            .expect("slot lock never poisoned")
            .outcome
            .as_ref()
            .map(|(_, cached)| *cached)
    }

    fn wait(&self) -> Result<JobResult, BistError> {
        let mut state = self.state.lock().expect("slot lock never poisoned");
        loop {
            if let Some((result, _)) = state.outcome.take() {
                return result;
            }
            if state.filled {
                // a second wait on an already-consumed slot: the runner
                // can never refill it, so report cancellation rather
                // than blocking forever
                return Err(BistError::Canceled);
            }
            state = self.done.wait(state).expect("slot lock never poisoned");
        }
    }
}

/// Guard that guarantees a [`JobSlot`] is eventually filled: if the
/// runner unwinds (a panic inside the pool) the guard's drop publishes
/// [`BistError::Canceled`] so a blocked [`JobHandle::wait`] never hangs.
#[derive(Debug)]
pub(crate) struct SlotGuard(pub(crate) Arc<JobSlot>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        // no-op when the runner already filled the slot
        self.0.fill(Err(BistError::Canceled), false);
    }
}

/// The thread running one submitted batch, shared by the batch's
/// handles.
///
/// Publishing a job's outcome wakes its waiter while the runner still
/// has its own tail to run (dropping the batch, thread exit). A caller
/// that submits its next job in that window would start it beside a
/// thread that is still exiting, so which allocator arena, and how much
/// resident memory, the next job gets would depend on a race. Once
/// every job of the batch has published, [`JobHandle::wait`] joins the
/// runner instead, so no engine thread outlives the results it
/// delivered.
#[derive(Debug)]
pub(crate) struct BatchRunner {
    slots: Vec<Arc<JobSlot>>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl BatchRunner {
    pub(crate) fn new(slots: Vec<Arc<JobSlot>>, thread: JoinHandle<()>) -> Self {
        BatchRunner {
            slots,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Joins the runner thread once every job of the batch has
    /// published its outcome; while one is still running the thread
    /// has work left and is left alone.
    fn reap(&self) {
        if !self.slots.iter().all(|slot| slot.is_finished()) {
            return;
        }
        let thread = self
            .thread
            .lock()
            .expect("runner lock never poisoned")
            .take();
        if let Some(thread) = thread {
            // a runner that panicked has already published
            // `Canceled` through its slot guards
            let _ = thread.join();
        }
    }
}

/// An asynchronously running (or completed) job, returned by
/// [`Engine::submit`](crate::Engine::submit).
///
/// The handle owns the job's private event feed and cancellation token;
/// dropping it without [`JobHandle::wait`]ing detaches the job, which
/// still runs to completion (and still populates the result cache).
///
/// # Example
///
/// ```
/// use bist_engine::{CircuitSource, Engine, JobSpec};
///
/// let engine = Engine::new();
/// let handle = engine.submit(JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8]));
/// assert_eq!(handle.label(), "sweep c17");
/// let result = handle.wait()?;
/// assert!(result.as_sweep().is_some());
/// # Ok::<(), bist_engine::BistError>(())
/// ```
#[derive(Debug)]
pub struct JobHandle {
    pub(crate) id: JobId,
    pub(crate) label: String,
    pub(crate) feed: ProgressFeed,
    pub(crate) cancel: CancelToken,
    pub(crate) slot: Arc<JobSlot>,
    pub(crate) runner: Arc<BatchRunner>,
}

impl JobHandle {
    /// The engine-assigned job id (also carried by every event on
    /// [`JobHandle::progress`]).
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Human-readable label (`"sweep c432"`, …).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The job's private progress feed: every event on it belongs to
    /// this job, so no demultiplexing is needed. Clone the feed to keep
    /// pulling events after [`JobHandle::wait`] consumes the handle.
    pub fn progress(&self) -> &ProgressFeed {
        &self.feed
    }

    /// The job's cancellation token (clone it to cancel from another
    /// thread).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Requests cooperative cancellation; the job observes it at its
    /// next checkpoint boundary and [`JobHandle::wait`] returns
    /// [`BistError::Canceled`].
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// True once the job has completed (successfully or not) and
    /// [`JobHandle::wait`] will return without blocking.
    pub fn is_finished(&self) -> bool {
        self.slot.is_finished()
    }

    /// Whether the finished job was answered from the result cache —
    /// `None` while the job is still running.
    pub fn cache_hit(&self) -> Option<bool> {
        self.slot.cached()
    }

    /// Blocks until the job completes and returns its result. When it
    /// is the last job of its batch to complete, the batch's runner
    /// thread has exited by the time this returns.
    ///
    /// # Errors
    ///
    /// Any [`BistError`] the job produced: spec validation, circuit
    /// realization, the flow itself, or [`BistError::Canceled`].
    pub fn wait(self) -> Result<JobResult, BistError> {
        let result = self.slot.wait();
        self.runner.reap();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_fill_then_wait_round_trips() {
        let slot = JobSlot::default();
        assert!(!slot.is_finished());
        assert_eq!(slot.cached(), None);
        slot.fill(Err(BistError::Canceled), true);
        assert!(slot.is_finished());
        assert_eq!(slot.cached(), Some(true));
        assert!(matches!(slot.wait(), Err(BistError::Canceled)));
    }

    #[test]
    fn slot_first_fill_wins() {
        let slot = JobSlot::default();
        slot.fill(Err(BistError::Canceled), false);
        slot.fill(
            Err(BistError::InvalidSpec {
                job: "sweep",
                message: "late".to_owned(),
            }),
            true,
        );
        assert_eq!(slot.cached(), Some(false));
        assert!(matches!(slot.wait(), Err(BistError::Canceled)));
    }

    #[test]
    fn slot_guard_fills_on_drop() {
        let slot = Arc::new(JobSlot::default());
        drop(SlotGuard(slot.clone()));
        assert!(slot.is_finished());
        assert!(matches!(slot.wait(), Err(BistError::Canceled)));
    }

    #[test]
    fn runner_is_joined_only_once_every_slot_is_filled() {
        let (first, second) = (Arc::new(JobSlot::default()), Arc::new(JobSlot::default()));
        let thread = std::thread::spawn(|| {});
        let runner = BatchRunner::new(vec![first.clone(), second.clone()], thread);
        first.fill(Err(BistError::Canceled), false);
        runner.reap();
        assert!(
            runner.thread.lock().unwrap().is_some(),
            "joined with a job left"
        );
        second.fill(Err(BistError::Canceled), false);
        runner.reap();
        assert!(
            runner.thread.lock().unwrap().is_none(),
            "not joined when done"
        );
    }

    #[test]
    fn wait_blocks_until_filled_from_another_thread() {
        let slot = Arc::new(JobSlot::default());
        let filler = slot.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            filler.fill(Err(BistError::Canceled), false);
        });
        assert!(matches!(slot.wait(), Err(BistError::Canceled)));
        t.join().expect("filler thread");
    }
}
