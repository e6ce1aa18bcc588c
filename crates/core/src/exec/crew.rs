//! The engine's long-lived execution crew: persistent trigger workers,
//! plus optional per-shard I/O workers behind bounded channels.
//!
//! Every round runs on the crew, whatever its width.  The topology lives
//! as long as the engine: threads spawn on the first round and join when
//! the engine drops.
//!
//! ```text
//!             fetch queues (bounded sync_channel, capacity = window)
//!   main ──┬──────────────▶ I/O worker 0  (owns lanes 0, n, 2n, …)
//!          ├──────────────▶ I/O worker 1  (owns lanes 1, n+1, …)
//!          └──────────────▶ …
//!                               │ completed loads (bounded sync_channel)
//!                               ▼
//!   main: install stage ── ordered reorder buffer, ledger charging
//!          │ chunk tasks (shared queue, capacity reused across rounds)
//!          ▼
//!   trigger workers 0..w ── process_chunk, commutative stat merge
//! ```
//!
//! With `io_workers = 0` (the default) the crew has no I/O workers and
//! no channels: the main thread runs each slot's fetch stage inline, in
//! plan order, right before installing it.  Trigger workers are always
//! present.
//!
//! Ordering guarantees (why determinism survives the concurrency):
//!
//! * **Fetch stage** — a fetch only *reads* (probe scans of the slot's
//!   per-job unprocessed counts).  Those counts live in each job's
//!   pending set, which the round mutates exclusively at its tail
//!   (`mark_processed` / `push_and_advance`, both on the main thread
//!   after every in-flight fetch and chunk has drained), so a probe
//!   observes the same value no matter when or where it runs.
//! * **Install stage** — completions arrive in any order but pass
//!   through a reorder buffer and install strictly in plan order on the
//!   main thread, so the `ChargeLedger` sees one fixed charge sequence:
//!   identical counters, identical modeled stage times.
//! * **Trigger stage** — chunk results fold into per-entry `u64`
//!   counters under one mutex; integer addition is commutative, so the
//!   totals are independent of completion order.  The conversion to
//!   `f64` stage seconds happens afterwards on the main thread in entry
//!   order.
//!
//! Deadlock freedom: the main thread dispatches at most `window`
//! fetches beyond the installing slot, and both channels are bounded at
//! `window`, so a dispatch never finds its queue full and an I/O worker
//! never blocks on a full completion channel.  Main blocks only on the
//! completion channel, whose producers never wait on anything main
//! holds; the chunk queue is unbounded-but-recycled, so trigger workers
//! always make progress and signal completion through a condvar main
//! waits on last.
//!
//! # Worker failure
//!
//! A worker panic (user code inside `process_chunk` or a probe scan)
//! must not hang or abort the engine, so every blocking edge is
//! failure-aware:
//!
//! * Trigger workers run each chunk under an unwind guard: if
//!   `process_chunk` panics, the guard settles the chunk's outstanding
//!   count, records the failure label, and wakes the round condvar, so
//!   [`ExecCrew::finish_round`] returns [`ExecError::WorkerPanic`]
//!   instead of waiting forever on a completion that will never come.
//! * The main thread never waits on the completion channel blindly:
//!   [`ExecCrew::recv_done`] polls I/O worker liveness, so a dead
//!   worker (its queued fetches lost with it) surfaces as a typed
//!   error instead of a hang, and a disconnected channel does the same
//!   in [`ExecCrew::dispatch`].
//! * Every mutex acquisition recovers from poisoning
//!   (`PoisonError::into_inner`): the guarded state — `u64` counters, a
//!   task deque, flags — is valid at every intermediate step, so a
//!   panicking peer cannot cascade panics into other workers or the
//!   main thread.

use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cgraph_graph::PartitionId;

use crate::fault::FaultPlane;
use crate::job::{JobRuntime, ProcessStats};
use crate::obs::{EventKind, Histogram, Observer, Recorder, NONE};

/// An executor failure: a worker thread died (panicked user code) or a
/// channel it served disconnected.  Surfaced by
/// [`crate::Engine::exec_error`] after the engine shuts the crew down
/// gracefully; never a panic or a hang on the main thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A worker thread panicked; the label says which stage.
    WorkerPanic(&'static str),
    /// A channel disconnected outside shutdown; the label says which.
    Disconnected(&'static str),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::WorkerPanic(what) => write!(f, "executor worker panicked: {what}"),
            ExecError::Disconnected(what) => write!(f, "executor channel disconnected: {what}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Locks a mutex, recovering the guard from a poisoned peer: all crew
/// state behind mutexes is valid at every intermediate step, so a
/// panicking worker must not cascade its panic into healthy threads.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One slot's fetch order: the I/O worker runs the slot's stage-one
/// probe scans and sends the message back on the completion channel
/// with `counts` filled.  Buffers travel with the message and are
/// recycled through [`RoundBuffers`](super::wavefront::RoundBuffers)'
/// fetch pool, so a steady-state round allocates no channel payloads.
#[derive(Default)]
pub(crate) struct FetchMsg {
    /// Plan-order slot index within the round (reorder-buffer key).
    pub seq: usize,
    /// The slot's structure partition.
    pub pid: PartitionId,
    /// The slot's interested jobs: engine index + runtime handle.
    pub jobs: Vec<(usize, Arc<dyn JobRuntime>)>,
    /// Probe results, aligned with `jobs` (filled by the I/O worker).
    pub counts: Vec<u64>,
}

/// One trigger-stage work unit routed to the compute workers.
struct ChunkMsg {
    /// Pooled entry index (round-local `(slot, job)` pair).
    entry: usize,
    pid: PartitionId,
    chunk: usize,
    nchunks: usize,
    runtime: Arc<dyn JobRuntime>,
}

/// The shared chunk-task queue: a mutex-guarded deque (capacity kept
/// across rounds) plus a close flag for shutdown.
struct ChunkQueue {
    state: Mutex<ChunkQueueState>,
    ready: Condvar,
}

struct ChunkQueueState {
    tasks: VecDeque<ChunkMsg>,
    closed: bool,
}

impl ChunkQueue {
    fn new() -> Self {
        ChunkQueue {
            state: Mutex::new(ChunkQueueState { tasks: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
        }
    }

    fn pop(&self) -> Option<ChunkMsg> {
        let mut st = lock_recover(&self.state);
        loop {
            if let Some(msg) = st.tasks.pop_front() {
                return Some(msg);
            }
            if st.closed {
                return None;
            }
            st = self
                .ready
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    fn close(&self) {
        lock_recover(&self.state).closed = true;
        self.ready.notify_all();
    }
}

/// Per-round accumulation state shared with the compute workers: one
/// `ProcessStats` cell per pooled entry plus the outstanding-task count
/// the main thread waits on.  Folding is `u64` addition under a mutex —
/// commutative, so totals are independent of completion order.
struct RoundState {
    inner: Mutex<RoundInner>,
    done: Condvar,
}

struct RoundInner {
    totals: Vec<ProcessStats>,
    remaining: usize,
    /// Set by a compute worker's unwind guard when `process_chunk`
    /// panicked; the round then fails typed instead of hanging.
    failed: Option<&'static str>,
}

impl RoundState {
    fn record(&self, entry: usize, stats: ProcessStats) {
        let mut inner = lock_recover(&self.inner);
        inner.totals[entry].vertex_ops += stats.vertex_ops;
        inner.totals[entry].edge_ops += stats.edge_ops;
        inner.remaining -= 1;
        if inner.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Settles a chunk whose worker panicked: the outstanding count
    /// still goes down (so the waiter's arithmetic stays coherent) and
    /// the failure label wakes [`ExecCrew::finish_round`] immediately —
    /// other chunks may still be queued behind a dead worker pool, so
    /// waiting for `remaining == 0` could block forever.
    fn fail(&self, what: &'static str) {
        let mut inner = lock_recover(&self.inner);
        inner.remaining = inner.remaining.saturating_sub(1);
        inner.failed.get_or_insert(what);
        self.done.notify_all();
    }
}

/// Unwind guard armed around `process_chunk`: disarmed (forgotten) on
/// normal return, it marks the round failed if the chunk panics.
struct ChunkPanicGuard<'a> {
    round: &'a RoundState,
}

impl Drop for ChunkPanicGuard<'_> {
    fn drop(&mut self) {
        self.round
            .fail("process_chunk panicked in a trigger worker");
    }
}

/// The engine's long-lived execution crew.  Spawned lazily on the first
/// round; dropped (channels closed, threads joined) with the engine.
pub(crate) struct ExecCrew {
    /// One bounded fetch queue per I/O worker; lane `l` is owned by
    /// worker `l % nio`.  Empty when fetches run inline.
    fetch_txs: Vec<SyncSender<FetchMsg>>,
    /// Completed loads, any order; `None` without I/O workers and
    /// mid-shutdown.
    done_rx: Option<Receiver<FetchMsg>>,
    chunks: Arc<ChunkQueue>,
    round: Arc<RoundState>,
    /// I/O worker handles first (`..nio`), then the trigger workers.
    handles: Vec<JoinHandle<()>>,
    nio: usize,
    /// Dispatch window in slots (`prefetch depth + 1`): how many fetches
    /// may be in flight beyond the slot currently installing — the
    /// modeled prefetch release constraint, enforced for real.
    window: usize,
    /// Chunk tasks enqueued but not yet drained this round.
    outstanding: usize,
}

impl ExecCrew {
    /// Spawns `nio` I/O workers (0 runs fetches inline on the caller)
    /// and `compute` trigger workers, with a `window`-slot fetch
    /// dispatch window that also bounds both channels.  Each I/O worker
    /// receives its own [`Recorder`] from `obs` (permanently off on a
    /// disabled observer), created here on the spawning thread and
    /// moved into the worker — recorders are single-writer by
    /// construction.  Trigger workers write only the lossless
    /// `trigger_us` registry histogram, never a ring.  `faults` (the
    /// engine's fault plane, if any) arms the injected worker-death
    /// drill: a trigger worker panics on the plane's configured
    /// `(partition, chunk)` exactly as crashing user code would,
    /// exercising the typed-failure path end to end.
    pub(crate) fn spawn(
        nio: usize,
        compute: usize,
        window: usize,
        obs: &Observer,
        faults: Option<Arc<FaultPlane>>,
    ) -> Self {
        let compute = compute.max(1);
        let window = window.max(1);
        let mut fetch_txs = Vec::with_capacity(nio);
        let mut handles = Vec::with_capacity(nio + compute);
        let mut done_rx = None;
        if nio > 0 {
            let (done_tx, rx) = std::sync::mpsc::sync_channel::<FetchMsg>(window);
            done_rx = Some(rx);
            for w in 0..nio {
                let (tx, rx) = std::sync::mpsc::sync_channel::<FetchMsg>(window);
                fetch_txs.push(tx);
                let done_tx = done_tx.clone();
                let rec = obs.recorder(&format!("cgraph-io-{w}"));
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("cgraph-io-{w}"))
                        .spawn(move || io_loop(rx, done_tx, rec))
                        .expect("spawn I/O worker"),
                );
            }
        }
        let chunks = Arc::new(ChunkQueue::new());
        let round = Arc::new(RoundState {
            inner: Mutex::new(RoundInner { totals: Vec::new(), remaining: 0, failed: None }),
            done: Condvar::new(),
        });
        let trigger_us = obs
            .is_enabled()
            .then(|| obs.registry().histogram("trigger_us"));
        for w in 0..compute {
            let queue = Arc::clone(&chunks);
            let state = Arc::clone(&round);
            let hist = trigger_us.clone();
            let plane = faults.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("cgraph-trigger-{w}"))
                    .spawn(move || compute_loop(queue, state, hist, plane))
                    .expect("spawn trigger worker"),
            );
        }
        ExecCrew { fetch_txs, done_rx, chunks, round, handles, nio, window, outstanding: 0 }
    }

    /// Whether fetches run on I/O workers (`false`: inline on main).
    pub(crate) fn has_io(&self) -> bool {
        self.nio > 0
    }

    /// Fetch dispatch window in slots.
    pub(crate) fn window(&self) -> usize {
        self.window
    }

    /// Chunk tasks enqueued and not yet drained this round (observability
    /// only — the round's trigger-queue depth at its high-water mark
    /// when read just before [`Self::finish_round`]).
    pub(crate) fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Resets the per-round accumulation state for `entries` pooled
    /// `(slot, job)` pairs.  Must only be called between rounds (no
    /// chunk in flight).
    pub(crate) fn begin_round(&mut self, entries: usize) {
        debug_assert_eq!(self.outstanding, 0, "round started with chunks in flight");
        let mut inner = lock_recover(&self.round.inner);
        debug_assert_eq!(inner.remaining, 0);
        inner.totals.clear();
        inner.totals.resize(entries, ProcessStats::default());
        inner.failed = None;
    }

    /// Hands a fetch to the lane's owning I/O worker.  Never blocks: the
    /// caller keeps at most `window` fetches in flight and the queue
    /// holds `window`.  A disconnected queue — the worker panicked
    /// mid-round — reports a typed error instead of panicking the main
    /// thread.
    pub(crate) fn dispatch(&self, lane: usize, msg: FetchMsg) -> Result<(), ExecError> {
        self.fetch_txs[lane % self.nio]
            .send(msg)
            .map_err(|_| ExecError::WorkerPanic("an I/O worker's fetch queue is gone"))
    }

    /// Blocks for the next completed load (any plan order).  Safe to
    /// block on: completion producers never wait on the main thread.
    /// The wait polls I/O-worker liveness — a worker that panicked takes
    /// its queued fetches with it, so the completion this call waits for
    /// may never arrive; liveness polling turns that hang into a typed
    /// error.  Workers only exit outside [`Drop`] by panicking, so a
    /// finished handle mid-round is unambiguous.
    pub(crate) fn recv_done(&self) -> Result<FetchMsg, ExecError> {
        let rx = self
            .done_rx
            .as_ref()
            .ok_or(ExecError::Disconnected("completion channel closed"))?;
        loop {
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(msg) => return Ok(msg),
                Err(RecvTimeoutError::Timeout) => {
                    if self.handles[..self.nio].iter().any(|h| h.is_finished()) {
                        return Err(ExecError::WorkerPanic("an I/O worker died mid-round"));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ExecError::Disconnected("every I/O worker is gone"));
                }
            }
        }
    }

    /// Queues one chunk task for the trigger workers.
    pub(crate) fn push_chunk(
        &mut self,
        entry: usize,
        pid: PartitionId,
        chunk: usize,
        nchunks: usize,
        runtime: Arc<dyn JobRuntime>,
    ) {
        {
            let mut inner = lock_recover(&self.round.inner);
            inner.remaining += 1;
        }
        let mut st = lock_recover(&self.chunks.state);
        st.tasks
            .push_back(ChunkMsg { entry, pid, chunk, nchunks, runtime });
        drop(st);
        self.chunks.ready.notify_one();
        self.outstanding += 1;
    }

    /// Blocks until every queued chunk has been processed, then copies
    /// the per-entry totals into `out` (cleared first) in entry order.
    /// A chunk whose worker panicked fails the round with
    /// [`ExecError::WorkerPanic`] as soon as the unwind guard reports it
    /// — the remaining queue may sit behind a dead worker pool, so
    /// waiting it out could hang forever.  After an error the crew must
    /// be dropped (its bookkeeping no longer matches the queue).
    pub(crate) fn finish_round(&mut self, out: &mut Vec<ProcessStats>) -> Result<(), ExecError> {
        let mut inner = lock_recover(&self.round.inner);
        while inner.remaining > 0 && inner.failed.is_none() {
            inner = self
                .round
                .done
                .wait(inner)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        if let Some(what) = inner.failed {
            return Err(ExecError::WorkerPanic(what));
        }
        out.clear();
        out.extend_from_slice(&inner.totals);
        self.outstanding = 0;
        Ok(())
    }
}

impl Drop for ExecCrew {
    fn drop(&mut self) {
        // Close every intake: fetch queues (wakes I/O workers), the
        // completion channel (unblocks any worker mid-send after a
        // panic), and the chunk queue.
        self.fetch_txs.clear();
        self.done_rx = None;
        self.chunks.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn io_loop(rx: Receiver<FetchMsg>, done_tx: SyncSender<FetchMsg>, rec: Recorder) {
    while let Ok(mut msg) = rx.recv() {
        let t0 = rec.start();
        msg.counts.clear();
        msg.counts.extend(
            msg.jobs
                .iter()
                .map(|(_, rt)| rt.unprocessed_vertices(msg.pid)),
        );
        if rec.on() {
            let total: u64 = msg.counts.iter().sum();
            rec.complete(EventKind::FetchComplete, NONE, msg.pid, NONE, t0, total);
        }
        if done_tx.send(msg).is_err() {
            break;
        }
    }
}

fn compute_loop(
    queue: Arc<ChunkQueue>,
    round: Arc<RoundState>,
    trigger_us: Option<Arc<Histogram>>,
    faults: Option<Arc<FaultPlane>>,
) {
    while let Some(msg) = queue.pop() {
        // Armed across the user-code call: a panic inside
        // `process_chunk` unwinds through the guard, which settles the
        // chunk and marks the round failed before the thread dies.
        let guard = ChunkPanicGuard { round: &round };
        if let Some(plane) = &faults {
            // The injected worker-death drill panics behind the armed
            // guard, so it travels the same path as crashing user code.
            assert!(
                !plane.should_panic_chunk(msg.pid, msg.chunk),
                "injected fault-plane chunk panic"
            );
        }
        let t0 = trigger_us.as_ref().map(|_| Instant::now());
        let stats = msg.runtime.process_chunk(msg.pid, msg.chunk, msg.nchunks);
        std::mem::forget(guard);
        if let (Some(hist), Some(t0)) = (&trigger_us, t0) {
            hist.record(t0.elapsed().as_micros() as u64);
        }
        round.record(msg.entry, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, PushStats};
    use cgraph_graph::GraphView;

    #[test]
    fn idle_crew_shuts_down() {
        let crew = ExecCrew::spawn(2, 2, 1, &crate::obs::Observer::disabled(), None);
        assert_eq!(crew.nio, 2);
        assert_eq!(crew.window(), 1);
        drop(crew);
    }

    #[test]
    fn crew_clamps_degenerate_parameters() {
        // Zero I/O workers is the inline-fetch crew; trigger workers and
        // the window still clamp to one.
        let crew = ExecCrew::spawn(0, 0, 0, &crate::obs::Observer::disabled(), None);
        assert!(!crew.has_io());
        assert_eq!(crew.handles.len(), 1);
        assert_eq!(crew.window(), 1);
    }

    /// A runtime whose chunks panic on demand — only the methods the
    /// crew's trigger path touches are live.
    struct FaultyRuntime {
        panic_on: usize,
    }

    impl JobRuntime for FaultyRuntime {
        fn id(&self) -> JobId {
            0
        }
        fn name(&self) -> String {
            "faulty".into()
        }
        fn view(&self) -> &GraphView {
            unreachable!("crew tests never resolve the view")
        }
        fn iteration(&self) -> u64 {
            0
        }
        fn pending(&self) -> Vec<PartitionId> {
            Vec::new()
        }
        fn is_pending(&self, _pid: PartitionId) -> bool {
            false
        }
        fn unprocessed_vertices(&self, _pid: PartitionId) -> u64 {
            0
        }
        fn private_table_bytes(&self, _pid: PartitionId) -> u64 {
            0
        }
        fn process_chunk(&self, _pid: PartitionId, chunk: usize, _nchunks: usize) -> ProcessStats {
            assert_ne!(chunk, self.panic_on, "injected chunk fault");
            ProcessStats { vertex_ops: 1, edge_ops: 2 }
        }
        fn mark_processed(&self, _pid: PartitionId) {}
        fn reenter_partition(&self, _pid: PartitionId, _max_rounds: u64) -> ProcessStats {
            ProcessStats::default()
        }
        fn iteration_complete(&self) -> bool {
            true
        }
        fn push_and_advance(&self) -> PushStats {
            PushStats::default()
        }
        fn is_converged(&self) -> bool {
            true
        }
        fn partition_change(&self, _pid: PartitionId) -> f64 {
            0.0
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn panicking_chunk_fails_the_round_instead_of_hanging() {
        // Two compute workers, four chunks, one of which panics: the
        // round must come back with a typed error (not wedge on the
        // condvar, not abort the test process) and the crew must still
        // drop cleanly afterwards.
        let mut crew = ExecCrew::spawn(0, 2, 1, &crate::obs::Observer::disabled(), None);
        crew.begin_round(1);
        let runtime: Arc<dyn JobRuntime> = Arc::new(FaultyRuntime { panic_on: 2 });
        for chunk in 0..4 {
            crew.push_chunk(0, 0, chunk, 4, Arc::clone(&runtime));
        }
        let mut out = Vec::new();
        let err = crew.finish_round(&mut out).unwrap_err();
        assert_eq!(
            err,
            ExecError::WorkerPanic("process_chunk panicked in a trigger worker")
        );
        drop(crew);
    }

    #[test]
    fn clean_chunks_still_fold_after_guard_refactor() {
        let mut crew = ExecCrew::spawn(0, 2, 1, &crate::obs::Observer::disabled(), None);
        crew.begin_round(2);
        let runtime: Arc<dyn JobRuntime> = Arc::new(FaultyRuntime { panic_on: usize::MAX });
        for chunk in 0..3 {
            crew.push_chunk(chunk % 2, 0, chunk, 3, Arc::clone(&runtime));
        }
        let mut out = Vec::new();
        crew.finish_round(&mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], ProcessStats { vertex_ops: 2, edge_ops: 4 });
        assert_eq!(out[1], ProcessStats { vertex_ops: 1, edge_ops: 2 });
    }
}
