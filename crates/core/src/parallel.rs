//! Parallel detection: the paper's stated future work, implemented.
//!
//! §6.2.1 observes that "the post-failure executions are independent as they
//! operate on a copy of the original PM image, and therefore, can be
//! parallelized. We leave the parallelized detection as a future work."
//!
//! [`XfDetector::run_parallel`] does exactly that: the pre-failure stage
//! runs on the main thread as usual, and the shared [`FpResolver`] decides
//! each failure point's source there. A failure point that must execute is
//! shipped as a `(failure point, crash image, shadow checkpoint)` job over
//! a bounded queue to a pool of worker threads. Each worker runs the
//! recovery, replays the resulting post-failure trace against the shipped
//! O(1) copy-on-write checkpoint of the shadow PM, and returns a
//! per-failure-point fragment of findings. Failure points the resolver
//! elides (journaled, warm, pruned, deduplicated) ship nothing; the merge
//! stage checks their replayed trace against their own checkpoint.
//!
//! The main thread merges in failure-point order, interleaving the
//! pre-failure findings at the positions where the sequential engine would
//! have discovered them, so the report is deterministic and byte-identical
//! to [`XfDetector::run`]'s, post-failure *outcome* findings included.
//!
//! Requirements: the workload must be [`Send`] + [`Sync`] (each worker calls
//! `post_failure` on its own forked context). The bounded queue keeps at
//! most `2 × workers` jobs waiting, so memory stays proportional to the
//! worker count, not to the failure-point count. Shadow checkpoints are
//! `Arc`-shared with the live shadow and cost no copying up front; the
//! pre-failure replay pays per-line copy-on-write faults only for lines it
//! mutates while checkpoints are in flight (see
//! [`RunStats::shadow_bytes_cloned`](crate::RunStats::shadow_bytes_cloned)).

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use pmem::{CowImage, EngineHook, OrderingPointInfo, PmCtx, PmPool};
use xftrace::{SourceLoc, TraceEntry};

use crate::engine::{EngineError, RunOutcome, Workload, XfDetector};
use crate::offline::{RecordedFailurePoint, RecordedRun};
use crate::report::{DetectionReport, FailurePoint, Finding};
use crate::resolve::{execute_post, note_executed, FpResolver, Post, Source};
use crate::shadow::ShadowPm;
use crate::xfrun::RunCtl;

/// A bounded multi-consumer FIFO: a `VecDeque` behind one mutex, with a
/// condition variable per waiting side.
///
/// At most `bound` items wait at once (the engine uses `2 × workers`), so
/// at most that many crash images are alive in the queue. A push and a pop
/// each take the lock once — negligible next to a post-failure execution —
/// and an item can be neither overwritten nor lost: it is owned by the
/// deque until exactly one worker pops it.
struct WorkQueue<T> {
    state: Mutex<QueueState<T>>,
    bound: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> WorkQueue<T> {
    fn new(workers: usize) -> Self {
        let bound = (workers * 2).max(1);
        WorkQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(bound),
                closed: false,
            }),
            bound,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Locks the state, recovering from poisoning (a panicking peer must
    /// not wedge the other side).
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues `item`, blocking while `bound` items wait.
    fn push(&self, item: T) {
        let mut st = self.lock();
        while st.items.len() >= self.bound {
            st = self
                .not_full
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.items.push_back(item);
        drop(st);
        self.not_empty.notify_one();
    }

    /// Marks the queue closed; workers drain the backlog and then see
    /// `None` from [`WorkQueue::pop`].
    fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Dequeues the next item, blocking while the queue is empty and open.
    /// Returns `None` once the queue is closed and drained.
    fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self
                .not_empty
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A failure point that must execute, shipped to a worker with its crash
/// image and the shadow checkpoint its trace is checked against.
struct Job {
    fp: FailurePoint,
    image: CowImage,
    shadow: ShadowPm,
}

/// A worker's result for one shipped failure point.
struct JobResult {
    id: u64,
    post: Post,
    /// Snapshot bytes copied building this job's post-failure pool.
    bytes: u64,
    /// The checked fragment: post-failure findings plus the outcome
    /// finding.
    findings: Vec<Finding>,
    /// Wall-clock time the worker spent checking.
    check_time: Duration,
}

/// How the merge stage completes one failure point.
enum Merge {
    /// A worker executed and checked it; the result arrives from the pool.
    Shipped,
    /// A resumed journal explored it: merge its report delta verbatim.
    Journaled(Vec<Finding>),
    /// Replay the result of the execution at failure point `rep` (its
    /// class representative or its image's executor) against this
    /// failure point's own checkpoint: an identical crash image or class
    /// does not imply identical shadow state.
    Rep { rep: u64, shadow: ShadowPm },
    /// Replay a warm class from the cross-run cache against this failure
    /// point's own checkpoint.
    Warm { post: Post, shadow: ShadowPm },
}

/// A resolved failure point, in failure-point order.
struct Pending {
    fp: FailurePoint,
    /// Pre-failure entries replayed before this failure point.
    pre_len: usize,
    merge: Merge,
}

/// The frontend hook for parallel mode: replays the pre-failure trace
/// incrementally, resolves every failure point and ships the ones that
/// must execute instead of running recoveries inline.
struct ParallelFrontend {
    resolver: RefCell<FpResolver>,
    jobs: RefCell<Option<Arc<WorkQueue<Job>>>>,
    shadow: RefCell<ShadowPm>,
    /// Pre-failure entries replayed into the shadow so far.
    pre_replayed: RefCell<usize>,
    /// Pre-failure findings (performance bugs, annotation conflicts) with
    /// the 1-based index of the entry that produced each — the merge stage
    /// interleaves them at the exact positions the sequential engine would
    /// have pushed them. The scratch report keeps the sequential engine's
    /// first-wins dedup; `taken` marks findings already moved out.
    pre_findings: RefCell<Vec<(usize, Finding)>>,
    pre_scratch: RefCell<(DetectionReport, usize)>,
    pending: RefCell<Vec<Pending>>,
    recorded: RefCell<Option<RecordedRun>>,
}

impl ParallelFrontend {
    /// Replays freshly drained pre-failure entries into the shadow,
    /// recording any findings with the entry index that produced them.
    fn replay_pre(&self, drained: Vec<TraceEntry>) {
        let mut shadow = self.shadow.borrow_mut();
        let mut replayed = self.pre_replayed.borrow_mut();
        let mut scratch = self.pre_scratch.borrow_mut();
        let mut tagged = self.pre_findings.borrow_mut();
        for e in &drained {
            *replayed += 1;
            shadow.apply_pre(e, &mut scratch.0);
            let (report, taken) = &mut *scratch;
            for f in &report.findings()[*taken..] {
                tagged.push((*replayed, f.clone()));
            }
            *taken = report.findings().len();
        }
        self.resolver.borrow_mut().stats_mut().pre_entries += drained.len() as u64;
        if let Some(rec) = self.recorded.borrow_mut().as_mut() {
            rec.pre.extend(drained.into_iter().map(Into::into));
        }
    }
}

impl EngineHook for ParallelFrontend {
    fn on_ordering_point(&self, ctx: &mut PmCtx, loc: SourceLoc, info: OrderingPointInfo) {
        if !self.resolver.borrow_mut().admit(info) {
            return;
        }
        // Keep the shadow up to date on the main thread: replaying
        // incrementally here overlaps with the workers, like the paper's
        // overlapped tracing/detection.
        self.replay_pre(ctx.trace().drain());
        let pre_len = *self.pre_replayed.borrow();
        let mut shadow = self.shadow.borrow_mut();
        let (fp, source) = self.resolver.borrow_mut().resolve(ctx, loc, &mut shadow);
        // Every non-journaled failure point keeps an O(1) copy-on-write
        // checkpoint of the shadow: the line slabs are shared until the
        // continuing replay mutates them.
        let merge = match source {
            Source::Journaled(findings) => Merge::Journaled(findings),
            Source::CacheWarm(post) => Merge::Warm {
                post,
                shadow: shadow.clone(),
            },
            Source::Pruned(rep) | Source::ImageDedup(rep) => Merge::Rep {
                rep,
                shadow: shadow.clone(),
            },
            Source::Execute(image) => {
                let job = Job {
                    fp,
                    image,
                    shadow: shadow.clone(),
                };
                drop(shadow);
                // Blocks when the bounded queue is full: backpressure
                // bounds the number of in-flight PM images.
                if let Some(queue) = self.jobs.borrow().as_ref() {
                    queue.push(job);
                }
                Merge::Shipped
            }
        };
        self.pending
            .borrow_mut()
            .push(Pending { fp, pre_len, merge });
    }
}

impl XfDetector {
    /// Runs the detection procedure with post-failure execution and
    /// checking spread over `workers` threads. Produces the same report as
    /// [`XfDetector::run`], in deterministic (failure-point) order.
    ///
    /// `workers == 0` means "use all available parallelism"
    /// ([`std::thread::available_parallelism`]).
    ///
    /// # Errors
    ///
    /// As [`XfDetector::run`].
    pub fn run_parallel<W>(&self, workload: W, workers: usize) -> Result<RunOutcome, EngineError>
    where
        W: Workload + Send + Sync + 'static,
    {
        self.run_parallel_with_ctl(workload, workers, RunCtl::inert())
    }

    /// [`XfDetector::run_parallel`] with an orchestration control handle:
    /// journal elision/appends and live counters. Driven by
    /// [`crate::Session`]; the public entry point passes an inert handle.
    pub(crate) fn run_parallel_with_ctl<W>(
        &self,
        workload: W,
        workers: usize,
        ctl: RunCtl,
    ) -> Result<RunOutcome, EngineError>
    where
        W: Workload + Send + Sync + 'static,
    {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            workers
        };
        let config = self.config();
        let pool = PmPool::new(workload.pool_size()).map_err(EngineError::Pm)?;
        let mut ctx = PmCtx::new(pool);

        let t_start = Instant::now();
        workload
            .setup(&mut ctx)
            .map_err(|e| EngineError::Setup(e.to_string()))?;

        let queue = Arc::new(WorkQueue::<Job>::new(workers));
        let (res_tx, res_rx) = mpsc::channel::<JobResult>();

        let mut shadow = ShadowPm::with_domain(config.domain);
        if config.pruning.is_enabled() {
            shadow.enable_fingerprinting();
        }
        let frontend = std::rc::Rc::new(ParallelFrontend {
            resolver: RefCell::new(FpResolver::new(config, ctl.clone())),
            jobs: RefCell::new(Some(Arc::clone(&queue))),
            shadow: RefCell::new(shadow),
            pre_replayed: RefCell::new(0),
            pre_findings: RefCell::new(Vec::new()),
            pre_scratch: RefCell::new((DetectionReport::new(), 0)),
            pending: RefCell::new(Vec::new()),
            recorded: RefCell::new(config.record_trace.then(|| RecordedRun {
                domain: config.domain,
                ..RecordedRun::default()
            })),
        });

        let workload_ref = &workload;
        let first_read_only = config.first_read_only;
        let (pre_result, results, post_exec_time) = std::thread::scope(|scope| {
            for _ in 0..workers {
                let queue = Arc::clone(&queue);
                let res_tx = res_tx.clone();
                let budget = config.post_budget.clone();
                let obs = ctl.obs().clone();
                scope.spawn(move || {
                    while let Some(job) = queue.pop() {
                        // Each worker builds its own post context from the
                        // image; nothing non-Send crosses threads. Workers
                        // always quarantine: a panic (or a budget kill) is
                        // confined to this failure point and reported as a
                        // finding, so the pool survives a failing job even
                        // with `catch_post_panics` off.
                        let mut post_ctx = PmCtx::new_post(PmPool::from_cow(&job.image));
                        let outcome = execute_post(
                            &|c| workload_ref.post_failure(c),
                            &mut post_ctx,
                            budget.as_ref(),
                            true,
                        );
                        let post = Post {
                            trace: post_ctx.trace().drain().into(),
                            outcome,
                        };
                        // Worker-side checking into a fragment. Pre- and
                        // post-stage bug kinds are disjoint, so fragment-local
                        // dedup composes with the merge report's global dedup.
                        let t_check = Instant::now();
                        let mut fragment = DetectionReport::new();
                        post.check(&job.shadow, job.fp, first_read_only, &mut fragment);
                        let check_time = t_check.elapsed();
                        note_executed(&obs, &post.outcome);
                        let _ = res_tx.send(JobResult {
                            id: job.fp.id,
                            post,
                            bytes: post_ctx.pool().snapshot_bytes_copied(),
                            findings: fragment.into_findings(),
                            check_time,
                        });
                    }
                });
            }
            drop(res_tx);

            ctx.set_hook(frontend.clone());
            if config.fire_on_every_write {
                ctx.set_failure_point_on_writes(true);
            }
            let t_post = Instant::now();
            let pre_result = workload.pre_failure(&mut ctx);
            if pre_result.is_ok() && config.inject_at_completion && !ctx.is_detection_complete() {
                ctx.add_failure_point_at(SourceLoc::synthetic("<completion>"));
            }
            ctx.clear_hook();
            // Hang up the job queue so the workers drain and exit.
            frontend.jobs.borrow_mut().take();
            queue.close();
            let results: HashMap<u64, JobResult> = res_rx.iter().map(|r| (r.id, r)).collect();
            (pre_result, results, t_post.elapsed())
        });

        // Trailing pre entries (after the last failure point): tail-end
        // performance bugs are still reported.
        frontend.replay_pre(ctx.trace().drain());
        pre_result.map_err(|e| EngineError::PreFailure(e.to_string()))?;

        let mut resolver = frontend.resolver.borrow_mut();
        let mut ids: Vec<u64> = results.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            resolver.executed(id, &results[&id].post);
        }

        // Deterministic merge in failure-point order. Worker fragments are
        // spliced in as-is; elided failure points replay their source's
        // post-failure trace (the post run is a pure function of the crash
        // image) against their own checkpoint, exactly as the sequential
        // engine does, so the merged report stays byte-identical.
        let pre_findings = frontend.pre_findings.borrow();
        let mut pre_cursor = 0usize;
        let mut recorded = frontend.recorded.borrow_mut().take();
        let mut report = DetectionReport::new();
        let mut post_entries = 0u64;
        let mut merge_check_time = Duration::ZERO;
        let t_detect = Instant::now();
        for p in frontend.pending.borrow().iter() {
            // Pre-failure findings discovered up to this failure point go
            // first, as in the sequential engine's incremental replay.
            while pre_cursor < pre_findings.len() && pre_findings[pre_cursor].0 <= p.pre_len {
                report.push(pre_findings[pre_cursor].1.clone());
                pre_cursor += 1;
            }
            let delta_start = report.findings().len();
            let post = match &p.merge {
                Merge::Journaled(findings) => {
                    for f in findings {
                        report.push(f.clone());
                    }
                    None
                }
                Merge::Shipped => {
                    let r = &results[&p.fp.id];
                    for f in &r.findings {
                        report.push(f.clone());
                    }
                    Some(&r.post)
                }
                Merge::Rep { rep, shadow } => {
                    let post = resolver
                        .rep(*rep)
                        .expect("a representative executes before its members");
                    let t_check = Instant::now();
                    post.check(shadow, p.fp, first_read_only, &mut report);
                    merge_check_time += t_check.elapsed();
                    Some(post)
                }
                Merge::Warm { post, shadow } => {
                    let t_check = Instant::now();
                    post.check(shadow, p.fp, first_read_only, &mut report);
                    merge_check_time += t_check.elapsed();
                    Some(post)
                }
            };
            let trace: &[TraceEntry] = post.map_or(&[], |post| &post.trace);
            post_entries += trace.len() as u64;
            if let Some(rec) = recorded.as_mut() {
                let fp = RecordedFailurePoint::new(p.pre_len, p.fp.loc, trace);
                rec.failure_points.push(fp);
            }
            // Journal appends happen here, in id order, so the journal is
            // as deterministic as the report. A journaled failure point is
            // already on disk and is not re-appended.
            if post.is_some() {
                ctl.append_fp(p.fp.id, p.fp.loc, &report.findings()[delta_start..]);
            }
        }
        while pre_cursor < pre_findings.len() {
            report.push(pre_findings[pre_cursor].1.clone());
            pre_cursor += 1;
        }
        let detect_time = t_detect.elapsed();

        let mut stats = resolver.finish();
        stats.total_time = t_start.elapsed();
        stats.post_exec_time = post_exec_time;
        // `detect_time` is the residual serial merge; `check_time` is the
        // summed checking time wherever it ran.
        stats.detect_time = detect_time;
        stats.check_time =
            results.values().map(|r| r.check_time).sum::<Duration>() + merge_check_time;
        stats.post_entries = post_entries;
        {
            let shadow = frontend.shadow.borrow();
            stats.shadow_bytes_cloned = shadow.bytes_cloned();
            stats.shadow_resident_bytes = shadow.resident_bytes();
        }
        // Workers accounted their post-failure pools; the frontend pool's
        // capture and COW-fault traffic is read off at the end.
        stats.snapshot_bytes_copied =
            results.values().map(|r| r.bytes).sum::<u64>() + ctx.pool().snapshot_bytes_copied();
        Ok(RunOutcome {
            report,
            stats,
            recorded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::BugKind;

    /// A workload with a reliable race, safe to share across threads.
    struct Racy;

    impl Workload for Racy {
        fn name(&self) -> &str {
            "racy"
        }
        fn pool_size(&self) -> u64 {
            64 * 1024
        }
        fn setup(&self, _ctx: &mut PmCtx) -> Result<(), crate::DynError> {
            Ok(())
        }
        fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), crate::DynError> {
            let a = ctx.pool().base();
            for i in 0..20 {
                ctx.write_u64(a + i * 128, i)?; // never flushed
                ctx.write_u64(a + i * 128 + 64, i)?;
                ctx.persist_barrier(a + i * 128 + 64, 8)?;
            }
            Ok(())
        }
        fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), crate::DynError> {
            let a = ctx.pool().base();
            for i in 0..20 {
                let _ = ctx.read_u64(a + i * 128)?;
            }
            Ok(())
        }
    }

    fn finding_keys(o: &RunOutcome) -> Vec<(BugKind, Option<SourceLoc>, Option<SourceLoc>)> {
        let mut v: Vec<_> = o
            .report
            .findings()
            .iter()
            .map(|f| (f.kind, f.reader, f.writer))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn parallel_matches_sequential_findings() {
        let seq = XfDetector::with_defaults().run(Racy).unwrap();
        for workers in [1, 2, 4] {
            let par = XfDetector::with_defaults()
                .run_parallel(Racy, workers)
                .unwrap();
            assert_eq!(
                finding_keys(&seq),
                finding_keys(&par),
                "worker count {workers}"
            );
            assert_eq!(seq.stats.failure_points, par.stats.failure_points);
            assert_eq!(seq.stats.post_runs, par.stats.post_runs);
        }
    }

    #[test]
    fn parallel_reports_post_failure_errors() {
        struct Failing;
        impl Workload for Failing {
            fn name(&self) -> &str {
                "failing"
            }
            fn pool_size(&self) -> u64 {
                4096
            }
            fn setup(&self, _ctx: &mut PmCtx) -> Result<(), crate::DynError> {
                Ok(())
            }
            fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), crate::DynError> {
                let a = ctx.pool().base();
                ctx.write_u64(a, 1)?;
                ctx.persist_barrier(a, 8)?;
                Ok(())
            }
            fn post_failure(&self, _ctx: &mut PmCtx) -> Result<(), crate::DynError> {
                Err("recovery failed".into())
            }
        }
        let outcome = XfDetector::with_defaults()
            .run_parallel(Failing, 3)
            .unwrap();
        assert!(outcome.report.execution_failure_count() >= 1);
    }

    #[test]
    fn parallel_is_deterministic_across_runs() {
        let a = XfDetector::with_defaults().run_parallel(Racy, 4).unwrap();
        let b = XfDetector::with_defaults().run_parallel(Racy, 4).unwrap();
        assert_eq!(finding_keys(&a), finding_keys(&b));
    }

    #[test]
    fn zero_workers_clamps_to_available_parallelism() {
        let seq = XfDetector::with_defaults().run(Racy).unwrap();
        let par = XfDetector::with_defaults().run_parallel(Racy, 0).unwrap();
        assert_eq!(finding_keys(&seq), finding_keys(&par));
    }

    /// Pushes `jobs` items through a queue sized for `workers` while that
    /// many consumers pop, each pausing after some pops so claims and
    /// pushes interleave every way the scheduler allows. Returns what the
    /// consumers received.
    fn drain_concurrently(workers: usize, jobs: u64) -> Vec<u64> {
        let queue = Arc::new(WorkQueue::<u64>::new(workers));
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queue = Arc::clone(&queue);
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(item) = queue.pop() {
                            got.push(item);
                            if (item + w as u64).is_multiple_of(7) {
                                std::thread::yield_now();
                            }
                        }
                        got
                    })
                })
                .collect();
            for i in 0..jobs {
                queue.push(i);
            }
            queue.close();
            let mut all: Vec<u64> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect();
            all.sort_unstable();
            all
        })
    }

    #[test]
    fn work_queue_delivers_every_job_exactly_once() {
        for workers in [1usize, 2, 4] {
            assert_eq!(
                drain_concurrently(workers, 500),
                (0..500).collect::<Vec<_>>(),
                "workers {workers}"
            );
        }
    }

    #[test]
    fn work_queue_survives_a_stress_run_at_two_and_four_workers() {
        // Every item pushed must come out exactly once however pops and
        // pushes interleave: a slot-reusing queue loses or duplicates
        // items here, or hangs.
        for workers in [2usize, 4] {
            for round in 0..20 {
                assert_eq!(
                    drain_concurrently(workers, 5_000),
                    (0..5_000).collect::<Vec<_>>(),
                    "workers {workers}, round {round}"
                );
            }
        }
    }

    #[test]
    fn work_queue_bounds_waiting_items() {
        // With no consumer, the producer publishes exactly `bound` items
        // and then blocks until a pop makes room.
        let queue = Arc::new(WorkQueue::<u64>::new(2)); // bound = 4
        let q2 = Arc::clone(&queue);
        let producer = std::thread::spawn(move || {
            for i in 0..8 {
                q2.push(i);
            }
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while queue.lock().items.len() < 4 {
            assert!(std::time::Instant::now() < deadline, "producer stalled");
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(queue.lock().items.len(), 4, "only `bound` published so far");
        let got: Vec<u64> = (0..8).map(|_| queue.pop().expect("open queue")).collect();
        producer.join().unwrap();
        queue.close();
        assert!(queue.pop().is_none(), "a drained, closed queue ends");
        assert_eq!(got, (0..8).collect::<Vec<_>>(), "FIFO order");
    }
}
