//! The failure-point resolver: the one decision chain every engine runs at
//! every ordering point (§5.1, §5.4).
//!
//! At each ordering point the detector decides whether a failure point is
//! injected at all and, if so, how its post-failure trace is obtained;
//! only then is that trace checked against the shadow PM. [`FpResolver`]
//! owns the whole decision, in this order:
//!
//! 1. skip-empty and `max_failure_points` gating ([`FpResolver::admit`]),
//!    then failure-point numbering,
//! 2. the resumed run journal,
//! 3. the persistence fingerprint, then the warm cross-run class cache,
//!    then the in-run prune cache,
//! 4. the copy-on-write crash image and the image-dedup cache; anything
//!    left executes.
//!
//! It also registers class representatives and dedup sources, exports
//! executed classes into the cross-run cache, and tallies every source
//! into [`RunStats`] and the live counters. The engines differ only in
//! *where* they execute and check: the batch and stream engines execute
//! inline ([`FpResolver::obtain`]), the parallel engine ships the image to
//! a worker and hands the result back before it merges.
//!
//! A representative is named by the id of the failure point that executed
//! it. Its result is kept while a later failure point can still replay it
//! (dedup or pruning enabled) and is never re-executed: the post-failure
//! run is a pure function of the crash image, and an equal persistence
//! fingerprint implies an equal crash state.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pmem::{Budget, BudgetOverrun, CowImage, ImageHash, OrderingPointInfo, PmCtx};
use xftrace::{SourceLoc, TraceEntry};

use crate::engine::{DynError, XfConfig};
use crate::prune::PruneCache;
use crate::report::{BugKind, DetectionReport, FailurePoint, Finding};
use crate::shadow::ShadowPm;
use crate::stats::RunStats;
use crate::xfrun::{ObsHandle, RunCtl};

/// The post-failure continuation an engine runs per failure point.
pub type PostFn<'a> = dyn Fn(&mut PmCtx) -> Result<(), DynError> + 'a;

/// How a post-failure execution ended. A failed, panicked or killed
/// execution is a finding ([`PostOutcome::finding`]), never an engine
/// error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PostOutcome {
    /// The post-failure stage returned normally.
    Completed,
    /// The post-failure stage returned an error.
    Failed(String),
    /// The post-failure stage panicked.
    Panicked(String),
    /// The budget watchdog killed the execution. The message is the
    /// deterministic [`BudgetOverrun`] rendering (it names the limit, never
    /// the observed count), so replays of a killed run stay byte-identical.
    BudgetExceeded(String),
}

impl PostOutcome {
    /// The outcome finding at `fp`; `None` when the execution completed.
    #[must_use]
    pub fn finding(&self, fp: FailurePoint) -> Option<Finding> {
        let (kind, message) = match self {
            PostOutcome::Completed => return None,
            PostOutcome::Failed(m) => (BugKind::PostFailureError, m),
            PostOutcome::Panicked(m) => (BugKind::PostFailurePanic, m),
            PostOutcome::BudgetExceeded(m) => (BugKind::BudgetExceeded, m),
        };
        Some(Finding {
            kind,
            addr: 0,
            size: 0,
            reader: Some(fp.loc),
            writer: None,
            failure_point: Some(fp),
            message: Some(message.clone()),
        })
    }
}

/// A post-failure trace and how its execution ended: what a failure point
/// replays. Clones share the trace.
#[derive(Debug, Clone)]
pub struct Post {
    /// The post-failure trace.
    pub trace: Arc<[TraceEntry]>,
    /// How the execution that produced it ended.
    pub outcome: PostOutcome,
}

impl Post {
    /// Replays the trace against `shadow` (the shadow state at `fp`) into
    /// `report`, then adds the outcome finding.
    pub fn check(
        &self,
        shadow: &ShadowPm,
        fp: FailurePoint,
        first_read_only: bool,
        report: &mut DetectionReport,
    ) {
        let mut checker = shadow.begin_post(first_read_only);
        for e in self.trace.iter() {
            checker.apply_post(e, fp, report);
        }
        if let Some(f) = self.outcome.finding(fp) {
            report.push(f);
        }
    }
}

/// Runs the post-failure stage `post` on `ctx` with `budget` armed.
///
/// With `catch_panics` a panic is confined to this failure point and
/// becomes [`PostOutcome::Panicked`]; without it a genuine workload panic
/// propagates. A budget overrun is delivered by unwinding, so a budgeted
/// run always catches it: the watchdog kill is a finding, never an engine
/// crash. Parallel workers always pass `catch_panics`, so a failing job
/// never takes down the pool.
pub(crate) fn execute_post(
    post: &PostFn<'_>,
    ctx: &mut PmCtx,
    budget: Option<&Budget>,
    catch_panics: bool,
) -> PostOutcome {
    let ended = |r: Result<(), DynError>| match r {
        Ok(()) => PostOutcome::Completed,
        Err(e) => PostOutcome::Failed(e.to_string()),
    };
    if let Some(budget) = budget {
        ctx.arm_budget(budget.clone());
    } else if !catch_panics {
        return ended(post(ctx));
    }
    match catch_unwind(AssertUnwindSafe(|| post(ctx))) {
        Ok(r) => ended(r),
        Err(payload) => match payload.downcast::<BudgetOverrun>() {
            Ok(overrun) => PostOutcome::BudgetExceeded(overrun.to_string()),
            Err(payload) if catch_panics => PostOutcome::Panicked(panic_message(&*payload)),
            Err(payload) => std::panic::resume_unwind(payload),
        },
    }
}

/// The message carried by a panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Bumps the live counters for a finished execution. Called wherever the
/// execution ran (inline, or on a parallel worker).
pub(crate) fn note_executed(obs: &ObsHandle, outcome: &PostOutcome) {
    obs.post_run();
    if matches!(outcome, PostOutcome::BudgetExceeded(_)) {
        obs.budget_kill();
    }
    obs.fp_done();
}

/// Where a failure point's post-failure trace comes from.
#[derive(Debug)]
pub(crate) enum Source {
    /// A resumed journal already explored this failure point: merge its
    /// report delta verbatim, execute and check nothing.
    Journaled(Vec<Finding>),
    /// A previous run executed this failure point's class: replay the
    /// persisted representative.
    CacheWarm(Post),
    /// An earlier member of the class (the failure point with this id)
    /// executed: replay its result.
    Pruned(u64),
    /// The failure point with this id executed on a byte-identical crash
    /// image: replay its result.
    ImageDedup(u64),
    /// Run the post-failure stage on this crash image.
    Execute(CowImage),
}

/// What a failure point contributes, obtained inline.
#[derive(Debug)]
pub enum Obtained {
    /// Merge a resumed journal's report delta verbatim.
    Journaled(Vec<Finding>),
    /// Check this post-failure result against the failure point's shadow
    /// state.
    Replay(Post),
}

/// The per-run failure-point resolver shared by the batch, parallel and
/// stream engines (see the [module docs](self)).
#[derive(Debug)]
pub struct FpResolver {
    config: XfConfig,
    rng: StdRng,
    ctl: RunCtl,
    prune: PruneCache<u64>,
    /// Content hash → (executing failure point, the image itself for the
    /// exact `same_content` confirmation: a hash collision degrades to a
    /// miss, never to a wrong reuse).
    dedup: HashMap<ImageHash, (u64, CowImage)>,
    /// Executed results that later failure points may replay, by id.
    reps: HashMap<u64, Post>,
    /// `(class key, representative id)` pairs for the cross-run cache,
    /// exported at [`FpResolver::finish`] in failure-point order.
    exports: Vec<(u64, u64)>,
    stats: RunStats,
}

impl FpResolver {
    /// A resolver for one run of `config`, driven through `ctl`.
    #[must_use]
    pub fn new(config: &XfConfig, ctl: RunCtl) -> Self {
        FpResolver {
            config: config.clone(),
            rng: StdRng::seed_from_u64(config.rng_seed),
            ctl,
            prune: PruneCache::new(config.pruning),
            dedup: HashMap::new(),
            reps: HashMap::new(),
            exports: Vec::new(),
            stats: RunStats::default(),
        }
    }

    /// The run's counters so far; engines add what they measure themselves
    /// (trace sizes, timings, copy traffic).
    pub fn stats_mut(&mut self) -> &mut RunStats {
        &mut self.stats
    }

    /// Whether this ordering point becomes a failure point: counts the
    /// ordering point, elides PM-quiet ones (§5.4 optimization 2) and stops
    /// at `max_failure_points`.
    pub fn admit(&mut self, info: OrderingPointInfo) -> bool {
        let stats = &mut self.stats;
        stats.ordering_points += 1;
        // With multiple threads a fence is itself a state transition — it
        // drains only its own thread's write-backs and marks foreign
        // pending bytes cross-thread — so no multi-threaded failure point
        // is "empty" even without an intervening PM mutation.
        if !info.forced
            && self.config.skip_empty_failure_points
            && !info.had_pm_mutation
            && self.config.threads <= 1
        {
            stats.skipped_empty += 1;
            return false;
        }
        self.config
            .max_failure_points
            .is_none_or(|max| stats.failure_points < max)
    }

    /// Numbers an admitted failure point at `loc` and decides its source.
    /// `ctx` is the pre-failure context (the crash image is captured from
    /// its pool) and `shadow` the shadow PM replayed up to this point (it
    /// supplies the persistence fingerprint when pruning is on).
    pub(crate) fn resolve(
        &mut self,
        ctx: &PmCtx,
        loc: SourceLoc,
        shadow: &mut ShadowPm,
    ) -> (FailurePoint, Source) {
        let fp = FailurePoint {
            id: self.stats.failure_points,
            loc,
        };
        self.stats.failure_points += 1;
        let obs = self.ctl.obs();

        // Resume elision. The pre-failure replay already regenerated
        // everything before this failure point, so merging its journaled
        // delta keeps the report byte-identical to an uninterrupted run.
        // The caches are deliberately left alone: a later failure point
        // that would have hit an entry the skipped run made executes.
        if let Some(rec) = self.ctl.journaled(fp.id) {
            let findings = rec.findings.clone();
            self.stats.journal_skipped += 1;
            obs.journal_skip();
            obs.fp_done();
            return (fp, Source::Journaled(findings));
        }

        let key = self
            .prune
            .is_enabled()
            .then(|| shadow.persistence_fingerprint());
        if let Some(key) = key {
            // A warm class is not seeded into the in-run prune cache: every
            // member hits the store, so the `cache_hits`/`fps_pruned` split
            // stays meaningful.
            if let Some(post) = self.ctl.cache_lookup(key) {
                let post = post.clone();
                obs.cache_hit();
                obs.fp_done();
                return (fp, Source::CacheWarm(post));
            }
            if let Some(&rep) = self.prune.lookup(key, fp.id) {
                obs.prune_hit();
                obs.fp_done();
                return (fp, Source::Pruned(rep));
            }
        }

        let image = self
            .config
            .crash_policy
            .cow_image(ctx.pool(), &mut self.rng);
        let mut rep = fp.id;
        if self.config.dedup_images {
            let hash = image.content_hash();
            match self.dedup.get(&hash) {
                Some((src, seen)) if seen.same_content(&image) => rep = *src,
                _ => {
                    self.dedup.insert(hash, (fp.id, image.clone()));
                }
            }
        }
        if let Some(key) = key {
            // The executor — or, on a dedup hit, the image's executor —
            // becomes the class representative. On an audit run
            // (`Pruning::Sampled`) the class already has one; `insert`
            // keeps it.
            self.prune.insert(key, rep);
            if self.ctl.cache_enabled() {
                self.exports.push((key, rep));
            }
        }
        if rep != fp.id {
            self.stats.images_deduped += 1;
            obs.dedup_hit();
            obs.fp_done();
            return (fp, Source::ImageDedup(rep));
        }
        self.stats.post_runs += 1;
        (fp, Source::Execute(image))
    }

    /// Records the result of the execution at failure point `id`: a budget
    /// kill counts here, once (replays of a killed run re-emit the finding
    /// but never count), and the result is kept while later failure points
    /// can replay it.
    pub(crate) fn executed(&mut self, id: u64, post: &Post) {
        if matches!(post.outcome, PostOutcome::BudgetExceeded(_)) {
            self.stats.budget_exceeded += 1;
        }
        if self.config.dedup_images || self.prune.is_enabled() {
            self.reps.insert(id, post.clone());
        }
    }

    /// The kept result of the execution at failure point `id`.
    pub(crate) fn rep(&self, id: u64) -> Option<&Post> {
        self.reps.get(&id)
    }

    /// Resolves the failure point at `loc` and, when it must execute, runs
    /// the post-failure stage inline on a fork of `ctx` (the batch and
    /// stream engines).
    pub fn obtain(
        &mut self,
        ctx: &PmCtx,
        loc: SourceLoc,
        shadow: &mut ShadowPm,
        post: &PostFn<'_>,
    ) -> (FailurePoint, Obtained) {
        let (fp, source) = self.resolve(ctx, loc, shadow);
        let result = match source {
            Source::Journaled(findings) => return (fp, Obtained::Journaled(findings)),
            Source::CacheWarm(result) => result,
            Source::Pruned(rep) | Source::ImageDedup(rep) => self
                .rep(rep)
                .cloned()
                .expect("a representative executes before its members"),
            Source::Execute(image) => {
                let mut post_ctx = ctx.fork_post_cow(&image);
                let outcome = execute_post(
                    post,
                    &mut post_ctx,
                    self.config.post_budget.as_ref(),
                    self.config.catch_post_panics,
                );
                self.stats.snapshot_bytes_copied += post_ctx.pool().snapshot_bytes_copied();
                let result = Post {
                    trace: post_ctx.trace().drain().into(),
                    outcome,
                };
                note_executed(self.ctl.obs(), &result.outcome);
                self.executed(fp.id, &result);
                result
            }
        };
        (fp, Obtained::Replay(result))
    }

    /// Ends the run: exports this run's class representatives into the
    /// cross-run cache and returns the counters with the pruning split and
    /// the retained trace size filled in.
    pub fn finish(&mut self) -> RunStats {
        for (key, rep) in self.exports.drain(..) {
            if let Some(post) = self.reps.get(&rep) {
                self.ctl.cache_export(key, post);
            }
        }
        let mut stats = std::mem::take(&mut self.stats);
        stats.finish_pruning(self.prune.classes_total(), self.prune.fps_pruned());
        stats.retained_trace_bytes = self
            .reps
            .values()
            .map(|p| std::mem::size_of_val(&*p.trace) as u64)
            .sum();
        stats
    }
}
