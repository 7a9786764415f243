//! The traced run's instruments: an in-memory span recorder, a
//! [`Timed`] wrapper that records spans around a workload's stages, and
//! an offline replay of a recorded run through the shadow PM.
//!
//! Spans stay in memory and are written out once, when the benchmark
//! ends. A layer's self time is its span minus the part of that interval
//! its child spans cover ([`covered`]).

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use xfd::pmem::PmCtx;
use xfd::xfdetector::offline::RecordedRun;
use xfd::xfdetector::{
    ConcurrentWorkload, DetectionReport, DynError, FailurePoint, ShadowPm, ThreadProgram, Workload,
};
use xfd::xftrace::{SourceLoc, TraceEntry};

/// One recorded interval. Spans of one job share `job`; `parent` is the
/// id of the span that caused this one (0 for a root).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub job: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// Collects spans from every thread of the run.
pub struct Recorder {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh span id (ids only label spans; no other data hangs on them).
    pub fn id(&self) -> u32 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    pub fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span recorder poisoned")
            .push(span);
    }

    /// Opens a span that closes when the guard drops, also on unwinding
    /// (a post-failure stage killed by the execution budget unwinds).
    pub fn open(&self, name: &'static str, parent: u32, job: u32) -> Guard<'_> {
        Guard {
            rec: self,
            id: self.id(),
            parent,
            job,
            name,
            start: self.now(),
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tjob\tname\tstart_ns\tend_ns")?;
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.job, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

pub struct Guard<'a> {
    rec: &'a Recorder,
    id: u32,
    parent: u32,
    job: u32,
    name: &'static str,
    start: u64,
}

impl Guard<'_> {
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.rec.push(Span {
            id: self.id,
            parent: self.parent,
            job: self.job,
            name: self.name,
            start: self.start,
            end: self.rec.now(),
        });
    }
}

/// Where a [`Timed`] workload records: the job's span and a count of
/// post-failure calls made.
#[derive(Clone)]
pub struct Tap {
    pub rec: Arc<Recorder>,
    pub parent: u32,
    pub job: u32,
    pub post_calls: Arc<AtomicU64>,
}

impl Tap {
    fn span(&self, name: &'static str) -> Guard<'_> {
        self.rec.open(name, self.parent, self.job)
    }
}

/// Span names of the workload layer. `pre_failure` is not a leaf: the
/// detector's failure-point hook (and, on the batch engine, every
/// post-failure execution) runs inside it.
pub const SETUP: &str = "workloads.setup";
pub const PRE: &str = "workloads.pre_failure";
pub const POST: &str = "workloads.post_failure";

/// A workload whose stages record spans.
pub struct Timed<W> {
    inner: W,
    tap: Tap,
}

impl<W> Timed<W> {
    pub fn new(inner: W, tap: Tap) -> Self {
        Timed { inner, tap }
    }
}

impl<W: Workload> Workload for Timed<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn pool_size(&self) -> u64 {
        self.inner.pool_size()
    }
    fn setup(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        let _s = self.tap.span(SETUP);
        self.inner.setup(ctx)
    }
    fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        let _s = self.tap.span(PRE);
        self.inner.pre_failure(ctx)
    }
    fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        self.tap.post_calls.fetch_add(1, Ordering::Relaxed);
        let _s = self.tap.span(POST);
        self.inner.post_failure(ctx)
    }
}

impl<W: ConcurrentWorkload> ConcurrentWorkload for Timed<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn pool_size(&self) -> u64 {
        self.inner.pool_size()
    }
    fn setup(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        let _s = self.tap.span(SETUP);
        self.inner.setup(ctx)
    }
    fn pre_failure_init(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        self.inner.pre_failure_init(ctx)
    }
    fn roles(&self, base: u64) -> Vec<Box<dyn ThreadProgram>> {
        self.inner.roles(base)
    }
    fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        self.tap.post_calls.fetch_add(1, Ordering::Relaxed);
        let _s = self.tap.span(POST);
        self.inner.post_failure(ctx)
    }
}

/// Length of the union of `intervals`, in the intervals' unit.
pub fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// What replaying one recorded run through the shadow PM cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub pre_entries: u64,
    pub pre_ns: u64,
    pub fingerprints: u64,
    pub fingerprint_ns: u64,
    /// Distinct fingerprints: the run's persistence-state classes.
    pub classes: u64,
    pub post_entries: u64,
    pub check_ns: u64,
}

/// Replays `run` as the batch engine does: pre-failure entries into the
/// shadow up to each failure point, the failure point's fingerprint when
/// `fingerprint` is set (pruned runs), then the post-failure trace through
/// a checker.
pub fn replay(run: &RecordedRun, fingerprint: bool) -> Replay {
    let pre: Vec<TraceEntry> = run.pre.iter().map(|e| e.to_entry()).collect();
    let posts: Vec<Vec<TraceEntry>> = run
        .failure_points
        .iter()
        .map(|f| f.post.iter().map(|e| e.to_entry()).collect())
        .collect();
    let mut shadow = ShadowPm::with_domain(run.domain);
    if fingerprint {
        shadow.enable_fingerprinting();
    }
    let mut report = DetectionReport::new();
    let mut classes = std::collections::HashSet::new();
    let mut r = Replay::default();
    let mut cursor = 0usize;
    let ns = |t: Instant| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    for (id, (rfp, post)) in run.failure_points.iter().zip(&posts).enumerate() {
        let upto = rfp.pre_len.min(pre.len());
        let t = Instant::now();
        for e in &pre[cursor.min(upto)..upto] {
            shadow.apply_pre(e, &mut report);
        }
        r.pre_ns += ns(t);
        r.pre_entries += upto.saturating_sub(cursor) as u64;
        cursor = cursor.max(upto);
        if fingerprint {
            let t = Instant::now();
            classes.insert(std::hint::black_box(shadow.persistence_fingerprint()));
            r.fingerprint_ns += ns(t);
            r.fingerprints += 1;
        }
        let fp = FailurePoint {
            id: id as u64,
            loc: SourceLoc::synthetic("<replay>"),
        };
        let t = Instant::now();
        let mut checker = shadow.begin_post(true);
        for e in post {
            checker.apply_post(e, fp, &mut report);
        }
        r.check_ns += ns(t);
        r.post_entries += post.len() as u64;
    }
    r.classes = classes.len() as u64;
    r
}

#[cfg(test)]
mod tests {
    use super::covered;

    #[test]
    fn overlapping_spans_count_once() {
        assert_eq!(covered(&mut [(5, 10), (0, 3), (2, 4), (12, 13)]), 10);
        assert_eq!(covered(&mut []), 0);
    }
}
