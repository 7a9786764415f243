//! Running one job: locally through `Session::run`/`run_concurrent`, or
//! through an in-process campaign server and its `Client`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Deserialize;
use xfd::pmem::{PmCtx, PmPool};
use xfd::workloads::bugs::BugSet;
use xfd::workloads::{build_concurrent, build_with_init};
use xfd::xfdetector::{
    DetectionReport, RunOutcome, RunStats, SchedulePlan, Scheduled, Session, Workload,
};
use xfd::xfserve::{AnyStream, Client, JobEvent, Server, ServerOptions};

use crate::jobs::{Job, Verdict};
use crate::trace::{Tap, Timed};

/// Longest one job may run before the detector is taken as hung.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);

/// The job in flight and when it started.
static RUNNING: Mutex<Option<(Instant, String)>> = Mutex::new(None);

/// Marks `job` as in flight until the guard drops.
fn watch(job: &Job) -> Running {
    *RUNNING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) =
        Some((Instant::now(), job.spec.to_json()));
    Running
}

struct Running;

impl Drop for Running {
    fn drop(&mut self) {
        *RUNNING
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    }
}

/// The in-flight job's spec, once it has run over [`JOB_TIMEOUT`].
fn overdue() -> Option<String> {
    let running = RUNNING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    running
        .as_ref()
        .filter(|(t0, _)| t0.elapsed() > JOB_TIMEOUT)
        .map(|(_, spec)| spec.clone())
}

/// Runs `body` beside a watchdog that ends the process with exit code 1
/// when one job runs longer than [`JOB_TIMEOUT`]: a hung detector fails
/// the run loudly, naming the job, instead of stalling it.
pub fn with_watchdog<R>(body: impl FnOnce() -> R) -> R {
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(100));
                if let Some(spec) = overdue() {
                    eprintln!(
                        "perfbench: FAILED a job ran over {JOB_TIMEOUT:?}: the detector hangs on {spec}"
                    );
                    std::process::exit(1);
                }
            }
        });
        let _stop = Stop(&done);
        body()
    })
}

/// The program's own counters for one job: `RunStats` locally, the
/// `stats` object of the METRICS event remotely (same field names).
#[derive(Debug, Default, Clone, Deserialize)]
pub struct Counts {
    pub failure_points: u64,
    pub post_runs: u64,
    pub classes_total: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_bytes: u64,
    pub snapshot_bytes_copied: u64,
    pub shadow_bytes_cloned: u64,
    pub ring_parks: u64,
    pub budget_exceeded: u64,
    pub stream_stall_time: Duration,
    pub total_time: Duration,
    pub post_exec_time: Duration,
}

impl From<&RunStats> for Counts {
    fn from(s: &RunStats) -> Self {
        Counts {
            failure_points: s.failure_points,
            post_runs: s.post_runs,
            classes_total: s.classes_total,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            cache_bytes: s.cache_bytes,
            snapshot_bytes_copied: s.snapshot_bytes_copied,
            shadow_bytes_cloned: s.shadow_bytes_cloned,
            ring_parks: s.ring_parks,
            budget_exceeded: s.budget_exceeded,
            stream_stall_time: s.stream_stall_time,
            total_time: s.total_time,
            post_exec_time: s.post_exec_time,
        }
    }
}

/// A finished job.
pub struct Done {
    /// From the `Session::run`/`SUBMIT` call until the report is back.
    pub wall: Duration,
    /// `campaign`: from `SUBMIT` until `ACCEPTED`.
    pub accept: Duration,
    pub counts: Counts,
}

fn verdict_of(report: &DetectionReport, stats: &RunStats) -> Verdict {
    Verdict {
        races: report.race_count(),
        semantic: report.semantic_count(),
        performance: report.performance_count(),
        exec_failures: report.execution_failure_count(),
        budget_exceeded: stats.budget_exceeded,
        correctness: report.has_correctness_bugs(),
    }
}

fn bugs(job: &Job) -> BugSet {
    job.bug.map_or_else(BugSet::none, BugSet::single)
}

/// The session a job runs in; `record` also keeps its traces.
pub fn session(job: &Job, record: bool) -> Result<Session, String> {
    job.spec
        .apply(xfd::xfstream::session())
        .map_err(|e| e.to_string())?
        .record_repro(record)
        .build()
        .map_err(|e| e.to_string())
}

/// Runs `job` in `session`, through a [`Timed`] wrapper when `tap` is set.
pub fn run_local(
    job: &Job,
    session: &Session,
    tap: Option<Tap>,
) -> Result<(Duration, RunOutcome), String> {
    let _running = watch(job);
    let mode = job.spec.mode().map_err(|e| e.to_string())?;
    let ops = job.ops();
    let t0;
    let result = if job.concurrent {
        let w = build_concurrent(job.kind, ops, bugs(job)).ok_or("not a concurrent workload")?;
        t0 = Instant::now();
        match tap {
            Some(tap) => session.run_concurrent(Timed::new(w, tap), mode),
            None => session.run_concurrent(w, mode),
        }
    } else {
        let w = build_with_init(job.kind, 0, ops, bugs(job));
        t0 = Instant::now();
        match tap {
            Some(tap) => session.run(Timed::new(w, tap), mode),
            None => session.run(w, mode),
        }
    };
    let wall = t0.elapsed();
    result.map(|o| (wall, o)).map_err(|e| e.to_string())
}

/// Checks `outcome` against the registry's answer for `job`.
pub fn done_local(job: &Job, wall: Duration, outcome: &RunOutcome) -> Result<Done, String> {
    let verdict = verdict_of(&outcome.report, &outcome.stats);
    if !job.expect.holds(&verdict) {
        return Err(format!(
            "{}: verdict {verdict:?} differs from the registry's answer {:?}",
            job.spec.to_json(),
            job.expect
        ));
    }
    Ok(Done {
        wall,
        accept: Duration::ZERO,
        counts: Counts::from(&outcome.stats),
    })
}

/// The program's own pre-failure stage on a detector-free context: the
/// workload layer's share of the pre-failure span, which on the batch
/// engine also holds the detector's failure-point hook.
pub fn standalone_pre(job: &Job) -> Result<Duration, String> {
    let w: Box<dyn Workload> = if job.concurrent {
        let c = build_concurrent(job.kind, job.ops(), bugs(job)).ok_or("not concurrent")?;
        let threads = job.spec.threads.unwrap_or(1);
        Box::new(Scheduled::new(c, SchedulePlan::round_robin(threads)))
    } else {
        build_with_init(job.kind, 0, job.ops(), bugs(job))
    };
    let pool = PmPool::new(w.pool_size()).map_err(|e| e.to_string())?;
    let mut ctx = PmCtx::new(pool);
    w.setup(&mut ctx).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    w.pre_failure(&mut ctx).map_err(|e| e.to_string())?;
    Ok(t0.elapsed())
}

#[derive(Deserialize)]
struct FindingDoc {
    kind: String,
}

#[derive(Deserialize)]
struct ReportDoc {
    findings: Vec<FindingDoc>,
}

#[derive(Deserialize)]
struct MetricsDoc {
    has_correctness_bugs: bool,
    stats: Counts,
}

/// An in-process campaign server with one exec worker and its own cache
/// directory, on a Unix socket.
pub struct Campaign {
    dir: PathBuf,
    endpoint: String,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Campaign {
    pub fn start(dir: &Path) -> Result<Campaign, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let sock = dir.join("xfserve.sock");
        let opts = ServerOptions {
            exec_workers: 1,
            cache_dir: Some(dir.join("cache")),
        };
        let server = Server::bind_unix(&sock.to_string_lossy(), opts)
            .map_err(|e| format!("bind {}: {e}", sock.display()))?;
        let endpoint = server.local_endpoint().to_owned();
        let handle = std::thread::spawn(move || server.run());
        Ok(Campaign {
            dir: dir.to_owned(),
            endpoint,
            handle: Some(handle),
        })
    }

    fn connect(&self) -> Result<Client, String> {
        AnyStream::connect_unix(&self.endpoint)
            .map(Client::new)
            .map_err(|e| format!("connect {}: {e}", self.endpoint))
    }

    /// Submits `job`, waits for its report and checks the verdict.
    pub fn run(&self, job: &Job) -> Result<Done, String> {
        let _running = watch(job);
        let t0 = Instant::now();
        let mut client = self.connect()?;
        client.submit(&job.spec, None).map_err(|e| e.to_string())?;
        let accept = t0.elapsed();
        let (mut report, mut metrics, mut error, mut wall) = (None, None, None, None);
        client
            .stream_job(&mut |ev| match ev {
                JobEvent::Report { json } => {
                    wall = Some(t0.elapsed());
                    report = Some(json.clone());
                }
                JobEvent::Metrics { json } => metrics = Some(json.clone()),
                JobEvent::Error { message } => error = Some(message.clone()),
                _ => {}
            })
            .map_err(|e| e.to_string())?;
        if let Some(message) = error {
            return Err(format!("{}: job failed: {message}", job.spec.to_json()));
        }
        let (Some(report), Some(metrics), Some(wall)) = (report, metrics, wall) else {
            return Err(format!(
                "{}: no REPORT or METRICS frame",
                job.spec.to_json()
            ));
        };
        let report: ReportDoc = serde_json::from_str(&report).map_err(|e| e.to_string())?;
        let metrics: MetricsDoc = serde_json::from_str(&metrics).map_err(|e| e.to_string())?;
        let count = |kinds: &[&str]| {
            report
                .findings
                .iter()
                .filter(|f| kinds.contains(&f.kind.as_str()))
                .count()
        };
        let verdict = Verdict {
            races: count(&["CrossFailureRace", "UninitializedRace", "CrossThreadRace"]),
            semantic: count(&["CrossFailureSemantic", "CrossThreadSemantic"]),
            performance: count(&["RedundantFlush", "DuplicateTxAdd"]),
            exec_failures: count(&["PostFailureError", "PostFailurePanic", "BudgetExceeded"]),
            budget_exceeded: metrics.stats.budget_exceeded,
            correctness: metrics.has_correctness_bugs,
        };
        if !job.expect.holds(&verdict) {
            return Err(format!(
                "{}: verdict {verdict:?} differs from the registry's answer {:?}",
                job.spec.to_json(),
                job.expect
            ));
        }
        let c = &metrics.stats;
        if job.warm && c.cache_hits != c.failure_points {
            return Err(format!(
                "{}: warm job served {} of {} failure points from the cache",
                job.spec.to_json(),
                c.cache_hits,
                c.failure_points
            ));
        }
        Ok(Done {
            wall,
            accept,
            counts: metrics.stats,
        })
    }

    /// Drains and stops the server, joins its thread and removes its files.
    pub fn stop(mut self) -> Result<(), String> {
        let result = self.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
        result
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        // Without a SHUTDOWN frame the accept loop cannot be woken, and the
        // server thread is left detached.
        self.connect()?.shutdown().map_err(|e| e.to_string())?;
        handle
            .join()
            .map_err(|_| "campaign server panicked".to_owned())?
            .map_err(|e| e.to_string())
    }
}

impl Drop for Campaign {
    fn drop(&mut self) {
        let _ = self.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
