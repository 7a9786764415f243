//! Known-answer benchmark of the detector, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <registry|pruned-scale|campaign> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload's seeded job list closed-loop from a
//! single client, checks every verdict against the bug registry, and
//! prints its metrics as the last line of standard output (see
//! `README.md`). `--trace 1` makes one untraced pass beside one or more
//! traced passes and prints the per-layer split instead.

mod exec;
mod jobs;
mod stats;
mod trace;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xfd::xfdetector::Session;
use xfd::xfserve::proto::fnv1a;

use exec::{Campaign, Counts, Done};
use jobs::{Job, Plan};
use stats::{median, percentile};
use trace::{Recorder, Replay, Tap};

/// Set-ups before each timed pass; `setup_s` is the median of all of them.
const SETUPS_PER_PASS: usize = 3;
/// Scratch files (campaign sockets and caches, span dumps), relative to
/// the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: jobs::DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !jobs::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            jobs::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// A workload ready to time: its plan, plus built sessions (local) or a
/// running server with a filled cache (`campaign`).
struct Env {
    plan: Plan,
    sessions: Vec<Session>,
    campaign: Option<Campaign>,
}

impl Env {
    /// Everything before the first timed job: job-list generation,
    /// sessions, the server bind and cold cache fill, and a warm-up.
    fn setup(args: &Args, n: usize) -> Result<Env, String> {
        let plan = jobs::plan(&args.workload, args.seed, args.seconds, args.trace)
            .ok_or("the campaign program pool is too small for this many passes")?;
        if args.workload == "campaign" {
            let dir = PathBuf::from(OUT_DIR).join(format!("campaign-{}-{n}", std::process::id()));
            let campaign = Campaign::start(&dir)?;
            for job in &plan.warmup {
                campaign.run(job)?;
            }
            return Ok(Env {
                plan,
                sessions: Vec::new(),
                campaign: Some(campaign),
            });
        }
        let sessions = plan.passes[0]
            .iter()
            .map(|j| exec::session(j, false))
            .collect::<Result<_, _>>()?;
        for job in &plan.warmup {
            let (wall, outcome) = exec::run_local(job, &exec::session(job, false)?, None)?;
            exec::done_local(job, wall, &outcome)?;
        }
        Ok(Env {
            plan,
            sessions,
            campaign: None,
        })
    }

    /// Replaces `env` with a fresh set-up, stopping the previous server, and
    /// records the set-up's wall in `setups`.
    fn replace(env: &mut Option<Env>, args: &Args, setups: &mut Vec<f64>) -> Result<(), String> {
        if let Some(c) = env.take().and_then(|e| e.campaign) {
            c.stop()?;
        }
        let t0 = Instant::now();
        *env = Some(Env::setup(args, setups.len())?);
        setups.push(t0.elapsed().as_secs_f64());
        Ok(())
    }

    fn run(&self, job: &Job, idx: usize, tap: Option<Tap>) -> Result<Done, String> {
        match &self.campaign {
            Some(c) => c.run(job),
            None => {
                let (wall, outcome) = exec::run_local(job, &self.sessions[idx], tap)?;
                exec::done_local(job, wall, &outcome)
            }
        }
    }
}

/// The deterministic counts of a set of jobs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Work {
    jobs: u64,
    failure_points: u64,
    post_runs: u64,
    classes: u64,
    cache_hits: u64,
}

impl Work {
    fn add(&mut self, c: &Counts) {
        self.jobs += 1;
        self.failure_points += c.failure_points;
        self.post_runs += c.post_runs;
        self.classes += c.classes_total;
        self.cache_hits += c.cache_hits;
    }
}

/// Prints the run's work identity: runs are comparable only when their
/// ids are equal.
fn print_work(args: &Args, digest: u64, passes: usize, work: &Work) {
    let line = format!(
        "workload={} seed={} seconds={} trace={} digest={digest:016x} passes={passes} jobs={} \
         failure_points={} post_runs={} classes={} cache_hits={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        work.jobs,
        work.failure_points,
        work.post_runs,
        work.classes,
        work.cache_hits
    );
    println!("work {line} id={:016x}", fnv1a(line.as_bytes()));
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-pass results of the timed phase.
struct Pass {
    done: Vec<Done>,
    work: Work,
}

/// Runs one pass untraced; failures are logged and counted.
fn run_pass(env: &Env, pass: &[Job], failed: &mut u64) -> Pass {
    let mut out = Pass {
        done: Vec::new(),
        work: Work::default(),
    };
    for (i, job) in pass.iter().enumerate() {
        match env.run(job, i, None) {
            Ok(d) => {
                out.work.add(&d.counts);
                out.done.push(d);
            }
            Err(e) => {
                eprintln!("perfbench: FAILED {e}");
                *failed += 1;
            }
        }
    }
    out
}

fn main() -> ExitCode {
    match exec::with_watchdog(real_main) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;

    let mut setups = Vec::new();
    let mut env = None;
    Env::replace(&mut env, &args, &mut setups)?;
    let mut failed = 0u64;
    let (metrics, work) = if args.trace {
        traced(&args, env.as_ref().expect("set up"), &mut failed)?
    } else {
        untraced(&args, &mut env, &mut setups, &mut failed)?
    };
    let env = env.expect("set up");
    let digest = jobs::digest(&env.plan);
    let attempted: usize = env.plan.passes.iter().map(Vec::len).sum();

    if let Some(c) = env.campaign {
        c.stop()?;
    }
    print_work(&args, digest, env.plan.passes.len(), &work);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Untraced passes, each after [`SETUPS_PER_PASS`] fresh set-ups: spread
/// over the run, the set-ups meet the same host as the timed jobs do.
fn untraced(
    args: &Args,
    env: &mut Option<Env>,
    setups: &mut Vec<f64>,
    failed: &mut u64,
) -> Result<(Metrics, Work), String> {
    let n = env.as_ref().expect("set up").plan.passes.len();
    let mut passes: Vec<Pass> = Vec::new();
    let mut timed = 0.0;
    for i in 0..n {
        while setups.len() < SETUPS_PER_PASS * (i + 1) {
            Env::replace(env, args, setups)?;
        }
        let env = env.as_ref().expect("set up");
        let t0 = Instant::now();
        passes.push(run_pass(env, &env.plan.passes[i], failed));
        timed += t0.elapsed().as_secs_f64();
    }

    let local = args.workload != "campaign";
    let mut work = Work::default();
    let mut walls = Vec::new();
    for (i, p) in passes.iter().enumerate() {
        // Local passes repeat one job list: their counts must repeat too.
        if local && *failed == 0 && p.work != passes[0].work {
            return Err(format!(
                "pass {i} counted {:?}, pass 0 counted {:?}: the counts do not repeat",
                p.work, passes[0].work
            ));
        }
        for d in &p.done {
            work.add(&d.counts);
            walls.push(ms(d.wall));
        }
    }
    let metrics = vec![
        ("setup_s", median(setups), "s"),
        (
            "verdict_ms_p50",
            percentile("verdict_ms", &walls, 0.5)?,
            "ms",
        ),
        (
            "verdict_ms_p90",
            percentile("verdict_ms", &walls, 0.9)?,
            "ms",
        ),
        ("fps_per_s", work.failure_points as f64 / timed, "1/s"),
        ("peak_rss_mb", peak_rss_mb()?, "MiB"),
    ];
    Ok((metrics, work))
}

/// One job of a traced pass.
struct TracedJob<'a> {
    job: &'a Job,
    /// Span job id, unique across the traced passes.
    id: u32,
    done: Done,
    post_calls: u64,
    post_ns: u64,
    /// Session wall minus the union of workload leaf spans minus the
    /// standalone pre-failure stage.
    engine_self_ns: u64,
    pre_ns: u64,
    replay: Replay,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Pass 0 untraced, interleaved job by job with the first traced pass;
/// every further pass traced too. Tracing records spans around each
/// `Session::run` or `SUBMIT` and the workload's stages, a detector-free
/// run of the pre-failure stage, and, once per program, a recorded batch
/// run replayed offline through the shadow PM.
fn traced(args: &Args, env: &Env, failed: &mut u64) -> Result<(Metrics, Work), String> {
    let rec = Arc::new(Recorder::new());
    let mut replays: HashMap<String, Replay> = HashMap::new();
    let mut out: Vec<TracedJob> = Vec::new();
    let mut work = Work::default();
    let local = env.campaign.is_none();
    // Tracing overhead: the first traced pass against the untraced pass 0,
    // job by job and in alternating order, so that host drift cancels.
    let (mut plain_ms, mut paired_ms) = (0.0, 0.0);

    let jobs = env.plan.passes[1..]
        .iter()
        .enumerate()
        .flat_map(|(p, pass)| pass.iter().enumerate().map(move |(i, job)| (p, i, job)));
    for (n, (p, i, job)) in jobs.enumerate() {
        let id = u32::try_from(n + 1).expect("job lists are small");
        let paired = p == 0;
        let mut plain = |failed: &mut u64| match env.run(&env.plan.passes[0][i], i, None) {
            Ok(d) => {
                work.add(&d.counts);
                plain_ms += ms(d.wall);
            }
            Err(e) => {
                eprintln!("perfbench: FAILED {e}");
                *failed += 1;
            }
        };
        if paired && i % 2 == 0 {
            plain(failed);
        }
        let post_calls = Arc::new(AtomicU64::new(0));
        let done = {
            let g = rec.open("session.run", 0, id);
            let tap = Tap {
                rec: Arc::clone(&rec),
                parent: g.id(),
                job: id,
                post_calls: Arc::clone(&post_calls),
            };
            env.run(job, i, local.then_some(tap))
        };
        if paired && i % 2 == 1 {
            plain(failed);
        }
        let done = match done {
            Ok(d) => d,
            Err(e) => {
                eprintln!("perfbench: FAILED {e}");
                *failed += 1;
                continue;
            }
        };
        work.add(&done.counts);
        if paired {
            paired_ms += ms(done.wall);
        }

        let pre = {
            let _g = rec.open("workloads.pre_standalone", 0, id);
            exec::standalone_pre(job)?
        };
        let key = job.program_key();
        if !replays.contains_key(&key) {
            let mut batch = job.clone();
            batch.spec.mode = Some("batch".to_owned());
            batch.spec.workers = None;
            let recorded = {
                let _g = rec.open("record", 0, id);
                let (_, o) = exec::run_local(&batch, &exec::session(&batch, true)?, None)?;
                o.recorded.ok_or("a recording session kept no trace")?
            };
            let _g = rec.open("shadow.replay", 0, id);
            replays.insert(key.clone(), trace::replay(&recorded, job.pruned_run()));
        }
        let replay = replays[&key];

        // Cross-checks: the outside measurement against the program's own
        // counters.
        let calls = post_calls.load(Ordering::Relaxed);
        let mut mismatch = Vec::new();
        if local && calls != done.counts.post_runs {
            mismatch.push(format!(
                "traced post-failure calls {calls} != RunStats::post_runs {}",
                done.counts.post_runs
            ));
        }
        // A warm job's failure points are all served by the cache, which
        // bypasses the pruning layer and its class count.
        if job.pruned_run() && !job.warm && replay.classes != done.counts.classes_total {
            mismatch.push(format!(
                "offline fingerprint classes {} != RunStats::classes_total {}",
                replay.classes, done.counts.classes_total
            ));
        }
        if !mismatch.is_empty() {
            eprintln!(
                "perfbench: FAILED {}: {}",
                job.spec.to_json(),
                mismatch.join("; ")
            );
            *failed += 1;
        }
        out.push(TracedJob {
            job,
            id,
            done,
            post_calls: calls,
            post_ns: 0,
            engine_self_ns: 0,
            pre_ns: nanos(pre),
            replay,
        });
    }

    // Self times from the spans: per job, the session span minus the union
    // of its workload leaf spans (setup and post-failure stages).
    let mut run_ns: HashMap<u32, u64> = HashMap::new();
    let mut leaves: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    let mut post_ns: HashMap<u32, u64> = HashMap::new();
    for s in rec.spans() {
        match s.name {
            "session.run" => {
                run_ns.insert(s.job, s.end - s.start);
            }
            trace::SETUP => leaves.entry(s.job).or_default().push((s.start, s.end)),
            trace::POST => {
                leaves.entry(s.job).or_default().push((s.start, s.end));
                *post_ns.entry(s.job).or_default() += s.end - s.start;
            }
            _ => {}
        }
    }
    for t in &mut out {
        t.post_ns = post_ns.get(&t.id).copied().unwrap_or(0);
        t.engine_self_ns = if local {
            let cover = trace::covered(leaves.entry(t.id).or_default());
            run_ns[&t.id].saturating_sub(cover).saturating_sub(t.pre_ns)
        } else {
            // Server-side jobs: the workload layer's share comes from the
            // job's METRICS event.
            let c = &t.done.counts;
            nanos(c.total_time.saturating_sub(c.post_exec_time))
        };
    }

    let path = PathBuf::from(OUT_DIR).join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    rec.write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let passes = env.plan.passes.len() - 1;
    let overhead = if plain_ms > 0.0 {
        paired_ms / plain_ms - 1.0
    } else {
        0.0
    };
    let metrics = layer_metrics(local, overhead, passes, &out)?;
    Ok((metrics, work))
}

/// The per-layer metrics of the traced passes. Counts and byte totals
/// are per pass; means and ratios are over every traced job.
fn layer_metrics(
    local: bool,
    overhead: f64,
    passes: usize,
    out: &[TracedJob],
) -> Result<Metrics, String> {
    let sum = |f: &dyn Fn(&TracedJob) -> u64| out.iter().map(f).sum::<u64>();
    let per_pass = |f: &dyn Fn(&TracedJob) -> u64| sum(f) as f64 / passes as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let (post_calls, post_ns) = if local {
        (sum(&|t| t.post_calls), sum(&|t| t.post_ns))
    } else {
        (
            sum(&|t| t.done.counts.post_runs),
            sum(&|t| nanos(t.done.counts.post_exec_time)),
        )
    };

    // Fingerprint cost per failure point at the smallest and the largest
    // op count among pruned jobs.
    let pruned: Vec<&TracedJob> = out.iter().filter(|t| t.job.pruned_run()).collect();
    let fp_us_at = |ops: Option<u64>| {
        let at = pruned.iter().filter(|t| Some(t.job.ops()) == ops);
        let (ns, fps) = at.fold((0, 0), |(ns, n), t| {
            (ns + t.replay.fingerprint_ns, n + t.replay.fingerprints)
        });
        ratio(ns, fps) / 1e3
    };
    let small = pruned.iter().map(|t| t.job.ops()).min();
    let large = pruned.iter().map(|t| t.job.ops()).max();
    let fp_share = ratio(
        pruned.iter().map(|t| t.replay.fingerprint_ns).sum(),
        pruned.iter().map(|t| nanos(t.done.wall)).sum(),
    );

    let engine_p50 = |mode: &str| -> Result<f64, String> {
        let v: Vec<f64> = out
            .iter()
            .filter(|t| t.job.mode_name() == mode)
            .map(|t| t.engine_self_ns as f64 / 1e6)
            .collect();
        if v.is_empty() {
            return Ok(0.0);
        }
        percentile(&format!("engine.{mode}.self_ms"), &v, 0.5)
    };
    let remote_p50 = |name: &str, f: &dyn Fn(&TracedJob) -> f64| -> Result<f64, String> {
        if local {
            return Ok(0.0);
        }
        percentile(name, &out.iter().map(f).collect::<Vec<_>>(), 0.5)
    };
    let warm: Vec<&TracedJob> = out.iter().filter(|t| t.job.warm).collect();

    Ok(vec![
        (
            "workloads.post_exec_us_mean",
            ratio(post_ns, post_calls) / 1e3,
            "us",
        ),
        (
            "workloads.post_exec_calls",
            post_calls as f64 / passes as f64,
            "count",
        ),
        (
            "workloads.pre_exec_self_ms",
            sum(&|t| t.pre_ns) as f64 / 1e6 / out.len().max(1) as f64,
            "ms",
        ),
        ("shadow.fingerprint_us_per_fp.small", fp_us_at(small), "us"),
        ("shadow.fingerprint_us_per_fp.large", fp_us_at(large), "us"),
        ("shadow.fingerprint_share", fp_share, "fraction"),
        (
            "shadow.apply_pre_ns_per_entry",
            ratio(sum(&|t| t.replay.pre_ns), sum(&|t| t.replay.pre_entries)),
            "ns",
        ),
        (
            "shadow.check_ns_per_post_entry",
            ratio(sum(&|t| t.replay.check_ns), sum(&|t| t.replay.post_entries)),
            "ns",
        ),
        (
            "prune.exec_per_fp",
            ratio(
                sum(&|t| t.done.counts.post_runs),
                sum(&|t| t.done.counts.failure_points),
            ),
            "ratio",
        ),
        (
            "prune.classes_total",
            per_pass(&|t| t.done.counts.classes_total),
            "count",
        ),
        ("engine.batch.self_ms_p50", engine_p50("batch")?, "ms"),
        ("engine.parallel.self_ms_p50", engine_p50("parallel")?, "ms"),
        ("engine.stream.self_ms_p50", engine_p50("stream")?, "ms"),
        (
            "pipeline.stall_ms",
            per_pass(&|t| nanos(t.done.counts.stream_stall_time)) / 1e6,
            "ms",
        ),
        (
            "spsc.parks",
            per_pass(&|t| t.done.counts.ring_parks),
            "count",
        ),
        (
            "cache.hit_ratio",
            ratio(
                warm.iter().map(|t| t.done.counts.cache_hits).sum(),
                warm.iter().map(|t| t.done.counts.failure_points).sum(),
            ),
            "fraction",
        ),
        (
            "cache.misses",
            per_pass(&|t| t.done.counts.cache_misses),
            "count",
        ),
        (
            "cache.bytes_loaded",
            per_pass(&|t| t.done.counts.cache_bytes),
            "bytes",
        ),
        (
            "xfserve.wait_ms_p50",
            remote_p50("xfserve.wait_ms", &|t| {
                ms(t.done.wall) - ms(t.done.counts.total_time)
            })?,
            "ms",
        ),
        (
            "xfserve.accept_ms_p50",
            remote_p50("xfserve.accept_ms", &|t| ms(t.done.accept))?,
            "ms",
        ),
        (
            "pmem.snapshot_bytes_copied",
            per_pass(&|t| t.done.counts.snapshot_bytes_copied),
            "bytes",
        ),
        (
            "shadow.bytes_cloned",
            per_pass(&|t| t.done.counts.shadow_bytes_cloned),
            "bytes",
        ),
        ("trace.overhead_share", overhead, "fraction"),
    ])
}
