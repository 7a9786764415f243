//! Seeded job lists and the registry's known answer for each job.
//!
//! A workload is a fixed list of [`JobSpec`]s (one *pass*) plus a warm-up
//! list run during set-up. The seed only reorders jobs and assigns engines
//! or campaign programs; the work a seed selects is identical on every
//! run, and [`digest`] names it.

use xfd::pmem::PersistDomain;
use xfd::workloads::bugs::{BugId, BugSuite, WorkloadKind};
use xfd::workloads::{all_workloads, validation_ops};
use xfd::xfdetector::{BugCategory, JobSpec};
use xfd::xfserve::proto::fnv1a;

/// The seed used when none is given (`README.md` names the held-out
/// seed kept for confirming claims).
pub const DEFAULT_SEED: u64 = 1;

const ENGINES: [&str; 3] = ["batch", "parallel", "stream"];
const DOMAINS: [&str; 3] = ["adr", "eadr", "cxl:4"];
/// Worker threads for the parallel engine. One worker beside the producer
/// thread keeps a parallel job at two busy threads, the benchmark host's
/// CPU count. At two or more workers the engine's work queue can hand a
/// claimed slot to the producer before it is emptied, and the run then
/// hangs (see `README.md`); the benchmark does not run it there.
const WORKERS: u64 = 1;
/// Op counts of `pruned-scale`: from 100 up to where fingerprinting
/// dominates a pruned run. Hashmap-Atomic's fingerprinting dominates
/// already at 100 ops, and at 200 its jobs would form a cluster of their
/// own beyond the p90.
fn scale_ops(kind: WorkloadKind) -> &'static [u64] {
    match kind {
        WorkloadKind::HashmapAtomic => &[100],
        _ => &[100, 150, 200],
    }
}
/// Trace-entry budget for bugs that hang recovery (as `validation_config`).
const HANG_BUDGET_ENTRIES: u64 = 20_000;
/// Timed `campaign` jobs per pass: 4 never-seen programs per workload
/// (28) and 11 warm resubmissions per workload (77).
const CAMPAIGN_PASS: usize = 105;
/// `campaign` programs run at op counts around this one: warm programs at
/// `MID` or `MID + 1`, fresh ones up to `CAMPAIGN_SPREAD` below or above.
const CAMPAIGN_MID: u64 = 25;
const CAMPAIGN_SPREAD: u64 = 8;

/// SplitMix64: the same seed gives the same stream on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// What the bug registry predicts for a job.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// A bug-free program: no correctness finding.
    Clean,
    /// An injected bug: detected in its category exactly when
    /// [`BugId::expected_under`] says so for the job's domain.
    Bug(BugId, PersistDomain),
}

/// The per-job verdict the known-answer gate compares.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    pub races: usize,
    pub semantic: usize,
    pub performance: usize,
    pub exec_failures: usize,
    pub budget_exceeded: u64,
    pub correctness: bool,
}

impl Expect {
    /// Whether `v` is the registry's answer. Same criterion as the domain
    /// matrix: under a CXL reorder window the semantic bugs the registry
    /// names surface as races.
    pub fn holds(&self, v: &Verdict) -> bool {
        match *self {
            Expect::Clean => !v.correctness,
            Expect::Bug(bug, domain) => {
                let detected = if matches!(domain, PersistDomain::CxlGpf { .. })
                    && bug.cxl_masks_semantic_as_race()
                {
                    v.races >= 1
                } else {
                    match bug.expected_category() {
                        BugCategory::Race => v.races >= 1,
                        BugCategory::Semantic => v.semantic >= 1,
                        BugCategory::Performance => v.performance >= 1,
                        BugCategory::ExecutionFailure => {
                            v.budget_exceeded >= 1 && v.exec_failures >= 1
                        }
                        BugCategory::Annotation => false,
                    }
                };
                detected == bug.expected_under(domain)
            }
        }
    }
}

/// One detection job.
#[derive(Debug, Clone)]
pub struct Job {
    pub spec: JobSpec,
    pub kind: WorkloadKind,
    pub bug: Option<BugId>,
    /// Run through `run_concurrent` at the spec's thread count.
    pub concurrent: bool,
    pub expect: Expect,
    /// `campaign`: a resubmission of a spec the set-up already ran.
    pub warm: bool,
}

impl Job {
    fn new(kind: WorkloadKind, ops: u64, bug: Option<BugId>, engine: &str, domain: &str) -> Job {
        let concurrent = match bug {
            Some(b) => b.suite() == BugSuite::Concurrent,
            None => kind.is_concurrent(),
        };
        let spec = JobSpec {
            workload: Some(kind.slug().to_owned()),
            ops: Some(ops),
            bugs: bug.map(|b| format!("{b:?}")).into_iter().collect(),
            mode: Some(engine.to_owned()),
            workers: (engine == "parallel").then_some(WORKERS),
            threads: concurrent.then_some(2),
            domain: Some(domain.to_owned()),
            pruning: Some("off".to_owned()),
            budget_entries: bug
                .filter(|b| b.expected_category() == BugCategory::ExecutionFailure)
                .map(|_| HANG_BUDGET_ENTRIES),
            ..JobSpec::default()
        };
        let expect = match bug {
            Some(b) => Expect::Bug(b, domain.parse().expect("benchmark domains parse")),
            None => Expect::Clean,
        };
        Job {
            spec,
            kind,
            bug,
            concurrent,
            expect,
            warm: false,
        }
    }

    fn pruned(mut self) -> Job {
        self.spec.pruning = Some("equivalence".to_owned());
        self
    }

    pub fn ops(&self) -> u64 {
        self.spec.ops.expect("every job sets ops")
    }

    pub fn mode_name(&self) -> &str {
        self.spec.mode.as_deref().expect("every job sets a mode")
    }

    pub fn pruned_run(&self) -> bool {
        self.spec.pruning.as_deref() == Some("equivalence")
    }

    /// The program and configuration a job runs, without the engine: jobs
    /// with equal keys record identical traces.
    pub fn program_key(&self) -> String {
        format!(
            "{};domain={};threads={};pruning={}",
            self.spec.digest(),
            self.spec.domain.as_deref().unwrap_or("adr"),
            self.spec.threads.unwrap_or(1),
            self.spec.pruning.as_deref().unwrap_or("off"),
        )
    }
}

/// One workload's seeded work: warm-up jobs for set-up and the timed
/// passes.
pub struct Plan {
    pub warmup: Vec<Job>,
    pub passes: Vec<Vec<Job>>,
}

/// Nominal length of one pass on a 2-CPU host, in seconds: a run makes
/// `ceil(seconds / nominal)` passes, but never fewer than it takes to put
/// 10 samples beyond the p90.
fn nominal_pass_s(workload: &str) -> f64 {
    match workload {
        "registry" => 2.5,
        "pruned-scale" => 11.0,
        _ => 50.0,
    }
}

/// Passes a run makes. An untraced run makes enough to fill `seconds`
/// and put 10 samples beyond the p90. A traced run makes one untraced
/// pass, then enough traced passes to put 10 samples beyond each engine's
/// median.
fn pass_count(workload: &str, seconds: u64, jobs_per_pass: usize, traced: bool) -> usize {
    let by_samples = 100usize.div_ceil(jobs_per_pass.max(1));
    if traced {
        return 1 + by_samples;
    }
    let by_time = (seconds as f64 / nominal_pass_s(workload)).ceil() as usize;
    by_time.max(by_samples)
}

pub const WORKLOADS: [&str; 3] = ["registry", "pruned-scale", "campaign"];

pub fn plan(workload: &str, seed: u64, seconds: u64, traced: bool) -> Option<Plan> {
    let mut rng = Rng::new(seed);
    match workload {
        "registry" => {
            let mut pass = Vec::new();
            for &bug in BugId::all() {
                let kind = bug.workload();
                let mut engines = ENGINES;
                rng.shuffle(&mut engines);
                for (domain, engine) in DOMAINS.iter().zip(engines) {
                    pass.push(Job::new(
                        kind,
                        validation_ops(kind),
                        Some(bug),
                        engine,
                        domain,
                    ));
                }
            }
            let mut warmup = Vec::new();
            for kind in WorkloadKind::ALL {
                let engine = ENGINES[rng.below(ENGINES.len())];
                pass.push(Job::new(kind, validation_ops(kind), None, engine, "adr"));
                warmup.push(Job::new(kind, validation_ops(kind), None, "batch", "adr"));
            }
            rng.shuffle(&mut pass);
            let n = pass_count(workload, seconds, pass.len(), traced);
            Some(Plan {
                warmup,
                passes: vec![pass; n],
            })
        }
        "pruned-scale" => {
            let mut pass = Vec::new();
            for kind in all_workloads() {
                for &ops in scale_ops(kind) {
                    let first = rng.below(ENGINES.len());
                    for i in 0..ENGINES.len() {
                        let engine = ENGINES[(first + i) % ENGINES.len()];
                        pass.push(Job::new(kind, ops, None, engine, "adr").pruned());
                    }
                }
            }
            rng.shuffle(&mut pass);
            let warmup = all_workloads()
                .into_iter()
                .map(|kind| Job::new(kind, scale_ops(kind)[0], None, "batch", "adr").pruned())
                .collect();
            let n = pass_count(workload, seconds, pass.len(), traced);
            Some(Plan {
                warmup,
                passes: vec![pass; n],
            })
        }
        "campaign" => {
            let campaign_job = |kind, ops| Job::new(kind, ops, None, "parallel", "adr").pruned();
            let kinds = all_workloads();
            let warmup: Vec<Job> = kinds
                .iter()
                .map(|&k| campaign_job(k, CAMPAIGN_MID + rng.below(2) as u64))
                .collect();
            // Fresh programs come in pairs `MID - d`, `MID + 1 + d`: every
            // pass holds the same op total per workload, whatever the seed.
            let mut offsets: Vec<Vec<u64>> = kinds
                .iter()
                .map(|_| {
                    let mut d: Vec<u64> = (1..=CAMPAIGN_SPREAD).collect();
                    rng.shuffle(&mut d);
                    d
                })
                .collect();
            let n = pass_count(workload, seconds, CAMPAIGN_PASS, traced);
            if offsets[0].len() < 2 * n {
                return None;
            }
            let passes = (0..n)
                .map(|_| {
                    let mut pass = Vec::new();
                    for (&kind, d) in kinds.iter().zip(&mut offsets) {
                        for d in d.drain(..2) {
                            pass.push(campaign_job(kind, CAMPAIGN_MID - d));
                            pass.push(campaign_job(kind, CAMPAIGN_MID + 1 + d));
                        }
                    }
                    while pass.len() < CAMPAIGN_PASS {
                        let mut job = warmup[pass.len() % warmup.len()].clone();
                        job.warm = true;
                        pass.push(job);
                    }
                    rng.shuffle(&mut pass);
                    pass
                })
                .collect();
            Some(Plan { warmup, passes })
        }
        _ => None,
    }
}

/// FNV-1a over the canonical JSON of every job, warm-up first: two runs
/// with equal digests did the same work.
pub fn digest(plan: &Plan) -> u64 {
    let mut bytes = Vec::new();
    for job in plan.warmup.iter().chain(plan.passes.iter().flatten()) {
        bytes.extend_from_slice(job.spec.to_json().as_bytes());
        bytes.extend_from_slice(&[u8::from(job.warm), b'\n']);
    }
    fnv1a(&bytes)
}
