//! Acceptance test for the copy-on-write shadow checkpoints: on the
//! `btree` and `hashmap_tx` workloads from Figure 12,
//! `ShadowPm::begin_post` must no longer deep-copy per-byte state.
//!
//! - Sequentially, every checkpoint is dropped before the pre-failure
//!   replay resumes, so the copy-on-write traffic is exactly zero.
//! - In parallel mode, checkpoints ride along with in-flight jobs, so the
//!   replay pays per-line faults — but the total must stay well below what
//!   per-failure-point deep copies of the resident shadow would cost
//!   (sub-linear in the failure-point count), and the reports must match
//!   the sequential engine byte for byte.

use xfd::workloads::btree::Btree;
use xfd::workloads::bugs::WorkloadKind;
use xfd::workloads::hashmap_tx::HashmapTx;
use xfd::workloads::validation_ops;
use xfd::xfdetector::{RunOutcome, Workload, XfDetector};

fn check_traffic(kind: WorkloadKind, seq: &RunOutcome, par: &RunOutcome) {
    let seq_report = serde_json::to_string(&seq.report).unwrap();
    let par_report = serde_json::to_string(&par.report).unwrap();
    assert_eq!(
        seq_report, par_report,
        "{kind:?}: parallel checking must not change the report"
    );

    assert_eq!(
        seq.stats.shadow_bytes_cloned, 0,
        "{kind:?}: sequential checkpoints are dropped before the next \
         mutation, so no copy-on-write fault may fire"
    );

    // The floor: a deep-copying `begin_post` would clone the whole
    // resident shadow at every failure point. The COW checkpoint must pay
    // at most a quarter of that even with every job's checkpoint alive in
    // flight.
    let deep_copy_cost = par.stats.failure_points * par.stats.shadow_resident_bytes;
    assert!(
        par.stats.shadow_bytes_cloned * 4 <= deep_copy_cost,
        "{kind:?}: shadow COW traffic not sub-linear: cloned={} vs \
         fp({}) x resident({}) = {deep_copy_cost}",
        par.stats.shadow_bytes_cloned,
        par.stats.failure_points,
        par.stats.shadow_resident_bytes,
    );
    assert_eq!(
        par.stats.post_runs, seq.stats.post_runs,
        "{kind:?}: both engines execute the same representatives"
    );
}

fn run_pair<W: Workload + Clone + Send + Sync + 'static>(w: W) -> (RunOutcome, RunOutcome) {
    let seq = XfDetector::with_defaults().run(w.clone()).unwrap();
    let par = XfDetector::with_defaults().run_parallel(w, 4).unwrap();
    (seq, par)
}

#[test]
fn shadow_checkpoints_are_copy_on_write_on_btree() {
    let (seq, par) = run_pair(Btree::new(validation_ops(WorkloadKind::Btree)));
    check_traffic(WorkloadKind::Btree, &seq, &par);
}

#[test]
fn shadow_checkpoints_are_copy_on_write_on_hashmap_tx() {
    let (seq, par) = run_pair(HashmapTx::new(validation_ops(WorkloadKind::HashmapTx)));
    check_traffic(WorkloadKind::HashmapTx, &seq, &par);
}
