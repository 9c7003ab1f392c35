//! Work counts repeat exactly for one seed, and the seed reaches the
//! program: a different seed changes the `cells_dense` cell count.

use apr_perfbench::stepping::run_traced;
use apr_perfbench::workload::{serve_mix, Workload};

#[test]
fn stepping_counts_repeat_for_one_seed() {
    for workload in [Workload::CellsDense, Workload::CtcTransit] {
        let (ra, a) = run_traced(workload, 1, 0.0);
        let (rb, b) = run_traced(workload, 1, 0.0);
        assert_eq!(
            ra.failed + rb.failed,
            0,
            "{}: {:?} {:?}",
            workload.name(),
            ra.failures,
            rb.failures
        );
        assert_eq!(a.counts, b.counts, "{}", workload.name());
    }
}

#[test]
fn another_seed_changes_the_cells_dense_cell_count() {
    let (_, a) = run_traced(Workload::CellsDense, 1, 0.0);
    let (_, b) = run_traced(Workload::CellsDense, 2, 0.0);
    assert_ne!(a.counts.cells, b.counts.cells);
}

#[test]
fn serve_mix_repeats_for_one_seed_and_follows_the_seed() {
    let a = serve_mix(1);
    assert_eq!(a, serve_mix(1));
    assert_ne!(a, serve_mix(2));
    assert_eq!(a.len(), 105);
}
