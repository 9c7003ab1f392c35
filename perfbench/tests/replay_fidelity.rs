//! The traced replay must equal `AprEngine::step` bit for bit — both
//! lattices and every vertex — on every step that draws no RNG, window
//! moves included, at 1 and 2 exec threads.

use apr_core::{AprEngine, SimSession};
use apr_exec::{with_pool, ExecPool};
use apr_perfbench::replay::{LayerClock, Replay};
use apr_perfbench::stepping::replay_rng;
use apr_perfbench::workload::{cells_dense_spec, ctc_transit_spec};
use apr_scenarios::ScenarioSpec;
use std::sync::Arc;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_identical(a: &AprEngine, b: &AprEngine, step: u64) {
    for (name, la, lb) in [("coarse", &a.coarse, &b.coarse), ("fine", &a.fine, &b.fine)] {
        let differing = (0..la.node_count())
            .filter(|&n| bits(la.distributions(n)) != bits(lb.distributions(n)))
            .count();
        assert_eq!(
            differing, 0,
            "{name} lattice: {differing} nodes differ after step {step}"
        );
        assert_eq!(
            bits(&la.force),
            bits(&lb.force),
            "{name} force field differs after step {step}"
        );
    }
    assert_eq!(
        a.map.origin, b.map.origin,
        "window origin differs after step {step}"
    );
    assert_eq!(
        a.pool.live_count(),
        b.pool.live_count(),
        "cell count differs after step {step}"
    );
    for (ca, cb) in a.pool.iter().zip(b.pool.iter()) {
        assert_eq!(ca.id, cb.id);
        let va: Vec<[u64; 3]> = ca
            .vertices
            .iter()
            .map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
            .collect();
        let vb: Vec<[u64; 3]> = cb
            .vertices
            .iter()
            .map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
            .collect();
        assert_eq!(va, vb, "cell {} vertices differ after step {step}", ca.id);
    }
}

/// Step one engine with `AprEngine::step` and a twin through the replay,
/// from the same warm state, for `steps` steps. A step that runs
/// maintenance with a hematocrit controller draws from the engine's
/// private RNG, so there the twin is re-synchronised from the engine
/// instead of compared. Returns the window moves the replay made.
fn replay_matches(spec: &ScenarioSpec, threads: usize, steps: u64) -> u64 {
    with_pool(Arc::new(ExecPool::new(threads)), || {
        let warm = spec.build_cold().expect("spec builds").suspend();
        let mut a = spec.build_apr().expect("spec builds a shell");
        a.resume(&warm).expect("warm state restores");
        let mut b = spec.build_apr().expect("spec builds a shell");
        b.resume(&warm).expect("warm state restores");
        let mut rng = replay_rng(1);
        let mut clock = LayerClock::default();
        let mut replay = Replay::new(&b);
        let (mut moves, mut compared) = (0, 0);
        for _ in 0..steps {
            let next = a.steps() + 1;
            let moves_before = a.window_moves();
            a.step();
            if next.is_multiple_of(a.maintenance_interval) && a.controller.is_some() {
                b.resume(&a.suspend()).expect("state restores");
                replay = Replay::new(&b);
                continue;
            }
            let out = replay.step(&mut b, &mut rng, &mut clock);
            assert_eq!(
                out.moved,
                a.window_moves() > moves_before,
                "move decision differs at step {next}"
            );
            moves += out.moved as u64;
            assert_identical(&a, &b, next);
            compared += 1;
        }
        assert!(compared > 0);
        moves
    })
}

#[test]
fn replay_is_bit_identical_on_cells_dense_at_1_and_2_threads() {
    let spec = cells_dense_spec(1);
    for threads in [1, 2] {
        replay_matches(&spec, threads, 16);
    }
}

#[test]
fn replay_is_bit_identical_through_window_moves_on_ctc_transit_at_1_and_2_threads() {
    let spec = ctc_transit_spec(1);
    for threads in [1, 2] {
        let moves = replay_matches(&spec, threads, 60);
        assert!(
            moves >= 1,
            "the replayed stretch must include a window move"
        );
    }
}
