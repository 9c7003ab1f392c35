//! `cells_dense` and `ctc_transit`: `AprEngine`s stepped in episodes.
//!
//! A run derives [`PACKINGS`] specs from its seed (for `cells_dense` each
//! packs its window differently, so the cell count varies between them)
//! and sets each up with `ScenarioSpec::build_cold` — spec build, window
//! packing and warm-up — timing every set-up. The warm states are
//! suspended once. A **round** then runs one episode per packing: the
//! episode resumes that packing's warm state and takes [`episode_steps`]
//! steps, so a run of any length measures the same trajectories. Each
//! episode is preceded by [`TTFS_PROBES`] session starts (resume the warm
//! state, take one step). Metrics are computed per round, over all its
//! packings, and reported as the median over rounds.

use crate::replay::{probe_move, LayerClock, Replay};
use crate::report::{median, percentile, RunResult, RECORDER_ON};
use crate::trace::Traced;
use crate::workload::{episode_steps, mix, stepping_spec, Workload, SLICE_STEPS};
use apr_core::{AprEngine, SimSession};
use apr_scenarios::ScenarioSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Specs (and set-ups) per run.
const PACKINGS: usize = 5;

/// Session starts timed before each episode.
const TTFS_PROBES: usize = 12;

/// One packing: its spec, an engine built by the spec's recipe, and the
/// warm state every episode resumes.
struct Packing {
    /// The generated spec.
    spec: ScenarioSpec,
    /// Engine built by `spec`'s recipe, holding the current episode.
    engine: AprEngine,
    /// The warm state (after `build_cold`).
    warm: Vec<u8>,
}

/// The run's packings and the wall time of each set-up, seconds.
fn prepare(workload: Workload, seed: u64) -> (Vec<Packing>, Vec<f64>) {
    let mut packings = Vec::with_capacity(PACKINGS);
    let mut setup_s = Vec::with_capacity(PACKINGS);
    for k in 0..PACKINGS as u64 {
        let spec = stepping_spec(workload, mix(seed).wrapping_add(k));
        let t = Instant::now();
        let session = spec.build_cold().expect("workload spec builds");
        setup_s.push(t.elapsed().as_secs_f64());
        let warm = session.suspend();
        drop(session);
        let mut engine = spec.build_apr().expect("workload spec builds a shell");
        engine
            .resume(&warm)
            .expect("warm state restores into its own recipe");
        packings.push(Packing { spec, engine, warm });
    }
    (packings, setup_s)
}

/// Correctness checks on an engine after an episode in which the window
/// moved `moves` times. Returns the reasons for every failed check.
fn episode_checks(
    workload: Workload,
    spec: &ScenarioSpec,
    eng: &AprEngine,
    moves: u64,
) -> Vec<String> {
    let mut bad = Vec::new();
    for (name, lat) in [("coarse", &eng.coarse), ("fine", &eng.fine)] {
        if lat.storage_f().iter().any(|f| !f.is_finite()) {
            bad.push(format!("non-finite {name} distribution"));
        }
    }
    if eng.pool.iter().any(|c| !c.is_finite()) {
        bad.push("non-finite vertex".into());
    }
    if let Some(b) = eng.ledger.as_ref().and_then(|l| l.breaches().first()) {
        bad.push(format!(
            "ledger drift breach: {} {:.3e} > {:.3e} at step {}",
            b.quantity, b.observed, b.tolerance, b.step
        ));
    }
    match workload {
        Workload::CellsDense => {
            let ht = eng.window_hematocrit().unwrap_or(0.0);
            if !(ht > 0.0 && ht <= spec.hematocrit) {
                bad.push(format!(
                    "window hematocrit {ht} outside (0, {}]",
                    spec.hematocrit
                ));
            }
        }
        Workload::CtcTransit => {
            if moves == 0 {
                bad.push("window never moved".into());
            }
        }
        Workload::ServeSweep => {}
    }
    bad
}

/// The CTC (if any) sits inside the window.
fn ctc_inside(eng: &AprEngine) -> bool {
    eng.ctc_position().is_none_or(|c| eng.anatomy.contains(c))
}

/// Run the checks and record failures covering `ops` operations.
fn check_episode(
    result: &mut RunResult,
    workload: Workload,
    p: &Packing,
    moves: u64,
    outside: bool,
    ops: u64,
) {
    let mut bad = episode_checks(workload, &p.spec, &p.engine, moves);
    if outside {
        bad.push("CTC left the window".into());
    }
    if !bad.is_empty() {
        result.fail(ops, format!("{}: {}", p.spec.name, bad.join("; ")));
    }
}

/// What one round measured, pooled over its packings.
#[derive(Debug, Default)]
struct Round {
    step_ms: Vec<f64>,
    ttfs_ms: Vec<f64>,
    sites: u64,
    episodes: u64,
    episode_s: f64,
}

/// The end-to-end run: rounds until `seconds` pass.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> RunResult {
    let (mut packings, setup_s) = prepare(workload, seed);
    let k = episode_steps(workload);
    let mut result = RunResult::default();
    let mut recorder_on = false;
    let mut rounds: Vec<Round> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while rounds.is_empty() || Instant::now() < deadline {
        let mut round = Round::default();
        for p in &mut packings {
            recorder_on |= apr_telemetry::is_enabled();
            let eng = &mut p.engine;
            for _ in 0..TTFS_PROBES {
                let t0 = Instant::now();
                eng.resume(&p.warm).expect("warm state restores");
                eng.step();
                round.ttfs_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                result.attempted += 1;
                if eng.fine.storage_f().iter().any(|f| !f.is_finite()) {
                    result.fail(
                        1,
                        "non-finite fine distribution after a session start".into(),
                    );
                }
            }
            let t0 = Instant::now();
            eng.resume(&p.warm).expect("warm state restores");
            round.episode_s += t0.elapsed().as_secs_f64();
            let (moves0, sites0) = (eng.window_moves(), eng.site_updates());
            let mut outside = false;
            for s in 0..k {
                let t = Instant::now();
                eng.step();
                let dt = t.elapsed();
                if s == 0 {
                    round.ttfs_ms.push((t - t0 + dt).as_secs_f64() * 1e3);
                }
                round.episode_s += dt.as_secs_f64();
                round.step_ms.push(dt.as_secs_f64() * 1e3);
                outside |= !ctc_inside(eng);
            }
            recorder_on |= apr_telemetry::is_enabled();
            round.sites += eng.site_updates() - sites0;
            round.episodes += 1;
            result.attempted += k;
            let moves = eng.window_moves() - moves0;
            check_episode(&mut result, workload, p, moves, outside, k);
        }
        rounds.push(round);
    }
    if recorder_on {
        result.fail(result.attempted, RECORDER_ON.into());
    }
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let stepping_s = |r: &Round| r.step_ms.iter().sum::<f64>() / 1e3;
    result.push("step_ms_p50", med(&|r| median(&r.step_ms)), "ms");
    result.push("step_ms_p90", med(&|r| percentile(&r.step_ms, 0.9)), "ms");
    result.push(
        "mlups",
        med(&|r| r.sites as f64 / stepping_s(r) / 1e6),
        "MLUPS",
    );
    result.push(
        "sessions_per_s",
        med(&|r| r.episodes as f64 / r.episode_s),
        "1/s",
    );
    result.push("ttfs_ms_p50", med(&|r| median(&r.ttfs_ms)), "ms");
    result.push("ttfs_ms_p90", med(&|r| percentile(&r.ttfs_ms, 0.9)), "ms");
    result.push("setup_s", median(&setup_s), "s");
    result.push("peak_rss_mb", crate::report::peak_rss_mb(), "MiB");
    result
}

/// Work counts that repeat exactly for one seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Coarse fluid sites.
    pub coarse_sites: u64,
    /// Fine fluid sites.
    pub fine_sites: u64,
    /// Fine shell nodes imposed from the coarse solution.
    pub shell_nodes: u64,
    /// Live cells.
    pub cells: u64,
    /// Membrane vertices.
    pub vertices: u64,
    /// Window moves made by replayed steps.
    pub window_moves: u64,
    /// Cells inserted by replayed maintenance.
    pub insertions: u64,
}

impl WorkCounts {
    /// Add the structural counts of an engine's current state.
    pub fn add_state(&mut self, eng: &AprEngine) {
        self.coarse_sites += eng.coarse.fluid_node_count() as u64;
        self.fine_sites += eng.fine.fluid_node_count() as u64;
        self.shell_nodes += eng.map.shell.len() as u64;
        self.cells += eng.pool.live_count() as u64;
        self.vertices += eng
            .pool
            .iter()
            .map(|c| c.vertices.len() as u64)
            .sum::<u64>();
    }
}

/// The RNG the traced replay's maintenance draws from.
pub fn replay_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed ^ 0x7ace))
}

/// Timings a traced run gathers besides the layer clock.
#[derive(Debug, Clone, Default)]
pub struct SideTimings {
    /// `build_cold` wall times, ms.
    pub build_cold_ms: Vec<f64>,
    /// `build_shell` wall times, ms.
    pub build_shell_ms: Vec<f64>,
    /// `suspend` wall times, ms.
    pub suspend_ms: Vec<f64>,
    /// `resume` wall times, ms.
    pub resume_ms: Vec<f64>,
    /// Checkpoint sizes, bytes.
    pub checkpoint_bytes: Vec<f64>,
    /// `step_n(SLICE_STEPS)` wall times, ms.
    pub slice_ms: Vec<f64>,
    /// Untraced `step_n(SLICE_STEPS)` wall times on the engines the
    /// replay also steps, ms (the base of `trace.step_ratio`).
    pub untraced_slice_ms: Vec<f64>,
    /// Probe window moves, timed where no step moved the window.
    pub probe_moves: LayerClock,
}

/// The traced run: for each packing in turn, an untraced episode (in
/// serve-sized `step_n` slices) and a replayed episode from the same warm
/// state, until `seconds` pass. Counts come from the warm states and the
/// first replayed episode of each packing.
pub fn run_traced(workload: Workload, seed: u64, seconds: f64) -> (RunResult, Traced) {
    let (mut packings, setup_s) = prepare(workload, seed);
    let k = episode_steps(workload);
    let mut side = SideTimings {
        build_cold_ms: setup_s.iter().map(|s| s * 1e3).collect(),
        ..SideTimings::default()
    };
    let mut counts = WorkCounts::default();
    for p in &packings {
        let t = Instant::now();
        let shell = p.spec.build_shell().expect("workload spec builds a shell");
        side.build_shell_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(shell);
        counts.add_state(&p.engine);
    }
    let mut result = RunResult::default();
    let mut clock = LayerClock::default();
    let mut rng = replay_rng(seed);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0;
    while round == 0 || Instant::now() < deadline {
        for p in &mut packings {
            for traced in [false, true] {
                let eng = &mut p.engine;
                let t = Instant::now();
                eng.resume(&p.warm).expect("warm state restores");
                side.resume_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let mut outside = false;
                let moves = if traced {
                    let mut replay = Replay::new(eng);
                    let mut inserted = 0;
                    for _ in 0..k {
                        inserted += replay.step(eng, &mut rng, &mut clock).inserted as u64;
                        outside |= !ctc_inside(eng);
                    }
                    if round == 0 {
                        counts.window_moves += replay.moves;
                        counts.insertions += inserted;
                    }
                    if replay.moves == 0 {
                        probe_move(eng, &mut side.probe_moves);
                    }
                    replay.moves
                } else {
                    let moves0 = eng.window_moves();
                    for _ in 0..k / SLICE_STEPS {
                        let t = Instant::now();
                        eng.step_n(SLICE_STEPS);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        side.slice_ms.push(ms);
                        side.untraced_slice_ms.push(ms);
                        outside |= !ctc_inside(eng);
                    }
                    eng.window_moves() - moves0
                };
                result.attempted += k;
                check_episode(&mut result, workload, p, moves, outside, k);
                let t = Instant::now();
                let blob = p.engine.suspend();
                side.suspend_ms.push(t.elapsed().as_secs_f64() * 1e3);
                side.checkpoint_bytes.push(blob.len() as f64);
            }
        }
        round += 1;
    }
    let traced = Traced {
        clock,
        counts,
        side,
        preempts: 0,
        cache_hits: 0,
    };
    (result, traced)
}
