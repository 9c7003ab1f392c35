//! The three workloads, each generated from the benchmark's `--seed`.
//!
//! The program under test only ever sees the generated [`ScenarioSpec`]s
//! (and, for `serve_sweep`, the generated job mix); the seed itself stays
//! in the benchmark.

use apr_core::KernelKind;
use apr_lattice::RuntimeConfig;
use apr_scenarios::{registry, InletSpec, ScenarioSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `tube_cellular` geometry packed to Ht 0.40: per-vertex FSI layers dominate.
    CellsDense,
    /// Plasma-only window tracking one CTC down a long tube: lattices and
    /// coupling dominate, and the window moves.
    CtcTransit,
    /// A closed batch of plasma-only registry sessions through `SimService`.
    ServeSweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::CellsDense,
        Workload::CtcTransit,
        Workload::ServeSweep,
    ];

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name as `BENCHMARK.json` lists it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CellsDense => "cells_dense",
            Workload::CtcTransit => "ctc_transit",
            Workload::ServeSweep => "serve_sweep",
        }
    }

    /// Exec-pool lanes the workload steps with (`serve_sweep` leases one
    /// lane per worker instead).
    pub fn threads(self) -> usize {
        match self {
            Workload::CellsDense => 2,
            Workload::CtcTransit | Workload::ServeSweep => 1,
        }
    }
}

/// Steps per episode of a stepping workload (a multiple of
/// [`SLICE_STEPS`]). Every episode restarts from a warm state, so runs of
/// any length measure the same trajectories.
pub fn episode_steps(workload: Workload) -> u64 {
    match workload {
        Workload::CellsDense => 20,
        _ => 60,
    }
}

/// Serve sizing: 2 workers × 1 lane, 10-step slices.
pub const SERVE_WORKERS: usize = 2;
/// Steps per scheduler slice.
pub const SLICE_STEPS: u64 = 10;
/// Steps each session runs: four slices, so three preemptions.
pub const SESSION_STEPS: u64 = 40;
/// Copies of each registry entry in a batch (7 entries → 105 sessions,
/// so more than ten sessions lie beyond the TTFS p90).
pub const COPIES_PER_SPEC: usize = 15;

/// The plasma-only registry entries the serve mix draws from.
pub const SERVE_ENTRIES: [&str; 7] = [
    "tube_small",
    "tube_pulsatile",
    "stenosis_focus",
    "aneurysm_sac",
    "branch_transit",
    "tree_open",
    "twin_ctc",
];

/// Stir a user seed into a well-mixed 64-bit value (splitmix64).
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The kernel is pinned: the default start-up probe times the backends
/// and can pick a different one from run to run on a busy host.
fn pinned_runtime() -> RuntimeConfig {
    RuntimeConfig {
        kernel: Some(KernelKind::FusedSwap),
        probe: false,
        ..RuntimeConfig::default()
    }
}

/// `cells_dense`: the `tube_cellular` geometry (21×21×48, n = 3, 25³ fine
/// window) packed to Ht 0.40, maintenance every 10 steps, no CTC. The
/// seed drives the RBC tile and insertion RNG, so it sets the cell count.
pub fn cells_dense_spec(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::tube_cellular(mix(seed));
    spec.name = "cells_dense".into();
    spec.hematocrit = 0.40;
    spec.runtime = pinned_runtime();
    spec
}

/// `ctc_transit`: a plasma-only 25³ window tracking one CTC down a
/// 21×21×96 tube. The body force and a 40-step warm-up spin the core flow
/// up far enough that the window moves about once every 20–30 steps. The
/// seed sets the CTC radius (2.5–3.5 fine spacings).
pub fn ctc_transit_spec(seed: u64) -> ScenarioSpec {
    let mut rng = StdRng::seed_from_u64(mix(seed));
    let mut spec = ScenarioSpec::tube_cellular(mix(seed ^ 0x00c7_c000));
    spec.name = "ctc_transit".into();
    spec.nz = 96;
    spec.hematocrit = 0.0;
    spec.inlet = InletSpec::BodyForce { g: 5e-4 };
    spec.warmup_steps = 40;
    spec.windows[0].ctc_radius = rng.gen_range(2.5..3.5);
    spec.runtime = pinned_runtime();
    spec
}

/// The stepping workload's spec.
pub fn stepping_spec(workload: Workload, seed: u64) -> ScenarioSpec {
    match workload {
        Workload::CellsDense => cells_dense_spec(seed),
        Workload::CtcTransit => ctc_transit_spec(seed),
        Workload::ServeSweep => panic!("serve_sweep is not a stepping workload"),
    }
}

/// The `serve_sweep` batch: [`COPIES_PER_SPEC`] copies of each of the
/// [`SERVE_ENTRIES`], each entry with one seeded spec variant (so repeats
/// hit the warm cache), in a seeded order. The first copy of every entry
/// leads the batch; the repeats follow, shuffled.
pub fn serve_mix(seed: u64) -> Vec<ScenarioSpec> {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x5e7e));
    let entries: Vec<ScenarioSpec> = registry()
        .into_iter()
        .filter(|s| SERVE_ENTRIES.contains(&s.name.as_str()))
        .map(|mut s| {
            s.seed = rng.gen_range(1..1_000_000);
            s.runtime = pinned_runtime();
            s
        })
        .collect();
    assert_eq!(entries.len(), SERVE_ENTRIES.len(), "registry lost an entry");
    let mut firsts = entries.clone();
    firsts.shuffle(&mut rng);
    let mut repeats: Vec<ScenarioSpec> = entries
        .iter()
        .flat_map(|s| std::iter::repeat_n(s.clone(), COPIES_PER_SPEC - 1))
        .collect();
    repeats.shuffle(&mut rng);
    firsts.extend(repeats);
    firsts
}
