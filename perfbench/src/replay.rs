//! The traced replay of `AprEngine::step`.
//!
//! [`Replay::step`] drives an engine's public fields in exactly the order
//! `AprEngine::step` does and times every call into a layer from the
//! benchmark's side; no span is added inside the program. For an engine
//! without a bulk driver, fine-geometry callback or window steer (the
//! force-driven tube recipe both stepping workloads use) the replay is
//! bit-identical to `AprEngine::step` on every step that needs no RNG —
//! `tests/replay_fidelity.rs` pins that. Maintenance draws from an RNG the
//! benchmark owns, because the engine's own is private.
//!
//! Those three callbacks are private to the engine, so on specs that
//! install them (the pulsatile, voxelised and branching `serve_sweep`
//! entries) the replay skips them: there it samples per-call layer costs
//! on those geometries and is not an exact replay.

use apr_cells::rebuild_grid;
use apr_core::{fsi, AprEngine};
use apr_coupling::CouplingMap;
use apr_lattice::SubStep;
use apr_mesh::Vec3;
use apr_observe::{DomainTotals, WindowFlux};
use apr_window::{move_window, remove_escaped_cells, repopulate};
use rand::rngs::StdRng;
use std::time::Instant;

/// A timed layer of the APR step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `CouplingMap::snapshot` (twice per step).
    Snapshot,
    /// `Lattice::step` on the coarse lattice (fused collide + stream).
    CoarseStep,
    /// `fsi::compute_membrane_forces`.
    Membrane,
    /// `fsi::compute_contact_forces`.
    Contact,
    /// `Lattice::clear_forces` plus `fsi::spread_cell_forces`.
    Spread,
    /// `Lattice::advance(Collide)` on the fine lattice.
    FineCollide,
    /// `CouplingMap::impose_shell`.
    ImposeShell,
    /// `Lattice::advance(Stream)` on the fine lattice.
    FineStream,
    /// `fsi::advect_cells` (interpolate + advect).
    Interpolate,
    /// `CouplingMap::restrict`.
    Restrict,
    /// Window move: `move_window`, re-centring, `CouplingMap::new`,
    /// `seed_fine_from_coarse`.
    Move,
    /// `remove_escaped_cells` plus `repopulate`.
    Maintenance,
    /// `mass_momentum_totals` ×2, `window_hematocrit`, `ConservationLedger::record`.
    Ledger,
}

impl Layer {
    /// Every layer, in step order.
    pub const ALL: [Layer; 13] = [
        Layer::Snapshot,
        Layer::CoarseStep,
        Layer::Membrane,
        Layer::Contact,
        Layer::Spread,
        Layer::FineCollide,
        Layer::ImposeShell,
        Layer::FineStream,
        Layer::Interpolate,
        Layer::Restrict,
        Layer::Move,
        Layer::Maintenance,
        Layer::Ledger,
    ];

    /// The metric prefix of this layer (`<crate>.<call>`).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Snapshot => "coupling.snapshot",
            Layer::CoarseStep => "lattice.coarse_step",
            Layer::Membrane => "membrane.forces",
            Layer::Contact => "cells.contact",
            Layer::Spread => "ibm.spread",
            Layer::FineCollide => "lattice.fine_collide",
            Layer::ImposeShell => "coupling.impose_shell",
            Layer::FineStream => "lattice.fine_stream",
            Layer::Interpolate => "ibm.interpolate",
            Layer::Restrict => "coupling.restrict",
            Layer::Move => "window.move",
            Layer::Maintenance => "window.maintenance",
            Layer::Ledger => "observe.ledger",
        }
    }
}

/// Accumulated busy time and call count per layer, plus the work each
/// call covered.
#[derive(Debug, Clone, Default)]
pub struct LayerClock {
    ns: [u64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
    /// Work units the calls covered (sites, vertices or shell nodes).
    work: [u64; Layer::ALL.len()],
    /// Wall time of whole replayed steps.
    pub step_ns: Vec<u64>,
}

impl LayerClock {
    /// Time `f` as one call of `layer` covering `work` units.
    pub fn time<R>(&mut self, layer: Layer, work: u64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        let i = layer as usize;
        self.ns[i] += t.elapsed().as_nanos() as u64;
        self.calls[i] += 1;
        self.work[i] += work;
        out
    }

    /// Busy nanoseconds of `layer`.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    /// Calls of `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Work units `layer`'s calls covered.
    pub fn work(&self, layer: Layer) -> u64 {
        self.work[layer as usize]
    }

    /// Sum of all layer times.
    pub fn layer_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Fold another clock into this one.
    pub fn merge(&mut self, other: &LayerClock) {
        for i in 0..Layer::ALL.len() {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
            self.work[i] += other.work[i];
        }
        self.step_ns.extend_from_slice(&other.step_ns);
    }
}

/// What one replayed step did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayStep {
    /// The window moved.
    pub moved: bool,
    /// Cells inserted by maintenance.
    pub inserted: usize,
}

/// The benchmark-side stepping driver. It keeps the step and move counts
/// the engine keeps privately.
pub struct Replay {
    /// Steps completed (starts at the engine's `steps()`).
    pub steps: u64,
    /// Window moves this replay executed.
    pub moves: u64,
}

impl Replay {
    /// Start replaying `eng` from its current step.
    pub fn new(eng: &AprEngine) -> Self {
        Self {
            steps: eng.steps(),
            moves: 0,
        }
    }

    /// One `AprEngine::step`, call by call, each call timed into `clock`.
    pub fn step(
        &mut self,
        eng: &mut AprEngine,
        rng: &mut StdRng,
        clock: &mut LayerClock,
    ) -> ReplayStep {
        let t_step = Instant::now();
        let mut out = ReplayStep::default();
        let mut flux = WindowFlux::default();
        let shell = eng.map.shell.len() as u64;
        let coarse_sites = eng.coarse.fluid_node_count() as u64;
        let fine_sites = eng.fine.fluid_node_count() as u64;
        let vertices: u64 = eng.pool.iter().map(|c| c.vertices.len() as u64).sum();

        let old = clock.time(Layer::Snapshot, shell, || {
            eng.map.snapshot(&eng.coarse, &eng.fine)
        });
        clock.time(Layer::CoarseStep, coarse_sites, || eng.coarse.step());
        let new = clock.time(Layer::Snapshot, shell, || {
            eng.map.snapshot(&eng.coarse, &eng.fine)
        });
        let n = eng.map.n;
        for k in 0..n {
            let theta = (k + 1) as f64 / n as f64;
            clock.time(Layer::Membrane, vertices, || {
                fsi::compute_membrane_forces(&mut eng.pool)
            });
            clock.time(Layer::Contact, vertices, || {
                fsi::compute_contact_forces(&mut eng.pool, &mut eng.grid, eng.contact)
            });
            clock.time(Layer::Spread, vertices, || {
                eng.fine.clear_forces();
                fsi::spread_cell_forces(&mut eng.fine, &eng.pool, eng.kernel, |v| v, 1.0);
            });
            clock.time(Layer::FineCollide, fine_sites, || {
                eng.fine.advance(SubStep::Collide)
            });
            clock.time(Layer::ImposeShell, shell, || {
                eng.map.impose_shell(&mut eng.fine, &old, &new, theta)
            });
            clock.time(Layer::FineStream, fine_sites, || {
                eng.fine.advance(SubStep::Stream)
            });
            clock.time(Layer::Interpolate, vertices, || {
                fsi::advect_cells(&eng.fine, &mut eng.pool, eng.kernel, |v| v, 1.0)
            });
        }
        clock.time(Layer::Restrict, 1, || {
            eng.map.restrict(&mut eng.coarse, &eng.fine)
        });
        self.steps += 1;

        if let Some(ctc) = eng.ctc_position() {
            let world = eng.fine_to_world(ctc);
            eng.tracker.record(self.steps, world);
            if eng.trigger.should_move(&eng.anatomy, ctc) {
                if let Some(moved) = timed_move(eng, ctc, clock) {
                    out.moved = true;
                    flux = moved;
                    self.moves += 1;
                }
            }
        }

        if self.steps.is_multiple_of(eng.maintenance_interval) {
            out.inserted = clock.time(Layer::Maintenance, 1, || {
                remove_escaped_cells(&mut eng.pool, &mut eng.grid, &eng.anatomy);
                match (&eng.controller, &eng.insertion) {
                    (Some(controller), Some(ctx)) => {
                        repopulate(
                            &mut eng.pool,
                            &mut eng.grid,
                            &eng.anatomy,
                            controller,
                            ctx,
                            rng,
                        )
                        .inserted
                    }
                    _ => 0,
                }
            });
        }

        if eng.ledger.is_some() {
            let steps = self.steps;
            clock.time(Layer::Ledger, coarse_sites + fine_sites, || {
                let totals = |(mass, momentum, nodes): (f64, [f64; 3], usize)| DomainTotals {
                    mass,
                    momentum,
                    fluid_nodes: nodes as u64,
                };
                let bulk = totals(eng.coarse.mass_momentum_totals());
                let window = totals(eng.fine.mass_momentum_totals());
                let hematocrit = eng.window_hematocrit();
                let ledger = eng.ledger.as_mut().expect("checked above");
                ledger.record(steps, bulk, window, hematocrit, flux);
            });
        }
        clock.step_ns.push(t_step.elapsed().as_nanos() as u64);
        out
    }
}

/// [`move_toward`] `target`, timed into `clock` as a [`Layer::Move`] call
/// only when the window actually moved (a trigger whose shift rounds to
/// zero is not a move).
fn timed_move(eng: &mut AprEngine, target: Vec3, clock: &mut LayerClock) -> Option<WindowFlux> {
    let mut attempt = LayerClock::default();
    let flux = attempt.time(Layer::Move, 1, || move_toward(eng, target));
    if flux.is_some() {
        clock.merge(&attempt);
    }
    flux
}

/// Time one window move by a coarse cell along +z into `clock`, for runs
/// whose replayed steps never move the window. Nothing is recorded when
/// the move would leave the coarse domain.
pub fn probe_move(eng: &mut AprEngine, clock: &mut LayerClock) {
    let target = eng.anatomy.center + Vec3::new(0.0, 0.0, eng.map.n as f64);
    timed_move(eng, target, clock);
}

/// `AprEngine::execute_window_move` from public parts: shift the window by
/// whole coarse cells toward the fine-coordinate point `ctc`. Returns the
/// move's flux, or `None` when the shift rounds to zero or would leave the
/// coarse domain.
pub fn move_toward(eng: &mut AprEngine, ctc: Vec3) -> Option<WindowFlux> {
    let n = eng.map.n as f64;
    let shift_c = Vec3::new(
        ((ctc.x - eng.anatomy.center.x) / n).round(),
        ((ctc.y - eng.anatomy.center.y) / n).round(),
        ((ctc.z - eng.anatomy.center.z) / n).round(),
    );
    if shift_c == Vec3::ZERO {
        return None;
    }
    let origin = eng.map.origin;
    let new_origin = [
        origin[0] + shift_c.x,
        origin[1] + shift_c.y,
        origin[2] + shift_c.z,
    ];
    let fine_dims = [eng.fine.nx, eng.fine.ny, eng.fine.nz];
    let coarse_dims = [eng.coarse.nx, eng.coarse.ny, eng.coarse.nz];
    for a in 0..3 {
        if eng.fine.periodic[a] {
            continue;
        }
        let hi = new_origin[a] + (fine_dims[a] - 1) as f64 / n;
        if new_origin[a] < 0.0 || hi > (coarse_dims[a] - 1) as f64 {
            return None;
        }
    }
    let shift_fine = shift_c * n;
    let target = eng.anatomy.center + shift_fine;
    let min_gap = eng.insertion.as_ref().map_or(1.0, |c| c.min_gap);
    let (_, report) = move_window(&eng.anatomy, &mut eng.pool, &mut eng.grid, target, min_gap);
    for cell in eng.pool.iter_mut() {
        cell.translate(-shift_fine);
    }
    rebuild_grid(&mut eng.grid, &eng.pool);
    eng.map = CouplingMap::new(
        &eng.coarse,
        &eng.fine,
        new_origin,
        eng.map.n,
        eng.map.lambda,
        1.0,
    );
    eng.map.seed_fine_from_coarse(&eng.coarse, &mut eng.fine);
    Some(WindowFlux {
        captured: report.captured as u32,
        copied: report.copied as u32,
        removed: report.removed as u32,
        moved: true,
    })
}
