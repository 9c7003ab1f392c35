//! Short-range intercellular contact forces.
//!
//! Explicitly resolved cells must not interpenetrate; a stiff short-range
//! vertex–vertex repulsion (quadratic in overlap depth, zero at the cutoff)
//! supplies the sub-grid lubrication the fluid cannot resolve. Applied
//! through the same uniform subgrid as overlap detection.

use crate::pool::CellPool;
use crate::subgrid::UniformSubgrid;
use apr_mesh::Vec3;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Parameters of the contact (repulsion) model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContactParams {
    /// Interaction cutoff distance (typically one fine lattice spacing).
    pub cutoff: f64,
    /// Force magnitude scale at full overlap.
    pub strength: f64,
}

impl ContactParams {
    /// Repulsion force magnitude at separation `d`: `k·(1 − d/d₀)²` inside
    /// the cutoff, zero outside.
    #[inline]
    pub fn magnitude(&self, d: f64) -> f64 {
        if d >= self.cutoff {
            0.0
        } else {
            let x = 1.0 - d / self.cutoff;
            self.strength * x * x
        }
    }
}

/// Rebuild `grid` from all live cells in `pool`.
pub fn rebuild_grid(grid: &mut UniformSubgrid, pool: &CellPool) {
    grid.clear();
    for cell in pool.iter() {
        grid.insert_cell(cell.id, &cell.vertices);
    }
}

/// Accumulate pairwise vertex–vertex repulsion forces between different
/// cells into each cell's force buffer. Returns the number of interacting
/// vertex pairs (each pair counted twice, once from each side — the paper's
/// halo-force *recomputation* strategy, §2.4.5: every owner computes forces
/// for all of its vertices rather than communicating partner forces).
///
/// Runs in parallel over cells: a cell reads only the shared `grid` and its
/// own vertices and writes only its own forces, so the per-vertex sums are
/// identical for any thread count, and the integer pair count does not
/// depend on the order the cells finish in.
pub fn apply_contact_forces(
    pool: &mut CellPool,
    grid: &UniformSubgrid,
    params: ContactParams,
) -> usize {
    let pairs = AtomicUsize::new(0);
    pool.par_for_each_mut(|cell| {
        let id = cell.id;
        let mut cell_pairs = 0;
        for (&p, force) in cell.vertices.iter().zip(cell.forces.iter_mut()) {
            // Sum this vertex's repulsions from zero, then add the sum, so
            // the association does not depend on the force already there.
            let mut contact = Vec3::ZERO;
            grid.for_each_neighbor(p, params.cutoff, id, |entry| {
                let d = entry.position.distance(p);
                let mag = params.magnitude(d);
                if mag > 0.0 {
                    let dir = if d > 1e-12 {
                        (p - entry.position) / d
                    } else {
                        // Coincident points: deterministic push along x.
                        Vec3::X
                    };
                    contact += dir * mag;
                    cell_pairs += 1;
                }
            });
            *force += contact;
        }
        pairs.fetch_add(cell_pairs, Ordering::Relaxed);
    });
    pairs.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use apr_exec::ExecPool;
    use apr_membrane::{Membrane, MembraneMaterial, ReferenceState};
    use apr_mesh::{icosphere, Vec3};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn pool_with_two_spheres(gap: f64) -> CellPool {
        let mesh = icosphere(1, 1.0);
        let re = Arc::new(ReferenceState::build(&mesh));
        let mem = Arc::new(Membrane::new(re, MembraneMaterial::rbc(1.0, 0.01)));
        let mut pool = CellPool::with_capacity(4);
        let (s0, _) = pool.insert_shape(CellKind::Rbc, Arc::clone(&mem), mesh.vertices.clone());
        let (s1, _) = pool.insert_shape(CellKind::Rbc, mem, mesh.vertices.clone());
        pool.get_mut(s0)
            .unwrap()
            .translate(Vec3::new(-(1.0 + gap / 2.0), 0.0, 0.0));
        pool.get_mut(s1)
            .unwrap()
            .translate(Vec3::new(1.0 + gap / 2.0, 0.0, 0.0));
        pool
    }

    #[test]
    fn magnitude_vanishes_at_cutoff() {
        let p = ContactParams {
            cutoff: 0.5,
            strength: 2.0,
        };
        assert_eq!(p.magnitude(0.5), 0.0);
        assert_eq!(p.magnitude(0.6), 0.0);
        assert!((p.magnitude(0.0) - 2.0).abs() < 1e-15);
        assert!(p.magnitude(0.25) > 0.0);
    }

    #[test]
    fn touching_cells_repel_apart() {
        let mut pool = pool_with_two_spheres(0.05);
        let mut grid = UniformSubgrid::new(0.3);
        rebuild_grid(&mut grid, &pool);
        let params = ContactParams {
            cutoff: 0.2,
            strength: 1.0,
        };
        let pairs = apply_contact_forces(&mut pool, &grid, params);
        assert!(
            pairs > 0,
            "cells at 0.05 gap must interact under 0.2 cutoff"
        );
        let mut it = pool.iter();
        let a = it.next().unwrap();
        let b = it.next().unwrap();
        let fa: Vec3 = a.forces.iter().copied().sum();
        let fb: Vec3 = b.forces.iter().copied().sum();
        // Left cell pushed further left, right cell further right.
        assert!(fa.x < 0.0, "fa = {fa:?}");
        assert!(fb.x > 0.0, "fb = {fb:?}");
        // Newton's third law across the pair (both sides recomputed).
        assert!((fa + fb).norm() < 1e-9 * fa.norm().max(fb.norm()));
    }

    #[test]
    fn distant_cells_do_not_interact() {
        let mut pool = pool_with_two_spheres(1.0);
        let mut grid = UniformSubgrid::new(0.3);
        rebuild_grid(&mut grid, &pool);
        let params = ContactParams {
            cutoff: 0.2,
            strength: 1.0,
        };
        let pairs = apply_contact_forces(&mut pool, &grid, params);
        assert_eq!(pairs, 0);
        for c in pool.iter() {
            assert!(c.forces.iter().all(|f| f.norm() == 0.0));
        }
    }

    #[test]
    fn self_interactions_are_excluded() {
        // A single cell alone in the grid receives no contact force even
        // though its own vertices are within the cutoff of each other.
        let mesh = icosphere(2, 1.0);
        let re = Arc::new(ReferenceState::build(&mesh));
        let mem = Arc::new(Membrane::new(re, MembraneMaterial::rbc(1.0, 0.01)));
        let mut pool = CellPool::with_capacity(2);
        pool.insert_shape(CellKind::Rbc, mem, mesh.vertices);
        let mut grid = UniformSubgrid::new(0.5);
        rebuild_grid(&mut grid, &pool);
        let params = ContactParams {
            cutoff: 0.4,
            strength: 1.0,
        };
        let pairs = apply_contact_forces(&mut pool, &grid, params);
        assert_eq!(pairs, 0);
    }

    /// 40 jittered unit spheres on a 4×5×2 lattice of spacing 1.9: every
    /// cell overlaps its neighbours, and the pool spans several slot
    /// chunks. Forces start non-zero, as after the membrane pass.
    fn packed_pool() -> CellPool {
        let mesh = icosphere(2, 1.0);
        let re = Arc::new(ReferenceState::build(&mesh));
        let mem = Arc::new(Membrane::new(re, MembraneMaterial::rbc(1.0, 0.01)));
        let mut rng = StdRng::seed_from_u64(7);
        let mut pool = CellPool::with_capacity(40);
        for i in 0..40 {
            let (slot, _) =
                pool.insert_shape(CellKind::Rbc, Arc::clone(&mem), mesh.vertices.clone());
            let cell = pool.get_mut(slot).unwrap();
            let site = Vec3::new((i % 4) as f64, (i / 4 % 5) as f64, (i / 20) as f64) * 1.9;
            let jitter = Vec3::new(rng.gen(), rng.gen(), rng.gen()) * 0.2;
            cell.translate(site + jitter);
            for f in &mut cell.forces {
                *f = Vec3::new(rng.gen(), rng.gen(), rng.gen()) - Vec3::splat(0.5);
            }
        }
        pool
    }

    fn force_bits(pool: &CellPool) -> Vec<[u64; 3]> {
        pool.iter()
            .flat_map(|c| c.forces.iter())
            .map(|f| [f.x.to_bits(), f.y.to_bits(), f.z.to_bits()])
            .collect()
    }

    #[test]
    fn contact_forces_are_thread_count_invariant() {
        let params = ContactParams {
            cutoff: 0.3,
            strength: 1.0,
        };
        let run = |threads: usize| {
            let mut pool = packed_pool();
            let mut grid = UniformSubgrid::new(0.5);
            rebuild_grid(&mut grid, &pool);
            let pairs = apr_exec::with_pool(Arc::new(ExecPool::new(threads)), || {
                apply_contact_forces(&mut pool, &grid, params)
            });
            (pairs, force_bits(&pool))
        };

        // Serial per-cell sweep: every vertex sums its repulsions from zero
        // in the grid's visit order, then adds the sum to its force.
        let mut pool = packed_pool();
        let mut grid = UniformSubgrid::new(0.5);
        rebuild_grid(&mut grid, &pool);
        let mut want_pairs = 0;
        for cell in pool.iter_mut() {
            for (vi, &p) in cell.vertices.iter().enumerate() {
                let mut sum = Vec3::ZERO;
                grid.for_each_neighbor(p, params.cutoff, cell.id, |e| {
                    let d = e.position.distance(p);
                    let mag = params.magnitude(d);
                    if mag > 0.0 {
                        sum += (p - e.position) / d * mag;
                        want_pairs += 1;
                    }
                });
                cell.forces[vi] += sum;
            }
        }
        let want_bits = force_bits(&pool);
        assert!(want_pairs > 1000, "only {want_pairs} interacting pairs");

        for threads in [1, 2, 4] {
            let (pairs, bits) = run(threads);
            assert_eq!(pairs, want_pairs, "pair count at {threads} threads");
            assert!(bits == want_bits, "forces differ at {threads} threads");
        }
    }
}
