//! Velocity interpolation and force spreading (paper §2.3, Eq. 4–6).
//!
//! Positions are expressed in the lattice's own coordinate system where the
//! node `(x, y, z)` sits at position `(x, y, z)`; callers embedding a window
//! lattice in a global frame translate positions before calling.

use crate::delta::DeltaKernel;
use apr_exec::{ScratchPool, UnsafeSlice};
use apr_lattice::{Lattice, NodeClass};
use apr_mesh::Vec3;

/// Lagrangian points per exec chunk for the pure (gather) transfers. Any
/// fixed value keeps results thread-count independent; 32 points amortize
/// dispatch while still splitting a single cell's vertices across lanes.
const POINT_CHUNK: usize = 32;

/// Maximum scratch chunks for the (scatter) force spread. Fixed — never
/// derived from the thread count — so the chunk-ordered merge associates
/// identically for any `APR_THREADS`.
const SPREAD_MAX_CHUNKS: usize = 8;

/// Widest per-axis stencil of any [`DeltaKernel`] (`stencil_width() + 1`).
const MAX_WIDTH: usize = 5;

/// Separable stencil around a Lagrangian point: per axis and offset, the
/// wrapped lattice coordinate (`None` past a non-periodic face) and the
/// 1-D kernel weight. Built once per point, so the 3-D loops only multiply
/// weights instead of evaluating the kernel at every node.
struct Stencil {
    width: usize,
    index: [[Option<usize>; MAX_WIDTH]; 3],
    weight: [[f64; MAX_WIDTH]; 3],
}

#[inline]
fn stencil(lattice: &Lattice, kernel: DeltaKernel, p: Vec3) -> Stencil {
    let width = kernel.stencil_width() + 1;
    debug_assert!(width <= MAX_WIDTH);
    let s = kernel.support();
    let dims = [lattice.nx, lattice.ny, lattice.nz];
    let mut out = Stencil {
        width,
        index: [[None; MAX_WIDTH]; 3],
        weight: [[0.0; MAX_WIDTH]; 3],
    };
    for (axis, c) in [p.x, p.y, p.z].into_iter().enumerate() {
        // Leftmost lattice point inside the support [c − s, c + s].
        let base = (c - s).ceil() as i64;
        for d in 0..width {
            let g = base + d as i64;
            out.index[axis][d] = wrap(g, dims[axis], lattice.periodic[axis]);
            out.weight[axis][d] = kernel.phi(c - g as f64);
        }
    }
    out
}

#[inline]
fn wrap(v: i64, n: usize, periodic: bool) -> Option<usize> {
    let n = n as i64;
    if v >= 0 && v < n {
        Some(v as usize)
    } else if periodic {
        Some(((v % n + n) % n) as usize)
    } else {
        None
    }
}

/// Visit every in-lattice node of `p`'s stencil with a non-zero weight, in
/// z, y, x order, passing the node index and its weight `(wz·wy)·wx`.
#[inline]
fn for_each_node(
    lattice: &Lattice,
    kernel: DeltaKernel,
    p: Vec3,
    mut visit: impl FnMut(usize, f64),
) {
    let s = stencil(lattice, kernel, p);
    for dz in 0..s.width {
        let Some(z) = s.index[2][dz] else {
            continue;
        };
        let wz = s.weight[2][dz];
        if wz == 0.0 {
            continue;
        }
        for dy in 0..s.width {
            let Some(y) = s.index[1][dy] else {
                continue;
            };
            let wyz = wz * s.weight[1][dy];
            if wyz == 0.0 {
                continue;
            }
            for dx in 0..s.width {
                let Some(x) = s.index[0][dx] else {
                    continue;
                };
                let w = wyz * s.weight[0][dx];
                if w == 0.0 {
                    continue;
                }
                visit(lattice.idx(x, y, z), w);
            }
        }
    }
}

/// Interpolate the Eulerian velocity field onto Lagrangian points (Eq. 4):
/// `V(X) = Σ_x v(x)·δ(x − X)`.
///
/// Reads the lattice's stored (collision-time, force-corrected) velocities.
/// Points whose support sticks out of a non-periodic boundary simply miss
/// those weights — consistent with cells being removed once they cross the
/// window boundary (paper §2.4.2).
pub fn interpolate_velocities(
    lattice: &Lattice,
    positions: &[Vec3],
    kernel: DeltaKernel,
) -> Vec<Vec3> {
    let mut out = vec![Vec3::ZERO; positions.len()];
    apr_exec::current().par_for_chunks_mut(&mut out, POINT_CHUNK, |chunk, part| {
        let first = chunk * POINT_CHUNK;
        for (k, v) in part.iter_mut().enumerate() {
            *v = interpolate_velocity(lattice, positions[first + k], kernel);
        }
    });
    out
}

/// Interpolate the velocity at a single Lagrangian point.
pub fn interpolate_velocity(lattice: &Lattice, p: Vec3, kernel: DeltaKernel) -> Vec3 {
    let mut v = Vec3::ZERO;
    for_each_node(lattice, kernel, p, |node, w| {
        let u = lattice.velocity_at(node);
        v += Vec3::new(u[0], u[1], u[2]) * w;
    });
    v
}

/// Spread Lagrangian forces onto the Eulerian force field (Eq. 6):
/// `g(x) = Σ_X G(X)·δ(x − X)`.
///
/// Forces landing on wall/exterior nodes are dropped (the wall absorbs
/// them); total fluid-side force therefore equals the spread weight actually
/// covering fluid, which [`spread_forces`] returns for diagnostics.
///
/// # Panics
/// Panics if `positions` and `forces` differ in length.
pub fn spread_forces(
    lattice: &mut Lattice,
    positions: &[Vec3],
    forces: &[Vec3],
    kernel: DeltaKernel,
) -> f64 {
    let scratch = ScratchPool::new();
    // Detach the force field so the spread can read lattice flags while
    // accumulating into it.
    let mut field = std::mem::take(&mut lattice.force);
    let covered = spread_forces_into(lattice, positions, forces, kernel, &mut field, &scratch);
    lattice.force = field;
    covered
}

/// [`spread_forces`] variant that accumulates into a caller-owned force
/// field (`node*3 + axis`, same layout as `Lattice::force`), drawing its
/// per-chunk scratch fields from `scratch`. The buffers are recycled only
/// across calls that share one pool. The FSI loop
/// (`apr_core::fsi::spread_cell_forces`) does not: it builds a fresh pool
/// on every call, because a pool kept across sub-steps measured no gain at
/// a 25³ window and would keep up to 8 lattice-sized fields resident.
///
/// Runs in parallel over fixed position chunks; per-chunk scratch fields
/// are merged into `out` in chunk order on the caller, so the result is
/// bit-identical for any thread count. Returns the mean spread weight that
/// landed on fluid nodes (see [`spread_forces`]).
///
/// # Panics
/// Panics if `positions`/`forces` lengths differ or `out` does not cover
/// every node.
pub fn spread_forces_into(
    lattice: &Lattice,
    positions: &[Vec3],
    forces: &[Vec3],
    kernel: DeltaKernel,
    out: &mut [f64],
    scratch: &ScratchPool<Vec<f64>>,
) -> f64 {
    assert_eq!(positions.len(), forces.len(), "positions/forces mismatch");
    assert_eq!(out.len(), lattice.node_count() * 3, "force field size");
    if positions.is_empty() {
        return 0.0;
    }
    let chunks = positions.len().min(SPREAD_MAX_CHUNKS);
    let mut chunk_weights = vec![0.0f64; chunks];
    {
        let weights = UnsafeSlice::new(&mut chunk_weights);
        apr_exec::current().par_accumulate_f64(
            out,
            positions.len(),
            SPREAD_MAX_CHUNKS,
            scratch,
            |chunk, range, buf| {
                let mut covered = 0.0;
                for (&p, &g) in positions[range.clone()].iter().zip(&forces[range]) {
                    covered += spread_one(lattice, p, g, kernel, buf);
                }
                // SAFETY: one writer per chunk slot.
                unsafe { weights.slice_mut(chunk, 1)[0] = covered };
            },
        );
    }
    // Chunk-ordered sum: association fixed by the chunk count alone.
    let covered_weight: f64 = chunk_weights.iter().sum();
    covered_weight / positions.len() as f64
}

/// Spread one Lagrangian force into `field`, returning the fluid-covered
/// weight of its stencil.
fn spread_one(lattice: &Lattice, p: Vec3, g: Vec3, kernel: DeltaKernel, field: &mut [f64]) -> f64 {
    let mut covered_weight = 0.0;
    for_each_node(lattice, kernel, p, |node, w| {
        if lattice.flag(node) == NodeClass::Fluid {
            field[node * 3] += g.x * w;
            field[node * 3 + 1] += g.y * w;
            field[node * 3 + 2] += g.z * w;
            covered_weight += w;
        }
    });
    covered_weight
}

/// Advance Lagrangian points by interpolated velocity over one unit time
/// step (Eq. 5, forward Euler no-slip update): `X(t+1) = X(t) + V(t)·Δt`.
pub fn advect_points(lattice: &Lattice, positions: &mut [Vec3], kernel: DeltaKernel) {
    apr_exec::current().par_for_chunks_mut(positions, POINT_CHUNK, |_, part| {
        for p in part {
            let v = interpolate_velocity(lattice, *p, kernel);
            *p += v;
        }
    });
}

/// The transfers as they were before the separable weights were hoisted
/// out of the node loop: `phi` is evaluated at every stencil node. Kept as
/// the oracle that the hoisted version must match bit for bit.
#[cfg(test)]
mod per_node_phi {
    use super::{wrap, SPREAD_MAX_CHUNKS};
    use crate::delta::DeltaKernel;
    use apr_exec::{ScratchPool, UnsafeSlice};
    use apr_lattice::{Lattice, NodeClass};
    use apr_mesh::Vec3;

    fn base(kernel: DeltaKernel, p: Vec3) -> ([i64; 3], usize) {
        let s = kernel.support();
        (
            [
                (p.x - s).ceil() as i64,
                (p.y - s).ceil() as i64,
                (p.z - s).ceil() as i64,
            ],
            kernel.stencil_width() + 1,
        )
    }

    pub fn interpolate_velocity(lattice: &Lattice, p: Vec3, kernel: DeltaKernel) -> Vec3 {
        let (base, width) = base(kernel, p);
        let mut v = Vec3::ZERO;
        for dz in 0..width {
            let gz = base[2] + dz as i64;
            let Some(z) = wrap(gz, lattice.nz, lattice.periodic[2]) else {
                continue;
            };
            let wz = kernel.phi(p.z - gz as f64);
            if wz == 0.0 {
                continue;
            }
            for dy in 0..width {
                let gy = base[1] + dy as i64;
                let Some(y) = wrap(gy, lattice.ny, lattice.periodic[1]) else {
                    continue;
                };
                let wyz = wz * kernel.phi(p.y - gy as f64);
                if wyz == 0.0 {
                    continue;
                }
                for dx in 0..width {
                    let gx = base[0] + dx as i64;
                    let Some(x) = wrap(gx, lattice.nx, lattice.periodic[0]) else {
                        continue;
                    };
                    let w = wyz * kernel.phi(p.x - gx as f64);
                    if w == 0.0 {
                        continue;
                    }
                    let u = lattice.velocity_at(lattice.idx(x, y, z));
                    v += Vec3::new(u[0], u[1], u[2]) * w;
                }
            }
        }
        v
    }

    fn spread_one(
        lattice: &Lattice,
        p: Vec3,
        g: Vec3,
        kernel: DeltaKernel,
        field: &mut [f64],
    ) -> f64 {
        let (base, width) = base(kernel, p);
        let mut covered_weight = 0.0;
        for dz in 0..width {
            let gz = base[2] + dz as i64;
            let Some(z) = wrap(gz, lattice.nz, lattice.periodic[2]) else {
                continue;
            };
            let wz = kernel.phi(p.z - gz as f64);
            if wz == 0.0 {
                continue;
            }
            for dy in 0..width {
                let gy = base[1] + dy as i64;
                let Some(y) = wrap(gy, lattice.ny, lattice.periodic[1]) else {
                    continue;
                };
                let wyz = wz * kernel.phi(p.y - gy as f64);
                if wyz == 0.0 {
                    continue;
                }
                for dx in 0..width {
                    let gx = base[0] + dx as i64;
                    let Some(x) = wrap(gx, lattice.nx, lattice.periodic[0]) else {
                        continue;
                    };
                    let w = wyz * kernel.phi(p.x - gx as f64);
                    if w == 0.0 {
                        continue;
                    }
                    let node = lattice.idx(x, y, z);
                    if lattice.flag(node) == NodeClass::Fluid {
                        field[node * 3] += g.x * w;
                        field[node * 3 + 1] += g.y * w;
                        field[node * 3 + 2] += g.z * w;
                        covered_weight += w;
                    }
                }
            }
        }
        covered_weight
    }

    pub fn spread_forces_into(
        lattice: &Lattice,
        positions: &[Vec3],
        forces: &[Vec3],
        kernel: DeltaKernel,
        out: &mut [f64],
    ) -> f64 {
        let scratch = ScratchPool::new();
        let chunks = positions.len().min(SPREAD_MAX_CHUNKS);
        let mut chunk_weights = vec![0.0f64; chunks];
        {
            let weights = UnsafeSlice::new(&mut chunk_weights);
            apr_exec::current().par_accumulate_f64(
                out,
                positions.len(),
                SPREAD_MAX_CHUNKS,
                &scratch,
                |chunk, range, buf| {
                    let mut covered = 0.0;
                    for (&p, &g) in positions[range.clone()].iter().zip(&forces[range]) {
                        covered += spread_one(lattice, p, g, kernel, buf);
                    }
                    // SAFETY: one writer per chunk slot.
                    unsafe { weights.slice_mut(chunk, 1)[0] = covered };
                },
            );
        }
        let covered_weight: f64 = chunk_weights.iter().sum();
        covered_weight / positions.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apr_exec::ExecPool;
    use apr_lattice::Lattice;
    use std::sync::Arc;

    fn uniform_lattice(u: [f64; 3]) -> Lattice {
        let mut lat = Lattice::new(12, 12, 12, 1.0);
        lat.periodic = [true, true, true];
        lat.initialize_equilibrium(1.0, u);
        lat
    }

    #[test]
    fn interpolation_recovers_uniform_field() {
        let lat = uniform_lattice([0.03, -0.01, 0.02]);
        for p in [
            Vec3::new(5.0, 5.0, 5.0),
            Vec3::new(5.3, 4.7, 6.1),
            Vec3::new(0.2, 11.8, 3.5), // near periodic boundary
        ] {
            let v = interpolate_velocity(&lat, p, DeltaKernel::Cosine4);
            assert!((v - Vec3::new(0.03, -0.01, 0.02)).norm() < 1e-12, "{p:?}");
        }
    }

    #[test]
    fn interpolation_is_exact_for_linear_fields() {
        // Kernels with vanishing first moment reproduce linear velocity
        // profiles exactly — the property behind IBM's second-order accuracy.
        let mut lat = Lattice::new(16, 16, 16, 1.0);
        lat.periodic = [false, false, false];
        for z in 0..16 {
            for y in 0..16 {
                for x in 0..16 {
                    let node = lat.idx(x, y, z);
                    lat.initialize_node_equilibrium(node, 1.0, [0.001 * y as f64, 0.0, 0.0]);
                }
            }
        }
        // Exact for kernels with a vanishing first moment…
        for kernel in [DeltaKernel::Peskin3, DeltaKernel::Linear2] {
            let p = Vec3::new(8.0, 7.4, 8.0);
            let v = interpolate_velocity(&lat, p, kernel);
            assert!((v.x - 0.001 * 7.4).abs() < 1e-12, "{kernel:?}: {v:?}");
        }
        // …and within a small residual for the cosine kernel.
        let v = interpolate_velocity(&lat, Vec3::new(8.0, 7.4, 8.0), DeltaKernel::Cosine4);
        assert!((v.x - 0.001 * 7.4).abs() < 2.5e-5, "Cosine4: {v:?}");
    }

    #[test]
    fn spreading_conserves_total_force() {
        let mut lat = uniform_lattice([0.0; 3]);
        let positions = [Vec3::new(6.2, 5.9, 6.4), Vec3::new(3.1, 3.3, 3.7)];
        let forces = [Vec3::new(1e-4, -2e-4, 5e-5), Vec3::new(-3e-5, 1e-5, 2e-5)];
        spread_forces(&mut lat, &positions, &forces, DeltaKernel::Cosine4);
        let mut total = Vec3::ZERO;
        for n in 0..lat.node_count() {
            total += Vec3::new(lat.force[n * 3], lat.force[n * 3 + 1], lat.force[n * 3 + 2]);
        }
        let expected: Vec3 = forces.iter().copied().sum();
        assert!((total - expected).norm() < 1e-15);
    }

    #[test]
    fn spread_then_interpolate_peaks_at_source() {
        // The force field after spreading is maximal at the node nearest to
        // the Lagrangian point.
        let mut lat = uniform_lattice([0.0; 3]);
        let p = Vec3::new(6.1, 6.0, 5.9);
        spread_forces(
            &mut lat,
            &[p],
            &[Vec3::new(1.0, 0.0, 0.0)],
            DeltaKernel::Cosine4,
        );
        let peak_node = lat.idx(6, 6, 6);
        let peak = lat.force[peak_node * 3];
        for n in 0..lat.node_count() {
            assert!(lat.force[n * 3] <= peak + 1e-15);
        }
        assert!(peak > 0.05);
    }

    #[test]
    fn advection_follows_uniform_flow() {
        let lat = uniform_lattice([0.01, 0.02, -0.005]);
        let mut pts = vec![Vec3::new(5.0, 5.0, 5.0)];
        for _ in 0..10 {
            advect_points(&lat, &mut pts, DeltaKernel::Cosine4);
        }
        let expected = Vec3::new(5.0 + 0.1, 5.0 + 0.2, 5.0 - 0.05);
        assert!((pts[0] - expected).norm() < 1e-9);
    }

    #[test]
    fn all_kernels_spread_to_their_stencil_size() {
        for kernel in [
            DeltaKernel::Cosine4,
            DeltaKernel::Peskin3,
            DeltaKernel::Linear2,
        ] {
            let mut lat = uniform_lattice([0.0; 3]);
            // Offset from the node so even-width stencils engage fully.
            let p = Vec3::new(6.3, 6.3, 6.3);
            spread_forces(&mut lat, &[p], &[Vec3::new(1.0, 0.0, 0.0)], kernel);
            let touched = (0..lat.node_count())
                .filter(|&n| lat.force[n * 3] != 0.0)
                .count();
            let w = kernel.stencil_width();
            assert!(
                touched <= w * w * w,
                "{kernel:?}: touched {touched} > {}",
                w * w * w
            );
            assert!(
                touched >= (w - 1).max(1).pow(3),
                "{kernel:?}: touched {touched}"
            );
        }
    }

    /// SplitMix64 stream mapped to `[0, 1)`.
    struct Rng(u64);

    impl Rng {
        fn unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.unit()
        }
    }

    /// A 13×11×9 lattice with a random velocity field. Walled lattices are
    /// non-periodic in x and z and mark about a fifth of the nodes `Wall`.
    fn oracle_lattice(rng: &mut Rng, walled: bool) -> Lattice {
        let mut lat = Lattice::new(13, 11, 9, 1.0);
        lat.periodic = if walled {
            [false, true, false]
        } else {
            [true, true, true]
        };
        for node in 0..lat.node_count() {
            let u = [
                rng.range(-0.05, 0.05),
                rng.range(-0.05, 0.05),
                rng.range(-0.05, 0.05),
            ];
            lat.initialize_node_equilibrium(node, rng.range(0.9, 1.1), u);
            if walled && rng.unit() < 0.2 {
                lat.set_flag(node, NodeClass::Wall);
            }
        }
        lat
    }

    /// Random points reaching up to 2.5 spacings past every face, so
    /// supports cross non-periodic faces and wrap periodic ones, plus
    /// points on nodes and half-nodes, where kernel weights hit exact
    /// zeros and support edges.
    fn oracle_points(rng: &mut Rng, lat: &Lattice) -> Vec<Vec3> {
        let dims = [lat.nx as f64, lat.ny as f64, lat.nz as f64];
        let mut pts: Vec<Vec3> = (0..187)
            .map(|_| {
                Vec3::new(
                    rng.range(-2.5, dims[0] + 2.5),
                    rng.range(-2.5, dims[1] + 2.5),
                    rng.range(-2.5, dims[2] + 2.5),
                )
            })
            .collect();
        for k in 0..16 {
            let c = k as f64 * 0.5 - 1.0;
            pts.push(Vec3::new(c, 4.0 + c, dims[2] - c));
        }
        pts
    }

    #[test]
    fn hoisted_weights_match_per_node_phi_bit_for_bit() {
        let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        let mut rng = Rng(0x5eed);
        for walled in [false, true] {
            for kernel in [
                DeltaKernel::Cosine4,
                DeltaKernel::Peskin3,
                DeltaKernel::Linear2,
            ] {
                let lat = oracle_lattice(&mut rng, walled);
                let pts = oracle_points(&mut rng, &lat);
                // More points than spread chunks, so every chunk spreads
                // several points into a shared scratch field.
                assert!(pts.len() > 8 * SPREAD_MAX_CHUNKS);
                let forces: Vec<Vec3> = pts
                    .iter()
                    .map(|_| {
                        Vec3::new(
                            rng.range(-1.0, 1.0),
                            rng.range(-1.0, 1.0),
                            rng.range(-1.0, 1.0),
                        )
                    })
                    .collect();
                let case = format!("{kernel:?}, walled = {walled}");

                let mut want_field = vec![0.0; lat.node_count() * 3];
                let want_covered = apr_exec::with_pool(Arc::new(ExecPool::new(1)), || {
                    per_node_phi::spread_forces_into(&lat, &pts, &forces, kernel, &mut want_field)
                });
                let want_v: Vec<_> = pts
                    .iter()
                    .map(|&p| bits(per_node_phi::interpolate_velocity(&lat, p, kernel)))
                    .collect();
                assert!(want_field.iter().any(|&f| f != 0.0), "{case}: empty spread");

                for threads in [1, 2, 4] {
                    let pool = Arc::new(ExecPool::new(threads));
                    let (field, covered, v, advected) = apr_exec::with_pool(pool, || {
                        let mut field = vec![0.0; lat.node_count() * 3];
                        let scratch = ScratchPool::new();
                        let covered =
                            spread_forces_into(&lat, &pts, &forces, kernel, &mut field, &scratch);
                        let v = interpolate_velocities(&lat, &pts, kernel);
                        let mut advected = pts.clone();
                        advect_points(&lat, &mut advected, kernel);
                        (field, covered, v, advected)
                    });
                    let case = format!("{case}, {threads} threads");
                    assert_eq!(covered.to_bits(), want_covered.to_bits(), "{case}");
                    assert!(
                        field
                            .iter()
                            .zip(&want_field)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{case}: force field differs"
                    );
                    for (i, &p) in pts.iter().enumerate() {
                        assert_eq!(bits(v[i]), want_v[i], "{case}: velocity at {p:?}");
                        let want_p = p + per_node_phi::interpolate_velocity(&lat, p, kernel);
                        assert_eq!(bits(advected[i]), bits(want_p), "{case}: advect {p:?}");
                    }
                }
            }
        }
    }
}
