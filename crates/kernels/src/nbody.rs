//! Direct n-body force evaluation (the `O(n²)` interaction kernel of
//! paper §IV).
//!
//! The paper's requirement is only that pairwise results combine
//! associatively; we use softened gravity as the concrete interaction.
//! [`accumulate_forces`] computes the partial forces exerted by one block
//! of *source* particles on one block of *target* particles — exactly the
//! unit of work a rank performs between communication steps in the
//! replicated distributed algorithm.

/// A particle: position, velocity and mass. Velocities participate only
/// in [`integrate_step`]; the force kernel reads positions and masses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// Position (x, y, z).
    pub pos: [f64; 3],
    /// Velocity (vx, vy, vz).
    pub vel: [f64; 3],
    /// Mass (must be ≥ 0).
    pub mass: f64,
}

impl Particle {
    /// A stationary particle at `pos` with mass `mass`.
    pub fn at(pos: [f64; 3], mass: f64) -> Self {
        Particle {
            pos,
            vel: [0.0; 3],
            mass,
        }
    }
}

/// Softening length: keeps the force finite when particles coincide
/// (standard Plummer softening).
pub const SOFTENING: f64 = 1e-9;

/// Flops per pairwise interaction charged by the cost model: 3 subs,
/// 3 mults + 3 adds (r² accumulation incl. softening), ~4 for the
/// rsqrt/cube, 1 scale, 3 mults + 3 adds for the accumulate — 20 in
/// round numbers, matching `DirectNBody::default()` in `psse-core`.
pub const FLOPS_PER_INTERACTION: u64 = 20;

/// Targets per block of [`accumulate_forces`]'s vector kernel: each
/// target is one lane, so a block's positions and accumulators stay in
/// registers while the sources stream past.
const LANES: usize = 4;

/// Accumulate into `acc[i]` the gravitational acceleration exerted on
/// `targets[i]` by every particle in `sources` (skipping exact
/// self-pairs). `acc` must have `targets.len()` entries.
///
/// Associativity: calling this repeatedly with disjoint source blocks
/// sums to the full interaction — the property the replicating algorithm
/// relies on (verified by tests and by `psse-algos`).
///
/// Every output bit is the scalar loop's: targets are computed four at
/// a time, one target per lane, each lane performing that target's
/// operations in source order (DESIGN §14.1).
pub fn accumulate_forces(targets: &[Particle], sources: &[Particle], acc: &mut [[f64; 3]]) {
    assert_eq!(targets.len(), acc.len(), "one accumulator per target");
    let mut blocks = targets.chunks_exact(LANES);
    let mut accs = acc.chunks_exact_mut(LANES);
    for (t, a) in (&mut blocks).zip(&mut accs) {
        if a.iter().flatten().all(|&x| adds_zero_exactly(x)) {
            let exact = "chunks_exact yields LANES items";
            accumulate_lanes(
                t.try_into().expect(exact),
                sources,
                a.try_into().expect(exact),
            );
        } else {
            accumulate_scalar(t, sources, a);
        }
    }
    accumulate_scalar(blocks.remainder(), sources, accs.into_remainder());
}

/// `x + ±0.0` has the bits of `x`: true for every value but `-0.0`
/// (`-0.0 + +0.0 = +0.0`) and a NaN (whose payload an add may quiet).
/// A sum of two values is `-0.0` only if both are, and an add that
/// makes a NaN makes it quiet, so a lane whose accumulator starts this
/// way keeps it — and a masked increment equals the skipped one.
fn adds_zero_exactly(x: f64) -> bool {
    !x.is_nan() && x.to_bits() != (-0.0f64).to_bits()
}

/// [`accumulate_forces`] on one block of targets, one per lane. A self
/// or coincident pair cannot `continue` in a lane: its `f` is masked to
/// `+0.0` by clearing its bits (a `0·f` would be NaN for an infinite
/// mass), so the lane adds `±0.0 · d = ±0.0`, which leaves an
/// accumulator allowed by [`adds_zero_exactly`] bit for bit unchanged.
fn accumulate_lanes(
    targets: &[Particle; LANES],
    sources: &[Particle],
    acc: &mut [[f64; 3]; LANES],
) {
    let (tx, ty, tz) = (
        targets.map(|t| t.pos[0]),
        targets.map(|t| t.pos[1]),
        targets.map(|t| t.pos[2]),
    );
    let (mut ax, mut ay, mut az) = (acc.map(|a| a[0]), acc.map(|a| a[1]), acc.map(|a| a[2]));
    for s in sources {
        // Three passes over the lanes, so each is one straight-line
        // vector sequence (`sqrtpd`, `divpd`) with no branch inside.
        let (mut dx, mut dy, mut dz) = ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
        for l in 0..LANES {
            dx[l] = s.pos[0] - tx[l];
            dy[l] = s.pos[1] - ty[l];
            dz[l] = s.pos[2] - tz[l];
        }
        let mut f = [0.0; LANES];
        for l in 0..LANES {
            let r2 = dx[l] * dx[l] + dy[l] * dy[l] + dz[l] * dz[l] + SOFTENING * SOFTENING;
            let inv_r = 1.0 / r2.sqrt();
            let inv_r3 = inv_r * inv_r * inv_r;
            let keep = if r2 <= 2.0 * SOFTENING * SOFTENING {
                0
            } else {
                u64::MAX
            };
            f[l] = f64::from_bits((s.mass * inv_r3).to_bits() & keep);
        }
        for l in 0..LANES {
            ax[l] += f[l] * dx[l];
            ay[l] += f[l] * dy[l];
            az[l] += f[l] * dz[l];
        }
    }
    for l in 0..LANES {
        acc[l] = [ax[l], ay[l], az[l]];
    }
}

/// [`accumulate_forces`] one target at a time: the remainder of the
/// lane blocks, and any block whose accumulators a masked increment
/// could change.
fn accumulate_scalar(targets: &[Particle], sources: &[Particle], acc: &mut [[f64; 3]]) {
    for (t, a) in targets.iter().zip(acc.iter_mut()) {
        for s in sources {
            let dx = s.pos[0] - t.pos[0];
            let dy = s.pos[1] - t.pos[1];
            let dz = s.pos[2] - t.pos[2];
            let r2 = dx * dx + dy * dy + dz * dz + SOFTENING * SOFTENING;
            if r2 <= 2.0 * SOFTENING * SOFTENING {
                // Same position (self-interaction under block replication).
                continue;
            }
            let inv_r = 1.0 / r2.sqrt();
            let inv_r3 = inv_r * inv_r * inv_r;
            let f = s.mass * inv_r3;
            a[0] += f * dx;
            a[1] += f * dy;
            a[2] += f * dz;
        }
    }
}

/// Total gravitational potential energy of a particle set (pairwise,
/// `O(n²)`; used to sanity-check force consistency in tests).
pub fn potential_energy(particles: &[Particle]) -> f64 {
    let mut e = 0.0;
    for i in 0..particles.len() {
        for j in (i + 1)..particles.len() {
            let a = &particles[i];
            let b = &particles[j];
            let dx = a.pos[0] - b.pos[0];
            let dy = a.pos[1] - b.pos[1];
            let dz = a.pos[2] - b.pos[2];
            let r = (dx * dx + dy * dy + dz * dz + SOFTENING * SOFTENING).sqrt();
            e -= a.mass * b.mass / r;
        }
    }
    e
}

/// One leapfrog (kick-drift) step with timestep `dt` given precomputed
/// accelerations.
pub fn integrate_step(particles: &mut [Particle], acc: &[[f64; 3]], dt: f64) {
    assert_eq!(particles.len(), acc.len());
    for (p, a) in particles.iter_mut().zip(acc) {
        for d in 0..3 {
            p.vel[d] += a[d] * dt;
            p.pos[d] += p.vel[d] * dt;
        }
    }
}

/// Deterministic random particle cloud in the unit cube with unit total
/// mass.
pub fn random_particles(n: usize, seed: u64) -> Vec<Particle> {
    let mut rng = crate::rng::XorShift64::new(seed);
    let m = 1.0 / n as f64;
    (0..n)
        .map(|_| {
            Particle::at(
                [
                    rng.range_f64(0.0, 1.0),
                    rng.range_f64(0.0, 1.0),
                    rng.range_f64(0.0, 1.0),
                ],
                m,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_force(particles: &[Particle]) -> Vec<[f64; 3]> {
        let mut acc = vec![[0.0; 3]; particles.len()];
        accumulate_forces(particles, particles, &mut acc);
        acc
    }

    #[test]
    fn two_body_attraction_is_symmetric() {
        let ps = vec![
            Particle::at([0.0, 0.0, 0.0], 1.0),
            Particle::at([1.0, 0.0, 0.0], 1.0),
        ];
        let acc = total_force(&ps);
        // Accelerations point at each other with magnitude m/r² = 1.
        assert!((acc[0][0] - 1.0).abs() < 1e-6);
        assert!((acc[1][0] + 1.0).abs() < 1e-6);
        assert!(acc[0][1].abs() < 1e-12 && acc[0][2].abs() < 1e-12);
    }

    #[test]
    fn momentum_is_conserved_for_equal_masses() {
        let ps = random_particles(64, 1);
        let acc = total_force(&ps);
        // Equal masses: sum of accelerations vanishes (Newton's third law).
        for d in 0..3 {
            let sum: f64 = acc.iter().map(|a| a[d]).sum();
            assert!(sum.abs() < 1e-9, "axis {d}: net {sum}");
        }
    }

    #[test]
    fn block_decomposition_matches_monolithic() {
        // The associativity property the replicating algorithm depends
        // on: summing partial forces from source blocks equals the full
        // computation.
        let ps = random_particles(48, 2);
        let full = total_force(&ps);
        let mut partial = vec![[0.0; 3]; ps.len()];
        for chunk in ps.chunks(7) {
            accumulate_forces(&ps, chunk, &mut partial);
        }
        for (f, p) in full.iter().zip(&partial) {
            for d in 0..3 {
                assert!((f[d] - p[d]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn self_interaction_is_skipped() {
        let ps = vec![Particle::at([0.5, 0.5, 0.5], 3.0)];
        let acc = total_force(&ps);
        assert_eq!(acc[0], [0.0; 3]);
    }

    #[test]
    fn coincident_distinct_particles_do_not_blow_up() {
        let ps = vec![
            Particle::at([0.1, 0.2, 0.3], 1.0),
            Particle::at([0.1, 0.2, 0.3], 1.0),
        ];
        let acc = total_force(&ps);
        assert!(acc.iter().flatten().all(|x| x.is_finite()));
    }

    #[test]
    fn inverse_square_falloff() {
        let probe = |r: f64| {
            let ps = [
                Particle::at([0.0; 3], 0.0),
                Particle::at([r, 0.0, 0.0], 1.0),
            ];
            let mut acc = vec![[0.0; 3]; 1];
            accumulate_forces(&ps[..1], &ps[1..], &mut acc);
            acc[0][0]
        };
        let f1 = probe(1.0);
        let f2 = probe(2.0);
        assert!((f1 / f2 - 4.0).abs() < 1e-6);
    }

    #[test]
    fn integration_moves_particles() {
        let mut ps = vec![
            Particle::at([0.0, 0.0, 0.0], 1.0),
            Particle::at([1.0, 0.0, 0.0], 1.0),
        ];
        let acc = total_force(&ps);
        integrate_step(&mut ps, &acc, 0.01);
        assert!(ps[0].pos[0] > 0.0, "left particle pulled right");
        assert!(ps[1].pos[0] < 1.0, "right particle pulled left");
    }

    #[test]
    fn potential_energy_is_negative_and_scales() {
        let ps = random_particles(32, 3);
        let e = potential_energy(&ps);
        assert!(e < 0.0);
        // Doubling masses quadruples |E|.
        let heavy: Vec<Particle> = ps
            .iter()
            .map(|p| Particle {
                mass: 2.0 * p.mass,
                ..*p
            })
            .collect();
        let e2 = potential_energy(&heavy);
        assert!((e2 / e - 4.0).abs() < 1e-9);
    }

    #[test]
    fn random_particles_deterministic_unit_mass() {
        let a = random_particles(100, 7);
        let b = random_particles(100, 7);
        assert_eq!(a, b);
        let total: f64 = a.iter().map(|p| p.mass).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
