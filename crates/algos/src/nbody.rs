//! Direct n-body algorithms: the 1D ring baseline and the
//! data-replicating "1.5D" algorithm of Driscoll et al. (paper §IV,
//! "Direct n-body problem").
//!
//! Particles are split into `pr` blocks. In the **ring** algorithm
//! ([`nbody_replicated`] at `c = 1`, `M = Θ(n/p)`) each of the `p = pr` ranks owns one target
//! block and passes source blocks around a ring for `pr` steps. Each of
//! the `p − 1` shifts moves one block of `n/p` particles, so a rank
//! sends `W = Θ((p − 1)·n/p) = Θ(n)` words — the model's
//! `W = n²/(p·M)` at `M = n/p`.
//!
//! In the **replicated** algorithm ranks form a `pr × c` grid
//! (`p = pr·c`, `c | pr`). The source blocks are replicated so that layer
//! `j` only walks `pr/c` of them (`M = Θ(c·n/p)`), and partial forces are
//! sum-reduced across each target's `c`-fiber: `W = Θ(n/c)` per rank —
//! the `1/c` communication saving that makes energy independent of `p`
//! in the scaling range.

use psse_kernels::nbody::{accumulate_forces, integrate_step, Particle, FLOPS_PER_INTERACTION};
use psse_sim::collectives::TAG_WINDOW;
use psse_sim::prelude::*;

/// Words per particle on the wire (x, y, z, mass).
const PARTICLE_WORDS: usize = 4;

fn encode(particles: &[Particle]) -> Vec<f64> {
    let mut v = Vec::with_capacity(particles.len() * PARTICLE_WORDS);
    for p in particles {
        v.extend_from_slice(&p.pos);
        v.push(p.mass);
    }
    v
}

fn decode(words: &[f64]) -> Vec<Particle> {
    assert_eq!(words.len() % PARTICLE_WORDS, 0);
    words
        .chunks(PARTICLE_WORDS)
        .map(|w| Particle::at([w[0], w[1], w[2]], w[3]))
        .collect()
}

/// Check the `pr × c` layout over `n` particles (`c | pr`, `pr | n`,
/// `n > 0`) and return the block size `n/pr` and the `pr/c` source
/// blocks each layer walks.
fn layout(n: usize, pr: usize, c: usize) -> Result<(usize, usize), SimError> {
    if pr == 0 || c == 0 {
        return Err(SimError::Algorithm(
            "nbody: pr and c must be positive".into(),
        ));
    }
    if c > 1 && !pr.is_multiple_of(c) {
        return Err(SimError::Algorithm(format!(
            "nbody: replication factor c = {c} must divide the ring size pr = {pr}"
        )));
    }
    if !n.is_multiple_of(pr) || n == 0 {
        return Err(SimError::Algorithm(format!(
            "nbody: ring size pr = {pr} must divide n = {n}"
        )));
    }
    Ok((n / pr, pr / c))
}

/// Rank `(i, j)`'s walk over its layer's `steps` source blocks, starting
/// from `sources`: the forces on `targets`, with each block shifted to
/// ring neighbour `i − 1` of layer `j` while the next arrives from
/// `i + 1`, the `t`-th shift under tag `base + TAG_WINDOW + t`.
fn walk_layer(
    rank: &mut Rank,
    base: Tag,
    pr: usize,
    steps: usize,
    targets: &[Particle],
    mut sources: Vec<Particle>,
) -> Result<Vec<[f64; 3]>, SimError> {
    let me = rank.rank();
    let (i, j) = (me % pr, me / pr);
    let bs = targets.len();
    let mut acc = vec![[0.0f64; 3]; bs];
    for t in 0..steps {
        accumulate_forces(targets, &sources, &mut acc);
        rank.compute((bs as u64) * (bs as u64) * FLOPS_PER_INTERACTION);
        if t + 1 < steps {
            let next = j * pr + (i + 1) % pr;
            let prev = j * pr + (i + pr - 1) % pr;
            let tag = base.offset(TAG_WINDOW + t as u64);
            let incoming = rank.sendrecv(prev, tag, encode(&sources), next, tag)?;
            sources = decode(&incoming);
        }
    }
    Ok(acc)
}

/// Compute the accelerations with the data-replicating algorithm on a
/// `pr × c` grid (`p = pr·c` ranks, `c | pr`, `pr | n`).
///
/// Rank `(i, j)` (id `= j·pr + i`) owns target block `i` and walks the
/// `pr/c` source blocks `(i + j·pr/c + t) mod pr`; partial forces are
/// reduced across each fiber `{(i, j) : j}` to layer 0.
pub fn nbody_replicated(
    particles: &[Particle],
    pr: usize,
    c: usize,
    cfg: SimConfig,
) -> Result<(Vec<[f64; 3]>, Profile), SimError> {
    let n = particles.len();
    let (bs, steps) = layout(n, pr, c)?;
    let p = pr * c;

    let out = Machine::run(p, cfg, |rank| {
        let me = rank.rank();
        let (i, j) = (me % pr, me / pr);
        // Resident: target block, one source block, accumulator; plus a
        // transient shift buffer.
        rank.alloc((3 * bs * PARTICLE_WORDS + 3 * bs) as u64)?;

        // Initial source block for this layer (free initial layout).
        let s0 = (i + j * steps) % pr;
        let sources = particles[s0 * bs..(s0 + 1) * bs].to_vec();
        let targets = &particles[i * bs..(i + 1) * bs];
        let acc = walk_layer(rank, Tag(0), pr, steps, targets, sources)?;

        // Reduce partial forces across the fiber to layer 0.
        let flat: Vec<f64> = acc.iter().flatten().copied().collect();
        let result = if c > 1 {
            let fiber = Group::new((0..c).map(|l| l * pr + i).collect())?;
            rank.reduce_sum(Tag(1_000_000), &fiber, i, flat)?
        } else {
            Some(flat)
        };
        rank.free((3 * bs * PARTICLE_WORDS + 3 * bs) as u64)?;
        Ok(result.unwrap_or_default())
    })?;

    // Layer-0 ranks hold the reduced accelerations for their blocks.
    let mut acc = Vec::with_capacity(n);
    for i in 0..pr {
        let flat = &out.results[i];
        debug_assert_eq!(flat.len(), bs * 3);
        for chunk in flat.chunks(3) {
            acc.push([chunk[0], chunk[1], chunk[2]]);
        }
    }
    Ok((acc, out.profile))
}

/// Run `n_steps` leapfrog (kick–drift) time steps of the system with
/// forces computed by the replicating distributed algorithm each step
/// (`pr × c` grid as in [`nbody_replicated`]). Returns the final
/// particle states (positions, velocities, masses) and the cumulative
/// execution profile.
///
/// Within a step: every rank refreshes its layer's starting source block
/// from the rank that owns it (positions move every step), walks its
/// `pr/c` source blocks, **all-reduces** the partial accelerations along
/// each target fiber (so every layer integrates identically — keeping
/// the replicas consistent without a re-broadcast), and integrates its
/// target block locally.
pub fn nbody_simulate(
    particles: &[Particle],
    pr: usize,
    c: usize,
    n_steps: usize,
    dt: f64,
    cfg: SimConfig,
) -> Result<(Vec<Particle>, Profile), SimError> {
    let n = particles.len();
    let (bs, steps) = layout(n, pr, c)?;
    let p = pr * c;
    // Disjoint tag space per time step: refresh, ring shifts, reduction.
    let step_tag_stride = (steps as u64 + 4) * TAG_WINDOW;

    let out = Machine::run(p, cfg, |rank| {
        let me = rank.rank();
        let (i, j) = (me % pr, me / pr);
        rank.alloc((4 * bs * PARTICLE_WORDS + 3 * bs) as u64)?;
        let mut targets: Vec<Particle> = particles[i * bs..(i + 1) * bs].to_vec();
        let fiber = Group::new((0..c).map(|l| l * pr + i).collect())?;

        for step in 0..n_steps {
            let base = Tag(step as u64 * step_tag_stride);
            // Refresh this layer's starting source block: block s0 is the
            // (updated) target block of rank (s0, j); my block i is the
            // start block for rank ((i − j·steps) mod pr, j).
            let s0 = (i + j * steps) % pr;
            let sources: Vec<Particle> = if s0 == i {
                targets.clone()
            } else {
                let needs_mine = j * pr + (i + pr - j * steps % pr) % pr;
                let owner = j * pr + s0;
                let incoming = rank.sendrecv(needs_mine, base, encode(&targets), owner, base)?;
                decode(&incoming)
            };
            let acc = walk_layer(rank, base, pr, steps, &targets, sources)?;

            // Combine partial forces across the fiber; every layer gets
            // the total so all replicas integrate identically.
            let flat: Vec<f64> = acc.iter().flatten().copied().collect();
            let summed = if c > 1 {
                let tag = base.offset((steps as u64 + 1) * TAG_WINDOW);
                rank.allreduce_sum_group(tag, &fiber, flat)?
            } else {
                flat
            };
            let total_acc: Vec<[f64; 3]> =
                summed.chunks(3).map(|ch| [ch[0], ch[1], ch[2]]).collect();
            integrate_step(&mut targets, &total_acc, dt);
            // 6 flops per particle (3 kicks + 3 drifts).
            rank.compute(6 * bs as u64);
        }
        rank.free((4 * bs * PARTICLE_WORDS + 3 * bs) as u64)?;
        Ok(if j == 0 {
            let mut flat = Vec::with_capacity(bs * 7);
            for pt in &targets {
                flat.extend_from_slice(&pt.pos);
                flat.extend_from_slice(&pt.vel);
                flat.push(pt.mass);
            }
            flat
        } else {
            Vec::new()
        })
    })?;

    let mut final_particles = Vec::with_capacity(n);
    for i in 0..pr {
        for ch in out.results[i].chunks(7) {
            final_particles.push(Particle {
                pos: [ch[0], ch[1], ch[2]],
                vel: [ch[3], ch[4], ch[5]],
                mass: ch[6],
            });
        }
    }
    Ok((final_particles, out.profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_kernels::nbody::random_particles;

    fn serial_forces(particles: &[Particle]) -> Vec<[f64; 3]> {
        let mut acc = vec![[0.0; 3]; particles.len()];
        accumulate_forces(particles, particles, &mut acc);
        acc
    }

    fn assert_forces_match(a: &[[f64; 3]], b: &[[f64; 3]]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            for d in 0..3 {
                assert!(
                    (x[d] - y[d]).abs() < 1e-9 * (1.0 + y[d].abs()),
                    "{x:?} vs {y:?}"
                );
            }
        }
    }

    #[test]
    fn ring_matches_serial() {
        let ps = random_particles(48, 1);
        let serial = serial_forces(&ps);
        for p in [1usize, 2, 4, 8, 16] {
            let (acc, _) = nbody_replicated(&ps, p, 1, SimConfig::counters_only()).unwrap();
            assert_forces_match(&acc, &serial);
        }
    }

    #[test]
    fn replicated_matches_serial() {
        let ps = random_particles(48, 2);
        let serial = serial_forces(&ps);
        for (pr, c) in [(4usize, 2usize), (4, 4), (8, 2), (8, 4), (12, 3)] {
            let (acc, _) = nbody_replicated(&ps, pr, c, SimConfig::counters_only()).unwrap();
            assert_forces_match(&acc, &serial);
        }
    }

    #[test]
    fn interaction_flops_are_exact() {
        let n = 32;
        let ps = random_particles(n, 3);
        let (_, profile) = nbody_replicated(&ps, 4, 1, SimConfig::counters_only()).unwrap();
        // Every rank computes bs·n interactions in total: bs² per step,
        // pr steps.
        let per_rank = (n as u64 / 4) * (n as u64) * FLOPS_PER_INTERACTION;
        assert_eq!(profile.max_flops(), per_rank);
        assert_eq!(profile.total_flops(), 4 * per_rank);
    }

    #[test]
    fn replication_cuts_words_per_rank() {
        // Fixed block size (same pr): layer-parallel replication divides
        // the ring traffic by c.
        let n = 64;
        let ps = random_particles(n, 4);
        let (_, c1) = nbody_replicated(&ps, 16, 1, SimConfig::counters_only()).unwrap();
        let (_, c4) = nbody_replicated(&ps, 16, 4, SimConfig::counters_only()).unwrap();
        let w1 = c1.max_words_sent() as f64;
        let w4 = c4.max_words_sent() as f64;
        assert!(
            w4 < 0.5 * w1,
            "replication should cut ring words: c=1 {w1}, c=4 {w4}"
        );
    }

    #[test]
    fn flops_strong_scale_with_c() {
        let n = 64;
        let ps = random_particles(n, 5);
        let (_, c1) = nbody_replicated(&ps, 16, 1, SimConfig::counters_only()).unwrap();
        let (_, c4) = nbody_replicated(&ps, 16, 4, SimConfig::counters_only()).unwrap();
        // 4x the ranks, same total interactions: per-rank flops drop 4x
        // (up to the small reduction adds).
        let ratio = c1.max_flops() as f64 / c4.max_flops() as f64;
        assert!((3.0..=4.2).contains(&ratio), "flop ratio {ratio}");
    }

    fn serial_simulate(particles: &[Particle], n_steps: usize, dt: f64) -> Vec<Particle> {
        let mut ps = particles.to_vec();
        for _ in 0..n_steps {
            let mut acc = vec![[0.0; 3]; ps.len()];
            accumulate_forces(&ps, &ps, &mut acc);
            integrate_step(&mut ps, &acc, dt);
        }
        ps
    }

    #[test]
    fn simulation_matches_serial_integrator() {
        let ps = random_particles(32, 11);
        let n_steps = 5;
        let dt = 1e-3;
        let serial = serial_simulate(&ps, n_steps, dt);
        for (pr, c) in [(4usize, 1usize), (8, 2), (8, 4)] {
            let (out, _) =
                nbody_simulate(&ps, pr, c, n_steps, dt, SimConfig::counters_only()).unwrap();
            for (a, b) in out.iter().zip(&serial) {
                for d in 0..3 {
                    assert!(
                        (a.pos[d] - b.pos[d]).abs() < 1e-9,
                        "(pr={pr}, c={c}) pos {:?} vs {:?}",
                        a.pos,
                        b.pos
                    );
                    assert!((a.vel[d] - b.vel[d]).abs() < 1e-9);
                }
                assert_eq!(a.mass, b.mass);
            }
        }
    }

    #[test]
    fn simulation_conserves_momentum() {
        let ps = random_particles(32, 12);
        let (out, _) = nbody_simulate(&ps, 8, 2, 10, 1e-3, SimConfig::counters_only()).unwrap();
        // Equal masses + Newton's third law: total momentum stays ~0.
        for d in 0..3 {
            let mom: f64 = out.iter().map(|p| p.mass * p.vel[d]).sum();
            assert!(mom.abs() < 1e-9, "axis {d}: momentum {mom}");
        }
    }

    #[test]
    fn simulation_replication_still_scales() {
        // Multi-step runs keep the strong-scaling property: same work,
        // c times the ranks, ~1/c the makespan.
        let ps = random_particles(128, 13);
        let cfg = SimConfig {
            gamma_t: 1e-9,
            beta_t: 1e-9,
            alpha_t: 1e-8,
            ..SimConfig::default()
        };
        let (_, c1) = nbody_simulate(&ps, 16, 1, 3, 1e-3, cfg.clone()).unwrap();
        let (_, c4) = nbody_simulate(&ps, 16, 4, 3, 1e-3, cfg).unwrap();
        let speedup = c1.makespan / c4.makespan;
        assert!(speedup > 2.3, "multi-step speedup {speedup}");
    }

    #[test]
    fn simulation_rejects_bad_configs() {
        let ps = random_particles(32, 14);
        assert!(nbody_simulate(&ps, 5, 1, 1, 1e-3, SimConfig::counters_only()).is_err());
        assert!(nbody_simulate(&ps, 8, 3, 1, 1e-3, SimConfig::counters_only()).is_err());
        assert!(nbody_simulate(&[], 1, 1, 1, 1e-3, SimConfig::counters_only()).is_err());
    }

    #[test]
    fn zero_steps_returns_input() {
        let ps = random_particles(16, 15);
        let (out, profile) =
            nbody_simulate(&ps, 4, 1, 0, 1e-3, SimConfig::counters_only()).unwrap();
        assert_eq!(out, ps);
        assert_eq!(profile.total_flops(), 0);
    }

    #[test]
    fn rejects_bad_configurations() {
        let ps = random_particles(48, 6);
        assert!(nbody_replicated(&ps, 5, 1, SimConfig::counters_only()).is_err()); // 5 ∤ 48
        assert!(nbody_replicated(&ps, 8, 3, SimConfig::counters_only()).is_err()); // 3 ∤ 8
        assert!(nbody_replicated(&ps, 0, 1, SimConfig::counters_only()).is_err());
        assert!(nbody_replicated(&[], 1, 1, SimConfig::counters_only()).is_err());
    }

    #[test]
    fn runtime_scales_down_with_c_at_fixed_block_size() {
        // The headline behaviour at the T level: same per-rank memory
        // (same pr ⇒ same block size), c times the processors, ~1/c the
        // runtime.
        let n = 128;
        let ps = random_particles(n, 7);
        let cfg = SimConfig {
            gamma_t: 1e-9,
            beta_t: 1e-9,
            alpha_t: 1e-8,
            ..SimConfig::default()
        };
        let (_, c1) = nbody_replicated(&ps, 16, 1, cfg.clone()).unwrap();
        let (_, c4) = nbody_replicated(&ps, 16, 4, cfg).unwrap();
        let speedup = c1.makespan / c4.makespan;
        assert!(
            speedup > 2.5,
            "expected ≈4x speedup from 4x replication, got {speedup}"
        );
    }
}
